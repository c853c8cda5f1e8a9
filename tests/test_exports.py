"""The package's top-level names that the benchmark scripts (perfbench/*.py)
and README's "Library use" example read as ``lorank.<name>`` must resolve on
``import lorank`` and be listed in ``lorank.__all__``; a trim of the exports
that drops one of them breaks the benchmark or the documented example."""

import importlib.util
import re
from pathlib import Path

import pytest

import lorank

ROOT = Path(__file__).resolve().parents[1]


def library_use_example() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def read_names(text: str) -> set[str]:
    """The ``lorank.<name>`` attributes in ``text``, without submodules
    (``lorank.pdal``) and dunders (``lorank.__file__``)."""
    names = set(re.findall(r"(?<![\w.])lorank\.([A-Za-z_]\w*)", text))
    return {name for name in names
            if not name.startswith("__") and importlib.util.find_spec(f"lorank.{name}") is None}


SOURCES = sorted((ROOT / "perfbench").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_benchmark_names_are_exported(path):
    for name in read_names(path.read_text()):
        assert hasattr(lorank, name) and name in lorank.__all__, (path.name, name)


def test_readme_example_names_are_exported():
    names = read_names(library_use_example())
    assert {"gen_ground", "assemble_sdp", "ip_solve", "pdal_solve"} <= names
    for name in names:
        assert hasattr(lorank, name) and name in lorank.__all__, name


def test_benchmark_reads_names():
    """The scan finds the names the harness calls, so an empty scan cannot
    pass for a clean one."""
    assert {"SdpProblem", "gen_ground", "load_sdpa", "SolverFailure"} <= read_names(
        (ROOT / "perfbench" / "harness.py").read_text())


def test_all_resolves():
    for name in lorank.__all__:
        assert hasattr(lorank, name), name
