"""Span tracing at the benchmark's edge.

The tracer swaps public functions of the solver's layers for timing wrappers
while it is active and restores them on exit, so nothing under ``src/``
changes.  Spans (layer, start, end, parent) are kept in memory; a layer's self
time is its span's duration minus the durations of its child spans.  Several
functions may feed one layer (``step_with_repair`` is part of the step-length
layer, every ``build_h_*`` of the preconditioner-build layer); a span nested
inside a span of its own layer is not counted as a new call.

A few wrappers also read what the wrapped call returned or raised: CG
iterations and accepted stagnations from ``pcg_solve``, V columns from the
preconditioner builds, factorization failures (each of which makes the
driver fall back to the diagonal ``beta`` kind), the computed Kronecker
bytes of ``low_rank_factor``, and the early stops, cap hits and line-search
failures of the PDAL inner solve.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

from lorank.linalg import NotPositiveDefinite

# (module, attribute, layer).  Imported names are patched in every module that
# calls them: ``pcg_solve`` and ``dimacs`` are looked up in the driver modules.
MODULE_FUNCTIONS = [
    ("lorank.ip", "make_scaling", "ip.make_scaling"),
    ("lorank.ip", "schur_matvec", "ip.schur_matvec"),
    ("lorank.ip", "recover_directions", "ip.recover_directions"),
    ("lorank.ip", "step_length", "ip.step_length"),
    ("lorank.ip", "step_with_repair", "ip.step_length"),
    ("lorank.ip", "pcg_solve", "pcg.pcg_solve"),
    ("lorank.ip", "dimacs", "model.dimacs"),
    ("lorank.pdal", "pcg_solve", "pcg.pcg_solve"),
    ("lorank.pdal", "dimacs", "model.dimacs"),
    ("lorank.pdal", "evaluate_point", "pdal.evaluate_point"),
    ("lorank.pdal", "hessian_matvec", "pdal.hessian_matvec"),
    ("lorank.pdal", "_pdal_preconditioner", "pdal.preconditioner"),
    ("lorank.pdal", "pd_residuals", "pdal.pd_residuals"),
    ("lorank.pdal", "inner_solve", "pdal.inner_solve"),
    ("lorank.pdal", "pd_error", "pdal.pd_error"),
    ("lorank.precond", "spectral_split", "precond.spectral_split"),
    ("lorank.precond", "low_rank_factor", "precond.low_rank_factor"),
    ("lorank.precond", "build_h_alpha", "precond.build_h"),
    ("lorank.precond", "build_h_beta", "precond.build_h"),
    ("lorank.precond", "build_h_gamma", "precond.build_h"),
    ("lorank.precond", "build_h_delta", "precond.build_h"),
    ("lorank.precond", "build_h_tilde", "precond.build_h"),
]
METHODS = [("lorank.precond", "SmwPreconditioner", "apply_inv", "precond.apply_inv")]
# Layers the benchmark calls itself; wrapped with Tracer.wrap at the call site.
SETUP_LAYERS = ["truss.gen_ground", "truss.assemble_sdp", "model.write_sdpa", "model.load_sdpa"]
DRIVER_LAYERS = ["ip.ip_solve", "pdal.pdal_solve"]
SOLVE_LAYERS = DRIVER_LAYERS + sorted({entry[-1] for entry in MODULE_FUNCTIONS + METHODS})

MIB = 1024.0 * 1024.0


class Tracer:
    """In-memory span recorder.  ``spans`` holds one list per finished or
    open span: [layer, start, end, parent index, child seconds]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.kron_mb = 0.0    # largest computed Kronecker size of one call
        self._stack: list[int] = []
        self._inspect = {
            "pcg.pcg_solve": self._on_pcg,
            "precond.build_h": self._on_build_h,
            "precond.low_rank_factor": self._on_low_rank_factor,
            "pdal.inner_solve": self._on_inner_solve,
        }

    def wrap(self, fn, layer: str):
        """``fn`` recording one span of ``layer`` per call."""
        spans, stack = self.spans, self._stack
        inspect = self._inspect.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [layer, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                rec[1], rec[2] = start, end
                if parent >= 0:
                    spans[parent][4] += end - start
                if inspect is not None:
                    inspect(args, result, error)

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, layer in MODULE_FUNCTIONS:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(getattr(mod, attr), layer))
            for mod_name, cls_name, attr, layer in METHODS:
                cls = getattr(importlib.import_module(mod_name), cls_name)
                saved.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, self.wrap(cls.__dict__[attr], layer))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _on_pcg(self, args, result, error):
        if result is None:
            return
        rep = result[1]
        self.counts["pcg.iterations"] += rep.iterations
        # the drivers accept a stagnated solve at the float64 floor when
        # relres <= 0.1 and treat it as a usable direction
        if not rep.converged and rep.stagnated and rep.relres <= 0.1:
            self.counts["pcg.stagnations_accepted"] += 1

    def _on_build_h(self, args, result, error):
        if result is not None:
            self.counts["precond.builds"] += 1
            self.counts["precond.smw_cols"] += result.rank
        elif isinstance(error, NotPositiveDefinite):
            # both drivers catch this and build the diagonal beta kind instead
            self.counts["precond.fallbacks"] += 1

    def _on_low_rank_factor(self, args, result, error):
        left, right = args[1], args[2]
        m, k = right.shape[0], left.shape[1]
        # one dense (m^2, m) Kronecker block per outlier column, float64
        self.kron_mb = max(self.kron_mb, k * m**3 * 8 / MIB)

    def _on_inner_solve(self, args, result, error):
        if result is None:
            return
        self.counts["pdal.early_stops"] += int(result.early_stop)
        self.counts["pdal.ls_failures"] += result.line_search_failures
        # a line-search failure also ends the inner solve, possibly at its
        # last Newton step; only the fall-through at max_inner is a cap hit
        if not (result.converged or result.early_stop or result.line_search_failures):
            self.counts["pdal.inner_cap_hits"] += 1

    def layer_totals(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per layer: entries ("calls"), summed self time and summed span
        duration over the spans recorded since index ``first``."""
        out: dict[str, dict[str, float]] = {}
        spans = self.spans
        for rec in spans[first:]:
            layer, start, end, parent, child = rec
            row = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "s": 0.0})
            row["self_s"] += (end - start) - child
            if parent < first or spans[parent][0] != layer:
                row["calls"] += 1
                row["s"] += end - start
        return out

    def reset_counters(self):
        self.counts.clear()
        self.kron_mb = 0.0
