"""Spans and counters recorded around kvgeom's layer functions.

The tracer wraps functions of the program from outside: it replaces module
and class attributes with wrappers for the duration of a traced phase and
puts the originals back afterwards.  The program's source is not touched.

A span is (name, start, end, parent, op id).  Spans are kept in memory and
written once, at the end of the run.  A layer's self time is its span's
duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

# counter callbacks: (counts, minima, args, result) -> None, run after a call


def _count_solve(counts, minima, args, result):
    rows = args[0]
    _, _, (rank_lhs, _) = result
    counts["kvsolve.unknowns"] += len(rows[0]) if rows else 0
    counts["kvsolve.rows"] += len(rows)
    counts["kvsolve.rank"] += rank_lhs


def _count_exp_matrices(counts, minima, args, result):
    counts["matrixlie.exp_chart.matrices"] += np.atleast_2d(np.asarray(args[1])).shape[0]


def _count_log_matrices(counts, minima, args, result):
    M = np.asarray(args[1])
    counts["matrixlie.log_chart.matrices"] += M.size // (M.shape[-1] * M.shape[-2])


def _count_sigma_points(counts, minima, args, result):
    counts["geom.sigma.points"] += np.asarray(args[1]).shape[0]


def _count_matmuls(counts, minima, args, result):
    A, K = np.asarray(args[1]), args[2]
    counts["geom.powers.matmuls"] += (K - 1) * int(np.prod(A.shape[:-2]))


def _track_min_det(counts, minima, args, result):
    det = float(np.min(np.linalg.det(args[0])))
    minima["geom.gauge.min_det"] = min(minima.get("geom.gauge.min_det", det), det)


# (span name, module or class path inside kvgeom, attribute, counter)
LAYER_FUNCTIONS = [
    ("freelie.bch", "freelie", "bch", None),
    ("freelie.lie_bracket", "freelie", "lie_bracket", None),
    ("freelie.ad_series_apply", "freelie", "ad_series_apply", None),
    ("freelie.assoc_to_lyndon", "freelie", "assoc_to_lyndon", None),
    ("cyclic.delta_derivative", "cyclic", "delta_derivative", None),
    ("cyclic.linear_part_to_assoc", "cyclic", "linear_part_to_assoc", None),
    ("cyclic.cyclic_reduce", "cyclic", "cyclic_reduce", None),
    ("cyclic.kv2_residual", "cyclic", "kv2_residual", None),
    ("kvsolve.eq1_rows", "kvsolve", "_eq1_rows", None),
    ("kvsolve.eq2_rows", "kvsolve", "_eq2_rows", None),
    ("kvsolve.solve_exact", "kvsolve", "solve_exact", _count_solve),
    ("kvsolve.kv1_residual", "kvsolve", "kv1_residual", None),
    ("matrixlie.exp_chart", "matrixlie.QuadraticLieAlgebra", "exp_chart", _count_exp_matrices),
    ("matrixlie.log_chart", "matrixlie.QuadraticLieAlgebra", "log_chart", _count_log_matrices),
    ("matrixlie.logm", "matrixlie", "_logm_checked", None),
    ("matrixlie.analytic_ad", "matrixlie", "analytic_ad", None),
    ("matrixlie.kappa_t", "matrixlie", "kappa_t", None),
    ("matrixlie.phi_t", "matrixlie", "phi_t", None),
    ("geom.sigma", "geom._Engine", "sigma", _count_sigma_points),
    ("geom.powers", "geom._Engine", "_powers", _count_matmuls),
    ("geom.varpi", "geom._Engine", "_varpi_from_powers", None),
    ("geom.moser_w", "geom._Engine", "moser_w", None),
    ("geom.alpha_gauge", "geom._Engine", "_alpha_gauge", None),
    ("geom.extract", "geom._Engine", "extract", None),
    ("geom.flow", "geom._Engine", "flow", None),
    ("geom.divergence", "geom._Engine", "_divergence_w", None),
    ("geom.gauge", "geom._Engine", "_check_gauge", _track_min_det),
    ("cli.emit", "cli", "_emit", None),     # counts cli.report_bytes
]


class Tracer:
    """Records spans and counts around kvgeom's layer functions.

    Only calls made inside an `op` block are recorded, so the checks the
    benchmark runs between ops leave no spans.
    """

    def __init__(self, outside_domain_error: type):
        self.spans: List[list] = []        # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.minima: Dict[str, float] = {}
        self.absent: List[str] = []
        self._outside = outside_domain_error
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._next_op = 0
        self._op_hit_edge = False
        self._saved: List[tuple] = []

    # -- recording ------------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def op(self, name: str):
        """One operation of the workload: the root span of its layer spans."""
        self._op = self._next_op
        self._next_op += 1
        self._op_hit_edge = False
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            if self._op_hit_edge:
                self.counts["geom.outside_domain"] += 1
            self._op = None

    def _wrap(self, name: str, fn: Callable, counter) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            before = sys.stdout.tell() if name == "cli.emit" else 0
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except self._outside:
                self._op_hit_edge = True
                raise
            finally:
                self._close(idx)
            if name == "cli.emit":
                self.counts["cli.report_bytes"] += sys.stdout.tell() - before
            elif counter is not None:
                counter(self.counts, self.minima, args, result)
            return result
        return traced

    # -- installing the wrappers ----------------------------------------------
    def install(self, package) -> None:
        """Wrap every function of LAYER_FUNCTIONS that the program has."""
        self.absent = []
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for name, path, attr, counter in LAYER_FUNCTIONS:
            owner = package
            try:
                for part in path.split("."):
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (AttributeError, KeyError):
                self.absent.append(name)
                continue
            if isinstance(owner, type):
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(name, fn, counter)
                self._patch(owner, attr, staticmethod(wrapped)
                            if isinstance(raw, staticmethod) else wrapped)
                continue
            # module functions: also replace the names other modules imported
            wrapped = self._wrap(name, raw, counter)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- results --------------------------------------------------------------
    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total_s (inclusive) and self_s; a name
        without spans reads as zeros."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
        return out

    def write(self, path, header: dict) -> None:
        """Write the header and then one span per line, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
