"""Spans around the package's public functions, recorded from outside.

Each wrapper replaces a function under the name its caller looks it up by
(for example ``fathartogs.projection.integrate``, which is what
``project_numeric`` calls), records a span (name, start, end, parent, op id)
in memory and, for the kernels, the element count of the result.  Nothing in
``src/`` is edited; :meth:`Tracer.uninstall` restores the originals.

Which end-to-end figure each layer figure should move, and where:

* ``kernel.series.*``: ``wall_s`` on ``kernel_oracle``;
* ``kernel.closed.*``, ``quadrature.integrate.*``, ``projection.numeric.*``:
  ``wall_s`` and ``op_p50_s`` on ``reproducing``;
* ``kernel.abs_polar.*``, ``analysis.schur.*``: ``wall_s`` on ``schur_sweep``;
* ``quadrature.disc.*``, ``projection.exact.*``, ``analysis.divergence.s``,
  ``analysis.disc_checks.s``, ``analysis.probe.s``, ``cli.*``: ``wall_s`` and
  ``op_p50_s`` on ``cli_reports``;
* ``geometry.*``: ``setup_s`` everywhere, where it is predicted not to move.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from fathartogs import analysis, cli, geometry, kernel, projection


def _series_terms(k: int, m: int) -> int:
    """Coefficients (Horner steps) ``kernel_series_st`` evaluates per pair at
    truncation degree ``m``: one row per n = a2 + 1, a1 from its membership
    floor up to m - k|n|."""
    terms = 0
    for n_abs in range(m // k + 1):
        for n in ((n_abs,) if n_abs == 0 else (n_abs, -n_abs)):
            a_min = max(0, -k * n)
            d_max = m - k * n_abs
            if d_max >= a_min:
                terms += d_max - a_min + 1
    return terms


def _count_series(args, kwargs, result) -> dict:
    d, spec = args[0], args[3]
    pairs = int(result[0].size)
    return {"pairs": pairs, "terms": pairs * _series_terms(d.k_int(), spec.max_degree)}


def _count_evals(args, kwargs, result) -> dict:
    return {"evals": int(result.size)}


def _count_report(args, kwargs, result) -> dict:
    # the deterministic body only; the metadata block carries a timestamp
    doc = json.loads(Path(args[0]).read_text())
    return {"bytes": len(json.dumps(doc["report"], sort_keys=True, indent=2).encode())}


def _count_csv(args, kwargs, result) -> dict:
    path = Path(args[0])
    return {"bytes": path.stat().st_size if path.exists() else 0}


# (module, attribute, span name, counter)
WRAPS = [
    (kernel, "kernel_series_st", "kernel.series", _count_series),
    (kernel, "kernel_closed_st", "kernel.closed", _count_evals),
    (projection, "kernel_closed_st", "kernel.closed", _count_evals),
    (analysis, "kernel_abs_polar", "kernel.abs_polar", _count_evals),
    (projection, "integrate", "quadrature.integrate", None),
    (analysis, "disc_kernel_moment", "quadrature.disc", None),
    (projection, "project_numeric", "projection.numeric", None),
    (projection, "project_monomial", "projection.exact", None),
    (analysis, "project_monomial", "projection.exact", None),
    (analysis, "verify_schur", "analysis.schur", None),
    (analysis, "divergence_scan", "analysis.divergence", None),
    (analysis, "verify_calculus1", "analysis.disc_checks", None),
    (analysis, "verify_disc_log", "analysis.disc_checks", None),
    (analysis, "norm_ratio_probe", "analysis.probe", None),
    (geometry, "sample_uniform", "geometry", None),
    (analysis, "boundary_ladder", "geometry", None),
    (analysis, "aux_h", "geometry", None),
    (cli, "main", "cli.main", None),
    (cli, "write_report", "cli.write_report", _count_report),
    (cli, "write_csv", "cli.write_csv", _count_csv),
]


class Span:
    """One call; ``id`` is its index in :attr:`Tracer.spans`."""

    __slots__ = ("id", "name", "parent", "op", "start", "end", "counts")

    def __init__(self, id: int, name: str, parent: Optional[int], op: str):
        self.id, self.name, self.parent, self.op = id, name, parent, op
        self.start = self.end = 0.0
        self.counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``op`` labels the spans that follow."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def _wrap(self, original: Callable, name: str, counter) -> Callable:
        @wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, parent, self.op)
            self.spans.append(span)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, counter in WRAPS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                 "start": s.start, "end": s.end, **s.counts} for s in self.spans]
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(rows))
        os.replace(tmp, path)


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer figures per traced pass; set-up spans feed only
    ``geometry.setup_s``.  Rates and shares are ratios of totals."""
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.duration
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    setup_geometry = 0.0
    nodes = 0  # closed-form evaluations made inside integrate
    for s in spans:
        if s.op == "setup":
            if s.name == "geometry":
                setup_geometry += s.duration
            continue
        total[s.name] += s.duration
        self_s[s.name] += s.duration - child_s[s.id]
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value
        if s.name == "kernel.closed" and s.parent is not None \
                and spans[s.parent].name == "quadrature.integrate":
            nodes += s.counts["evals"]

    def per_pass(x):
        return x / passes

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    return {
        "kernel.series.s": per_pass(total["kernel.series"]),
        "kernel.series.pairs_per_s": ratio(counts["kernel.series.pairs"], total["kernel.series"]),
        "kernel.series.terms": per_pass(counts["kernel.series.terms"]),
        "kernel.closed.s": per_pass(total["kernel.closed"]),
        "kernel.closed.evals": per_pass(counts["kernel.closed.evals"]),
        "kernel.closed.evals_per_s": ratio(counts["kernel.closed.evals"], total["kernel.closed"]),
        "kernel.abs_polar.s": per_pass(total["kernel.abs_polar"]),
        "kernel.abs_polar.evals": per_pass(counts["kernel.abs_polar.evals"]),
        "kernel.abs_polar.evals_per_s": ratio(counts["kernel.abs_polar.evals"],
                                              total["kernel.abs_polar"]),
        "quadrature.integrate.calls": per_pass(calls["quadrature.integrate"]),
        "quadrature.integrate.self_s": per_pass(self_s["quadrature.integrate"]),
        "quadrature.integrate.nodes_per_call": ratio(nodes, calls["quadrature.integrate"]),
        "quadrature.integrate.ns_per_node": ratio(total["quadrature.integrate"], nodes, 1e9),
        "quadrature.disc.calls": per_pass(calls["quadrature.disc"]),
        "quadrature.disc.s": per_pass(total["quadrature.disc"]),
        "projection.numeric.calls": per_pass(calls["projection.numeric"]),
        "projection.numeric.self_s": per_pass(self_s["projection.numeric"]),
        "projection.exact.calls": per_pass(calls["projection.exact"]),
        "projection.exact.s": per_pass(total["projection.exact"]),
        "analysis.schur.s": per_pass(total["analysis.schur"]),
        "analysis.schur.self_s": per_pass(self_s["analysis.schur"]),
        "analysis.schur.abs_polar_share": ratio(total["kernel.abs_polar"],
                                                total["analysis.schur"]),
        "analysis.divergence.s": per_pass(total["analysis.divergence"]),
        "analysis.disc_checks.s": per_pass(total["analysis.disc_checks"]),
        "analysis.probe.s": per_pass(total["analysis.probe"]),
        "geometry.s": per_pass(total["geometry"]),
        "geometry.setup_s": setup_geometry,
        "cli.main.self_s": per_pass(self_s["cli.main"]),
        "cli.write_report.s": per_pass(total["cli.write_report"]),
        "cli.write_csv.s": per_pass(total["cli.write_csv"]),
        "cli.report_bytes": per_pass(counts["cli.write_report.bytes"]
                                     + counts["cli.write_csv.bytes"]),
    }
