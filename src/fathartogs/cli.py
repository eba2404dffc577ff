"""Command-line front end: run experiments, persist machine-readable reports.

Every run writes a JSON report containing the parsed flags (defaults
included) plus the experiment outcome,
and optionally a flat CSV of the sample rows for external plotting.
Reports are deterministic for a fixed configuration; wall-clock data
lives in a separate ``metadata`` block.  Exit codes: 0 when the verdict
is consistent or an expected violation, 1 on usage errors, 2 on
numerical failure or an unexpected violation, 3 when inconclusive.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, geometry, kernel, projection, quadrature

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "FATHARTOGS_OUTPUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_INCONCLUSIVE = 3


class _Parser(argparse.ArgumentParser):
    # spec'd exit code for bad flags is 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x) -> str:
    """Full-precision decimal formatting so cross-run diffs are meaningful."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return {"numerator": obj.numerator, "denominator": obj.denominator,
                "value": float(obj)}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(path: Path, report_body: dict, elapsed: float) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "report": _jsonable(report_body),
        "metadata": {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": elapsed,
        },
    }
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        return
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(keys)
    for row in rows:
        w.writerow([_fmt(row.get(k, "")) for k in keys])
    _atomic_write(path, buf.getvalue())


def _quad_from_args(args) -> quadrature.QuadratureSpec:
    """The spec of the quadrature flags the command takes; defaults elsewhere."""
    given = vars(args)
    return quadrature.QuadratureSpec(**{f.name: given[f.name]
                                        for f in dataclasses.fields(quadrature.QuadratureSpec)
                                        if f.name in given})


def _parse_deltas(text: str) -> list[float]:
    """Accept '1e-2..1e-8' (decade steps) or a comma list."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = float(lo_s), float(hi_s)
        if not (lo > 0.0 and hi > 0.0):
            raise ValueError(f"range ends must be positive, got {text}")
        n = int(round(abs(np.log10(hi) - np.log10(lo)))) + 1
        return list(np.geomspace(lo, hi, n))
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_monomial(text: str) -> projection.MonomialInput:
    """Parse 'a1,a2:b1,b2' into a monomial input."""
    hol_s, anti_s = text.split(":", 1)
    a1, a2 = (int(x) for x in hol_s.split(","))
    b1, b2 = (int(x) for x in anti_s.split(","))
    return projection.MonomialInput(kernel.MultiIndex(a1, a2), kernel.MultiIndex(b1, b2))


def _at_least(floor: int):
    """An int flag type that rejects values below ``floor``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    return parse


def _deltas(text: str) -> str:
    """A ``--deltas`` value naming at least the 4 core offsets in (0, 1)
    that growth classification needs; the text itself is kept, as the
    report's config records the flag as given."""
    deltas = _parse_deltas(text)
    if len(deltas) < 4:
        raise argparse.ArgumentTypeError(f"need at least 4 deltas, got {len(deltas)}")
    if not all(0.0 < x < 1.0 for x in deltas):
        raise argparse.ArgumentTypeError(f"deltas must lie in (0, 1), got {text}")
    return text


def _tolerance(text: str) -> float:
    """A finite, positive tolerance; NaN would compare false against every
    error and also write a non-JSON ``NaN`` into the report."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _offset(text: str) -> float:
    """A boundary offset in (0, 0.5), the range ``QuadratureSpec`` accepts."""
    if not 0.0 < float(text) < 0.5:
        raise argparse.ArgumentTypeError(f"must lie in (0, 0.5), got {text}")
    return float(text)


_DEFAULT_FAMILY = "0,0:0,1;1,0:0,0;0,0:1,0;1,1:0,1;0,1:0,0;2,0:0,1"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fathartogs",
                     description="experiments on the Bergman projection of "
                                 "fat Hartogs triangles")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, needs_k=True):
        if needs_k:
            p.add_argument("--k", type=float, required=True,
                           help="domain exponent (integer for kernel paths)")
        p.add_argument("--output-dir", type=Path,
                       default=Path(os.environ.get(OUTPUT_DIR_ENV, ".")))
        p.add_argument("--format", choices=["json", "csv"], default="json",
                       help="'csv' additionally writes the flat sample table")

    # quadrature flags go only to the commands that read them
    # QuadratureSpec rejects node counts below 2
    def node_counts(p, radial=_at_least(2), angular=_at_least(2)):
        p.add_argument("--radial-nodes", type=radial, default=10)
        p.add_argument("--angular-nodes", type=angular, default=24)

    # the disc rules would ignore smaller counts than these
    disc_counts = (_at_least(quadrature.DISC_MIN_RADIAL_NODES),
                   _at_least(quadrature.DISC_MIN_ANGULAR_NODES))

    p = sub.add_parser("kernel-check", help="closed form vs series on a grid")
    common(p)
    p.add_argument("--grid", type=_at_least(2), default=16)
    p.add_argument("--tolerance", type=_tolerance, default=1e-6)

    p = sub.add_parser("range", help="critical range and Schur-window algebra")
    common(p)

    p = sub.add_parser("schur", help="Schur-test verification at one exponent")
    common(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--levels", type=_at_least(2), default=6)

    p = sub.add_parser("calculus1", help="weighted disc-integral plateau check")
    common(p, needs_k=False)
    node_counts(p, *disc_counts)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--levels", type=_at_least(4), default=12)

    p = sub.add_parser("disc-log", help="log-law of the disc kernel mass")
    common(p, needs_k=False)
    node_counts(p, *disc_counts)
    p.add_argument("--levels", type=_at_least(4), default=12)

    p = sub.add_parser("divergence", help="L^p divergence scan for 1/z2")
    common(p)
    p.add_argument("--p-grid", type=str, default="",
                   help="comma list of exponents p to classify")
    p.add_argument("--deltas", type=_deltas, default="1e-2..1e-10",
                   help="core offsets, '1e-2..1e-10' or comma list")

    p = sub.add_parser("probe", help="norm-ratio probe over a monomial family")
    common(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--family", type=str, default=_DEFAULT_FAMILY,
                   help="semicolon list of monomials 'a1,a2:b1,b2'")

    p = sub.add_parser("project", help="project one monomial both ways")
    common(p)
    node_counts(p)
    p.add_argument("--boundary-offset", type=_offset, default=1e-6)
    p.add_argument("--strategy", choices=["tensor_polar", "monte_carlo", "stratified_mc"],
                   default="tensor_polar")
    p.add_argument("--mc-samples", type=_at_least(1), default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--f", type=str, default="0,0:0,1",
                   help="monomial input 'a1,a2:b1,b2'")
    p.add_argument("--z", type=str, default="0.1,0.5",
                   help="evaluation point 'x1,x2' on the positive real axes")

    return parser


def _run_kernel_check(args) -> tuple[dict, list[dict], str, bool]:
    d = geometry.DomainSpec(args.k)
    k = d.k_int()
    n_rad, n_ang = args.grid, 8
    t_abs = np.linspace(0.05, 0.8, n_rad)
    ratio = np.linspace(0.0, 0.8, n_rad)
    th_s, _ = quadrature.angle_rule(n_ang)
    th_t, _ = quadrature.angle_rule(n_ang)
    T = (t_abs[:, None, None, None] * np.exp(1j * th_t[None, None, None, :]))
    s_abs = (ratio[None, :, None, None] * t_abs[:, None, None, None]) ** (1.0 / k)
    S = s_abs * np.exp(1j * th_s[None, None, :, None])
    closed = kernel.kernel_closed_st(d, S, T)
    spec = kernel.SeriesSpec(max_degree=250 + 150 * k)
    series, shell, degree = kernel.kernel_series_st(d, S, T, spec)
    rel = np.abs(closed - series) / np.abs(closed)
    max_rel = float(np.max(rel))
    rows = []
    for i, ta in enumerate(t_abs):
        rows.append({"abs_t": float(ta),
                     "max_rel_err": float(np.max(rel[i])),
                     "provenance": "quadrature-with-error"})
    params = {"k": k, "grid": args.grid, "max_rel_err": max_rel,
              "series_degree": degree, "tolerance": args.tolerance,
              "max_last_shell": float(np.max(shell))}
    verdict = (analysis.VERDICT_CONSISTENT if max_rel < args.tolerance
               else analysis.VERDICT_VIOLATED)
    return params, rows, verdict, False


def _run_project(args) -> tuple[dict, list[dict], str, bool]:
    d = geometry.DomainSpec(args.k)
    m = _parse_monomial(args.f)
    x1, x2 = (float(v) for v in args.z.split(","))
    z = geometry.Point2(complex(x1), complex(x2))
    exact = projection.project_monomial(d, m)
    numeric = projection.project_numeric(d, m.integrand(), z, _quad_from_args(args))
    if exact is None:
        agreement = abs(numeric)
        exact_val = 0j
        row = {"exact": "zero"}
    else:
        exact_val = complex(exact.evaluate(z.z1, z.z2))
        agreement = abs(numeric - exact_val) / max(abs(exact_val), 1e-30)
        row = {"gamma_1": exact.index.a1, "gamma_2": exact.index.a2,
               "coeff": exact.coeff}
    row.update({"numeric_re": numeric.real, "numeric_im": numeric.imag,
                "exact_re": exact_val.real, "exact_im": exact_val.imag,
                "rel_agreement": agreement, "provenance": "quadrature-with-error"})
    params = {"k": d.k, "f": args.f, "z": args.z, "rel_agreement": agreement}
    verdict = (analysis.VERDICT_CONSISTENT if agreement < 1e-3
               else analysis.VERDICT_INCONCLUSIVE)
    return params, [row], verdict, False


def _dispatch(args) -> tuple[dict, int]:
    if args.command == "kernel-check":
        params, rows, verdict, expected = _run_kernel_check(args)
        body = {"experiment": "kernel_check", "parameters": params,
                "samples": rows, "verdict": verdict,
                "expected_violation": expected}
    elif args.command == "range":
        d = geometry.DomainSpec(args.k)
        crit = analysis.critical_range(d)
        rows = [{"p_low": crit.p_low_float, "p_high": crit.p_high_float,
                 "source": crit.source, "provenance": "exact-formula"}]
        params = {"k": d.k, "p_low": crit.p_low, "p_high": crit.p_high,
                  "conjugacy_defect": float(crit.conjugacy_defect())}
        if d.integer_exponent:
            sch = analysis.schur_range(Fraction(1, 2),
                                       Fraction(int(d.exponent) + 2, 2 * int(d.exponent)))
            params["schur_matches"] = (sch.p_low == crit.p_low
                                       and sch.p_high == crit.p_high)
            rows.append({"p_low": sch.p_low_float, "p_high": sch.p_high_float,
                         "source": sch.source, "provenance": "exact-formula"})
        verdict = analysis.VERDICT_CONSISTENT
        body = {"experiment": "range", "parameters": params, "samples": rows,
                "verdict": verdict, "expected_violation": False}
    elif args.command == "schur":
        d = geometry.DomainSpec(args.k)
        cfg = analysis.SchurConfig(eps=args.eps, ladder_levels=args.levels)
        rep = analysis.verify_schur(d, cfg)
        body = dataclasses.asdict(rep)
    elif args.command == "calculus1":
        rep = analysis.verify_calculus1(args.eps, args.beta, args.levels,
                                        _quad_from_args(args))
        body = dataclasses.asdict(rep)
    elif args.command == "disc-log":
        rep = analysis.verify_disc_log(args.levels, _quad_from_args(args))
        body = dataclasses.asdict(rep)
    elif args.command == "divergence":
        d = geometry.DomainSpec(args.k)
        p_default = 2.0 + 2.0 / d.k
        p_grid = ([float(x) for x in args.p_grid.split(",") if x.strip()]
                  if args.p_grid else [p_default - 1.0, p_default, p_default + 1.0])
        rep = analysis.divergence_scan(d, p_grid, _parse_deltas(args.deltas))
        body = dataclasses.asdict(rep)
    elif args.command == "probe":
        d = geometry.DomainSpec(args.k)
        family = [_parse_monomial(tok) for tok in args.family.split(";") if tok.strip()]
        rep = analysis.norm_ratio_probe(d, args.p, family)
        body = dataclasses.asdict(rep)
    elif args.command == "project":
        params, rows, verdict, expected = _run_project(args)
        body = {"experiment": "project", "parameters": params, "samples": rows,
                "verdict": verdict, "expected_violation": expected}
    else:  # pragma: no cover - argparse prevents this
        raise SystemExit(EXIT_USAGE)

    body["command"] = args.command
    body["config"] = {k: v for k, v in vars(args).items()
                      if k not in {"command", "output_dir"}}
    code = verdict_exit_code(body.get("verdict", analysis.VERDICT_CONSISTENT),
                             bool(body.get("expected_violation", False)))
    return body, code


def verdict_exit_code(verdict: str, expected_violation: bool) -> int:
    """0 for consistent or expected violations, 2 for unexpected
    violations, 3 for inconclusive outcomes."""
    if verdict == analysis.VERDICT_CONSISTENT:
        return EXIT_OK
    if verdict == analysis.VERDICT_VIOLATED:
        return EXIT_OK if expected_violation else EXIT_NUMERICAL
    return EXIT_INCONCLUSIVE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out_dir = args.output_dir
    t0 = time.perf_counter()
    try:
        body, code = _dispatch(args)
    except (quadrature.DivergentIntegralError, quadrature.IntegrandEvaluationError,
            kernel.NearSingularError, kernel.SeriesDivergenceError,
            projection.NonIntegrableInputError, ValueError,
            geometry.OutsideDomainError) as exc:
        body = {"command": args.command, "error": {"type": type(exc).__name__,
                                                   "message": str(exc)}}
        write_report(out_dir / f"{args.command}_report.json", body,
                     time.perf_counter() - t0)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    elapsed = time.perf_counter() - t0
    write_report(out_dir / f"{args.command}_report.json", body, elapsed)
    if args.format == "csv" and body.get("samples"):
        write_csv(out_dir / f"{args.command}_data.csv", body["samples"])
    verdict = body.get("verdict", "n/a")
    print(f"{args.command}: verdict={verdict} "
          f"(report: {out_dir / (args.command + '_report.json')})")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
