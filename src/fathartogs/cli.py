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

SCHEMA_VERSION = 2
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
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _atomic_write(path: Path, text: str) -> None:
    data = text.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            # On ext4 with delayed allocation, renaming a file whose blocks
            # are not yet allocated over an existing one makes the kernel
            # allocate them (auto_da_alloc), tens of milliseconds per
            # replaced report; with the size reserved first the rename is a
            # metadata operation.  That allocation was also what put the data
            # on disk before the rename's journal commit: with the
            # reservation, a power loss or kernel crash shortly after a run
            # can leave the report as NUL bytes and the previous one gone.
            # Reports are regenerated by re-running the command.  Where the
            # call is missing or refused, the file is written without it.
            if data and hasattr(os, "posix_fallocate"):
                try:
                    os.posix_fallocate(fh.fileno(), 0, len(data))
                except OSError:
                    pass
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(path: Path, report_body: dict, elapsed: float,
                 metadata: dict | None = None) -> None:
    """Write the report; ``metadata`` adds run diagnostics beside the
    wall-clock data, outside the deterministic body."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "report": _jsonable(report_body),
        "metadata": {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": elapsed,
            **(metadata or {}),
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


def _parse_deltas(text: str) -> list[float]:
    """Accept '1e-2..1e-8' (decade steps) or a comma list."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = float(lo_s), float(hi_s)
        if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
            raise ValueError(f"range ends must be positive and finite, got {text}")
        n = int(round(abs(np.log10(hi) - np.log10(lo)))) + 1
        return list(np.geomspace(lo, hi, n))
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_core_offsets(text: str) -> list[float]:
    """Parse ``--deltas``: at least ``analysis.LADDER_MIN_VALUES`` core
    offsets in (0, 1) that shrink by one ratio, as the ladder rule needs."""
    deltas = _parse_deltas(text)
    if not all(0.0 < x < 1.0 for x in deltas):
        raise argparse.ArgumentTypeError(f"deltas must lie in (0, 1), got {text}")
    try:
        analysis._rung_ratio(sorted(deltas, reverse=True))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return deltas


def _parse_monomial(text: str) -> projection.MonomialInput:
    """Parse 'a1,a2:b1,b2' into a monomial input."""
    hol_s, anti_s = text.split(":", 1)
    a1, a2 = (int(x) for x in hol_s.split(","))
    b1, b2 = (int(x) for x in anti_s.split(","))
    return projection.MonomialInput(kernel.MultiIndex(a1, a2), kernel.MultiIndex(b1, b2))


def _parse_family(text: str) -> list[projection.MonomialInput]:
    """Parse a semicolon list of monomials 'a1,a2:b1,b2'; an empty list is
    a usage error, as a probe over no monomial decides nothing."""
    family = [_parse_monomial(tok) for tok in text.split(";") if tok.strip()]
    if not family:
        raise argparse.ArgumentTypeError(f"need at least 1 monomial, got 0 in {text!r}")
    return family


def _parse_point(text: str) -> tuple[float, float]:
    """Parse 'x1,x2' into two real coordinates."""
    x1, x2 = (float(v) for v in text.split(","))
    return x1, x2


def _parse_p_grid(text: str) -> list[float]:
    """Parse a comma list of exponents p.  The empty text is the flag's
    default (a grid around the formula's exponent); text naming no
    exponent, such as ',', is a usage error, as a scan over no exponent
    decides nothing."""
    grid = [float(x) for x in text.split(",") if x.strip()]
    if text and not grid:
        raise argparse.ArgumentTypeError(f"need at least 1 exponent, got 0 in {text!r}")
    # the scan cannot classify p = inf or NaN (divergence_scan rejects them)
    if not all(math.isfinite(p) for p in grid):
        raise argparse.ArgumentTypeError(f"exponents must be finite, got {text!r}")
    return grid


def _well_formed(parse, form: str):
    """A str flag type that rejects text ``parse`` cannot read; the text
    itself is kept, as the report's config records the flag as given."""

    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
        return text

    return check


def _number(cast, inside, requirement: str):
    """A numeric flag type: text that ``cast`` (``int`` or ``float``) reads,
    with a value that ``inside`` accepts (NaN fails every range written as
    comparisons).  Each flag takes the range that the code it feeds
    accepts, so a value outside it is a usage error (exit 1), not a failed
    run (exit 2); ``requirement`` words that range after "must"."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {'an integer' if cast is int else 'a number'}, got {text!r}"
            ) from None
        if not inside(value):
            raise argparse.ArgumentTypeError(f"must {requirement}, got {text}")
        return value

    return parse


def _count(floor: int):
    """An int flag type of at least ``floor``."""
    return _number(int, lambda n: n >= floor, f"be at least {floor}")


# DomainSpec's k and norm_ratio_probe's p
_exponent = _number(float, lambda x: 1.0 <= x < math.inf, "lie in [1, inf)")


_DEFAULT_FAMILY = "0,0:0,1;1,0:0,0;0,0:1,0;1,1:0,1;0,1:0,0;2,0:0,1"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fathartogs",
                     description="experiments on the Bergman projection of "
                                 "fat Hartogs triangles")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, needs_k=True):
        if needs_k:
            p.add_argument("--k", type=_exponent, required=True,
                           help="domain exponent (integer for kernel paths)")
        p.add_argument("--output-dir", type=Path,
                       default=Path(os.environ.get(OUTPUT_DIR_ENV, ".")))
        p.add_argument("--format", choices=["json", "csv"], default="json",
                       help="'csv' additionally writes the flat sample table")

    # quadrature flags go only to the commands that read them
    # QuadratureSpec rejects node counts below 2
    def node_counts(p, radial=_count(2), angular=_count(2)):
        p.add_argument("--radial-nodes", type=radial, default=10)
        p.add_argument("--angular-nodes", type=angular, default=24)

    # the disc rules reject smaller counts than these
    disc_counts = (_count(quadrature.DISC_MIN_RADIAL_NODES),
                   _count(quadrature.DISC_MIN_ANGULAR_NODES))
    # and ladders too short to read, or past the level where 1 - 2^-j is 1
    least, most = analysis.LADDER_MIN_VALUES, analysis.DISC_MAX_LEVELS
    disc_levels = _number(int, lambda n: least <= n <= most,
                          f"be at least {least} and at most {most}")

    p = sub.add_parser("kernel-check", help="closed form vs series on a grid")
    common(p)
    p.add_argument("--grid", type=_count(2), default=16)
    # NaN would compare false against every error and write a non-JSON NaN
    p.add_argument("--tolerance", default=1e-6,
                   type=_number(float, lambda x: math.isfinite(x) and x > 0.0,
                                "be finite and > 0"))

    p = sub.add_parser("range", help="critical range and Schur-window algebra")
    common(p)

    p = sub.add_parser("schur", help="Schur-test verification at one exponent")
    common(p)
    p.add_argument("--eps", required=True,
                   type=_number(float, lambda x: 0.0 < x < 2.0, "lie in (0, 2)"))
    p.add_argument("--levels", type=_count(2), default=6)

    p = sub.add_parser("calculus1", help="weighted disc-integral plateau check")
    common(p, needs_k=False)
    node_counts(p, *disc_counts)
    p.add_argument("--eps", required=True,
                   type=_number(float, lambda x: 0.0 < x < 1.0, "lie in (0, 1)"))
    p.add_argument("--beta", default=0.0,
                   type=_number(float, lambda x: 0.0 <= x < 2.0, "lie in [0, 2)"))
    p.add_argument("--levels", type=disc_levels, default=12)

    p = sub.add_parser("disc-log", help="log-law of the disc kernel mass")
    common(p, needs_k=False)
    node_counts(p, *disc_counts)
    p.add_argument("--levels", type=disc_levels, default=12)

    p = sub.add_parser("divergence", help="L^p divergence scan for 1/z2")
    common(p)
    p.add_argument("--p-grid", default="",
                   type=_well_formed(_parse_p_grid, "a comma list of numbers"),
                   help="comma list of exponents p to classify")
    p.add_argument("--deltas", default="1e-2..1e-10",
                   type=_well_formed(_parse_core_offsets, "a decade range 'lo..hi' with finite "
                                     "positive ends or a comma list of numbers"),
                   help="core offsets, '1e-2..1e-10' or comma list")

    p = sub.add_parser("probe", help="norm-ratio probe over a monomial family")
    common(p)
    p.add_argument("--p", type=_exponent, required=True)
    p.add_argument("--family", default=_DEFAULT_FAMILY,
                   type=_well_formed(_parse_family, "monomials 'a1,a2:b1,b2' joined by ';'"),
                   help="semicolon list of monomials 'a1,a2:b1,b2'")

    p = sub.add_parser("project", help="project one monomial both ways")
    common(p)
    node_counts(p)
    p.add_argument("--boundary-offset", default=1e-6,  # QuadratureSpec's range
                   type=_number(float, lambda x: 0.0 < x < 0.25, "lie in (0, 0.25)"))
    p.add_argument("--f", default="0,0:0,1",
                   type=_well_formed(_parse_monomial, "'a1,a2:b1,b2' with integer entries"),
                   help="monomial input 'a1,a2:b1,b2'")
    p.add_argument("--z", default="0.1,0.5",
                   type=_well_formed(_parse_point, "'x1,x2' with two numbers"),
                   help="evaluation point 'x1,x2' on the positive real axes")

    return parser


def _run_kernel_check(args) -> analysis.VerificationReport:
    d = geometry.DomainSpec(args.k)
    k = d.k_int()
    n_rad, n_ang = args.grid, 8
    t_abs = np.linspace(0.05, 0.8, n_rad)
    ratio = np.linspace(0.0, 0.8, n_rad)
    th, _ = quadrature.angle_rule(n_ang)
    T = (t_abs[:, None, None, None] * np.exp(1j * th[None, None, None, :]))
    s_abs = (ratio[None, :, None, None] * t_abs[:, None, None, None]) ** (1.0 / k)
    S = s_abs * np.exp(1j * th[None, None, :, None])
    closed = kernel.kernel_closed_st(d, S, T)
    spec = kernel.SeriesSpec(max_degree=250 + 150 * k)
    series, shell, degree = kernel.kernel_series_st(d, S, T, spec)
    rel = np.abs(closed - series) / np.abs(closed)
    max_rel = float(np.max(rel))
    rows = []
    for i, ta in enumerate(t_abs):
        rows.append({"abs_t": float(ta),
                     "max_rel_err": float(np.max(rel[i])),
                     "provenance": "series-truncation"})
    params = {"k": k, "grid": args.grid, "max_rel_err": max_rel,
              "series_degree": degree, "tolerance": args.tolerance,
              "max_last_shell": float(np.max(shell))}
    verdict = (analysis.VERDICT_CONSISTENT if max_rel < args.tolerance
               else analysis.VERDICT_VIOLATED)
    return analysis.VerificationReport("kernel_check", params, rows, verdict=verdict)


def _run_project(args) -> analysis.VerificationReport:
    d = geometry.DomainSpec(args.k)
    m = _parse_monomial(args.f)
    x1, x2 = _parse_point(args.z)
    z = geometry.Point2(complex(x1), complex(x2))
    exact = projection.project_monomial(d, m)
    spec = quadrature.QuadratureSpec(args.radial_nodes, args.angular_nodes, args.boundary_offset)
    numeric = projection.project_numeric(d, m, z, spec)
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
                "rel_agreement": agreement, "provenance": "quadrature"})
    params = {"k": d.k, "f": args.f, "z": args.z, "rel_agreement": agreement}
    verdict = (analysis.VERDICT_CONSISTENT if agreement < 1e-3
               else analysis.VERDICT_INCONCLUSIVE)
    return analysis.VerificationReport("project", params, [row], verdict=verdict)


def _dispatch(args) -> tuple[dict, int, dict]:
    """The report body, the exit code and the run's metadata entries."""
    metadata = {}
    if args.command == "kernel-check":
        rep = _run_kernel_check(args)
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
        rep = analysis.VerificationReport("range", params, rows,
                                          verdict=analysis.VERDICT_CONSISTENT)
    elif args.command == "schur":
        d = geometry.DomainSpec(args.k)
        cfg = analysis.SchurConfig(eps=args.eps, ladder_levels=args.levels)
        rep = analysis.verify_schur(d, cfg)
        # the threads that evaluated the boundary-ladder values; the
        # probe ladder runs on one
        metadata["workers"] = analysis._workers(
            sum(s["kind"] == "ladder" for s in rep.samples))
    elif args.command == "calculus1":
        rep = analysis.verify_calculus1(args.eps, args.beta, args.levels,
                                        radial_nodes=args.radial_nodes,
                                        angular_nodes=args.angular_nodes)
    elif args.command == "disc-log":
        rep = analysis.verify_disc_log(args.levels, radial_nodes=args.radial_nodes,
                                       angular_nodes=args.angular_nodes)
    elif args.command == "divergence":
        d = geometry.DomainSpec(args.k)
        p_default = 2.0 + 2.0 / d.k
        p_grid = (_parse_p_grid(args.p_grid) if args.p_grid
                  else [p_default - 1.0, p_default, p_default + 1.0])
        rep = analysis.divergence_scan(d, p_grid, _parse_deltas(args.deltas))
    elif args.command == "probe":
        d = geometry.DomainSpec(args.k)
        rep = analysis.norm_ratio_probe(d, args.p, _parse_family(args.family))
    elif args.command == "project":
        rep = _run_project(args)
    else:  # pragma: no cover - argparse prevents this
        raise SystemExit(EXIT_USAGE)

    body = dataclasses.asdict(rep)
    body["command"] = args.command
    body["config"] = {k: v for k, v in vars(args).items()
                      if k not in {"command", "output_dir"}}
    code = verdict_exit_code(body["verdict"], body["expected_violation"])
    return body, code, metadata


def verdict_exit_code(verdict: str, expected_violation: bool) -> int:
    """0 for consistent or expected violations, 2 for unexpected
    violations, 3 for inconclusive outcomes."""
    if verdict == analysis.VERDICT_CONSISTENT:
        return EXIT_OK
    if verdict == analysis.VERDICT_VIOLATED:
        return EXIT_OK if expected_violation else EXIT_NUMERICAL
    return EXIT_INCONCLUSIVE


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out_dir = args.output_dir
    t0 = time.perf_counter()
    failure, metadata = None, {}
    try:
        body, code, metadata = _dispatch(args)
    # every error of the package derives from one of these two
    except (ValueError, ArithmeticError) as exc:
        failure = exc
        body = {"command": args.command, "error": {"type": type(exc).__name__,
                                                   "message": str(exc)}}
        code = EXIT_NUMERICAL
    elapsed = time.perf_counter() - t0
    report_path = out_dir / f"{args.command}_report.json"
    write_report(report_path, body, elapsed, metadata)
    if args.format == "csv":
        csv_path = out_dir / f"{args.command}_data.csv"
        if body.get("samples"):
            write_csv(csv_path, body["samples"])
        else:
            # an earlier run's CSV would sit beside this report as its data
            csv_path.unlink(missing_ok=True)
    if failure is not None:
        print(f"numerical failure: {failure}", file=sys.stderr)
    else:
        print(f"{args.command}: verdict={body.get('verdict', 'n/a')} "
              f"(report: {report_path})")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
