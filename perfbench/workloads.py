"""The benchmark's seeded workloads.

A workload turns a seed into a fixed list of operations.  Each operation is
one call into the package whose result is checked against an exact oracle or
an expected verdict; one pass runs every operation once, in order.  The
program only ever sees the generated inputs.

Why these four: ``kernel_oracle`` is the series oracle against the closed
form (the series row loop dominates), ``reproducing`` is the tensor
``integrate`` path under ``project_numeric`` (the closed-form kernel
dominates), ``schur_sweep`` is the 4-d Schur tensor through
``kernel_abs_polar``, and ``cli_reports`` is the command line with its report
writing plus the disc, divergence, probe and exact-projection paths that the
other three bypass.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from fathartogs import analysis, cli, geometry, kernel, projection, quadrature

DEFAULT_SEED = 0

# acceptance tolerances of criteria 1 and 4
SERIES_TOL = 1e-6
REPRODUCING_TOL = 1e-4


@dataclass
class Check:
    """Outcome of one operation's check; ``rel_err`` is the error against
    the exact oracle where the workload has one."""

    ok: bool
    rel_err: Optional[float] = None
    detail: str = ""


@dataclass
class Op:
    """One operation.  ``run`` looks the package function up when called, so
    that the tracer's wrappers are seen exactly while installed."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Check]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Op
    cleanup: Callable[[], None] = field(default=lambda: None)


def _interior_points(d: geometry.DomainSpec, n: int, seed: int) -> list[geometry.Point2]:
    """Uniform domain samples kept by criterion 4's interior filter."""
    z1s, z2s = geometry.sample_uniform(d, 10_000, seed)
    keep = ((np.abs(z2s) >= 0.25) & (np.abs(z2s) <= 0.55)
            & (np.abs(z1s) ** d.k <= 0.5 * np.abs(z2s)) & (np.abs(z1s) >= 0.05))
    idx = np.flatnonzero(keep)[:n]
    if idx.size < n:
        raise RuntimeError(f"only {idx.size} of {n} interior points drawn")
    return [geometry.Point2(complex(z1s[i]), complex(z2s[i])) for i in idx]


# ----------------------------------------------------------------------
# kernel_oracle: closed form, bound and series on the kernel-check region

CHUNK_PAIRS = 1024
CHUNKS_PER_K = 4


def _kernel_three_ways(d, s, t, spec):
    closed = kernel.kernel_closed_st(d, s, t)
    bound = kernel.kernel_bound_st(d, s, t)
    series, _, _ = kernel.kernel_series_st(d, s, t, spec)
    return closed, bound, series


def _check_series(out) -> Check:
    closed, bound, series = out
    rel = float(np.max(np.abs(series - closed) / np.abs(closed)))
    ok = rel < SERIES_TOL and bool(np.all(np.isfinite(bound)) and np.all(bound > 0))
    return Check(ok, rel, f"max rel err {rel:.3e}")


def kernel_oracle(seed: int, tiny: bool, scratch: Path) -> Workload:
    rng = np.random.default_rng(seed)
    n, chunks = (64, 1) if tiny else (CHUNK_PAIRS, CHUNKS_PER_K)
    ops = []
    for k in (1, 2, 3):
        d = geometry.DomainSpec(k)
        spec = kernel.SeriesSpec(max_degree=250 + 150 * k)
        for c in range(chunks):
            t_abs = rng.uniform(0.05, 0.8, n)
            ratio = rng.uniform(0.0, 0.8, n)  # |s|^k / |t|
            t = t_abs * np.exp(2j * np.pi * rng.random(n))
            s = (ratio * t_abs) ** (1.0 / k) * np.exp(2j * np.pi * rng.random(n))
            ops.append(Op(f"k={k} chunk={c}", partial(_kernel_three_ways, d, s, t, spec),
                          _check_series))
    return Workload("kernel_oracle", ops, ops[0])


# ----------------------------------------------------------------------
# reproducing: project_numeric of basis monomials at interior points

def _project(d, f, z, spec):
    return projection.project_numeric(d, f, z, spec)


def _check_reproducing(want: complex, got) -> Check:
    rel = abs(got - want) / abs(want)
    return Check(rel < REPRODUCING_TOL, rel, f"rel err {rel:.3e}")


def reproducing(seed: int, tiny: bool, scratch: Path) -> Workload:
    rng = np.random.default_rng(seed)
    spec = quadrature.QuadratureSpec(radial_nodes=6, angular_nodes=24, boundary_offset=1e-6)
    ops = []
    for k in (1, 2):
        d = geometry.DomainSpec(k)
        alphas = kernel.basis_indices_by_weight(k, 6)[: 2 if tiny else None]
        pts = _interior_points(d, len(alphas), int(rng.integers(2**31)))
        for a, z in zip(alphas, pts):
            f = partial(lambda w1, w2, a1, a2: w1**a1 * w2**a2, a1=a.a1, a2=a.a2)
            want = z.z1**a.a1 * z.z2**a.a2
            ops.append(Op(f"k={k} alpha=({a.a1},{a.a2})",
                          partial(_project, d, f, z, spec),
                          partial(_check_reproducing, want)))
    return Workload("reproducing", ops, ops[0])


# ----------------------------------------------------------------------
# schur_sweep: verify_schur at k = 2 across the exponent window

CRITERION_8_EXPONENTS = (0.5, 0.75, 0.95, 1.1)
SCHUR_LEVELS = 8


def _schur(d, cfg):
    return analysis.verify_schur(d, cfg)


def _check_schur(expected: str, expected_violation: bool, rep) -> Check:
    ok = rep.verdict == expected and rep.expected_violation == expected_violation
    return Check(ok, None, f"verdict {rep.verdict} (want {expected})")


def schur_sweep(seed: int, tiny: bool, scratch: Path) -> Workload:
    d = geometry.DomainSpec(2)
    b = 1.0  # (k + 2) / (2k) at k = 2
    if seed == DEFAULT_SEED:
        exponents = CRITERION_8_EXPONENTS
    else:
        rng = np.random.default_rng(seed)
        inside = sorted(float(x) for x in rng.uniform(0.5, 0.95, 3))
        exponents = (*inside, 1.2 - 0.2 * float(rng.random()))  # last one in (1, 1.2]
    if tiny:
        exponents = (exponents[0], exponents[-1])
    ops = []
    for eps in exponents:
        expected = analysis.VERDICT_CONSISTENT if eps < b else analysis.VERDICT_VIOLATED
        cfg = analysis.SchurConfig(eps=eps, ladder_levels=SCHUR_LEVELS)
        ops.append(Op(f"eps={eps:.4f}", partial(_schur, d, cfg),
                      partial(_check_schur, expected, eps >= b)))
    # the edge-cut exponent takes milliseconds and fills the same rule caches
    return Workload("schur_sweep", ops, ops[-1])


# ----------------------------------------------------------------------
# cli_reports: the README's sub-second commands, in process

@dataclass
class _Command:
    argv: list[str]
    verdict: str
    expected_violation: bool = False
    oracle: Optional[complex] = None  # exact projection value for `project`
    last_body: Optional[str] = None


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _report_body(out_dir: Path, cmd: _Command) -> tuple[dict, str]:
    name = cmd.argv[0]
    report = json.loads((out_dir / f"{name}_report.json").read_text())["report"]
    body = json.dumps(report, sort_keys=True, indent=2)
    if "csv" in cmd.argv:
        body += (out_dir / f"{name}_data.csv").read_text()
    return report, body


def _check_cli(out_dir: Path, cmd: _Command, code) -> Check:
    report, body = _report_body(out_dir, cmd)
    problems = []
    if code != 0:
        problems.append(f"exit {code} (want 0)")
    if report.get("verdict") != cmd.verdict:
        problems.append(f"verdict {report.get('verdict')} (want {cmd.verdict})")
    if bool(report.get("expected_violation")) != cmd.expected_violation:
        problems.append("expected_violation flag differs")
    if cmd.last_body is not None and body != cmd.last_body:
        problems.append("report body differs from the previous pass")
    cmd.last_body = body
    rel = None
    if cmd.oracle is not None:
        row = report["samples"][0]
        got = complex(row["numeric_re"], row["numeric_im"])
        rel = abs(got - cmd.oracle) / abs(cmd.oracle)
    return Check(not problems, rel, "; ".join(problems))


def _draw_projection(rng: np.random.Generator, k: int) -> tuple[str, str, complex]:
    """A monomial w^a conj(w)^b with a nonzero exact projection, an interior
    point on the positive real axes, and the exact projected value there."""
    d = geometry.DomainSpec(k)
    while True:
        a1, a2, b1, b2 = (int(x) for x in rng.integers(0, [3, 3, 2, 2]))
        m = projection.MonomialInput(kernel.MultiIndex(a1, a2), kernel.MultiIndex(b1, b2))
        exact = projection.project_monomial(d, m)
        if exact is not None:
            break
    x2 = round(float(rng.uniform(0.25, 0.55)), 6)
    x1 = round(float(rng.uniform(0.05, (0.5 * x2) ** (1.0 / k))), 6)
    value = complex(exact.evaluate(complex(x1), complex(x2)))
    return f"{a1},{a2}:{b1},{b2}", f"{x1},{x2}", value


def cli_reports(seed: int, tiny: bool, scratch: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ok, viol = analysis.VERDICT_CONSISTENT, analysis.VERDICT_VIOLATED
    criterion_9 = ["--radial-nodes", "12", "--angular-nodes", "32"]
    commands = [
        _Command(["range", "--k", "1"], ok),
        _Command(["range", "--k", "1.5"], ok),
        _Command(["divergence", "--k", "1", "--p-grid", "3,4,5", "--format", "csv"], ok),
        _Command(["divergence", "--k", "1.5"], ok),
        *(_Command(["calculus1", "--eps", e, "--beta", b, "--levels", "14", *criterion_9], ok)
          for e, b in (("0.3", "0.0"), ("0.5", "1.0"), ("0.9", "1.9"))),
        _Command(["disc-log", "--levels", "12", *criterion_9], ok),
        _Command(["probe", "--k", "2", "--p", "2"], ok),
        _Command(["probe", "--k", "2", "--p", "3"], ok, expected_violation=True),
    ]
    for k, fmt in ((1, "json"), (2, "csv")):
        f, z, value = _draw_projection(rng, k)
        commands.append(_Command(["project", "--k", str(k), "--f", f, "--z", z,
                                  "--format", fmt], ok, oracle=value))
    # The edge-cut Schur path.  At k = 2, eps = 1.1 lies past the window: an
    # expected violation, exit 0.  The README's k = 1 cases (eps = 1.0, 1.45)
    # are left out because they fail by design (exit 2) and a benchmark
    # operation must not fail; the acceptance suite keeps them visible.
    commands.append(_Command(["schur", "--k", "2", "--eps", "1.1", "--levels", "8"],
                             viol, expected_violation=True))
    out_dir = Path(tempfile.mkdtemp(prefix="cli_reports-", dir=scratch))
    ops = []
    for cmd in commands:
        argv = cmd.argv + ["--output-dir", str(out_dir)]
        ops.append(Op(" ".join(cmd.argv), partial(_run_cli, argv),
                      partial(_check_cli, out_dir, cmd)))
    warmup = Op(ops[0].label, ops[0].run, lambda code: Check(code == 0))
    return Workload("cli_reports", ops, warmup,
                    cleanup=partial(shutil.rmtree, out_dir, ignore_errors=True))


BUILDERS = {
    "kernel_oracle": kernel_oracle,
    "reproducing": reproducing,
    "schur_sweep": schur_sweep,
    "cli_reports": cli_reports,
}


def build(name: str, seed: int, tiny: bool, scratch: Path) -> Workload:
    return BUILDERS[name](seed, tiny, scratch)
