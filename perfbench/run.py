"""Run a benchmark workload at a seed, check its outputs, print its metrics.

    python3 perfbench/run.py --workload kernel_oracle --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 15 --trace 1

Run it from the repository root; it imports the package from ``src/``.
Workloads are defined in ``workloads.py``: ``kernel_oracle``,
``reproducing``, ``schur_sweep`` and ``cli_reports``.

Every workload runs in fresh processes (``worker.py``), single-threaded, with
BLAS/OpenMP threads capped at the number of usable cores.  A run measures
whole passes over the workload's operations for ``--seconds`` seconds, and
at least one pass.

``--trace 0`` (timed run) reports the end-to-end metrics:

* ``setup_s``: fresh process to the first timed operation (interpreter,
  import, seeded inputs, one warm-up operation); the median over
  ``SETUP_SAMPLES`` processes, all but one of which stop after set-up;
* ``wall_s``: median time of one warm pass;
* ``peak_rss_mb``: peak resident memory of the measuring process.

It also prints, outside the JSON result, ``op_p50_s`` (the median operation
latency pooled over the run's passes), ``op_p90_s`` where at least ten
pooled samples lie beyond it, ``fail_frac`` and ``max_rel_err`` (the worst
error against the exact oracle: the closed form, ``z^alpha`` or
``project_monomial``).  ``op_p50_s`` stays out of the JSON result because on
``cli_reports`` it falls among a handful of millisecond commands and spreads
by about a quarter from run to run.

``--trace 1`` (traced run) spends half the time untraced and half traced,
with spans recorded around the package's public functions from outside
(``tracing.py``), and reports the per-layer metrics, per traced pass, plus
``trace.overhead_frac``.  The spans are written to
``.perfbench_out/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when one failed, 2 when no result was produced.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("kernel_oracle", "reproducing", "schur_sweep", "cli_reports")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """No result can be produced."""


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith("ns_per_node"):
        return "ns"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith(("_share", "_frac")):
        return "ratio"
    return "count"


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
                              env=_worker_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload} worker timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{args.workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _latency_lines(op_times: list[float]) -> list[str]:
    n = len(op_times)
    lines = [f"op_p50_s = {statistics.median(op_times):.6g} s ({n} samples)"]
    p90 = statistics.quantiles(op_times, n=10)[-1] if n >= 2 else 0.0
    beyond = sum(t > p90 for t in op_times)
    if beyond < 10:
        lines.append(f"op_p90_s = n/a (only {beyond} of {n} samples beyond it)")
    else:
        lines.append(f"op_p90_s = {p90:.6g} s ({n} samples, {beyond} beyond)")
    return lines


def measure(args, deadline: float) -> dict:
    """Run one workload; print its metrics by name; return the result."""
    if args.trace:
        main = _worker(args, "traced", deadline)
        setups = []
        metrics = main["layers"]
    else:
        setups = [_worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        main = _worker(args, "timed", deadline)
        metrics = {
            "setup_s": statistics.median([r["setup_s"] for r in setups + [main]]),
            "wall_s": statistics.median(main["pass_times"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    attempted = len(main["op_times"])
    failed = len(main["failures"])
    warm_ok = all(r["warmup_ok"] for r in setups + [main])
    print(f"# {args.workload} seed={args.seed} trace={int(args.trace)}: "
          f"{len(main['pass_times'])} passes, {attempted} ops")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    if not args.trace:
        print("\n".join(_latency_lines(main["op_times"])))
        print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    rel = main["max_rel_err"]
    print(f"max_rel_err = {'n/a' if rel is None else format(rel, '.3e')}")
    for failure in main["failures"][:10]:
        print(f"FAILED {failure}")
    if not warm_ok:
        print("FAILED warm-up operation")
    return {"correct": failed == 0 and warm_ok, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (harness self-test only)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fathartogs" / "__init__.py").is_file():
        print(f"package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(argparse.Namespace(**{**vars(args), "workload": name}),
                                    time.monotonic() + DEADLINE_S)
    except BenchError as exc:
        print(f"no result: {exc}", file=sys.stderr)
        return 2
    final = results if args.workload == "all" else results[args.workload]
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
