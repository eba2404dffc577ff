"""One workload in one fresh process: set up, then time or trace passes.

Started by ``run.py``, never imported by it.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so the set-up time
covers interpreter start, the package import, seeded input generation and
one warm-up operation.  The result is one JSON object on the last line of
standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


class Tally:
    """Per-operation latencies and check outcomes of a run."""

    def __init__(self) -> None:
        self.op_times: list[float] = []
        self.failures: list[str] = []
        self.max_rel_err: float | None = None

    def run_pass(self, wl) -> float:
        """Run every operation once; return the summed latency."""
        total = 0.0
        for op in wl.ops:
            t = time.perf_counter()
            out = op.run()
            dt = time.perf_counter() - t
            total += dt
            self.op_times.append(dt)
            check = op.check(out)
            if not check.ok:
                self.failures.append(f"{op.label}: {check.detail}")
            if check.rel_err is not None:
                self.max_rel_err = max(self.max_rel_err or 0.0, check.rel_err)
        return total

    def run_for(self, wl, seconds: float) -> list[float]:
        """At least one pass, then more while the next one is expected to
        finish within ``seconds``, so that a run's length stays predictable."""
        end = time.perf_counter() + seconds
        times = [self.run_pass(wl)]
        while time.perf_counter() + statistics.median(times) <= end:
            times.append(self.run_pass(wl))
        return times


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    import fathartogs

    src = ROOT / "src"
    if src not in Path(fathartogs.__file__).resolve().parents:
        print(f"fathartogs imported from {fathartogs.__file__}, not {src}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed, args.tiny, OUT_DIR)
    try:
        warm = wl.warmup.check(wl.warmup.run())
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s, "warmup_ok": warm.ok}
        if args.mode != "setup":
            tally = Tally()
            if tracer is None:
                result["pass_times"] = tally.run_for(wl, args.seconds)
            else:
                # untraced half first, then the same passes traced
                tracer.uninstall()
                plain = tally.run_for(wl, args.seconds / 2)
                tracer.install()
                tracer.op = "pass"
                traced = tally.run_for(wl, args.seconds / 2)
                tracer.uninstall()
                tracer.dump(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
                layers = tracing.layer_metrics(tracer.spans, len(traced))
                layers["trace.overhead_frac"] = (statistics.median(traced)
                                                / statistics.median(plain) - 1.0)
                result.update(pass_times=plain + traced, layers=layers)
            result.update(op_times=tally.op_times, failures=tally.failures,
                          max_rel_err=tally.max_rel_err)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.cleanup()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
