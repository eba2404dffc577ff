"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` through ``run.py --tiny`` and
checks that:

* the last line is a JSON object with exactly the contract's keys;
* a timed run reports every end-to-end metric, and a traced run every
  per-layer metric, each with the unit ``BENCHMARK.json`` gives it;
* each per-layer metric is nonzero on the workload that exercises its layer;
* a second seed gives the same ``fail_frac`` as the default seed;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
  ``run.py`` exits nonzero without printing a result.

It is not part of the test suite, so the suite's runtime does not grow.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEYS = {"correct", "attempted", "failed", "metrics"}

# per-layer metrics that must be nonzero on each workload: a name, or a
# prefix ending in "."
EXERCISED = {
    "kernel_oracle": ("kernel.series.", "kernel.closed."),
    "reproducing": ("kernel.closed.", "quadrature.integrate.", "projection.numeric.",
                    "geometry.setup_s"),
    "schur_sweep": ("kernel.abs_polar.", "analysis.schur.", "geometry.s"),
    "cli_reports": ("quadrature.disc.", "projection.exact.", "analysis.divergence.",
                    "analysis.disc_checks.", "analysis.probe.", "cli."),
}


def _run(cwd: Path, workload: str, seed: int, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0 and cwd == ROOT:
        print(proc.stderr, file=sys.stderr)
    return proc.returncode, proc.stdout


def _result(workload: str, seed: int, trace: int, problems: list[str]) -> dict:
    code, out = _run(ROOT, workload, seed, trace)
    where = f"{workload} seed={seed} trace={trace}"
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        problems.append(f"{where}: no JSON result (exit {code})")
        return {}
    if set(res) != KEYS:
        problems.append(f"{where}: keys {sorted(res)}")
    if code != 0 or not res.get("correct"):
        problems.append(f"{where}: exit {code}, correct={res.get('correct')}")
    return res


def _check_metrics(where: str, res: dict, spec: list[dict], problems: list[str]) -> None:
    got = res.get("metrics", {})
    if set(got) != {m["name"] for m in spec}:
        problems.append(f"{where}: metric names differ: {sorted(set(got) ^ {m['name'] for m in spec})}")
    for m in spec:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {entry['unit']} != {m['unit']}")
        if not math.isfinite(entry["value"]):
            problems.append(f"{where}: {m['name']} = {entry['value']}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for w in (w["name"] for w in bench["workloads"]):
        timed = _result(w, 0, 0, problems)
        _check_metrics(f"{w} timed", timed, bench["end_to_end"], problems)
        for name, entry in timed.get("metrics", {}).items():
            if entry["value"] <= 0:
                problems.append(f"{w} timed: {name} = {entry['value']}")
        traced = _result(w, 0, 1, problems)
        _check_metrics(f"{w} traced", traced, bench["per_layer"], problems)
        for name, entry in traced.get("metrics", {}).items():
            exercised = any(name == e or (e.endswith(".") and name.startswith(e))
                            for e in EXERCISED[w])
            if exercised and entry["value"] <= 0:
                problems.append(f"{w} traced: {name} = {entry['value']} on its own workload")
        other = _result(w, 1, 0, problems)
        fracs = [r["failed"] / r["attempted"] for r in (timed, other) if r]
        if len(set(fracs)) > 1:
            problems.append(f"{w}: fail_frac {fracs[0]} at seed 0, {fracs[1]} at seed 1")
        print(f"{w}: checked", flush=True)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = _run(bare, bench["workloads"][0]["name"], 0, 0)
    shutil.rmtree(bare)
    if code == 0 or out.strip():
        problems.append(f"bare directory: exit {code}, stdout {out.strip()[:80]!r}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
