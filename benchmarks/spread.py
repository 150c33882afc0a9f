"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload lora_agg --runs 5
    python3 benchmarks/spread.py --runs 10              # every workload

For each workload, runs ``run.py`` once per seed (1..runs), one after the
other, with ``run_seconds`` from BENCHMARK.json, then prints per end-to-end
metric the median, the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), the bound and whether the spread is
below a third of the bound, and then each run's host state. Exits nonzero if any run fails or any spread
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run's result line and the details line before it."""
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if command[0] == "python3":
        command[0] = sys.executable
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        runs = [run_once(spec, workload, seed, 0) for seed in range(1, args.runs + 1)]
        results = [result for result, _ in runs]
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
              f"failed {failed} of {sum(r['attempted'] for r in results)}")
        ok &= failed == 0
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            share = spread(values)
            steady = share < metric["bound"] / 3
            ok &= share <= metric["bound"]
            print(f"  {metric['name']:24s} median {statistics.median(values):12.6g} "
                  f"spread {share:7.4f} bound {metric['bound']:.2f} "
                  f"{'steady' if steady else 'WIDE'}   "
                  f"[{', '.join(f'{v:.5g}' for v in values)}]")
        states = [details["run"]["host_state"] for _, details in runs]
        print("  host state per run (fast-state rounds of all, slow/fast scale): "
              + ", ".join(f"{s['fast_rounds']}/{r} {s['scale']:.3f}"
                          for s, r in zip(states, (d["run"]["rounds"] for _, d in runs))))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
