"""Run the benchmark several times per workload and summarise across runs.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Each run is a fresh ``run.py`` interpreter, one at a time.  For every
workload and metric it prints the median, the quartiles and the run count,
and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json; ops and failed ops are summed over runs.  Raw results go
to ``.perfbench/report-<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(v) for v in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,9")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    specs = bench["per_layer" if args.trace else "end_to_end"]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    raw = out_dir / f"report-{int(time.time())}.jsonl"
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            start = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S, cwd=ROOT)
            wall = time.perf_counter() - start
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            results.append(result)
            with raw.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "wall_s": wall, **result}) + "\n")
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct {result['correct']}",
                  file=sys.stderr)
        if not results:
            continue
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        ok = ok and failed == 0 and all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, ops {attempted} count, "
              f"ops_failed {failed} count")
        print(f"  {'metric':<34} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}")
        for spec in specs:
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = spec.get("bound")
            print(f"  {spec['name']:<34} {spec['unit']:<6} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.3f} {'' if bound is None else bound:>6}")
    print(f"\nraw results in {raw.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
