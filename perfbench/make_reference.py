"""Regenerate reference.json: the checked outputs for the default seed.

Usage (from the root of a checkout): python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; every op must
pass the seed-independent checks before its output is stored.
"""

import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    modules = run._import_spnperf()
    reference = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in workloads.GENERATORS:
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix="work-") as work:
            workload = workloads.generate(name, checks.DEFAULT_SEED, Path(work))
            result = run.run_job(modules["spnperf.cli"], workload.argv, modules)
            out = result["out"]
            ops = checks.check(workload, out, None) if result["code"] == 0 else [[result["err"]]]
            bad = [p for problems in ops for p in problems]
            if bad:
                print(f"{name}: not stored, checks failed: {bad[:5]}", file=sys.stderr)
                return 1
            reference[name] = checks.comparable_output(workload, out)
            print(f"{name}: {len(ops)} ops in {result['seconds']:.2f} s")
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
