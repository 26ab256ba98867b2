"""Set-up probe, run in a fresh interpreter by run.py.

Imports ``spnperf.cli`` from ``<root>/src``, loads the given input files the
way the CLI does, and prints the monotonic clock reading at that moment, so
the parent can compute the time from interpreter launch to "ready".

Usage: python3 probe.py ROOT KIND PATH [KIND PATH ...]
where KIND is one of model, trace, policy.
"""

import json
import os
import sys
import time


def main(argv):
    root, pairs = argv[0], argv[1:]
    sys.path.insert(0, os.path.join(root, "src"))
    import spnperf.cli  # noqa: F401  (the import is what is timed)
    from spnperf import files

    for kind, path in zip(pairs[::2], pairs[1::2]):
        if kind == "model":
            files.load_model_file(path)
        elif kind == "trace":
            with open(path) as fh:
                files.read_trace(fh)
        elif kind == "policy":
            with open(path) as fh:
                files.policy_from_document(json.load(fh))
        else:
            raise SystemExit(f"unknown input kind {kind!r}")
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))


if __name__ == "__main__":
    main(sys.argv[1:])
