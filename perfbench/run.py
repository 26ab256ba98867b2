"""Run one spnperf benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rate-sweep --seed 0 --seconds 24 --trace 0

The run writes the workload's input files from the seed and imports
``spnperf.cli``.  It then makes a fixed number of CLI calls, one at a time
(a closed loop with a single client), about ``--seconds`` worth on the
reference host.  Each call runs ``spnperf.cli.main(argv)`` once, with
stdout captured, in a child forked from the run's process after those
imports: every call starts cold, as a user's ``spnperf`` command does, and
nothing one call leaves behind (lazy imports, memos, caches) is seen by
the next.  Every call's output is checked (see checks.py).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over 3
fresh interpreters, spread over the run, of the time until ``spnperf.cli``
is imported and the inputs are loaded), ``job_s`` (median wall time of the
run's CLI calls) and ``peak_rss_mb`` (median over the calls of the peak
resident memory of the call's process).  The host's speed swings by
1.2-2x in phases that can outlast a run, so a fixed calibration kernel
(calibrate.py) is timed at the start and after every set-up probe and
every call, and ``setup_s`` and ``job_s`` are scaled by
``calibrate.REFERENCE_S`` over the kernel's median in the run: the times
the run would have read on the reference host at its usual speed.  The
text lines give the times as measured too.  ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics from the
traced ones (see tracing.py), plus ``trace.overhead_s``, the median
traced call minus the median untraced one (as measured, not scaled).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it restate the
metrics with units and record the environment.  Spans of a traced run are
written to ``.perfbench/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

#: OpenBLAS threads: one job at a time and no added threads, so GTH's
#: blocked matrix product runs on one core (nproc is 2 on the reference box).
#: Set before anything imports numpy, the calibration kernel included.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: fresh interpreters timed per run for setup_s
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
#: median call of each workload on the reference host (a shared 2-vCPU VM),
#: in seconds.  A run makes round(--seconds / this) calls, at least
#: MIN_CALLS: the number of samples depends on --seconds, not on how fast
#: the host happens to be.
NOMINAL_CALL_S = {"rate-sweep": 4.6, "monitor-trace": 5.8, "simulate": 4.1}
MIN_CALLS = 3
#: a run makes no further call once it has taken this many times
#: --seconds (at most RUN_LIMIT_S), so that it ends in time on a host more
#: than 1.5 times slower than the reference; on any other host every call
#: is made
RUN_LIMIT_FACTOR = 1.5
RUN_LIMIT_S = 120


def _clock() -> float:
    # system-wide monotonic clock, comparable across processes (probe.py)
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_spnperf():
    """Import spnperf from this checkout's ``src/`` only."""
    src = ROOT / "src"
    if not (src / "spnperf" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no spnperf sources under {src}")
    sys.path.insert(0, str(src))
    import spnperf.cli
    import spnperf.files
    import spnperf.monitor
    import spnperf.pubsub
    import spnperf.simulator

    if not Path(spnperf.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: spnperf imported from {spnperf.__file__}, not {src}")
    return {name: sys.modules[name] for name in (
        "spnperf.cli", "spnperf.files", "spnperf.monitor",
        "spnperf.pubsub", "spnperf.simulator")}


def _blas_threads():
    """Thread count reported by numpy's OpenBLAS, or None if not found."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def time_setup(workload) -> float:
    """Seconds from launching a fresh interpreter until it is ready."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(ROOT)]
    for kind, path in workload.inputs:
        cmd += [kind, path]
    start = _clock()
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1]) - start


def _call(cli, argv, modules, traced):
    """Run ``cli.main(argv)`` once in this process; the result as a dict."""
    out, err = io.StringIO(), io.StringIO()
    tracer = tracing.Tracer()
    span = (lambda: tracer.span("cli.main")) if traced else contextlib.nullcontext
    patched = tracer.installed(modules) if traced else contextlib.nullcontext()
    with patched:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span():
                code = cli.main(argv)
        except Exception:  # a crash fails the call's ops; the run goes on
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    result = {"seconds": seconds, "code": code, "out": out.getvalue(), "err": err.getvalue()}
    if traced:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["spans"] = tracer.to_document()
    return result


def _forked(fn) -> tuple[dict | None, int, object]:
    """Run ``fn()`` once in a forked child of this process.

    The child sends ``fn()``'s dict back through a pipe as JSON and exits.
    Returns that dict (None if the child failed), the child's wait status
    and its resource usage.
    """
    gc.collect()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            result = fn()
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(result, pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        payload = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    result = json.loads(payload) if status == 0 and payload else None
    return result, status, usage


def run_job(cli, argv, modules, traced=False) -> dict:
    """One CLI call in a forked child of this process.

    The child starts from the state the parent has after its imports, as a
    user's ``spnperf`` process does, and ends after the one call, so nothing
    the call leaves in the process (lazy imports, memos, caches) reaches the
    next call.  Returns the child's seconds, exit code, stdout and stderr,
    its peak resident memory in MB and, when traced, its layer metrics and
    spans.
    """
    result, status, usage = _forked(lambda: _call(cli, argv, modules, traced))
    if result is None:
        result = {"seconds": math.nan, "code": None,
                  "out": "", "err": f"call process ended with wait status {status}"}
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def time_kernel() -> dict:
    """Seconds of one pass of each calibration kernel part, in a forked child.

    The child keeps the kernel's memory out of this process, whose
    resident pages every later call's child starts with.
    """
    result, status, _ = _forked(calibrate.kernel_seconds)
    if result is None:
        raise SystemExit(f"perfbench: calibration process ended with wait status {status}")
    return result


def min_calls(traced: bool) -> int:
    """Fewest CLI calls in a run; a traced run needs two of each kind."""
    return max(MIN_CALLS, 4) if traced else MIN_CALLS


def calls_per_run(workload: str, seconds: float, traced: bool) -> int:
    """How many CLI calls a run makes: fixed by ``--seconds``, not by the host."""
    return max(min_calls(traced), round(seconds / NOMINAL_CALL_S[workload]))


def _summary(name, value, values, what):
    return (f"{name:<14} {value:12.6g} s     median of {len(values)} {what}, scaled"
            f" (as measured: median {statistics.median(values):.6g},"
            f" min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    modules = _import_spnperf()
    cli = modules["spnperf.cli"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as work:
        workload = workloads.generate(args.workload, args.seed, Path(work))
        reference = None
        if args.seed == checks.DEFAULT_SEED:
            reference = json.loads((HERE / "reference.json").read_text())[args.workload]
        n_calls = calls_per_run(args.workload, args.seconds, bool(args.trace))
        setup = []
        kernel = []
        jobs = []  # (kind, result)
        # (what, seconds) in the order measured: kernel pass, set-up, call
        sequence = []

        def calibrate_pass():
            kernel.append(time_kernel())
            sequence.append(("kernel", sum(kernel[-1].values())))

        calibrate_pass()
        attempted = failed = 0
        problems = []
        limit = min(RUN_LIMIT_FACTOR * args.seconds, RUN_LIMIT_S)
        started = time.perf_counter()
        for i in range(n_calls):
            if i >= min_calls(bool(args.trace)) and time.perf_counter() - started > limit:
                print(f"perfbench: stopped after {i} of {n_calls} calls "
                      f"({limit:.0f} s limit)", file=sys.stderr)
                break
            if not args.trace and i < SETUP_PROBES:
                # probes spread over the run sample the host's speed
                # the way the calls do, instead of one stretch of it
                setup.append(time_setup(workload))
                sequence.append(("setup", setup[-1]))
                calibrate_pass()
            kind = "traced" if args.trace and i % 2 else "plain"
            result = run_job(cli, workload.argv, modules, traced=kind == "traced")
            jobs.append((kind, result))
            sequence.append((kind, result["seconds"]))
            calibrate_pass()

            n_ops = checks.expected_ops(workload)
            if result["code"] != 0:
                op_problems = [[f"exit code {result['code']}: "
                                f"{result['err'].strip()[-500:]}"]] * n_ops
            else:
                try:
                    op_problems = checks.check(workload, result["out"], reference)
                except Exception:  # output too malformed for the checker
                    op_problems = [[traceback.format_exc()]] * n_ops
            attempted += len(op_problems)
            failed += sum(1 for p in op_problems if p)
            problems += [p for ps in op_problems for p in ps]
        if not args.trace:
            for _ in range(SETUP_PROBES - len(setup)):
                setup.append(time_setup(workload))
                sequence.append(("setup", setup[-1]))
                calibrate_pass()

    env = environment()
    kinds = ("plain", "traced") if args.trace else ("plain",)
    times = {k: [r["seconds"] for kind, r in jobs if kind == k and math.isfinite(r["seconds"])]
             for k in kinds}
    if not all(times.values()):
        raise SystemExit(f"perfbench: no call of kind {kinds} completed")
    kernel_s = [sum(parts.values()) for parts in kernel]
    scale = calibrate.REFERENCE_S / statistics.median(kernel_s)
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"jobs {len(jobs)}  ops {attempted}  ops_failed {failed}",
             "env " + json.dumps(env, sort_keys=True),
             f"host           kernel median {statistics.median(kernel_s):.6g} s over "
             f"{len(kernel)} passes (min {min(kernel_s):.6g}, max {max(kernel_s):.6g}); "
             f"times scaled by {scale:.6g}; parts "
             + json.dumps({name: round(statistics.median(k[name] for k in kernel), 6)
                           for name in calibrate.PARTS}),
             "sequence " + json.dumps([(what, round(sec, 6)) for what, sec in sequence])]
    if args.trace:
        traced = [r for kind, r in jobs if kind == "traced"]
        per_job = [r["layers"] for r in traced if "layers" in r]
        values = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
        values["trace.overhead_s"] = (statistics.median(times["traced"])
                                      - statistics.median(times["plain"]))
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            [{**span, "job": i} for i, r in enumerate(traced) for span in r.get("spans", ())]))
        for kind in kinds:
            lines.append(_summary(f"{kind} job_s", statistics.median(times[kind]) * scale,
                                  times[kind], f"{kind} calls"))
        lines += [f"{name:<34} {m['value']:14.6g} {m['unit']}" for name, m in metrics.items()]
        lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(setup) * scale,
            "job_s": statistics.median(times["plain"]) * scale,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for _, r in jobs),
        }
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        lines.append(_summary("setup_s", values["setup_s"], setup, "fresh interpreters"))
        lines.append(_summary("job_s", values["job_s"], times["plain"], "CLI calls"))
        lines.append(f"{'peak_rss_mb':<14} {values['peak_rss_mb']:12.6g} MB")
    lines.append(f"{'ops':<14} {attempted:12d} count")
    lines.append(f"{'ops_failed':<14} {failed:12d} count")

    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
