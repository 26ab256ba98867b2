"""What importing the CLI costs, what the simulator imports and what the
benchmark's tracer patches and reads."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import scipy.special
import scipy.stats

ROOT = Path(__file__).resolve().parent.parent


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a cold start; the CLI must not load it
    code = "import sys, spnperf.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_special_unloaded():
    # the simulator's Student-t quantile uses only math
    code = "import sys, spnperf.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


def _input_files(tmp_path):
    # params for the default 1,260-state chain and for a 2,100-state one, a
    # trace and a policy
    from spnperf import files
    from spnperf.pubsub import PubSubParams

    def write(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    return (
        write("params.json", json.dumps(files.params_to_document(PubSubParams()))),
        write("larger.json", json.dumps(files.params_to_document(
            PubSubParams(n_events=4, net_recv_buffer=2, net_send_buffer=2)))),
        write("trace.jsonl", '{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}\n'),
        write("policy.json", json.dumps(
            {"max_accept_publication_response_time": 2.8,
             "max_notification_response_time": 3.7})),
    )


def _modules_after(*groups):
    """Run each group of CLI commands in turn in one fresh child process;
    return, per group, the exit codes and the sorted names of the loaded
    modules in scipy, numpy.ma and numpy.random."""
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        from spnperf.cli import main
        watched = ("scipy", "numpy.ma", "numpy.random")
        out = []
        for group in json.loads(sys.argv[1]):
            codes = []
            for argv in group:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(main(argv))
            # "numpy.matrixlib" shares the prefix "numpy.ma" but not the package
            loaded = [m for m in sys.modules
                      if any(m == w or m.startswith(w + ".") for w in watched)]
            out.append([codes, sorted(loaded)])
        print(json.dumps(out))
    """)
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(groups)], env=_child_env(),
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout)


def test_no_cli_command_loads_scipy(tmp_path):
    # the runtime needs numpy alone: each of the five commands runs in one
    # child process, then not even scipy's top-level package may be loaded
    params, larger, trace, policy = _input_files(tmp_path)
    commands = [
        ["export-net", params],
        ["analyze", params],
        ["analyze", larger],
        ["sweep", params, "--factor", "r_pub_qos", "--values", "0.5,2"],
        ["simulate", params, "--horizon", "50", "--replications", "2"],
        ["monitor", trace, params, policy],
    ]
    ((codes, loaded),) = _modules_after(commands)
    assert codes == [0] * len(commands)
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_cli_commands_load_numpy_random_for_simulate_only_and_never_numpy_ma(tmp_path):
    # each costs a cold call about 25 ms: only the simulator needs
    # numpy.random, and no command needs numpy.ma, which numpy 2's np.unique
    # without return_* flags imports
    params, larger, trace, policy = _input_files(tmp_path)
    analytic = [
        ["export-net", params],
        ["analyze", params],
        ["analyze", larger],
        ["sweep", params, "--factor", "r_pub_qos", "--values", "0.5,2"],
        ["monitor", trace, params, policy],
    ]
    simulate = [["simulate", params, "--horizon", "50", "--replications", "2"]]
    (codes, before), (sim_codes, after) = _modules_after(analytic, simulate)
    assert codes == [0] * len(analytic) and sim_codes == [0]
    assert before == []
    assert "numpy.random" in after
    assert [m for m in after if m.split(".")[:2] != ["numpy", "random"]] == []


def test_the_simulator_imports_only_the_net_from_the_package():
    # the independent oracle shares the net and its firing kernel with the
    # solver's pipeline, and nothing else: not reachability, not the solver
    tree = ast.parse((ROOT / "src" / "spnperf" / "simulator.py").read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        package.update(name for name in names if name.startswith((".", "spnperf")))
    assert package == {".net"}


def test_stdtrit_equals_t_ppf():
    # the simulator's half-width quantile, bit for bit what scipy.stats gives
    for df in range(1, 201):
        assert float(scipy.special.stdtrit(df, 0.975)) == float(scipy.stats.t.ppf(0.975, df)), df


def _patch_points():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = tracing
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    return tracing.PATCH_POINTS


def test_every_traced_name_is_importable():
    # the traced benchmark replaces these module attributes with wrappers
    for module, attr, _span, _attrs in _patch_points():
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_every_tracer_reader_reads_a_real_result():
    # the traced benchmark reads these fields off each wrapped call's result,
    # so a field that goes missing (Ctmc.edges, say) must fail here too
    from spnperf.monitor import MonitorPolicy, WorkloadSnapshot, run_loop
    from spnperf.pubsub import PubSubParams, build_pubsub_net
    from spnperf.reachability import explore
    from spnperf.simulator import simulate_run
    from spnperf.solver import DEFAULT_TOL, steady_state

    net = build_pubsub_net(PubSubParams())
    ctmc = explore(net)
    # thresholds below the default's 2.92 and 3.88: the monitor acts once
    records = run_loop([WorkloadSnapshot(1.0, 2, 2, 3)], PubSubParams(), MonitorPolicy(2.8, 3.7))
    results = {
        "explore": (ctmc, {"states": 1260, "edges": 6228}),
        "steady_state": (steady_state(ctmc), {"method": "iterative", "iterations": 28}),
        "simulate_run": (simulate_run(net, 20.0, seed=0), {"firings": 86, "deadlocked": False}),
        "run_loop": (records, {"snapshots": 1, "actions": 1, "outcomes": ["compliant"]}),
    }
    read = {(attr, reader) for _module, attr, _span, reader in _patch_points() if reader}
    assert {attr for attr, _reader in read} == set(results)
    for attr, reader in read:
        result, expected = results[attr]
        attrs = reader(result)
        if "residual" in attrs:
            assert 0.0 <= attrs.pop("residual") <= DEFAULT_TOL
        assert attrs == expected, attr
