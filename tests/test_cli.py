import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spnperf import files, solver
from spnperf.cli import SWEEP_HEADER, main
from spnperf.monitor import solve_model
from spnperf.pubsub import PubSubParams, build_pubsub_net
from spnperf.reachability import DEFAULT_MAX_STATES, explore
from nets import mm1k_net, producer_consumer_net, random_rate_params, simple_net, stiff_cycle_net
from test_solver_oracle import GS_RTOL, assert_componentwise


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(files.params_to_document(PubSubParams())))
    return str(path)


def write_net(tmp_path, net, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(files.net_to_document(net)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- document formats ---------------------------------------------------

def test_net_round_trip():
    for net in (
        build_pubsub_net(PubSubParams()),
        mm1k_net(1.0, 2.0, 3),
        producer_consumer_net(),
        simple_net(
            [("p", 1), ("q", 0)],
            [("t", 2.0)],
            [("p", "t", "pre", 1), ("q", "t", "post", 1)],
            inh_arcs=[("q", "t", 3)],
        ),
    ):
        doc = files.net_to_document(net)
        back = files.net_from_document(json.loads(json.dumps(doc)))
        assert back.places == net.places
        assert back.transitions == net.transitions
        assert (back.pre == net.pre).all()
        assert (back.post == net.post).all()
        assert (back.inh == net.inh).all()


def test_params_round_trip():
    params = PubSubParams(n_events=5, r_pub_qos=2.5)
    assert files.params_from_document(files.params_to_document(params)) == params


def test_unknown_keys_rejected():
    doc = files.params_to_document(PubSubParams())
    doc["surprise"] = 1
    with pytest.raises(files.FormatError):
        files.params_from_document(doc)
    net_doc = files.net_to_document(producer_consumer_net())
    net_doc["extra"] = []
    with pytest.raises(files.FormatError):
        files.net_from_document(net_doc)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("places", "initial", 1.7),
        ("arcs", "weight", 2.9),
        ("transitions", "priority", True),
        ("arcs", "weight", True),
    ],
)
def test_net_document_counts_must_be_json_integers(tmp_path, capsys, section, key, value):
    doc = files.net_to_document(mm1k_net(1.0, 2.0, 2))
    doc[section][0][key] = value
    with pytest.raises(files.FormatError, match=key):
        files.net_from_document(doc)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, _out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert key in err


def test_net_document_rejects_duplicate_arc(tmp_path, capsys):
    doc = files.net_to_document(mm1k_net(1.0, 2.0, 2))
    doc["arcs"].append(dict(doc["arcs"][0], weight=2))
    with pytest.raises(files.FormatError, match="duplicate"):
        files.net_from_document(doc)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, _out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "duplicate" in err


def test_trace_parsing_and_ordering():
    lines = [
        '{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}',
        '{"t": 2.0, "publishers": 1, "subscribers": 1, "events": 1}',
    ]
    snaps = files.read_trace(lines)
    assert [s.timestamp for s in snaps] == [1.0, 2.0]
    with pytest.raises(files.FormatError):
        files.read_trace(reversed(lines))
    with pytest.raises(files.FormatError):
        files.read_trace(['{"t": 1.0, "publishers": 2}'])


def test_blank_trace_lines_are_skipped():
    lines = [
        '{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}\n',
        '{"t": 2.0, "publishers": 1, "subscribers": 1, "events": 1}\n',
    ]
    snaps = files.read_trace(lines)
    assert len(snaps) == 2
    assert files.read_trace(["\n", lines[0], "\n", "  \t\n", lines[1], "\n"]) == snaps


# -- analyze ------------------------------------------------------------

def test_analyze_params_file(params_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", params_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["response_times"]["accept_publication_response_time"] > 0
    assert doc["response_times"]["notification_response_time"] > 0
    assert doc["states"] == 1260


def test_analyze_adds_the_balance_residual_and_keeps_every_old_key(params_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", params_file)
    assert code == 0
    ctmc, dist, report = solve_model(PubSubParams(), DEFAULT_MAX_STATES)
    old = files.report_to_document(report)
    old["states"] = ctmc.n_states
    old["residual"] = dist.residual
    # the new keys' lines are the only change: without them, the output is
    # the document analyze printed before the keys existed, byte for byte
    stripped = out
    for key in ("balance_residual", "method", "iterations"):
        new = [line for line in out.splitlines() if line.startswith(f'  "{key}": ')]
        assert len(new) == 1
        stripped = stripped.replace(new[0] + "\n", "")
    assert stripped == json.dumps(old, indent=2, sort_keys=True) + "\n"
    doc = json.loads(out)
    assert doc["balance_residual"] == dist.balance_residual <= solver.DEFAULT_TOL
    # residual stays max|pi Q|, the absolute one
    assert doc["residual"] == solver._residuals(dist.probabilities, solver.generator(ctmc))[0]


@pytest.mark.parametrize(
    "params, method, iterations",
    [
        (PubSubParams(), "iterative", 28),
        # rates from 10^U(-1, 1): accelerated Gauss-Seidel solves it within
        # its budget of 287 sweeps, where plain Gauss-Seidel needs 348
        (random_rate_params(1), "iterative", 139),
        # the chain of test_auto_falls_back_to_gth_on_a_random_rate_pubsub_chain:
        # Gauss-Seidel spends its whole budget, then auto hands it to GTH
        (random_rate_params(9, decades=2), "direct", 287),
    ],
    ids=["default", "random-1", "random-two-decades-9"],
)
def test_analyze_reports_the_solver_path(tmp_path, capsys, params, method, iterations):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(files.params_to_document(params)))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["method"], doc["iterations"]) == (method, iterations)


@pytest.mark.parametrize("scale", [1e4, 1e-4])
def test_analyze_does_not_depend_on_the_time_unit(tmp_path, params_file, capsys, scale):
    # every rate times 1e4 or 1e-4 is the same model in another time unit:
    # analyze must accept it, with the same pi and response times over scale
    base = PubSubParams()
    rates = {f.name: getattr(base, f.name) * scale
             for f in dataclasses.fields(base) if f.name.startswith("r_")}
    assert len(rates) == 12
    scaled = dataclasses.replace(base, **rates)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(files.params_to_document(scaled)))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 0, err
    code, unscaled, _ = run_cli(capsys, "analyze", params_file)
    assert code == 0
    times, expected = json.loads(out)["response_times"], json.loads(unscaled)["response_times"]
    for name, value in expected.items():
        assert times[name] * scale == pytest.approx(value, rel=GS_RTOL)
    pi = solve_model(scaled, DEFAULT_MAX_STATES)[1].probabilities
    assert_componentwise(pi, solve_model(base, DEFAULT_MAX_STATES)[1].probabilities, GS_RTOL)


def test_analyze_net_file(tmp_path, capsys):
    path = write_net(tmp_path, mm1k_net(1.0, 2.0, 2))
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["mean_tokens"]["Queue"] == pytest.approx(4 / 7, rel=1e-9)


def test_analyze_invalid_net_exits_2(tmp_path, capsys):
    doc = files.net_to_document(producer_consumer_net())
    doc["transitions"][0]["rate"] = 0.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "t1" in err


def test_analyze_explosion_exits_3(params_file, capsys):
    code, _out, err = run_cli(capsys, "analyze", params_file, "--max-states", "10")
    assert code == 3
    assert "max_states" in err


@pytest.mark.parametrize(
    "argv", [("analyze",), ("simulate", "--horizon", "5", "--replications", "2", "--warmup", "0")]
)
def test_a_firing_past_int64_exits_3(tmp_path, capsys, argv):
    # each firing adds 2 tokens to 2**63 - 2: the first wraps the int64 count
    net = simple_net(
        [("p", 2**63 - 2)], [("t", 1.0)], [("p", "t", "pre", 1), ("p", "t", "post", 3)]
    )
    path = write_net(tmp_path, net)
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 3
    assert out == ""
    assert "place 'p' went past 2**63 - 1 tokens" in err


def test_analyze_exits_3_on_a_chain_past_float64s_range(tmp_path, capsys):
    # pi spans 400 orders of magnitude: Gauss-Seidel ends after its first
    # sweep overflows, and the direct solve's result is refused too
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, "analyze", write_net(tmp_path, stiff_cycle_net()))
    assert code == 3
    assert out == ""
    assert "no convergence after 1 sweeps and the direct solve" in err


def test_analyze_exits_3_when_the_direct_solve_does_not_fit(tmp_path, capsys, monkeypatch):
    # 2,100 states: the dense array of the direct solve needs 8 * 2100**2
    # bytes, over DIRECT_MAX_BYTES, so auto refuses once the sweeps run out
    monkeypatch.setattr(solver, "DEFAULT_MAX_ITER", 2)
    params = PubSubParams(n_events=4, net_recv_buffer=2, net_send_buffer=2)
    ctmc = explore(build_pubsub_net(params))
    assert ctmc.n_states == 2100
    with pytest.raises(solver.ConvergenceError) as exc:
        solver.steady_state(ctmc)
    message = str(exc.value)
    assert message.startswith("no convergence after 2 sweeps (balance residual ")
    assert message.endswith("; the direct solve needs 34 MiB, over its 32 MiB limit")
    path = write_doc(tmp_path, files.params_to_document(params))
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 3
    assert out == ""
    assert message in err


# -- sweep --------------------------------------------------------------

def test_sweep_buffer_trend(params_file, capsys):
    code, out, _ = run_cli(
        capsys, "sweep", params_file, "--factor", "network_buffer", "--values", "10,1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "10"]  # ascending regardless of input order
    assert float(rows[1][1]) < float(rows[0][1])
    assert float(rows[1][2]) < float(rows[0][2])


def test_sweep_qos_factor_takes_floats(params_file, capsys):
    code, out, _ = run_cli(
        capsys, "sweep", params_file, "--factor", "r_pub_qos", "--values", "0.5,2.0"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert float(rows[1][1]) < float(rows[0][1])


def test_sweep_empty_values_prints_header_only(params_file, capsys):
    code, out, _ = run_cli(
        capsys, "sweep", params_file, "--factor", "broker_memory", "--values", ""
    )
    assert code == 0
    assert out.strip() == SWEEP_HEADER


@pytest.mark.parametrize("values", ["1,1e400", "0.5,-1"])
def test_sweep_bad_value_exits_2_before_printing(params_file, capsys, values):
    # every point is checked before the header or any row is printed
    code, out, err = run_cli(
        capsys, "sweep", params_file, "--factor", "r_pub_qos", "--values", values
    )
    assert code == 2
    assert out == ""
    assert "r_pub_qos must be a positive rate" in err


@pytest.mark.parametrize(
    "factor, value",
    [
        ("broker_memory", "1.5"),
        ("network_buffer", "1e400"),
        ("r_pub_qos", "abc"),
        # Python's digit groups and non-ASCII digits are not decimal numbers
        ("broker_memory", "1_0"),
        ("r_pub_qos", "2_5.0"),
        ("broker_memory", "\uff13"),
    ],
)
def test_a_sweep_value_that_does_not_parse_names_the_factor_and_the_value(
    params_file, capsys, factor, value
):
    code, out, err = run_cli(
        capsys, "sweep", params_file, "--factor", factor, "--values", f"1,{value}"
    )
    assert code == 2
    assert out == ""
    assert f"{factor} takes " in err and repr(value) in err


@pytest.mark.parametrize(
    "factor, values, repeated",
    [("broker_memory", "2,2", "'2'"), ("r_pub_qos", "1.5,2,1.50", "'1.50'"), ("network_buffer", "3,03", "'03'")],
)
def test_a_sweep_value_given_twice_is_refused(params_file, capsys, factor, values, repeated):
    # two equal points would print two identical rows
    code, out, err = run_cli(
        capsys, "sweep", params_file, "--factor", factor, "--values", values
    )
    assert code == 2
    assert out == ""
    assert f"{factor} value {repeated} is given twice" in err


@pytest.mark.parametrize("values", ["abc", ""])
def test_sweep_names_an_unknown_factor_before_any_value(params_file, capsys, values):
    code, out, err = run_cli(
        capsys, "sweep", params_file, "--factor", "nope", "--values", values
    )
    assert code == 2
    assert out == ""
    assert "unknown factor 'nope'" in err


def test_sweep_unknown_factor_exits_2(params_file, capsys):
    code, _out, err = run_cli(
        capsys, "sweep", params_file, "--factor", "nope", "--values", "1"
    )
    assert code == 2
    assert "factor" in err


def test_sweep_is_deterministic(params_file, capsys):
    args = ("sweep", params_file, "--factor", "broker_memory", "--values", "1,2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# -- simulate -----------------------------------------------------------

def test_simulate_mm1_2_inside_ci(tmp_path, capsys):
    path = write_net(tmp_path, mm1k_net(1.0, 2.0, 2))
    code, out, _ = run_cli(
        capsys, "simulate", path,
        "--horizon", "2000", "--warmup", "200", "--replications", "30", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    entry = doc["metrics"]["mean_tokens:Queue"]
    assert entry["analytic"] == pytest.approx(4 / 7, rel=1e-9)
    assert entry["inside_ci"] is True


def test_simulate_puts_a_constant_place_inside_its_interval(params_file, capsys):
    # every replication sees Topics at 1: a zero-width interval that holds
    # the analytic mean only if that mean is exactly 1.0
    code, out, _ = run_cli(
        capsys, "simulate", params_file, "--horizon", "50", "--replications", "2", "--seed", "0"
    )
    assert code == 0
    entry = json.loads(out)["metrics"]["mean_tokens:Topics"]
    assert (entry["mean"], entry["half_width_95"], entry["analytic"]) == (1.0, 0.0, 1.0)
    assert entry["inside_ci"] is True


def test_simulate_is_deterministic(tmp_path, capsys):
    path = write_net(tmp_path, mm1k_net(1.0, 2.0, 2))
    args = ("simulate", path, "--horizon", "200", "--replications", "3", "--seed", "9")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_simulate_single_replication_exits_2(params_file, capsys):
    code, _out, _err = run_cli(
        capsys, "simulate", params_file, "--horizon", "100", "--replications", "1"
    )
    assert code == 2


def test_simulate_prints_the_estimates_alone_when_the_chain_is_not_solved(params_file, capsys):
    # --max-states 1 stops exploration: the estimates go out without analytic
    # values or CI verdicts
    code, out, _err = run_cli(
        capsys, "simulate", params_file, "--horizon", "50", "--replications", "2",
        "--max-states", "1",
    )
    assert code == 0
    metrics = json.loads(out)["metrics"]
    net = build_pubsub_net(PubSubParams())
    assert set(metrics) == {
        *(f"throughput:{t.name}" for t in net.transitions),
        *(f"mean_tokens:{p.name}" for p in net.places),
    }
    assert all(set(entry) == {"mean", "half_width_95"} for entry in metrics.values())


def test_simulate_negative_seed_exits_2(params_file, capsys):
    code, out, err = run_cli(capsys, "simulate", params_file, "--horizon", "100", "--seed", "-1")
    assert code == 2 and out == ""
    assert "base_seed must be an integer from 0 to 2**63 - 1, got -1" in err


# -- option validation --------------------------------------------------

def parse_error(capsys, *argv):
    # argparse rejects the value before any file is read: exit 2
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


def monitor_argv(tmp_path, params_file):
    trace = write_trace(tmp_path, [{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}])
    return ("monitor", trace, params_file, write_policy(tmp_path))


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_tol_must_be_finite_and_positive(tmp_path, params_file, capsys, value):
    for argv in (("analyze", params_file), monitor_argv(tmp_path, params_file)):
        err = parse_error(capsys, *argv, "--tol", value)
        assert "--tol" in err


def test_a_valid_tol_is_refused_as_an_unknown_option(tmp_path, params_file, capsys):
    # the solver's DEFAULT_TOL is the one tolerance: no command takes --tol
    for argv in (
        ("analyze", params_file),
        ("sweep", params_file, "--factor", "r_pub_qos", "--values", "1"),
        monitor_argv(tmp_path, params_file),
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "1e-12"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--tol" in captured.err


@pytest.mark.parametrize("value", ["-5", "0"])
def test_max_states_must_be_at_least_1(tmp_path, params_file, capsys, value):
    for argv in (
        ("analyze", params_file),
        ("sweep", params_file, "--factor", "broker_memory", "--values", "1"),
        ("simulate", params_file, "--horizon", "10", "--replications", "2"),
        monitor_argv(tmp_path, params_file),
    ):
        err = parse_error(capsys, *argv, "--max-states", value)
        assert "--max-states" in err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "abc"])
def test_horizon_must_be_finite_and_positive(params_file, capsys, value):
    err = parse_error(capsys, "simulate", params_file, "--horizon", value)
    assert "--horizon" in err


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_warmup_must_be_finite_and_non_negative(params_file, capsys, value):
    err = parse_error(capsys, "simulate", params_file, "--horizon", "10", "--warmup", value)
    assert "--warmup" in err


def test_infinite_horizon_exits_2_without_simulating(params_file):
    # a simulation with an infinite horizon never ends, so run the CLI in a
    # child process that fails the test by timing out instead of hanging it
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-m", "spnperf.cli", "simulate", params_file,
         "--horizon", "inf", "--warmup", "0"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert "--horizon" in out.stderr


def test_inputs_are_read_as_utf8_whatever_the_locale(tmp_path, params_file):
    # JSON is UTF-8 (RFC 8259): in the C locale, with neither locale coercion
    # nor UTF-8 mode, a non-ASCII name or a no-break space must still decode
    doc = json.loads(json.dumps(files.net_to_document(build_pubsub_net(PubSubParams()))))
    doc["places"][0]["name"] = "PublishersIdl\u00e9"
    for arc in doc["arcs"]:
        if arc["place"] == "PublishersIdle":
            arc["place"] = "PublishersIdl\u00e9"
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    # the trace reader strips each line, a no-break space included
    trace = tmp_path / "trace.jsonl"
    trace.write_text(
        '{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}\u00a0\n', encoding="utf-8"
    )
    policy = write_policy(tmp_path)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    c_locale = {**env, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    utf8_mode = {**env, "PYTHONUTF8": "1"}
    printed = {}
    for argv in (["analyze", str(net)], ["monitor", str(trace), params_file, policy]):
        outs = [
            subprocess.run(
                [sys.executable, "-m", "spnperf.cli", *argv],
                env=child_env, capture_output=True, timeout=120,
            )
            for child_env in (c_locale, utf8_mode)
        ]
        for out in outs:
            assert out.returncode == 0, (argv, out.stderr)
        assert outs[0].stdout == outs[1].stdout, argv
        printed[argv[0]] = outs[0].stdout
    assert "PublishersIdl\u00e9" in json.loads(printed["analyze"])["mean_tokens"]
    assert json.loads(printed["monitor"])["outcome"] == "compliant"


# -- monitor ------------------------------------------------------------

def write_policy(tmp_path, **overrides):
    doc = {
        "max_accept_publication_response_time": 2.8,
        "max_notification_response_time": 3.7,
    }
    doc.update(overrides)
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_trace(tmp_path, rows):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


def test_monitor_remediation(tmp_path, params_file, capsys):
    trace = write_trace(tmp_path, [{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}])
    policy = write_policy(tmp_path)
    code, out, _ = run_cli(capsys, "monitor", trace, params_file, policy)
    assert code == 0
    (line,) = out.strip().splitlines()
    record = json.loads(line)
    assert record["outcome"] == "compliant"
    assert "grow_network_buffers" in record["actions"]


def test_monitor_exhausted_actions_still_exit_0(tmp_path, params_file, capsys):
    trace = write_trace(tmp_path, [{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}])
    policy = write_policy(
        tmp_path,
        max_accept_publication_response_time=0.0,
        max_notification_response_time=0.0,
        caps={"net_recv_buffer": 1, "net_send_buffer": 1, "broker_memory": 2},
    )
    code, out, _ = run_cli(capsys, "monitor", trace, params_file, policy)
    assert code == 0
    assert json.loads(out.strip())["outcome"] == "exhausted_actions"


def test_monitor_prints_why_it_stopped(tmp_path, params_file, capsys):
    # one action allowed while growth is still possible: the budget stopped it
    trace = write_trace(tmp_path, [{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}])
    policy = write_policy(
        tmp_path,
        max_accept_publication_response_time=0.0,
        max_notification_response_time=0.0,
        max_actions_per_snapshot=1,
    )
    code, out, _ = run_cli(capsys, "monitor", trace, params_file, policy)
    assert code == 0
    record = json.loads(out)
    assert (record["outcome"], record["stop_reason"]) == ("exhausted_actions", "action_budget_spent")


def test_monitor_empty_trace(tmp_path, params_file, capsys):
    trace = write_trace(tmp_path, [])
    policy = write_policy(tmp_path)
    code, out, _ = run_cli(capsys, "monitor", trace, params_file, policy)
    assert code == 0
    assert out == ""


def test_monitor_malformed_trace_exits_2(tmp_path, params_file, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("not json\n")
    policy = write_policy(tmp_path)
    code, _out, _err = run_cli(capsys, "monitor", str(trace), params_file, policy)
    assert code == 2


# -- export-net ---------------------------------------------------------

def test_export_net_round_trips(params_file, capsys):
    code, out, _ = run_cli(capsys, "export-net", params_file)
    assert code == 0
    net = files.net_from_document(json.loads(out))
    reference = build_pubsub_net(PubSubParams())
    assert net.places == reference.places
    assert net.transitions == reference.transitions
    assert (net.pre == reference.pre).all()
    assert (net.post == reference.post).all()


# -- one metrics path ---------------------------------------------------

def test_params_net_and_simulate_print_the_same_analytic_values(tmp_path, params_file, capsys):
    # the params document, its exported net and simulate's analytic column
    # all come from one solve and one metrics function
    code, by_params, _ = run_cli(capsys, "analyze", params_file)
    assert code == 0
    by_params = json.loads(by_params)
    code, exported, _ = run_cli(capsys, "export-net", params_file)
    assert code == 0
    net_path = tmp_path / "net.json"
    net_path.write_text(exported)
    code, by_net, _ = run_cli(capsys, "analyze", str(net_path))
    assert code == 0
    by_net = json.loads(by_net)
    for key in ("transition_throughputs", "mean_tokens", "states", "residual"):
        assert by_net[key] == by_params[key], key

    code, out, _ = run_cli(
        capsys, "simulate", params_file, "--horizon", "20", "--replications", "2"
    )
    assert code == 0
    metrics = json.loads(out)["metrics"]
    expected = {
        **{f"throughput:{k}": v for k, v in by_params["transition_throughputs"].items()},
        **{f"mean_tokens:{k}": v for k, v in by_params["mean_tokens"].items()},
    }
    assert {name: entry["analytic"] for name, entry in metrics.items()} == expected


def test_export_net_at_qos_level_0_carries_four_times_r_pub_qos(tmp_path, capsys):
    # the QoS level becomes a rate in build_pubsub_net alone, so the exported
    # net solves to what its params document does
    params_path = write_doc(
        tmp_path, files.params_to_document(PubSubParams(qos_level=0, r_pub_qos=1.3))
    )
    code, by_params, _ = run_cli(capsys, "analyze", params_path)
    assert code == 0
    code, exported, _ = run_cli(capsys, "export-net", params_path)
    assert code == 0
    rates = {t["name"]: t["rate"] for t in json.loads(exported)["transitions"]}
    assert rates["pubQoSProcessing"] == 4 * 1.3
    net_path = tmp_path / "net.json"
    net_path.write_text(exported)
    code, by_net, _ = run_cli(capsys, "analyze", str(net_path))
    assert code == 0
    by_params, by_net = json.loads(by_params), json.loads(by_net)
    for key in ("transition_throughputs", "mean_tokens", "states", "residual"):
        assert by_net[key] == by_params[key], key


# -- JSON types in every loader -------------------------------------------

def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("transitions", "rate", True),
        ("transitions", "rate", "2.0"),
        ("transitions", "name", 7),
        ("places", "name", 7),
    ],
)
def test_net_document_rate_and_names_are_not_coerced(tmp_path, capsys, section, key, value):
    doc = files.net_to_document(mm1k_net(1.0, 2.0, 2))
    doc[section][0][key] = value
    with pytest.raises(files.FormatError, match=key):
        files.net_from_document(doc)
    code, _out, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 2
    assert key in err


@pytest.mark.parametrize(
    "key, value",
    [("step", 2.5), ("max_actions_per_snapshot", 1.5), ("step", True), ("step", 1)],
)
def test_policy_counts_must_be_json_integers(tmp_path, params_file, capsys, key, value):
    doc = {
        "max_accept_publication_response_time": 2.8,
        "max_notification_response_time": 3.7,
        key: value,
    }
    with pytest.raises(files.FormatError, match=key):
        files.policy_from_document(doc)
    trace = write_trace(tmp_path, [{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}])
    code, _out, err = run_cli(capsys, "monitor", trace, params_file, write_doc(tmp_path, doc))
    assert code == 2
    assert key in err


@pytest.mark.parametrize(
    "key, value", [("publishers", 2.9), ("subscribers", True), ("events", 3.5), ("t", "1.0")]
)
def test_trace_fields_are_not_coerced(tmp_path, params_file, capsys, key, value):
    row = {"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3, key: value}
    with pytest.raises(files.FormatError, match=key):
        files.read_trace([json.dumps(row)])
    trace = write_trace(tmp_path, [row])
    code, _out, err = run_cli(capsys, "monitor", trace, params_file, write_policy(tmp_path))
    assert code == 2
    assert key in err


# -- the printed numbers are finite -----------------------------------------

def strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-finite number {constant} in output")

    return json.loads(text, parse_constant=refuse)


def test_analyze_prints_finite_json_for_a_stiff_tail(tmp_path, capsys):
    # M/M/1/1900 with rho = 1.5: pi spans about 335 orders of magnitude
    code, out, _ = run_cli(capsys, "analyze", write_net(tmp_path, mm1k_net(3.0, 2.0, 1900)))
    assert code == 0
    doc = strict_json(out)
    assert doc["states"] == 1901
    # in steady state the server is busy except in the empty queue
    assert doc["transition_throughputs"]["serve"] == pytest.approx(2.0, rel=1e-12)


def test_non_finite_distribution_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "_solve_direct", lambda q: np.full(q.shape[0], np.nan))
    code, out, err = run_cli(capsys, "analyze", write_net(tmp_path, mm1k_net(1.0, 2.0, 3)))
    assert code == 3
    assert out == ""
    assert "no convergence" in err


# -- policy values and trace timestamps are checked before any evaluation ------

def refuse_evaluation(monkeypatch):
    # the monitor's only path to a solve: any call means the input got through
    from spnperf import monitor

    def fail(*_args, **_kwargs):
        raise AssertionError("evaluated an input that should have been refused")

    monkeypatch.setattr(monitor, "evaluate", fail)


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"caps": {"broker_memory": 2.5}}, "broker_memory"),
        ({"caps": {"net_send_buffer": True}}, "net_send_buffer"),
        ({"caps": {"broker_memmory": 4}}, "broker_memmory"),
        ({"caps": {"broker_memory": 0}}, "caps"),
        ({"caps": [4]}, "caps"),
        ({"max_accept_publication_response_time": "2.8"}, "max_accept_publication_response_time"),
        ({"max_notification_response_time": float("nan")}, "max_notification_response_time"),
        ({"max_notification_response_time": -1.0}, "max_notification_response_time"),
        ({"qos_reduction_allowed": "no"}, "qos_reduction_allowed"),
        ({"qos_reduction_allowed": 1}, "qos_reduction_allowed"),
        # the QoS level is a params value, so a policy naming it is refused
        ({"initial_qos_level": 5}, "initial_qos_level"),
        ({"initial_qos_level": 1.0}, "initial_qos_level"),
    ],
)
def test_policy_values_are_refused_before_evaluation(
    tmp_path, params_file, capsys, monkeypatch, overrides, key
):
    doc = {
        "max_accept_publication_response_time": 2.8,
        "max_notification_response_time": 3.7,
        "qos_reduction_allowed": True,
        **overrides,
    }
    with pytest.raises(files.FormatError, match=key):
        files.policy_from_document(doc)
    refuse_evaluation(monkeypatch)
    trace = write_trace(tmp_path, [{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}])
    code, out, err = run_cli(capsys, "monitor", trace, params_file, write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert key in err


def test_policy_bounds_still_load(tmp_path, capsys):
    # zero and infinite thresholds, a cap of 1 and QoS level 0 (a params
    # value) are all legal
    doc = {
        "max_accept_publication_response_time": 0,
        "max_notification_response_time": float("inf"),
        "qos_reduction_allowed": False,
        "caps": {"net_recv_buffer": 1, "net_send_buffer": 1, "broker_memory": 1},
    }
    policy = files.policy_from_document(doc)
    assert policy.caps == doc["caps"]
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(files.params_to_document(PubSubParams(qos_level=0))))
    trace = write_trace(tmp_path, [{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}])
    code, out, _ = run_cli(capsys, "monitor", trace, str(params_path), write_doc(tmp_path, doc))
    assert code == 0
    assert json.loads(out)["outcome"] == "exhausted_actions"


@pytest.mark.parametrize("t", ["NaN", "Infinity", "-Infinity"])
def test_trace_timestamp_must_be_finite(tmp_path, params_file, capsys, monkeypatch, t):
    line = f'{{"t": {t}, "publishers": 2, "subscribers": 2, "events": 3}}'
    with pytest.raises(files.FormatError, match="trace line 1"):
        files.read_trace([line])
    refuse_evaluation(monkeypatch)
    trace = tmp_path / "trace.jsonl"
    trace.write_text(line + "\n")
    code, out, err = run_cli(capsys, "monitor", str(trace), params_file, write_policy(tmp_path))
    assert code == 2
    assert out == ""
    assert "finite" in err


# -- refusals ---------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "{model}", "--factor", "broker_memory", "--values", "1"),
        ("monitor", "{trace}", "{model}", "{policy}"),
        ("export-net", "{model}"),
    ],
)
def test_params_only_commands_refuse_a_net_document(tmp_path, capsys, argv):
    paths = {
        "model": write_net(tmp_path, mm1k_net(1.0, 2.0, 2)),
        "trace": write_trace(tmp_path, [{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}]),
        "policy": write_policy(tmp_path),
    }
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert out == ""
    assert f"{argv[0]} requires a pub/sub params file" in err


def test_monitor_refuses_a_policy_that_is_not_json(tmp_path, params_file, capsys):
    policy = tmp_path / "policy.json"
    policy.write_text("{not json")
    trace = write_trace(tmp_path, [{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}])
    code, _out, err = run_cli(capsys, "monitor", trace, params_file, str(policy))
    assert code == 2
    assert "not valid JSON" in err


def _mm1k_document():
    return files.net_to_document(mm1k_net(1.0, 2.0, 2))


def _set(path, value):
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["places"].append(5), "place must be a JSON object"),
        (_set(("transitions", 0, "semantics"), "many_server"), "unknown semantics"),
        (_set(("arcs", 0, "kind"), "test"), "unknown arc kind"),
        (_set(("arcs", 0, "place"), "Nowhere"), "unknown node 'Nowhere'"),
        # 0 is no arc in the weight matrices: these arcs would load as absent
        (_set(("arcs", 0, "weight"), 0), "pre arc 'Free' -> 'arrive' has weight 0"),
        (_set(("arcs", 2, "weight"), 0), "post arc 'Free' -> 'serve' has weight 0"),
        (lambda doc: doc["arcs"].append(
            {"place": "Queue", "transition": "arrive", "kind": "inhibitor", "weight": 0}
        ), "inhibitor arc 'Queue' -> 'arrive' has weight 0"),
        # the weight matrices refuse a negative weight without naming the arc
        (_set(("arcs", 0, "weight"), -1), "pre arc 'Free' -> 'arrive' has weight -1"),
        (_set(("arcs", 2, "weight"), -1), "post arc 'Free' -> 'serve' has weight -1"),
        (lambda doc: doc["arcs"].append(
            {"place": "Queue", "transition": "arrive", "kind": "inhibitor", "weight": -1}
        ), "inhibitor arc 'Queue' -> 'arrive' has weight -1"),
    ],
)
def test_malformed_net_documents_exit_2(tmp_path, capsys, edit, message):
    doc = _mm1k_document()
    edit(doc)
    with pytest.raises(files.FormatError, match=message):
        files.net_from_document(doc)
    code, out, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert message in err


def test_a_net_document_must_be_an_object():
    with pytest.raises(files.FormatError, match="net document must be a JSON object"):
        files.net_from_document([])


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set(("places", 0, "initial"), -1), "negative initial tokens"),
        (lambda doc: doc["transitions"].append(doc["transitions"][0]),
         "duplicate name: transition 'arrive'"),
        (_set(("transitions", 0, "priority"), -1), "negative priority"),
    ],
)
def test_analyze_refuses_an_invalid_net(tmp_path, capsys, edit, message):
    doc = _mm1k_document()
    edit(doc)
    code, out, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "action_order, message",
    [
        ("lower_qos_level", "action_order must be a list of strings"),
        (["grow_broker_memory", 3], "action_order must be a list of strings"),
        (["grow_broker_memory", "grow_broker_memory"], "action_order repeats"),
    ],
)
def test_policy_action_order_is_a_list_of_distinct_actions(
    tmp_path, params_file, capsys, monkeypatch, action_order, message
):
    doc = {
        "max_accept_publication_response_time": 2.8,
        "max_notification_response_time": 3.7,
        "action_order": action_order,
    }
    with pytest.raises(files.FormatError, match=message):
        files.policy_from_document(doc)
    refuse_evaluation(monkeypatch)
    trace = write_trace(tmp_path, [{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}])
    code, out, err = run_cli(capsys, "monitor", trace, params_file, write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert "action_order" in err


# -- the Python API and the documents refuse the same values ---------------

def test_a_bool_rate_in_a_params_document_exits_2(tmp_path, capsys):
    # it was analysed at rate 1.0, and export-net wrote "rate": true
    doc = dict(files.params_to_document(PubSubParams()), r_publish=True)
    with pytest.raises(files.FormatError, match="r_publish"):
        files.params_from_document(doc)
    for command in ("analyze", "export-net"):
        code, out, err = run_cli(capsys, command, write_doc(tmp_path, doc))
        assert code == 2, command
        assert out == ""
        assert "r_publish" in err


def test_integer_rates_round_trip_through_export_net(tmp_path, capsys):
    doc = dict(files.params_to_document(PubSubParams()), r_publish=2, r_notify=4)
    params_path = write_doc(tmp_path, doc)
    code, by_params, _ = run_cli(capsys, "analyze", params_path)
    assert code == 0
    code, exported, _ = run_cli(capsys, "export-net", params_path)
    assert code == 0
    net_path = tmp_path / "net.json"
    net_path.write_text(exported)
    code, by_net, _ = run_cli(capsys, "analyze", str(net_path))
    assert code == 0
    assert (
        json.loads(by_net)["transition_throughputs"]
        == json.loads(by_params)["transition_throughputs"]
    )


def test_a_negative_action_budget_in_a_policy_exits_2(tmp_path, params_file, capsys, monkeypatch):
    doc = {
        "max_accept_publication_response_time": 0.0,
        "max_notification_response_time": 0.0,
        "max_actions_per_snapshot": -3,
    }
    with pytest.raises(files.FormatError, match="max_actions_per_snapshot"):
        files.policy_from_document(doc)
    refuse_evaluation(monkeypatch)
    trace = write_trace(tmp_path, [{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}])
    code, out, err = run_cli(capsys, "monitor", trace, params_file, write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert "max_actions_per_snapshot" in err


@pytest.mark.parametrize(
    "section, key, value",
    [("places", "initial", 10**30), ("arcs", "weight", 10**30), ("transitions", "rate", 10**400)],
    ids=["initial", "weight", "rate"],
)
def test_integers_beyond_int64_exit_2(tmp_path, capsys, section, key, value):
    # int64 conversion and float() raised OverflowError: a traceback, exit 1
    doc = files.net_to_document(mm1k_net(1.0, 2.0, 2))
    doc[section][0][key] = value
    with pytest.raises(files.FormatError, match=key):
        files.net_from_document(doc)
    code, out, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert key in err


# -- a key repeated within one JSON object ------------------------------------

def repeat_key(doc, key, first):
    """``doc`` as JSON text with ``key`` given twice in the first object that
    has it: ``first``, then the document's own value, which json keeps."""
    text = json.dumps(doc)
    return text.replace(f'"{key}": ', f'"{key}": {json.dumps(first)}, "{key}": ', 1)


def test_a_params_document_with_a_repeated_key_exits_2(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(repeat_key(files.params_to_document(PubSubParams()), "n_events", 9))
    with pytest.raises(files.FormatError, match="repeated key 'n_events'"):
        files.load_json(path)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert "n_events" in err


def test_a_net_document_with_a_repeated_key_exits_2(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(repeat_key(files.net_to_document(mm1k_net(1.0, 2.0, 2)), "rate", 5.0))
    with pytest.raises(files.FormatError, match="repeated key 'rate'"):
        files.load_json(path)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert "rate" in err


def test_a_policy_document_with_a_repeated_key_exits_2(
    tmp_path, params_file, capsys, monkeypatch
):
    doc = {
        "max_accept_publication_response_time": 2.8,
        "max_notification_response_time": 3.7,
        "step": 2,
    }
    # json alone loads this with step 2
    path = tmp_path / "policy.json"
    path.write_text(repeat_key(doc, "step", 2.5))
    with pytest.raises(files.FormatError, match="repeated key 'step'"):
        files.load_json(path)
    refuse_evaluation(monkeypatch)
    trace = write_trace(tmp_path, [{"t": 1.0, "publishers": 2, "subscribers": 2, "events": 3}])
    code, out, err = run_cli(capsys, "monitor", trace, params_file, str(path))
    assert code == 2
    assert out == ""
    assert "step" in err


def test_a_trace_line_with_a_repeated_key_exits_2(tmp_path, params_file, capsys, monkeypatch):
    line = repeat_key({"t": 1.0, "publishers": 2, "subscribers": 2, "events": 1}, "events", 3)
    with pytest.raises(files.FormatError, match="trace line 1: repeated key 'events'"):
        files.read_trace([line])
    refuse_evaluation(monkeypatch)
    trace = tmp_path / "trace.jsonl"
    trace.write_text(line + "\n")
    code, out, err = run_cli(capsys, "monitor", str(trace), params_file, write_policy(tmp_path))
    assert code == 2
    assert out == ""
    assert "events" in err
