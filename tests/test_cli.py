import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spnperf import files, solver
from spnperf.cli import SWEEP_HEADER, main
from spnperf.pubsub import PubSubParams, build_pubsub_net
from nets import mm1k_net, producer_consumer_net, simple_net


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


# -- analyze ------------------------------------------------------------

def test_analyze_params_file(params_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", params_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["response_times"]["accept_publication_response_time"] > 0
    assert doc["response_times"]["notification_response_time"] > 0
    assert doc["states"] == 1260


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


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
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
    "key, value", [("step", 2.5), ("max_actions_per_snapshot", 1.5), ("step", True)]
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
    monkeypatch.setattr(
        solver, "_solve_direct", lambda q, tol: (np.full(q.shape[0], np.nan), 0)
    )
    code, out, err = run_cli(capsys, "analyze", write_net(tmp_path, mm1k_net(1.0, 2.0, 3)))
    assert code == 3
    assert out == ""
    assert "no convergence" in err
