"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import dataclasses
import itertools
import json
import time
from contextlib import contextmanager

import numpy as np

from spnperf.cli import main
from spnperf.monitor import COMPLIANT, MonitorPolicy, WorkloadSnapshot, run_loop
from spnperf.net import Place, SpnNet, Transition
from spnperf.pubsub import (
    PubSubParams,
    build_pubsub_net,
    headline_metrics,
    p_invariants,
    set_factor,
)
from spnperf.reachability import check_place_invariant, explore
from spnperf.simulator import estimate_metrics
from spnperf.solver import (
    mean_token_count,
    steady_state,
    transition_throughput,
)
from nets import mm1k_net, mm1k_pi, producer_consumer_net, two_state_net
from spnperf import files


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def evaluate(params, method="auto"):
    ctmc = explore(build_pubsub_net(params))
    dist = steady_state(ctmc, method=method)
    return ctmc, dist, headline_metrics(ctmc, dist)


def test_criterion_1_mm1k_closed_form():
    with criterion(1, "M/M/1/K steady state matches closed form to 1e-9 in < 1 s"):
        start = time.perf_counter()
        for k in (2, 5, 10, 50):
            for lam, mu in ((1.0, 2.0), (2.0, 3.0), (0.5, 1.0)):
                ctmc = explore(mm1k_net(lam, mu, k))
                dist = steady_state(ctmc)
                # BFS numbers states by increasing queue length
                expected = mm1k_pi(lam, mu, k)
                rel = np.abs(dist.probabilities - expected) / expected
                assert rel.max() <= 1e-9, (k, lam, mu, rel.max())
        assert time.perf_counter() - start < 1.0


def _naive_fixed_point_states(net):
    """Independent reachability oracle: saturating set expansion with its own
    enabling/firing logic (priority masking and inhibitors included)."""
    n_p, n_t = net.n_places, net.n_transitions

    def successors(m):
        enabled = []
        for t in range(n_t):
            ok = True
            for p in range(n_p):
                if m[p] < net.pre[p, t]:
                    ok = False
                    break
                if net.inh[p, t] and m[p] >= net.inh[p, t]:
                    ok = False
                    break
            if ok:
                enabled.append(t)
        if not enabled:
            return []
        top = max(net.transitions[t].priority for t in enabled)
        out = []
        for t in enabled:
            if net.transitions[t].priority != top:
                continue
            out.append(
                tuple(m[p] - int(net.pre[p, t]) + int(net.post[p, t]) for p in range(n_p))
            )
        return out

    states = {net.initial_marking()}
    while True:
        new = set()
        for m in states:
            for succ in successors(m):
                if succ not in states:
                    new.add(succ)
        if not new:
            return states
        states |= new


def _random_conservative_net(rng, index):
    """Random net whose transitions conserve the total token count."""
    n_p = int(rng.integers(2, 7))
    n_t = int(rng.integers(1, 7))
    pre = np.zeros((n_p, n_t), dtype=np.int64)
    post = np.zeros((n_p, n_t), dtype=np.int64)
    inh = np.zeros((n_p, n_t), dtype=np.int64)
    for t in range(n_t):
        units = int(rng.integers(1, 3))
        for _ in range(units):
            pre[int(rng.integers(n_p)), t] += 1
            post[int(rng.integers(n_p)), t] += 1
        if rng.random() < 0.25:
            inh[int(rng.integers(n_p)), t] = int(rng.integers(1, 4))
    places = tuple(Place(f"p{i}", int(rng.integers(0, 4))) for i in range(n_p))
    transitions = tuple(
        Transition(f"t{j}", float(rng.uniform(0.5, 3.0)), int(rng.integers(0, 2)))
        for j in range(n_t)
    )
    return SpnNet(places, transitions, pre, post, inh)


def test_criterion_2_reachability_equals_naive_fixed_point():
    with criterion(2, "BFS exploration equals naive fixed-point enumeration on 20 random nets"):
        rng = np.random.default_rng(20240817)
        for i in range(20):
            net = _random_conservative_net(rng, i)
            ctmc = explore(net)
            states = set(map(tuple, ctmc.markings.tolist()))
            assert states == _naive_fixed_point_states(net), i


def _solver_suite_chains():
    yield explore(two_state_net(2.0, 3.0))
    yield explore(producer_consumer_net())
    for k in (2, 10, 50):
        yield explore(mm1k_net(1.0, 2.0, k))
    yield explore(build_pubsub_net(PubSubParams()))  # 1260 states
    buffered = set_factor(
        set_factor(PubSubParams(), "net_recv_buffer", 10), "net_send_buffer", 10
    )
    yield explore(build_pubsub_net(buffered))  # 1500 states


def test_criterion_3_direct_iterative_cross_check():
    with criterion(3, "direct and iterative solvers agree to 1e-8 on all suite chains"):
        for ctmc in _solver_suite_chains():
            assert ctmc.n_states <= 2000
            direct = steady_state(ctmc, method="direct")
            iterative = steady_state(ctmc, method="iterative")
            gap = np.abs(direct.probabilities - iterative.probabilities).max()
            assert gap <= 1e-8, (ctmc.n_states, gap)


def test_criterion_4_simulator_solver_agreement():
    with criterion(4, "analytic metrics inside 95% simulation CIs for >= 90% of metrics"):
        net = build_pubsub_net(PubSubParams())
        estimate = estimate_metrics(
            net, horizon=5000.0, warmup=500.0, replications=30, base_seed=42
        )
        ctmc = explore(net)
        dist = steady_state(ctmc)
        inside = total = 0
        for name, (mean, hw) in estimate.metrics.items():
            kind, _, target = name.partition(":")
            analytic = (
                transition_throughput(ctmc, dist, target)
                if kind == "throughput"
                else mean_token_count(ctmc, dist, target)
            )
            total += 1
            inside += abs(analytic - mean) <= hw
        assert inside / total >= 0.9, (inside, total)


def test_criterion_5_p_invariant_grid():
    with criterion(5, "all P-invariants hold over the 3x3x3 parameter grid in < 30 s"):
        start = time.perf_counter()
        for buffers, memory, events in itertools.product((1, 2, 4), (1, 2, 4), (2, 3, 4)):
            params = PubSubParams(
                n_events=events,
                broker_memory=memory,
                net_recv_buffer=buffers,
                net_send_buffer=buffers,
            )
            ctmc = explore(build_pubsub_net(params))
            for label, weights, expected in p_invariants(params):
                violator = check_place_invariant(ctmc, weights, expected)
                assert violator is None, (label, buffers, memory, events, violator)
        assert time.perf_counter() - start < 30.0


def _sweep_response_times(factor_setter, values):
    rows = []
    for value in values:
        _c, _d, report = evaluate(factor_setter(PubSubParams(), value))
        rows.append(
            (
                report.response_times["accept_publication_response_time"],
                report.response_times["notification_response_time"],
            )
        )
    return rows


def _set_buffers(params, value):
    return set_factor(set_factor(params, "net_recv_buffer", value), "net_send_buffer", value)


def test_criterion_6_network_buffer_trend():
    with criterion(6, "buffers 1..10: non-increasing response times, strictly lower at 10"):
        rows = _sweep_response_times(_set_buffers, range(1, 11))
        for prev, cur in zip(rows, rows[1:]):
            assert cur[0] <= prev[0] + 1e-12 and cur[1] <= prev[1] + 1e-12
        assert rows[-1][0] < rows[0][0] and rows[-1][1] < rows[0][1]


def test_criterion_7_broker_memory_trend():
    with criterion(7, "broker memory 1..10: non-increasing response times, strictly lower at 10"):
        rows = _sweep_response_times(
            lambda p, v: set_factor(p, "broker_memory", v), range(1, 11)
        )
        for prev, cur in zip(rows, rows[1:]):
            assert cur[0] <= prev[0] + 1e-12 and cur[1] <= prev[1] + 1e-12
        assert rows[-1][0] < rows[0][0] and rows[-1][1] < rows[0][1]


def test_criterion_8_qos_rate_trend():
    with criterion(8, "both response times strictly decrease over r_pub_qos 0.25..8"):
        rows = _sweep_response_times(
            lambda p, v: set_factor(p, "r_pub_qos", v), (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
        )
        for prev, cur in zip(rows, rows[1:]):
            assert cur[0] < prev[0] and cur[1] < prev[1]


def test_criterion_9_monitor_convergence():
    with criterion(9, "monitor loop remediates the degraded buffer=1 configuration"):
        # thresholds frozen between the buffer=1 evaluation
        # (accept 2.9239, notify 3.8813) and the buffer=10 one
        # (accept 2.6723, notify 3.5866)
        policy = MonitorPolicy(
            max_accept_publication_response_time=2.8,
            max_notification_response_time=3.7,
        )
        (record,) = run_loop([WorkloadSnapshot(1.0, 2, 2, 3)], PubSubParams(), policy)
        assert record.outcome == COMPLIANT
        assert 1 <= len(record.actions) <= 10


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "sweep and simulate outputs byte-identical across repeated runs"):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(files.params_to_document(PubSubParams())))

        def run(*argv):
            assert main(list(argv)) == 0
            return capsys.readouterr().out

        sweep_args = (
            "sweep", str(params_path), "--factor", "network_buffer", "--values", "1,2,4"
        )
        assert run(*sweep_args) == run(*sweep_args)

        sim_args = (
            "simulate", str(params_path),
            "--horizon", "300", "--replications", "4", "--seed", "7",
        )
        assert run(*sim_args) == run(*sim_args)


def test_criterion_11_rate_scaling():
    with criterion(11, "tripling all rates keeps pi and divides response times by 3"):
        params = PubSubParams()
        tripled = dataclasses.replace(
            params,
            **{
                f.name: getattr(params, f.name) * 3
                for f in dataclasses.fields(params)
                if f.name.startswith("r_")
            },
        )
        _c1, d1, r1 = evaluate(params)
        _c2, d2, r2 = evaluate(tripled)
        assert np.abs(d1.probabilities - d2.probabilities).max() <= 1e-10
        for key, value in r1.response_times.items():
            scaled = r2.response_times[key]
            assert abs(scaled - value / 3) <= 1e-9 * (value / 3), key
