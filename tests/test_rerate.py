"""Re-rating an explored chain: the chain of a net that differs only in rates.

A re-rated chain must equal a fresh ``explore`` of the new net exactly, and
any change of structure must explore afresh.
"""

import dataclasses
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spnperf import files, monitor, solver
from spnperf.cli import main
from spnperf.net import SINGLE_SERVER, InvalidNetError, SpnNet, Transition
from spnperf.pubsub import _RATES, PubSubParams, build_pubsub_net
from spnperf.reachability import (
    StateExplosionError,
    explore,
    rerate,
)
from test_explore_oracle import bounded_nets, weighted_infinite_server_net

COLUMNS = ("markings", "src", "dst", "rate", "trans", "degree")


def assert_same_chain(got, want):
    assert got.net is want.net
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert (a == b).all(), name
    assert got.deadlock_states == want.deadlock_states


def with_rates(net, rates):
    transitions = tuple(dataclasses.replace(t, rate=r) for t, r in zip(net.transitions, rates))
    return SpnNet(net.places, transitions, net.pre, net.post, net.inh)


def counting_explore(monkeypatch):
    calls = []

    def wrapped(net, max_states):
        calls.append(net)
        return explore(net, max_states=max_states)

    monkeypatch.setattr(monitor, "explore", wrapped)
    return calls


@pytest.mark.parametrize("field", _RATES)
def test_every_pubsub_rate_rerates_to_a_fresh_explore(field):
    base = explore(build_pubsub_net(PubSubParams()))
    params = dataclasses.replace(PubSubParams(), **{field: 2.75})
    net = build_pubsub_net(params)
    chain = rerate(base, net)
    assert_same_chain(chain, explore(net))
    # the columns that rates cannot change are shared, not copied
    for name in ("markings", "src", "dst", "trans", "degree"):
        assert getattr(chain, name) is getattr(base, name)
    assert not chain.rate.flags.writeable


@settings(max_examples=150, deadline=None)
@given(bounded_nets(), st.data())
def test_random_nets_rerate_to_a_fresh_explore(net, data):
    rates = data.draw(
        st.lists(
            st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=net.n_transitions,
            max_size=net.n_transitions,
        )
    )
    new = with_rates(net, rates)
    assert_same_chain(rerate(explore(net), new), explore(new))


def test_weighted_infinite_server_rates_follow_the_degree():
    net = weighted_infinite_server_net()
    new = with_rates(net, [0.25, 5.0])
    chain = rerate(explore(net), new)
    assert chain.edges[0] == (0, 1, 0.25 * 3, 0)
    assert_same_chain(chain, explore(new))


def _net_changes():
    # each change keeps the chain irreducible, so that it can be solved
    net = weighted_infinite_server_net()
    pair, split = net.transitions
    pre, post = net.pre.copy(), net.post.copy()
    pre[0, 0] = post[0, 1] = 3
    return net, {
        "arc weight": SpnNet(net.places, net.transitions, pre, post, net.inh),
        "priority": SpnNet(
            net.places, (pair, dataclasses.replace(split, priority=1)),
            net.pre, net.post, net.inh,
        ),
        "semantics": SpnNet(
            net.places,
            (dataclasses.replace(pair, semantics=SINGLE_SERVER), split),
            net.pre, net.post, net.inh,
        ),
        "initial marking": SpnNet(
            (dataclasses.replace(net.places[0], tokens=5),) + net.places[1:],
            net.transitions, net.pre, net.post, net.inh,
        ),
        "inhibitor": SpnNet(
            net.places, net.transitions, net.pre, net.post, np.array([[0, 0], [3, 0]])
        ),
    }


@pytest.mark.parametrize("change", list(_net_changes()[1]))
def test_a_changed_net_structure_explores_afresh(change, monkeypatch):
    net, changed = _net_changes()
    assert rerate(explore(net), changed[change]) is None
    calls, held = counting_explore(monkeypatch), []
    monitor.solve_model(net, held=held)
    ctmc, _dist, _report = monitor.solve_model(changed[change], held=held)
    assert calls == [net, changed[change]]
    assert_same_chain(ctmc, explore(changed[change]))


@pytest.mark.parametrize(
    "overrides",
    [{"net_recv_buffer": 2}, {"broker_memory": 3}, {"n_events": 4}, {"n_publishers": 3}],
    ids=["buffer", "memory", "events", "publishers"],
)
def test_a_changed_pubsub_structure_explores_afresh(overrides, monkeypatch):
    calls, held = counting_explore(monkeypatch), []
    monitor.solve_model(PubSubParams(), held=held)
    params = PubSubParams(**overrides)
    ctmc = monitor.solve_model(params, held=held)[0]
    assert len(calls) == 2
    assert_same_chain(ctmc, explore(calls[1]))


def test_a_rate_change_reuses_the_chain(monkeypatch):
    calls, held = counting_explore(monkeypatch), []
    previous = monitor.solve_model(PubSubParams(), held=held)[0]
    params = PubSubParams(r_pub_qos=3.0)
    ctmc, dist, report = monitor.solve_model(params, held=held)
    assert len(calls) == 1
    assert ctmc.markings is previous.markings
    fresh_ctmc, fresh_dist, fresh_report = monitor.solve_model(params)
    assert len(calls) == 2
    assert (dist.probabilities == fresh_dist.probabilities).all()
    assert report == fresh_report


@pytest.mark.parametrize(
    "first, second",
    [
        (PubSubParams(), PubSubParams(r_pub_qos=3.0)),
        (weighted_infinite_server_net(), with_rates(weighted_infinite_server_net(), [0.25, 5.0])),
    ],
    ids=["pubsub", "net"],
)
def test_calls_without_a_holder_each_explore(first, second, monkeypatch):
    # a call given no holder keeps no chain, so the next call cannot re-rate it
    calls = counting_explore(monkeypatch)
    monitor.solve_model(first)
    monitor.solve_model(second)
    assert len(calls) == 2


def _sweep_broker_memory(tmp_path):
    model = tmp_path / "params.json"
    model.write_text(json.dumps(files.params_to_document(PubSubParams())))
    assert main(["sweep", str(model), "--factor", "broker_memory", "--values", "2,4,6"]) == 0


def _grow_broker_memory(tmp_path):
    policy = monitor.MonitorPolicy(
        0.0, 0.0, action_order=(monitor.GROW_BROKER_MEMORY,), max_actions_per_snapshot=2
    )
    monitor.run_loop([monitor.WorkloadSnapshot(1.0, 2, 2, 3)], PubSubParams(), policy)


@pytest.mark.parametrize(
    "run", [_sweep_broker_memory, _grow_broker_memory], ids=["sweep", "run_loop"]
)
def test_no_earlier_chain_is_alive_when_explore_starts(run, tmp_path, monkeypatch):
    # each of the three solves explores a new structure; the chain before it
    # must already be freed, so that one chain at a time is held
    chains, alive = [], []

    def spied(net, max_states):
        alive.append(sum(ref() is not None for ref in chains))
        ctmc = explore(net, max_states=max_states)
        chains.append(weakref.ref(ctmc))
        return ctmc

    monkeypatch.setattr(monitor, "explore", spied)
    run(tmp_path)
    assert alive == [0, 0, 0]


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_a_bad_rate_on_the_reuse_path_is_invalid(rate):
    net = weighted_infinite_server_net()
    with pytest.raises(InvalidNetError):
        with_rates(net, [rate, 1.0])


def test_max_states_holds_on_the_reuse_path():
    net = build_pubsub_net(PubSubParams())
    previous = explore(net)
    new = build_pubsub_net(PubSubParams(r_pub_qos=2.0))
    assert rerate(previous, new, max_states=1260).n_states == 1260
    with pytest.raises(StateExplosionError) as exc:
        rerate(previous, new, max_states=1259)
    assert exc.value.limit == 1259
    held = []
    monitor.solve_model(net, held=held)
    with pytest.raises(StateExplosionError):
        monitor.solve_model(new, max_states=1259, held=held)


def test_renamed_transitions_rerate():
    net = weighted_infinite_server_net()
    renamed = SpnNet(
        net.places,
        tuple(Transition(f"x{i}", t.rate, t.priority, t.semantics)
              for i, t in enumerate(net.transitions)),
        net.pre, net.post, net.inh,
    )
    # names do not decide the reachability graph, so a renamed net is re-rated
    assert_same_chain(rerate(explore(net), renamed), explore(renamed))


def test_structure_is_a_key_that_only_rates_and_names_leave_alone():
    net = weighted_infinite_server_net()
    key = net.structure
    renamed = SpnNet(
        tuple(dataclasses.replace(p, name=f"q{i}") for i, p in enumerate(net.places)),
        tuple(dataclasses.replace(t, name=f"x{i}") for i, t in enumerate(net.transitions)),
        net.pre, net.post, net.inh,
    )
    for same in (with_rates(net, [0.25, 5.0]), renamed):
        assert same.structure == key and hash(same.structure) == hash(key)
        assert {key: "chain"}[same.structure] == "chain"

    mats = {"pre": net.pre, "post": net.post, "inh": net.inh}

    def one_entry(label, value):
        m = mats[label].copy()
        m[1, 0] = value
        return SpnNet(net.places, net.transitions, **{**mats, label: m})

    pair, split = net.transitions
    changed = {
        "initial tokens": SpnNet(
            (dataclasses.replace(net.places[0], tokens=6),) + net.places[1:],
            net.transitions, **mats,
        ),
        "pre": one_entry("pre", 1),
        "post": one_entry("post", 2),
        "inh": one_entry("inh", 3),
        "priority": SpnNet(
            net.places, (pair, dataclasses.replace(split, priority=1)), **mats
        ),
        "semantics": SpnNet(
            net.places, (dataclasses.replace(pair, semantics=SINGLE_SERVER), split), **mats
        ),
        "added transition": SpnNet(
            net.places, net.transitions + (Transition("idle", 1.0),),
            **{label: np.pad(m, ((0, 0), (0, 1))) for label, m in mats.items()},
        ),
    }
    for change, other in changed.items():
        assert other.structure != key, change


def test_sweep_rows_equal_analyze_of_each_point(tmp_path, capsys):
    values = [0.3, 0.9, 2.5]
    model = tmp_path / "params.json"
    model.write_text(json.dumps(files.params_to_document(PubSubParams())))
    assert main(["sweep", str(model), "--factor", "r_pub_qos",
                 "--values", ",".join(map(str, values))]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == values
    for value, row in zip(values, rows):
        point = tmp_path / f"point-{value}.json"
        point.write_text(json.dumps(files.params_to_document(PubSubParams(r_pub_qos=value))))
        assert main(["analyze", str(point)]) == 0
        doc = json.loads(capsys.readouterr().out)
        times = doc["response_times"]
        assert float(row[1]) == times["accept_publication_response_time"]
        assert float(row[2]) == times["notification_response_time"]
        assert int(row[3]) == doc["states"]
        assert float(row[4]) == doc["residual"]


@pytest.mark.parametrize(
    "overrides, values, derived",
    [
        # 50 states: auto's Gauss-Seidel budget (12 sweeps) runs out before
        # the 15-18 sweeps these points need, so auto falls back to the
        # direct solve, which needs the ordering, layout and envelope windows
        ({"n_publishers": 1, "n_subscribers": 1, "n_events": 1, "broker_capacity": 1,
          "broker_memory": 1, "received_event_capacity": 1}, "0.3,0.6,0.9,1.5,2.5,4",
         ["_band", "_cannot_return", "_level_plan", "_reverse_cuthill_mckee", "_windows"]),
        # 2,100 states: Gauss-Seidel alone, so only its level plan
        ({"n_events": 4, "net_recv_buffer": 2, "net_send_buffer": 2}, "0.5,2",
         ["_cannot_return", "_level_plan"]),
    ],
    ids=["direct", "iterative"],
)
def test_a_rate_sweep_derives_the_solver_structure_once(
    overrides, values, derived, tmp_path, capsys, monkeypatch
):
    # the points share one structure, so its irreducibility verdict and its
    # ordering, layout and envelope windows, or its level plan, are derived
    # for the first point and reused
    calls = []
    for name in ("_cannot_return", "_reverse_cuthill_mckee", "_band", "_windows", "_level_plan"):
        def counted(pattern, _name=name, _fn=getattr(solver, name)):
            calls.append(_name)
            return _fn(pattern)

        monkeypatch.setattr(solver, name, counted)
    model = tmp_path / "params.json"
    model.write_text(json.dumps(files.params_to_document(PubSubParams(**overrides))))
    assert main(["sweep", str(model), "--factor", "r_pub_qos", "--values", values]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + len(values.split(","))
    assert sorted(calls) == derived
