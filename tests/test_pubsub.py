import dataclasses

import numpy as np
import pytest

from spnperf.net import INFINITE_SERVER, SINGLE_SERVER
from spnperf.pubsub import (
    PLACE_NAMES,
    TRANSITION_NAMES,
    PubSubParams,
    build_pubsub_net,
    headline_metrics,
    p_invariants,
    qos_rate,
    set_factor,
)
from spnperf.reachability import check_place_invariant, explore
from spnperf.solver import steady_state


def analyze(params):
    ctmc = explore(build_pubsub_net(params))
    dist = steady_state(ctmc)
    return ctmc, dist, headline_metrics(ctmc, dist)


def test_canonical_layout():
    net = build_pubsub_net(PubSubParams())
    assert tuple(p.name for p in net.places) == PLACE_NAMES
    assert tuple(t.name for t in net.transitions) == TRANSITION_NAMES
    assert net.n_places == 18
    assert net.n_transitions == 13
    infinite = {t.name for t in net.transitions if t.semantics == INFINITE_SERVER}
    assert infinite == {"publish", "connectPub", "connectSub", "subscribe"}
    assert all(t.priority == 0 for t in net.transitions)
    assert all(
        t.semantics == SINGLE_SERVER for t in net.transitions if t.name not in infinite
    )


def test_bad_populations_rejected():
    with pytest.raises(ValueError):
        PubSubParams(n_publishers=0)
    with pytest.raises(ValueError):
        PubSubParams(r_publish=0.0)


def test_minimal_params_state_count_regression():
    params = PubSubParams(
        n_publishers=1, n_subscribers=1, n_topics=1, n_events=1,
        broker_capacity=1, broker_memory=1, net_recv_buffer=1,
        net_send_buffer=1, received_event_capacity=1,
    )
    ctmc = explore(build_pubsub_net(params))
    # frozen from the first oracle enumeration of this configuration
    assert ctmc.n_states == 50


def test_p_invariants_hold_on_minimal_and_default_nets():
    for params in (
        PubSubParams(),
        PubSubParams(
            n_publishers=1, n_subscribers=1, n_topics=1, n_events=1,
            broker_capacity=1, broker_memory=1, net_recv_buffer=1,
            net_send_buffer=1, received_event_capacity=1,
        ),
    ):
        ctmc = explore(build_pubsub_net(params))
        for label, weights, expected in p_invariants(params):
            assert check_place_invariant(ctmc, weights, expected) is None, label


def test_dropping_a_place_from_the_event_invariant_fails():
    params = PubSubParams()
    ctmc = explore(build_pubsub_net(params))
    weights = dict(
        (label, w) for label, w, _e in p_invariants(params)
    )["events"].copy()
    weights[PLACE_NAMES.index("SubQoSProcessing")] = 0
    violator = check_place_invariant(ctmc, weights, params.n_events)
    assert violator is not None
    assert violator[PLACE_NAMES.index("SubQoSProcessing")] > 0


def test_topics_is_constant():
    params = PubSubParams(n_topics=2)
    ctmc = explore(build_pubsub_net(params))
    topics = PLACE_NAMES.index("Topics")
    assert (ctmc.markings[:, topics] == 2).all()


def test_default_calibration_headline_metrics():
    _, _, report = analyze(PubSubParams())
    accept = report.response_times["accept_publication_response_time"]
    notify = report.response_times["notification_response_time"]
    assert accept == pytest.approx(2.9238835200100577, rel=1e-9)
    assert notify == pytest.approx(3.8812736333418005, rel=1e-9)
    assert 0 < accept < notify


def test_cycle_flow_balance():
    _, _, report = analyze(PubSubParams())
    cycle = ["publish", "acceptPub", "pubQoSProcessing", "notify", "consume"]
    xs = [report.transition_throughputs[t] for t in cycle]
    assert max(xs) - min(xs) <= 1e-6 * max(xs)


def test_doubling_all_rates_halves_response_times():
    params = PubSubParams()
    doubled = dataclasses.replace(
        params,
        **{
            f.name: getattr(params, f.name) * 2
            for f in dataclasses.fields(params)
            if f.name.startswith("r_")
        },
    )
    _, _, base = analyze(params)
    _, _, fast = analyze(doubled)
    for key in ("accept_publication_response_time", "notification_response_time"):
        assert fast.response_times[key] == pytest.approx(
            base.response_times[key] / 2, rel=1e-9
        )


def test_dead_configuration_yields_undefined_response_times():
    # inhibit connectPub on the (constant) Topics place: publishers can never
    # connect, so publish throughput is zero while the rest of the net cycles
    net = build_pubsub_net(PubSubParams())
    inh = np.array(net.inh)
    inh[net.place_index("Topics"), net.transition_index("connectPub")] = 1
    dead = dataclasses.replace(net, inh=inh)
    ctmc = explore(dead)
    dist = steady_state(ctmc)
    report = headline_metrics(ctmc, dist)
    assert report.transition_throughputs["publish"] == 0.0
    assert report.response_times["accept_publication_response_time"] is None
    assert report.response_times["notification_response_time"] is None


def test_set_factor_changes_only_that_field():
    params = PubSubParams()
    changed = set_factor(params, "net_recv_buffer", 10)
    assert changed.net_recv_buffer == 10
    assert dataclasses.replace(changed, net_recv_buffer=1) == params


def test_set_factor_validates():
    params = PubSubParams()
    with pytest.raises(ValueError):
        set_factor(params, "r_pub_qos", 0.0)
    with pytest.raises(ValueError):
        set_factor(params, "broker_memory", 0)
    with pytest.raises(ValueError):
        set_factor(params, "n_publishers", 3)  # populations are not factors


def test_set_factor_mirrors_memory_experiment():
    params = set_factor(PubSubParams(broker_memory=1), "broker_memory", 10)
    assert params.broker_memory == 10


def test_qos_level_rate_mapping():
    assert qos_rate(1.0, 0) == 4.0
    assert qos_rate(1.0, 1) == 1.0
    assert qos_rate(1.0, 2) == 0.5
    assert qos_rate(2.0, 0) == 8.0
    with pytest.raises(ValueError):
        qos_rate(1.0, 3)


def test_boundedness_via_invariants():
    params = PubSubParams()
    ctmc = explore(build_pubsub_net(params))
    arr = ctmc.markings
    caps = {
        "PubRequest": params.n_events,
        "PubAccepted": params.net_recv_buffer,
        "SubQoSProcessing": params.net_send_buffer,
        "Subscribed": params.n_subscribers,
    }
    for name, cap in caps.items():
        assert arr[:, PLACE_NAMES.index(name)].max() <= cap


@pytest.mark.parametrize("value", [2.5, True])
def test_set_factor_refuses_instead_of_converting(value):
    # set_factor used to pass the value through int(): 2.5 became 2, True 1
    with pytest.raises(ValueError, match="broker_memory"):
        set_factor(PubSubParams(), "broker_memory", value)


def test_a_bool_rate_is_refused():
    # float(True) > 0 used to let it through as rate 1.0
    with pytest.raises(ValueError, match="r_publish"):
        PubSubParams(r_publish=True)


@pytest.mark.parametrize("field", dataclasses.fields(PubSubParams), ids=lambda f: f.name)
def test_every_field_is_checked(field):
    # the kind comes from the default value, not from the annotation that
    # PubSubParams reads, so a change in how annotations are kept shows here
    if isinstance(getattr(PubSubParams(), field.name), int):
        bad, kind = (0, 2.5, True), "positive integer"
    else:
        bad, kind = (0.0, -1.0, float("nan"), float("inf"), True), "positive rate"
    for value in bad:
        with pytest.raises(ValueError, match=f"^{field.name} must be a {kind}, got"):
            PubSubParams(**{field.name: value})
