"""The arc-walking firing kernel against the dense (F, P, T) cube kernel.

The oracle below is the kernel as it was first written: it broadcasts every
marking against the whole ``pre`` and ``inh`` matrices.  The arc kernel must
give the same enabled masks and bit-identical rates on every marking.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spnperf.net import (
    INFINITE_SERVER,
    SINGLE_SERVER,
    Place,
    SpnNet,
    Transition,
    enabling_degree,
)
from spnperf.pubsub import PubSubParams, build_pubsub_net
from spnperf.reachability import explore
from test_explore_oracle import (
    bounded_nets,
    inhibitor_net,
    mint_net,
    priority_net,
    weighted_infinite_server_net,
)
from nets import deadlock_net, mm1k_net, producer_consumer_net, self_loop_net, simple_net


def cube_enabled_rates(net, markings):
    m = np.asarray(markings, dtype=np.int64)
    base = np.array([t.rate for t in net.transitions], dtype=np.float64)
    prio = np.array([t.priority for t in net.transitions], dtype=np.int64)
    infinite = np.flatnonzero(
        np.array([t.semantics == INFINITE_SERVER for t in net.transitions], dtype=bool)
        & (net.pre > 0).any(axis=0)
    )
    cube = m[:, :, None]
    enabled = (cube >= net.pre).all(axis=1)
    enabled &= ((net.inh == 0) | (cube < net.inh)).all(axis=1)
    masked = np.where(enabled, prio, -1)
    enabled &= masked == masked.max(axis=1, keepdims=True, initial=-1)
    rates = np.where(enabled, base, 0.0)
    if infinite.size:
        pre = net.pre[:, infinite]
        degree = np.where(
            pre > 0, cube // np.maximum(pre, 1), np.iinfo(np.int64).max
        ).min(axis=1)
        rates[:, infinite] = np.where(enabled[:, infinite], base[infinite] * degree, 0.0)
    return enabled, rates


def assert_kernel_matches_cube(net, markings):
    degree = enabling_degree(net, markings)
    assert degree.dtype == np.int64
    enabled, rates = degree > 0, net.base_rates * degree
    want_enabled, want_rates = cube_enabled_rates(net, markings)
    assert enabled.shape == want_enabled.shape
    assert (enabled == want_enabled).all()
    # == on float arrays: the rates must be bit-identical (all are finite)
    assert (rates == want_rates).all()


@pytest.mark.parametrize(
    "params",
    [
        PubSubParams(),
        PubSubParams(n_events=4, net_recv_buffer=4, net_send_buffer=4, broker_memory=4),
        # one block of 10,200 rows, past explore's BLOCK_ROWS of 2,048
        PubSubParams(n_events=6, net_recv_buffer=4, net_send_buffer=4, broker_memory=8),
    ],
    ids=["default", "3900", "10200"],
)
def test_every_pubsub_state_matches_cube(params):
    net = build_pubsub_net(params)
    assert_kernel_matches_cube(net, explore(net).markings)


def unfed_infinite_server_net():
    """An infinite-server transition without inputs beside a fed one of
    higher priority: its degree is 1 unless its inhibitor (p >= 4) or the
    fed one (p >= 2) zeroes it."""
    return simple_net(
        [("p", 0), ("q", 0)],
        [("arrive", 1.0, 0, INFINITE_SERVER), ("serve", 2.0, 1, INFINITE_SERVER),
         ("leave", 3.0)],
        [("p", "arrive", "post", 1), ("p", "serve", "pre", 2), ("q", "serve", "post", 1),
         ("q", "leave", "pre", 1)],
        inh_arcs=[("p", "arrive", 4)],
    )


@pytest.mark.parametrize(
    "make",
    [priority_net, inhibitor_net, weighted_infinite_server_net, deadlock_net,
     self_loop_net, producer_consumer_net, lambda: mm1k_net(1.0, 2.0, 10),
     mint_net, unfed_infinite_server_net],
)
def test_small_nets_match_cube_on_a_grid_of_markings(make):
    net = make()
    grid = np.stack(
        np.meshgrid(*[np.arange(6)] * net.n_places, indexing="ij"), axis=-1
    ).reshape(-1, net.n_places)
    assert_kernel_matches_cube(net, grid)


def test_empty_block_gives_empty_results():
    net = weighted_infinite_server_net()
    degree = enabling_degree(net, np.zeros((0, net.n_places), dtype=np.int64))
    assert degree.shape == (0, net.n_transitions)


@st.composite
def kernel_nets(draw):
    """Small nets with random input weights, inhibitors, priorities and
    semantics, whose transitions may have no input arc; unlike
    ``bounded_nets`` they need not be bounded, as only the kernel sees them."""
    n_p = draw(st.integers(1, 4))
    n_t = draw(st.integers(1, 4))
    pre = np.zeros((n_p, n_t), dtype=np.int64)
    inh = np.zeros((n_p, n_t), dtype=np.int64)
    place = st.integers(0, n_p - 1)
    for t in range(n_t):
        for _ in range(draw(st.integers(0, 2))):
            pre[draw(place), t] += draw(st.integers(1, 3))
        if draw(st.booleans()):
            inh[draw(place), t] = draw(st.integers(1, 3))
    transitions = tuple(
        Transition(
            f"t{t}",
            draw(st.sampled_from([0.5, 1.0, 1.7, 3.0])),
            draw(st.integers(0, 2)),
            draw(st.sampled_from([SINGLE_SERVER, INFINITE_SERVER])),
        )
        for t in range(n_t)
    )
    places = tuple(Place(f"p{p}") for p in range(n_p))
    return SpnNet(places, transitions, pre, np.zeros_like(pre), inh)


@settings(max_examples=150, deadline=None)
@given(kernel_nets(), st.data())
def test_random_nets_match_cube_on_random_markings(net, data):
    markings = data.draw(
        st.lists(
            st.lists(st.integers(0, 7), min_size=net.n_places, max_size=net.n_places),
            min_size=1,
            max_size=20,
        )
    )
    assert_kernel_matches_cube(net, markings)


@settings(max_examples=100, deadline=None)
@given(bounded_nets())
def test_explored_degrees_match_cube(net):
    # each edge's degree is its rate in the cube kernel over its base rate
    ctmc = explore(net)
    _enabled, rates = cube_enabled_rates(net, ctmc.markings[ctmc.src])
    base = np.array([t.rate for t in net.transitions])
    assert (rates[np.arange(ctmc.n_edges), ctmc.trans] == ctmc.rate).all()
    assert (base[ctmc.trans] * ctmc.degree == ctmc.rate).all()
    assert (ctmc.degree >= 1).all()
