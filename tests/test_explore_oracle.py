"""The columnar explore against a scalar FIFO oracle.

The oracle is the original one-marking-at-a-time breadth-first search with
its own enabling, priority and rate logic, independent of the vectorized
firing kernel.  The columnar search must reproduce it exactly: the same
state numbering, the same edges in the same order with bit-identical rates,
the same deadlocks and the same ``StateExplosionError`` boundary.
"""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spnperf import reachability
from spnperf.net import (
    INFINITE_SERVER,
    SINGLE_SERVER,
    Place,
    SpnNet,
    TokenOverflowError,
    Transition,
)
from spnperf.pubsub import PubSubParams, build_pubsub_net
from spnperf.reachability import StateExplosionError, explore
from spnperf.simulator import _MarkingTable
from nets import (
    deadlock_net,
    mm1k_net,
    producer_consumer_net,
    self_loop_net,
    simple_net,
    two_state_net,
)


def _scalar_enabled(net, m):
    enabled = []
    for t in range(net.n_transitions):
        if all(
            m[p] >= net.pre[p, t] and (net.inh[p, t] == 0 or m[p] < net.inh[p, t])
            for p in range(net.n_places)
        ):
            enabled.append(t)
    if not enabled:
        return []
    top = max(net.transitions[t].priority for t in enabled)
    return [t for t in enabled if net.transitions[t].priority == top]


def _scalar_rate(net, m, t):
    tr = net.transitions[t]
    if tr.semantics != INFINITE_SERVER:
        return tr.rate
    inputs = [p for p in range(net.n_places) if net.pre[p, t] > 0]
    if not inputs:
        return tr.rate
    return tr.rate * min(m[p] // int(net.pre[p, t]) for p in inputs)


def oracle_explore(net, max_states=1_000_000):
    """Scalar FIFO search: (states, edges, deadlock_states)."""
    init = net.initial_marking()
    index = {init: 0}
    states = [init]
    edges = []
    deadlocks = set()
    queue = deque([0])
    while queue:
        s = queue.popleft()
        m = states[s]
        enabled = _scalar_enabled(net, m)
        if not enabled:
            deadlocks.add(s)
            continue
        for t in enabled:
            succ = tuple(
                m[p] - int(net.pre[p, t]) + int(net.post[p, t])
                for p in range(net.n_places)
            )
            j = index.get(succ)
            if j is None:
                if len(states) >= max_states:
                    raise StateExplosionError(max_states)
                j = len(states)
                index[succ] = j
                states.append(succ)
                queue.append(j)
            edges.append((s, j, _scalar_rate(net, m, t), t))
    return tuple(states), tuple(edges), frozenset(deadlocks)


def assert_matches_oracle(net):
    states, edges, deadlocks = oracle_explore(net)
    ctmc = explore(net)
    assert ctmc.markings.tolist() == [list(m) for m in states]
    assert ctmc.n_edges == len(edges)
    # tuple equality compares the rates with ==, so they must be bit-identical
    assert ctmc.edges == edges
    assert ctmc.deadlock_states == deadlocks
    return ctmc


#: the default model and the five configurations the monitor-trace
#: benchmark evaluates (1,260, 1,500, 2,100, 2,100 and 3,900 states)
PUBSUB_CONFIGS = [
    ({}, 1260),
    ({"net_recv_buffer": 2, "net_send_buffer": 2}, 1500),
    ({"n_events": 4, "net_recv_buffer": 2, "net_send_buffer": 2}, 2100),
    ({"n_events": 4, "net_recv_buffer": 4, "net_send_buffer": 4}, 2100),
    ({"n_events": 4, "net_recv_buffer": 4, "net_send_buffer": 4, "broker_memory": 4}, 3900),
]


@pytest.mark.parametrize("overrides,n_states", PUBSUB_CONFIGS)
def test_pubsub_configurations_match_oracle(overrides, n_states):
    ctmc = assert_matches_oracle(build_pubsub_net(PubSubParams(**overrides)))
    assert ctmc.n_states == n_states


def priority_net():
    # high-priority transitions pre-empt the low-priority ones whenever
    # both are enabled, so some enabled-by-tokens edges must be masked
    return simple_net(
        [("a", 2), ("b", 0), ("c", 0)],
        [("ab", 1.0, 0), ("bc", 2.0, 1), ("ca", 3.0, 0), ("ac", 0.5, 2)],
        [
            ("a", "ab", "pre", 1), ("b", "ab", "post", 1),
            ("b", "bc", "pre", 1), ("c", "bc", "post", 1),
            ("c", "ca", "pre", 1), ("a", "ca", "post", 1),
            ("a", "ac", "pre", 2), ("c", "ac", "post", 2),
        ],
    )


def inhibitor_net():
    # arrivals need no input token and stop while the queue holds 4
    return simple_net(
        [("queue", 0), ("busy", 0)],
        [("arrive", 1.5), ("start", 2.0), ("done", 3.0)],
        [
            ("queue", "arrive", "post", 1),
            ("queue", "start", "pre", 1), ("busy", "start", "post", 1),
            ("busy", "done", "pre", 1),
        ],
        inh_arcs=[("queue", "arrive", 4), ("busy", "start", 1)],
    )


def weighted_infinite_server_net():
    # P + 2Q = 7 is invariant; both transitions are infinite-server with
    # weights above 1, so degrees such as 7 // 2 = 3 appear in the rates
    return simple_net(
        [("P", 7), ("Q", 0)],
        [("pair", 0.7, 0, INFINITE_SERVER), ("split", 1.3, 0, INFINITE_SERVER)],
        [
            ("P", "pair", "pre", 2), ("Q", "pair", "post", 1),
            ("Q", "split", "pre", 1), ("P", "split", "post", 2),
        ],
    )


@pytest.mark.parametrize(
    "make",
    [
        priority_net,
        inhibitor_net,
        weighted_infinite_server_net,
        deadlock_net,
        self_loop_net,
        producer_consumer_net,
        two_state_net,
        lambda: mm1k_net(1.0, 2.0, 10),
    ],
)
def test_small_nets_match_oracle(make):
    assert_matches_oracle(make())


def test_priority_net_masks_edges():
    ctmc = assert_matches_oracle(priority_net())
    # in the initial marking "ac" (priority 2) pre-empts "ab" (priority 0)
    assert [e for e in ctmc.edges if e[0] == 0] == [(0, 1, 0.5, 3)]


def test_weighted_infinite_server_rates_use_the_degree():
    ctmc = assert_matches_oracle(weighted_infinite_server_net())
    assert ctmc.edges[0] == (0, 1, 0.7 * 3, 0)


def test_deadlock_net_records_its_deadlock():
    ctmc = assert_matches_oracle(deadlock_net())
    assert ctmc.deadlock_states == {1}


# -- state codes -----------------------------------------------------------

def ring_net(n_places, tokens):
    """``tokens`` tokens circling ``n_places`` places, one hop per firing."""
    names = [f"p{i}" for i in range(n_places)]
    return simple_net(
        [(name, tokens if i == 0 else 0) for i, name in enumerate(names)],
        [(f"t{i}", 1.0) for i in range(n_places)],
        [
            arc
            for i in range(n_places)
            for arc in (
                (names[i], f"t{i}", "pre", 1),
                (names[(i + 1) % n_places], f"t{i}", "post", 1),
            )
        ],
    )


@pytest.mark.parametrize("n_places,tokens,n_states", [(70, 1, 70), (30, 3, 4960)])
def test_rings_past_int64_codes_match_oracle(n_places, tokens, n_states):
    # every place may hold its count plus the one token a firing adds, so
    # the digits' product, and with it the codes, passes 2**63
    ctmc = assert_matches_oracle(ring_net(n_places, tokens))
    assert ctmc.n_states == n_states
    assert math.prod(int(m) + 2 for m in ctmc.markings.max(axis=0)) > 2**63


def two_caps_net():
    """Two source transitions stopped by inhibitor arcs at 5 and 300 tokens,
    and a sink on the first place: the digits widen as the counts climb."""
    return simple_net(
        [("a", 0), ("b", 0)],
        [("mint_a", 1.0), ("mint_b", 2.0), ("drain", 0.5)],
        [("a", "mint_a", "post", 1), ("b", "mint_b", "post", 1), ("a", "drain", "pre", 1)],
        inh_arcs=[("a", "mint_a", 5), ("b", "mint_b", 300)],
    )


def test_digits_widen_mid_explore_and_match_oracle(monkeypatch):
    calls = []
    coding = reachability._coding
    monkeypatch.setattr(
        reachability, "_coding", lambda top, *args: calls.append(top) or coding(top, *args)
    )
    ctmc = assert_matches_oracle(two_caps_net())
    assert ctmc.n_states == 6 * 301
    # the first coding, then at least one widening of each place, up to
    # tops that hold each cap plus the one token a firing adds
    assert len(calls) >= 3
    assert calls[-1][0] >= 5 + 1 and calls[-1][1] >= 300 + 1


def test_explore_refuses_a_count_past_int64():
    # 2**63 - 2 + 2 wraps the count: the state holding it is refused when expanded
    net = simple_net(
        [("p", 2**63 - 2)], [("t", 1.0)], [("p", "t", "pre", 1), ("p", "t", "post", 3)]
    )
    with pytest.raises(TokenOverflowError, match="place 'p' went past 2\\*\\*63 - 1 tokens"):
        explore(net)


def test_codes_past_int64_do_not_wrap():
    # 70 binary digits: the last place's weight is 2**69, which an int64 wraps to 0
    w = reachability._weights([1] * 70)
    low = np.zeros(70, dtype=np.int64)
    high = low.copy()
    high[-1] = 1
    assert int(w[-1]) == 2**69
    assert high @ w == 2**69
    assert low @ w == 0
    assert np.ones(70, dtype=np.int64) @ w == 2**70 - 1


@st.composite
def bounded_nets(draw):
    """Small nets whose transitions conserve the token count, so they are
    bounded, with random weights, inhibitors, priorities and semantics."""
    n_p = draw(st.integers(1, 4))
    n_t = draw(st.integers(1, 4))
    pre = np.zeros((n_p, n_t), dtype=np.int64)
    post = np.zeros((n_p, n_t), dtype=np.int64)
    inh = np.zeros((n_p, n_t), dtype=np.int64)
    place = st.integers(0, n_p - 1)
    for t in range(n_t):
        for _ in range(draw(st.integers(1, 2))):
            w = draw(st.integers(1, 2))
            pre[draw(place), t] += w
            post[draw(place), t] += w
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
    places = tuple(Place(f"p{p}", draw(st.integers(0, 3))) for p in range(n_p))
    return SpnNet(places, transitions, pre, post, inh)


@settings(max_examples=150, deadline=None)
@given(bounded_nets())
def test_random_bounded_nets_match_oracle(net):
    assert_matches_oracle(net)


# -- StateExplosionError boundary ----------------------------------------

def mint_net():
    """Unbounded: a source transition keeps minting tokens."""
    return simple_net([("p", 0)], [("mint", 1.0)], [("p", "mint", "post", 1)])


def capped_mint_net(cap):
    """The mint net stopped by an inhibitor arc: cap + 1 states."""
    return simple_net(
        [("p", 0)], [("mint", 1.0)], [("p", "mint", "post", 1)],
        inh_arcs=[("p", "mint", cap)],
    )


def _explodes(explore_fn, net, max_states):
    try:
        explore_fn(net, max_states=max_states)
    except StateExplosionError as exc:
        assert exc.limit == max_states
        return True
    return False


def test_explosion_boundary_on_default_pubsub_net():
    net = build_pubsub_net(PubSubParams())
    assert explore(net, max_states=1260).n_states == 1260
    with pytest.raises(StateExplosionError):
        explore(net, max_states=1259)


@pytest.mark.parametrize("cap", [1, 5, 40])
def test_explosion_boundary_on_capped_mint_net(cap):
    net = capped_mint_net(cap)
    n = cap + 1
    assert explore(net, max_states=n).n_states == n
    with pytest.raises(StateExplosionError):
        explore(net, max_states=n - 1)


@pytest.mark.parametrize("max_states", [-1, 0, 1, 2, 3, 50, 4097])
def test_explosion_on_unbounded_mint_net_matches_oracle(max_states):
    assert _explodes(explore, mint_net(), max_states)
    assert _explodes(oracle_explore, mint_net(), max_states)


@pytest.mark.parametrize("max_states", [-1, 0, 1, 2, 3])
@pytest.mark.parametrize("make", [self_loop_net, deadlock_net, producer_consumer_net])
def test_explosion_on_tiny_limits_matches_oracle(make, max_states):
    # the initial marking is always kept, so a one-state net never explodes
    net = make()
    assert _explodes(explore, net, max_states) == _explodes(oracle_explore, net, max_states)


# -- the simulator shares the kernel -------------------------------------

@pytest.mark.parametrize(
    "net",
    [build_pubsub_net(PubSubParams()), priority_net(), inhibitor_net(),
     weighted_infinite_server_net(), deadlock_net()],
    ids=["pubsub", "priority", "inhibitor", "weighted_is", "deadlock"],
)
def test_simulator_marking_info_matches_oracle(net):
    # the enabled order and the 1/rate scales fix the simulator's random
    # stream, so both must equal the scalar logic's exactly
    states, _edges, _deadlocks = oracle_explore(net)
    for m in states:
        table = _MarkingTable(net)
        [entry] = table.enter([m])
        _row, enabled, scales, _links = entry
        successors = [tuple(table.marks[e[0]].tolist()) for e in table.visit(entry)]
        expected = _scalar_enabled(net, m)
        assert enabled == tuple(expected)
        assert scales == [1.0 / _scalar_rate(net, m, t) for t in expected]
        assert successors == [
            tuple(a + int(net.post[p, t]) - int(net.pre[p, t]) for p, a in enumerate(m))
            for t in expected
        ]
