import re

import numpy as np
import pytest

from spnperf.net import InvalidNetError, Place, SpnNet, Transition
from spnperf.reachability import (
    StateExplosionError,
    check_place_invariant,
    explore,
    rerate,
)
from nets import mm1k_net, producer_consumer_net, self_loop_net, simple_net


def test_self_loop_gives_one_state_one_edge():
    ctmc = explore(self_loop_net())
    assert ctmc.markings.tolist() == [[1]]
    assert ctmc.edges == ((0, 0, 1.0, 0),)
    assert not ctmc.deadlock_states


def test_two_state_toggle():
    net = simple_net(
        [("p1", 1), ("p2", 0)],
        [("t1", 1.0), ("t2", 1.0)],
        [
            ("p1", "t1", "pre", 1),
            ("p2", "t1", "post", 1),
            ("p2", "t2", "pre", 1),
            ("p1", "t2", "post", 1),
        ],
    )
    ctmc = explore(net)
    assert ctmc.n_states == 2
    assert len(ctmc.edges) == 2


def test_producer_consumer_matches_hand_enumeration():
    # hand enumeration: (2,0) -t1-> (1,1) -t1-> (0,2); (1,1) -t2-> (2,0);
    # (0,2) -t2-> (1,1)
    ctmc = explore(producer_consumer_net())
    states = [tuple(m) for m in ctmc.markings.tolist()]
    assert set(states) == {(2, 0), (1, 1), (0, 2)}
    assert len(ctmc.edges) == 4
    expected = {
        ((2, 0), (1, 1), "t1"),
        ((1, 1), (0, 2), "t1"),
        ((1, 1), (2, 0), "t2"),
        ((0, 2), (1, 1), "t2"),
    }
    seen = {
        (states[s], states[d], ctmc.net.transitions[t].name)
        for s, d, _r, t in ctmc.edges
    }
    assert seen == expected


def test_initial_marking_is_state_zero():
    ctmc = explore(producer_consumer_net())
    assert ctmc.markings[0].tolist() == [2, 0]


def test_exploration_is_deterministic():
    a = explore(producer_consumer_net())
    b = explore(producer_consumer_net())
    assert a.markings.tolist() == b.markings.tolist()
    assert a.edges == b.edges


def test_deadlock_recorded_not_fatal():
    net = simple_net(
        [("a", 1), ("b", 0)],
        [("t", 1.0)],
        [("a", "t", "pre", 1), ("b", "t", "post", 1)],
    )
    ctmc = explore(net)
    assert ctmc.markings.tolist() == [[1, 0], [0, 1]]
    assert ctmc.deadlock_states == {1}


def test_invalid_net_rejected():
    with pytest.raises(InvalidNetError):
        SpnNet((Place("p", 1),), (Transition("t", 0.0),), [[1]], [[1]])


def test_explosion_error():
    # unbounded net: a source transition keeps minting tokens
    net = simple_net([("p", 0)], [("mint", 1.0)], [("p", "mint", "post", 1)])
    with pytest.raises(StateExplosionError):
        explore(net, max_states=50)


@pytest.mark.parametrize("max_states", [True, 2.5, "10", None, 2**63])
def test_max_states_must_be_a_count(max_states):
    # True would pass as a limit of 1 and 2.5 as one of 2.5; "10" and None
    # would fail with a TypeError
    net = producer_consumer_net()
    ctmc = explore(net)
    message = f"^max_states must be an integer within int64, got {re.escape(repr(max_states))}$"
    with pytest.raises(ValueError, match=message):
        explore(net, max_states=max_states)
    with pytest.raises(ValueError, match=message):
        rerate(ctmc, net, max_states=max_states)


def test_place_invariant_holds():
    ctmc = explore(producer_consumer_net())
    assert check_place_invariant(ctmc, [1, 1], 2) is None


def test_place_invariant_violation_reports_first_state():
    ctmc = explore(producer_consumer_net())
    assert check_place_invariant(ctmc, [1, 0], 2) == (1, 1)


def test_place_invariant_on_self_loop():
    ctmc = explore(self_loop_net())
    assert check_place_invariant(ctmc, [1], 1) is None


@pytest.mark.parametrize(
    "weights, expected, bad",
    [([1.9, 1.2], 2, "1.9"), (["1", "1"], 2, "'1'"), ([True, True], 2, "True"),
     ([1, 1], 2.0, "2.0"), ([1, 1], True, "True")],
)
def test_place_invariant_weights_are_refused_not_truncated(weights, expected, bad):
    # int64 made [1.9, 1.2] the law Free + Queue = 2, which holds on M/M/1/2
    ctmc = explore(mm1k_net(1.0, 2.0, 2))
    with pytest.raises(ValueError, match=f"got {re.escape(bad)}$"):
        check_place_invariant(ctmc, weights, expected)


def test_place_invariant_weights_of_the_wrong_length_are_refused():
    ctmc = explore(mm1k_net(1.0, 2.0, 2))
    with pytest.raises(ValueError, match=r"^weight vector length \(3,\) does not match 2 places$"):
        check_place_invariant(ctmc, [1, 1, 1], 2)


def test_place_invariant_takes_integer_arrays_and_negative_weights():
    ctmc = explore(mm1k_net(1.0, 2.0, 2))
    assert check_place_invariant(ctmc, np.array([1, 1], dtype=np.int32), 2) is None
    assert check_place_invariant(ctmc, [-1, -1], -2) is None
    assert check_place_invariant(ctmc, [1, -1], 2) == (1, 1)


def test_every_nonzero_state_is_a_fire_image():
    ctmc = explore(producer_consumer_net())
    targets = {d for _s, d, _r, _t in ctmc.edges}
    assert targets >= set(range(1, ctmc.n_states))
