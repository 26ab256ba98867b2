import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spnperf.net import (
    INFINITE_SERVER,
    DimensionError,
    InvalidNetError,
    Place,
    SpnNet,
    TokenOverflowError,
    Transition,
    enabled_rates,
    enabling_degree,
)
from nets import simple_net, self_loop_net


def test_smallest_legal_net_is_ok():
    net = self_loop_net(rate=1.0)


def test_zero_rate_is_a_violation():
    with pytest.raises(InvalidNetError, match="non-positive rate"):
        SpnNet((Place("p", 1),), (Transition("t", 0.0),), [[1]], [[1]])


def test_duplicate_place_names_violate():
    with pytest.raises(InvalidNetError, match="duplicate name"):
        SpnNet(
            (Place("p", 1), Place("p", 0)),
            (Transition("t", 1.0),),
            [[1], [0]],
            [[0], [1]],
        )


def test_enabled_empty_when_tokens_insufficient():
    net = simple_net([("p", 0)], [("t", 1.0)], [("p", "t", "pre", 1)])
    assert enabling_degree(net, [(0,)]).tolist() == [[0]]


def test_self_loop_enabled():
    net = self_loop_net()
    assert enabling_degree(net, [(1,)]).tolist() == [[1]]


def test_priority_masks_lower_priority_transitions():
    net = simple_net(
        [("p", 1)],
        [("low", 1.0, 1), ("high", 1.0, 2)],
        [("p", "low", "pre", 1), ("p", "high", "pre", 1)],
    )
    assert enabling_degree(net, [(1,)]).tolist() == [[0, 1]]


@pytest.mark.parametrize(
    "priorities, masks",
    # explicit ids keep each case's name stable when a case is added or dropped
    [
        pytest.param((3,), False, id="priorities1-False"),
        pytest.param((1, 1, 1), False, id="priorities2-False"),
        pytest.param((0, 2, 2), True, id="priorities3-True"),
        pytest.param((2, 2, 0), True, id="priorities4-True"),
    ],
)
def test_kernel_keeps_priorities_only_when_they_differ(priorities, masks):
    # all-equal priorities mask nothing, so the kernel drops them
    net = simple_net(
        [("p", 1)],
        [(f"t{j}", 1.0, prio) for j, prio in enumerate(priorities)],
        [("p", f"t{j}", "pre", 1) for j in range(len(priorities))],
    )
    prio = net._kernel_columns.prio
    assert (prio is not None) == masks
    if masks:
        assert prio.tolist() == list(priorities)
    top = max(priorities)
    assert enabling_degree(net, [(1,)]).tolist() == [[int(p == top) for p in priorities]]


def test_inhibitor_threshold_semantics():
    net = simple_net(
        [("p", 0), ("q", 1)],
        [("t", 1.0)],
        [("q", "t", "pre", 1), ("q", "t", "post", 1)],
        inh_arcs=[("p", "t", 2)],
    )
    # below the threshold, then at it: inhibited
    assert enabling_degree(net, [(1, 1), (2, 1)]).tolist() == [[1], [0]]


def test_marking_length_mismatch_raises():
    with pytest.raises(DimensionError):
        enabling_degree(self_loop_net(), [(1, 0)])


def test_fire_moves_token():
    net = simple_net(
        [("a", 1), ("b", 0)],
        [("t", 1.0)],
        [("a", "t", "pre", 1), ("b", "t", "post", 1)],
    )
    assert enabling_degree(net, [(1, 0)]).tolist() == [[1]]
    assert ((1, 0) + net.delta[0]).tolist() == [0, 1]


def test_fire_self_loop_is_identity():
    net = self_loop_net()
    assert enabling_degree(net, [(1,)]).tolist() == [[1]]
    assert ((1,) + net.delta[0]).tolist() == [1]


def test_fire_with_weights():
    net = simple_net(
        [("a", 2), ("b", 0)],
        [("t", 1.0)],
        [("a", "t", "pre", 2), ("b", "t", "post", 1)],
    )
    assert enabling_degree(net, [(2, 0), (1, 0)]).tolist() == [[1], [0]]
    assert ((2, 0) + net.delta[0]).tolist() == [0, 1]


def test_a_count_past_int64_is_refused():
    # 2**63 - 2 + 2 wraps to -2**63: the kernel refuses a block holding it;
    # an empty block stays valid
    net = simple_net(
        [("q", 0), ("p", 2**63 - 2)], [("t", 1.0)], [("p", "t", "pre", 1), ("p", "t", "post", 3)]
    )
    block = np.array([[0, 5], [0, -(2**63)]], dtype=np.int64)
    with pytest.raises(TokenOverflowError, match="place 'p' went past 2\\*\\*63 - 1 tokens"):
        enabling_degree(net, block)
    assert enabling_degree(net, block[:0]).shape == (0, 1)


def test_single_server_rate_is_marking_independent():
    net = simple_net([("p", 5)], [("t", 3.0)], [("p", "t", "pre", 1)])
    enabled, rates = enabled_rates(net, [(5,), (1,)])
    assert enabled.tolist() == [[True], [True]]
    assert rates.tolist() == [[3.0], [3.0]]


def test_infinite_server_rate_scales_with_enabling_degree():
    net = simple_net(
        [("p", 3)],
        [("t", 2.0, 0, INFINITE_SERVER)],
        [("p", "t", "pre", 1)],
    )
    assert enabled_rates(net, [(3,)])[1].tolist() == [[6.0]]


def test_infinite_server_degree_uses_floor():
    net = simple_net(
        [("p", 5)],
        [("t", 2.0, 0, INFINITE_SERVER)],
        [("p", "t", "pre", 2)],
    )
    assert enabled_rates(net, [(5,)])[1].tolist() == [[4.0]]


@st.composite
def random_net_and_marking(draw):
    n_p = draw(st.integers(1, 4))
    n_t = draw(st.integers(1, 4))
    mk = st.integers(0, 3)
    pre = draw(st.lists(st.lists(mk, min_size=n_t, max_size=n_t), min_size=n_p, max_size=n_p))
    post = draw(st.lists(st.lists(mk, min_size=n_t, max_size=n_t), min_size=n_p, max_size=n_p))
    prios = draw(st.lists(st.integers(0, 2), min_size=n_t, max_size=n_t))
    net = SpnNet(
        tuple(Place(f"p{i}", 0) for i in range(n_p)),
        tuple(Transition(f"t{j}", 1.0, prios[j]) for j in range(n_t)),
        pre,
        post,
    )
    m = tuple(draw(st.lists(st.integers(0, 4), min_size=n_p, max_size=n_p)))
    return net, m


@settings(max_examples=200, deadline=None)
@given(random_net_and_marking())
def test_fire_never_goes_negative_and_priorities_are_uniform(case):
    net, m = case
    enabled = np.flatnonzero(enabling_degree(net, [m])[0])
    prios = {net.transitions[t].priority for t in enabled}
    assert len(prios) <= 1
    assert (m + net.delta[enabled] >= 0).all()


# -- values are refused, never truncated ---------------------------------

@pytest.mark.parametrize(
    "place, transition, word",
    [
        (Place("a", 2.5), Transition("t", 1.0), "initial tokens"),
        (Place("a", 1), Transition("t", 1.0, priority=0.5), "priority"),
    ],
)
def test_fractional_tokens_and_priorities_are_violations(place, transition, word):
    # explore used to truncate both: 2.5 tokens became 2, priority 0.5 became 0
    with pytest.raises(InvalidNetError, match=word):
        SpnNet((place,), (transition,), [[1]], [[1]])


@pytest.mark.parametrize("weight", [1.5, True])
def test_matrix_weights_must_be_integers(weight):
    # numpy stored 1.5 as 1 and turned [[True, 1]] into int64 ones
    with pytest.raises(ValueError, match="weight"):
        SpnNet((Place("a", 1),), (Transition("t", 1.0), Transition("u", 1.0)),
               [[weight, 1]], [[1, 1]])
    with pytest.raises(ValueError, match="weight"):
        SpnNet((Place("a", 1),), (Transition("t", 1.0),), [[1]], [[weight]])


@pytest.mark.parametrize("label", ["pre", "post", "inh"])
def test_negative_matrix_weights_are_refused(label):
    # a net document never gets here: its loader names the arc first
    mats = {"pre": [[1]], "post": [[1]], "inh": [[0]], label: [[-1]]}
    with pytest.raises(ValueError, match=f"^negative entries in {label} matrix$"):
        SpnNet((Place("a", 1),), (Transition("t", 1.0),), **mats)


def test_integer_arrays_and_lists_stay_legal():
    for pre in (np.array([[2]], dtype=np.int32), np.array([[2]]), [[2]], ((2,),)):
        net = SpnNet((Place("a", 2),), (Transition("t", 1.0),), pre, [[2]])
        assert net.pre.dtype == np.int64 and net.pre[0, 0] == 2
