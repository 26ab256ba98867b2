import numpy as np
import pytest

from spnperf.reachability import explore
from spnperf.pubsub import PubSubParams, build_pubsub_net, headline_metrics
from spnperf.solver import (
    ChainStructureError,
    chain_metrics,
    mean_token_count,
    response_time_little,
    steady_state,
    transition_throughput,
)
from nets import mm1k_net, mm1k_pi, producer_consumer_net, simple_net, two_state_net


def test_symmetric_two_state_chain():
    dist = steady_state(explore(two_state_net(1.0, 1.0)))
    assert np.allclose(dist.probabilities, [0.5, 0.5], atol=1e-12)


def test_birth_death_balance():
    # detailed balance oracle: pi_high/pi_low = up/down = 2/3
    dist = steady_state(explore(two_state_net(up=2.0, down=3.0)))
    assert np.allclose(dist.probabilities, [0.6, 0.4], atol=1e-12)


def test_mm1_2_closed_form():
    dist = steady_state(explore(mm1k_net(1.0, 2.0, 2)))
    # state order from BFS: queue length 0, 1, 2
    assert np.allclose(dist.probabilities, [4 / 7, 2 / 7, 1 / 7], atol=1e-12)
    assert np.allclose(dist.probabilities, mm1k_pi(1.0, 2.0, 2), atol=1e-12)


def test_distribution_is_normalized_and_nonnegative():
    dist = steady_state(explore(mm1k_net(2.0, 3.0, 5)))
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-9
    assert (dist.probabilities >= 0).all()


def test_throughputs_match_closed_form():
    ctmc = explore(mm1k_net(1.0, 2.0, 2))
    dist = steady_state(ctmc)
    assert transition_throughput(ctmc, dist, "serve") == pytest.approx(6 / 7, rel=1e-12)
    assert transition_throughput(ctmc, dist, "arrive") == pytest.approx(6 / 7, rel=1e-12)


def test_throughput_of_never_enabled_transition_is_zero():
    net = simple_net(
        [("p", 1), ("q", 0)],
        [("loop", 1.0), ("dead", 1.0)],
        [
            ("p", "loop", "pre", 1),
            ("p", "loop", "post", 1),
            ("q", "dead", "pre", 1),
        ],
    )
    ctmc = explore(net)
    dist = steady_state(ctmc)
    assert transition_throughput(ctmc, dist, "dead") == 0.0


def test_unknown_names_raise_lookup_errors():
    ctmc = explore(mm1k_net(1.0, 2.0, 2))
    dist = steady_state(ctmc)
    with pytest.raises(KeyError):
        transition_throughput(ctmc, dist, "nope")
    with pytest.raises(KeyError):
        mean_token_count(ctmc, dist, "nope")


def test_chain_metrics_equal_the_per_name_lookups():
    for net in (mm1k_net(1.0, 2.0, 5), producer_consumer_net(), build_pubsub_net(PubSubParams())):
        ctmc = explore(net)
        dist = steady_state(ctmc)
        report = chain_metrics(ctmc, dist)
        assert report.transition_throughputs == {
            t.name: transition_throughput(ctmc, dist, t.name) for t in net.transitions
        }
        assert report.mean_tokens == {
            p.name: mean_token_count(ctmc, dist, p.name) for p in net.places
        }
        assert report.response_times == {}
    # the pub/sub model, last above, adds only its two response times
    headline = headline_metrics(ctmc, dist)
    assert headline.transition_throughputs == report.transition_throughputs
    assert headline.mean_tokens == report.mean_tokens


def test_mean_tokens_closed_form():
    ctmc = explore(mm1k_net(1.0, 2.0, 2))
    dist = steady_state(ctmc)
    assert mean_token_count(ctmc, dist, "Queue") == pytest.approx(4 / 7, rel=1e-12)


def test_mean_tokens_constant_place():
    ctmc = explore(producer_consumer_net())
    dist = steady_state(ctmc)
    total = mean_token_count(ctmc, dist, "A") + mean_token_count(ctmc, dist, "B")
    assert total == pytest.approx(2.0, rel=1e-12)


def test_little_quotient():
    assert response_time_little(2.0, 4.0) == 0.5
    assert response_time_little(4 / 7, 6 / 7) == pytest.approx(2 / 3, rel=1e-12)
    assert response_time_little(0.0, 0.0) == 0.0
    assert response_time_little(1.0, 0.0) is None
    with pytest.raises(ValueError):
        response_time_little(-1.0, 1.0)


def test_deadlock_is_a_structure_error():
    net = simple_net(
        [("a", 1), ("b", 0)],
        [("t", 1.0)],
        [("a", "t", "pre", 1), ("b", "t", "post", 1)],
    )
    with pytest.raises(ChainStructureError):
        steady_state(explore(net))


def test_reducible_chain_is_a_structure_error():
    # a -> b is a one-way street: two strongly connected components
    net = simple_net(
        [("a", 1), ("b", 0)],
        [("go", 1.0), ("stay", 1.0)],
        [
            ("a", "go", "pre", 1),
            ("b", "go", "post", 1),
            ("b", "stay", "pre", 1),
            ("b", "stay", "post", 1),
        ],
    )
    with pytest.raises(ChainStructureError):
        steady_state(explore(net))


def test_a_reducible_chain_names_the_states_that_cannot_return():
    # the chain of test_reducible_chain_is_a_structure_error: state 1 (b)
    # keeps its token forever, so it never returns to state 0
    net = simple_net(
        [("a", 1), ("b", 0)],
        [("go", 1.0), ("stay", 1.0)],
        [
            ("a", "go", "pre", 1),
            ("b", "go", "post", 1),
            ("b", "stay", "pre", 1),
            ("b", "stay", "post", 1),
        ],
    )
    with pytest.raises(ChainStructureError, match=r"states \[1\] cannot return to state 0"):
        steady_state(explore(net))


def test_direct_and_iterative_agree():
    for net in (mm1k_net(1.0, 2.0, 10), two_state_net(2.0, 3.0), producer_consumer_net()):
        ctmc = explore(net)
        a = steady_state(ctmc, method="direct")
        b = steady_state(ctmc, method="iterative")
        assert np.abs(a.probabilities - b.probabilities).max() <= 1e-8


def test_rate_scaling_leaves_pi_invariant_and_scales_throughput():
    base = mm1k_net(1.0, 2.0, 5)
    scaled = mm1k_net(3.0, 6.0, 5)
    c1, c2 = explore(base), explore(scaled)
    d1, d2 = steady_state(c1), steady_state(c2)
    assert np.abs(d1.probabilities - d2.probabilities).max() <= 1e-12
    x1 = transition_throughput(c1, d1, "serve")
    x2 = transition_throughput(c2, d2, "serve")
    assert x2 == pytest.approx(3 * x1, rel=1e-12)


def test_single_state_chain():
    from nets import self_loop_net

    ctmc = explore(self_loop_net())
    dist = steady_state(ctmc)
    assert dist.probabilities.tolist() == [1.0]
    assert transition_throughput(ctmc, dist, "loop") == 1.0


def test_gauss_seidel_gives_up_after_the_sweep_budget(monkeypatch):
    from spnperf import solver

    monkeypatch.setattr(solver, "DEFAULT_MAX_ITER", 1)
    with pytest.raises(solver.ConvergenceError) as exc:
        steady_state(explore(mm1k_net(1.0, 2.0, 20)), method="iterative")
    assert exc.value.iterations == 1


@pytest.mark.parametrize(
    "method,target,message,value",
    [
        ("direct", "_solve_direct", "no convergence after the direct solve", np.nan),
        ("iterative", "_solve_gauss_seidel", "no convergence after 7 sweeps", np.nan),
        # finite and non-negative, but far from balanced on M/M/1/3
        ("direct", "_solve_direct", r"the direct solve \(balance residual [1-9]", 1.0),
    ],
)
def test_a_refused_solve_names_its_path(monkeypatch, method, target, message, value):
    from spnperf import solver

    monkeypatch.setattr(solver, target, lambda q: (np.full(q.shape[0], value), 7, True))
    with pytest.raises(solver.ConvergenceError, match=message):
        steady_state(explore(mm1k_net(1.0, 2.0, 3)), method=method)
