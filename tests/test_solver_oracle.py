"""The banded direct solve against a dense GTH oracle.

The oracle is the original dense, blocked GTH elimination in the chain's own
state order: no reordering and no band.  GTH keeps componentwise relative
accuracy in every elimination order, so the banded solve in reverse
Cuthill-McKee order must agree with it entry by entry, tail states included,
not just in norm.
"""

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from spnperf import solver
from spnperf.pubsub import PubSubParams, build_pubsub_net
from spnperf.reachability import explore
from spnperf.solver import ConvergenceError, generator_matrix, steady_state
from nets import mm1k_log_pi, mm1k_net, mm1k_pi, simple_net
from test_explore_oracle import PUBSUB_CONFIGS

BLOCK = 32  # the default block of solver._solve_direct
RTOL = 1e-12


def dense_gth(q, block=BLOCK):
    """Dense blocked GTH over the full matrix in the given state order."""
    a = q.toarray()
    n = a.shape[0]
    np.fill_diagonal(a, 0.0)
    hi = n
    while hi > 1:
        lo = max(hi - block, 1)
        for k in range(hi - 1, lo - 1, -1):
            a[:k, k] /= a[k, :k].sum()
            bk = slice(lo, k)
            a[bk, :k] += np.outer(a[bk, k], a[k, :k])
            a[:lo, bk] += np.outer(a[:lo, k], a[k, bk])
        a[:lo, :lo] += a[:lo, lo:hi] @ a[lo:hi, :lo]
        hi = lo
    x = np.empty(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ a[:k, k]
    return x / x.sum()


def rcm_bandwidth(q):
    """Half-bandwidth of Q in the reverse Cuthill-McKee order."""
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(abs(q) + abs(q.T), symmetric_mode=True)
    qp = q[perm][:, perm].tocoo()
    return int(np.abs(qp.row - qp.col).max())


def assert_componentwise(pi, expected, rtol=RTOL):
    assert np.isfinite(pi).all()
    assert (expected > 0).all()
    rel = np.abs(pi - expected) / expected
    assert rel.max() <= rtol, f"max relative difference {rel.max():.3e}"


def assert_matches_dense(ctmc):
    dist = steady_state(ctmc, method="direct")
    assert dist.method == "direct"
    assert_componentwise(dist.probabilities, dense_gth(generator_matrix(ctmc)))
    return dist


def walk_net(rates):
    """One token walking over ``n`` places: the CTMC has an edge i -> j at
    ``rates[(i, j)]`` for every entry, so any chain can be written as a net."""
    n = 1 + max(max(edge) for edge in rates)
    return simple_net(
        [(f"s{i}", int(i == 0)) for i in range(n)],
        [(f"t{i}_{j}", r) for (i, j), r in rates.items()],
        [
            arc
            for i, j in rates
            for arc in ((f"s{i}", f"t{i}_{j}", "pre", 1), (f"s{j}", f"t{i}_{j}", "post", 1))
        ],
    )


def complete_chain(n, seed=0):
    """Every pair of states connected, with rates spread over 1e-3..1e3."""
    rng = np.random.default_rng(seed)
    return walk_net(
        {(i, j): float(10.0 ** rng.uniform(-3, 3)) for i in range(n) for j in range(n) if i != j}
    )


# -- pub/sub chains ---------------------------------------------------------

@pytest.mark.parametrize("overrides,n_states", PUBSUB_CONFIGS)
def test_pubsub_configurations_match_dense(overrides, n_states):
    ctmc = explore(build_pubsub_net(PubSubParams(**overrides)))
    assert ctmc.n_states == n_states
    q = generator_matrix(ctmc)
    # the point of the reordering: a band far narrower than the chain
    assert rcm_bandwidth(q) < n_states / 4
    assert_matches_dense(ctmc)


# -- birth-death chains with closed forms -----------------------------------

@pytest.mark.parametrize("k", [40, 300])
def test_light_mm1k_tail_matches_dense_and_closed_form(k):
    # rho = 0.1: the tail falls to about 1e-300, where an absolute residual
    # says nothing; GTH still gets every probability to a relative 1e-12
    ctmc = explore(mm1k_net(0.1, 1.0, k))
    dist = assert_matches_dense(ctmc)
    queue = ctmc.markings[:, 1]
    assert_componentwise(dist.probabilities, mm1k_pi(0.1, 1.0, k)[queue])


@pytest.mark.parametrize("lam, mu", [(3.0, 2.0), (2.0, 3.0)])
def test_stiff_mm1k_tail_matches_log_space_closed_form(lam, mu):
    # M/M/1/1900: pi spans about 335 orders of magnitude, so products of
    # probability ratios overflow unless the back-substitution rescales.
    # (2, 3) grows the ratios in reverse Cuthill-McKee order, (3, 2) in the
    # chain's own order.
    ctmc = explore(mm1k_net(lam, mu, 1900))
    dist = steady_state(ctmc)
    assert dist.method == "direct"
    pi = dist.probabilities
    assert np.isfinite(pi).all()
    expected = np.exp(mm1k_log_pi(lam, mu, 1900))[ctmc.markings[:, 1]]
    normal = expected > 1e-300
    # 1,900 chained ratios, each rounded, in the solve and in the closed form
    assert_componentwise(pi[normal], expected[normal], rtol=1e-12)
    assert np.abs(pi[~normal] - expected[~normal]).max() <= 1e-300
    assert abs(pi.sum() - 1.0) <= 1e-15


# -- band and block edge cases -----------------------------------------------

@pytest.mark.parametrize("n", [2, BLOCK, BLOCK + 1, BLOCK + 2, 70])
def test_complete_chain_has_full_band_and_matches_dense(n):
    ctmc = explore(complete_chain(n, seed=n))
    assert ctmc.n_states == n
    assert rcm_bandwidth(generator_matrix(ctmc)) == n - 1
    assert_matches_dense(ctmc)


@pytest.mark.parametrize("n", [2, BLOCK, BLOCK + 1, BLOCK + 2])
def test_narrow_band_chain_at_block_edges_matches_dense(n):
    ctmc = explore(mm1k_net(1.3, 2.0, n - 1))
    assert ctmc.n_states == n
    assert rcm_bandwidth(generator_matrix(ctmc)) == 1
    assert_matches_dense(ctmc)


# -- random irreducible chains ------------------------------------------------

@st.composite
def irreducible_chains(draw):
    """A random ring through every state (so the chain is irreducible) plus
    random extra edges, with rates spread over eight orders of magnitude."""
    n = draw(st.integers(2, 40))
    order = draw(st.permutations(range(n)))
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges |= set(draw(st.lists(pairs, max_size=3 * n)))
    rate = st.floats(-4.0, 4.0).map(lambda e: 10.0**e)
    return walk_net({edge: draw(rate) for edge in sorted(edges)})


@settings(max_examples=150, deadline=None)
@given(irreducible_chains(), st.sampled_from([1, 2, 3, 7, BLOCK]))
def test_random_irreducible_chains_match_dense(net, block):
    ctmc = explore(net)
    q = generator_matrix(ctmc)
    expected = dense_gth(q)
    # the window clipping must hold for blocks narrower and wider than the band
    pi, _iterations = solver._solve_direct(q, solver.DEFAULT_TOL, block=block)
    assert_componentwise(pi, expected)
    assert_componentwise(steady_state(ctmc, method="direct").probabilities, expected)


# -- non-finite results are refused -------------------------------------------

@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_distribution_is_refused(monkeypatch, bad):
    def broken(q, tol):
        pi = np.full(q.shape[0], 0.5)
        pi[0] = bad
        return pi, 0

    monkeypatch.setattr(solver, "_solve_direct", broken)
    with pytest.raises(ConvergenceError):
        steady_state(explore(mm1k_net(1.0, 2.0, 3)), method="direct")
