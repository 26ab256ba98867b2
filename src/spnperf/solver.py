"""Stationary distribution of the embedded CTMC and derived metrics.

The generator Q has summed edge rates off the diagonal and diagonal
entries making each row sum to zero.  Small chains are solved directly
by GTH elimination inside the band of Q in reverse Cuthill-McKee order;
larger chains fall back to Gauss-Seidel sweeps on pi*Q = 0 with
renormalization.  A non-finite result is never returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .net import SpnError
from .reachability import Ctmc

DIRECT_STATE_LIMIT = 2000
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000


class ChainStructureError(SpnError):
    """The chain is not irreducible (deadlocks or several recurrent classes)."""


class ConvergenceError(SpnError):
    """Iterative solve did not reach the residual tolerance."""

    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} sweeps (residual {residual:.3e})"
        )


@dataclass(frozen=True)
class StationaryDistribution:
    """Steady-state probabilities, one per CTMC state."""

    probabilities: np.ndarray
    residual: float
    method: str
    iterations: int = 0

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64).copy()
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)


@dataclass(frozen=True)
class MetricsReport:
    """Throughputs, mean token counts and headline response times.

    A response time of ``None`` marks an undefined metric (zero
    throughput, i.e. a dead configuration).
    """

    transition_throughputs: dict
    mean_tokens: dict
    response_times: dict


def generator_matrix(ctmc: Ctmc) -> scipy.sparse.csr_matrix:
    """Sparse generator Q. Self-loop edges cancel and are dropped."""
    n = ctmc.n_states
    keep = ctmc.src != ctmc.dst
    q = scipy.sparse.coo_matrix(
        (ctmc.rate[keep], (ctmc.src[keep], ctmc.dst[keep])), shape=(n, n)
    ).tocsr()
    q = q - scipy.sparse.diags(np.asarray(q.sum(axis=1)).ravel())
    return q.tocsr()


def _check_structure(ctmc: Ctmc, q: scipy.sparse.csr_matrix):
    if ctmc.deadlock_states:
        names = sorted(ctmc.deadlock_states)
        raise ChainStructureError(
            f"chain has deadlock states {names[:10]}"
            + (" ..." if len(names) > 10 else "")
        )
    if ctmc.n_states == 1:
        return
    adj = scipy.sparse.csr_matrix((np.abs(q.data) > 0, q.indices, q.indptr), shape=q.shape)
    n_comp, labels = scipy.sparse.csgraph.connected_components(
        adj, directed=True, connection="strong"
    )
    if n_comp > 1:
        sample = [int(np.flatnonzero(labels == c)[0]) for c in range(min(n_comp, 10))]
        raise ChainStructureError(
            f"chain is reducible: {n_comp} strongly connected components "
            f"(sample states per component: {sample})"
        )


def _residual(pi: np.ndarray, q) -> float:
    return float(np.abs(pi @ q).max())


def _solve_direct(q, tol: float, block: int = 32) -> tuple[np.ndarray, int]:
    # GTH state elimination.  Every operation adds, multiplies or divides
    # non-negative rates -- no cancellation -- so the probabilities keep
    # componentwise relative accuracy in any elimination order (O'Cinneide
    # 1993).  In reverse Cuthill-McKee order Q has half-bandwidth b, so
    # eliminating state k touches only [k - b, k): no fill, O(n b^2) work.
    # Rank-1 updates are applied eagerly inside a block of states and to
    # its rows and columns; the window left of it takes one matrix product.
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(abs(q) + abs(q.T), symmetric_mode=True)
    qp = q[perm][:, perm].tocoo()
    b = int(np.abs(qp.row - qp.col).max())
    a = qp.toarray()
    n = a.shape[0]
    np.fill_diagonal(a, 0.0)
    hi = n
    while hi > 1:
        lo = max(hi - block, 1)
        w0 = max(lo - b, 0)
        for k in range(hi - 1, lo - 1, -1):
            w = max(k - b, 0)
            a[w:k, k] /= a[k, w:k].sum()
            bk = slice(lo, k)
            a[bk, w:k] += np.outer(a[bk, k], a[k, w:k])
            a[w0:lo, bk] += np.outer(a[w0:lo, k], a[k, bk])
        a[w0:lo, w0:lo] += a[w0:lo, lo:hi] @ a[lo:hi, w0:lo]
        hi = lo
    # x multiplies probability ratios: rescale it (exactly) before it overflows
    x = np.empty(n)
    x[0] = 1.0
    for k in range(1, n):
        w = max(k - b, 0)
        x[k] = x[w:k] @ a[w:k, k]
        if x[k] > 2.0**500:
            x[: k + 1] *= 2.0**-500
    pi = np.empty(n)
    pi[perm] = x / x.sum()
    return pi, 0


def _solve_gauss_seidel(q, tol: float, max_iter: int) -> tuple[np.ndarray, int]:
    n = q.shape[0]
    a = scipy.sparse.csr_matrix(q.T)
    lower = scipy.sparse.tril(a, k=0, format="csr")
    upper = scipy.sparse.triu(a, k=1, format="csr")
    x = np.full(n, 1.0 / n)
    for sweep in range(1, max_iter + 1):
        rhs = -(upper @ x)
        x = scipy.sparse.linalg.spsolve_triangular(lower, rhs, lower=True)
        total = x.sum()
        if total == 0.0:
            raise ConvergenceError(np.inf, sweep)
        x = x / total
        if _residual(x, q) <= tol:
            return x, sweep
    raise ConvergenceError(_residual(x, q), max_iter)


def steady_state(
    ctmc: Ctmc,
    method: str = "auto",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> StationaryDistribution:
    """Solve pi Q = 0, sum(pi) = 1 for an irreducible chain.

    ``method`` is one of ``auto``, ``direct``, ``iterative``; ``auto``
    uses direct elimination up to ``DIRECT_STATE_LIMIT`` states and
    Gauss-Seidel beyond.
    """
    if ctmc.n_states == 0:
        raise ValueError("empty chain")
    if method not in ("auto", "direct", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    q = generator_matrix(ctmc)
    _check_structure(ctmc, q)

    if ctmc.n_states == 1:
        return StationaryDistribution(np.array([1.0]), 0.0, "direct")

    if method == "auto":
        method = "direct" if ctmc.n_states <= DIRECT_STATE_LIMIT else "iterative"
    if method == "direct":
        pi, iters = _solve_direct(q, tol)
    else:
        pi, iters = _solve_gauss_seidel(q, tol, max_iter)

    pi = np.where((pi < 0) & (pi > -1e-12), 0.0, pi)
    if (pi < 0).any():
        raise ConvergenceError(_residual(pi, q), iters)
    pi = pi / pi.sum()
    res = _residual(pi, q)
    if not res <= tol:  # also refuses a NaN residual or probability
        raise ConvergenceError(res, iters)
    return StationaryDistribution(pi, res, method, iters)


def _check_dist(ctmc: Ctmc, dist: StationaryDistribution):
    if dist.probabilities.shape != (ctmc.n_states,):
        raise ValueError("distribution does not match the chain")


def _flows(ctmc: Ctmc, dist: StationaryDistribution) -> np.ndarray:
    # bincount adds each transition's edges in edge order, like a plain sum
    return np.bincount(
        ctmc.trans, dist.probabilities[ctmc.src] * ctmc.rate, minlength=ctmc.net.n_transitions
    )


def _tokens(ctmc: Ctmc, dist: StationaryDistribution, p: int) -> float:
    # one column at a time: ``pi @ markings`` as one product may round
    # differently in the last bit
    return float(dist.probabilities @ ctmc.markings[:, p])


def chain_metrics(ctmc: Ctmc, dist: StationaryDistribution) -> MetricsReport:
    """Every transition's throughput and every place's mean token count."""
    _check_dist(ctmc, dist)
    net = ctmc.net
    return MetricsReport(
        transition_throughputs=dict(
            zip((t.name for t in net.transitions), _flows(ctmc, dist).tolist())
        ),
        mean_tokens={p.name: _tokens(ctmc, dist, i) for i, p in enumerate(net.places)},
        response_times={},
    )


def transition_throughput(ctmc: Ctmc, dist: StationaryDistribution, name: str) -> float:
    """Expected firings of ``name`` per time unit at steady state."""
    _check_dist(ctmc, dist)
    return float(_flows(ctmc, dist)[ctmc.net.transition_index(name)])


def mean_token_count(ctmc: Ctmc, dist: StationaryDistribution, name: str) -> float:
    """Expected token count of place ``name`` at steady state."""
    _check_dist(ctmc, dist)
    return _tokens(ctmc, dist, ctmc.net.place_index(name))


def response_time_little(population: float, throughput: float):
    """Little's law quotient: mean number in system over throughput.

    Returns ``None`` (undefined) for positive population with zero
    throughput and 0.0 for the empty system.
    """
    if population < 0 or throughput < 0:
        raise ValueError("population and throughput must be non-negative")
    if throughput == 0.0:
        return 0.0 if population == 0.0 else None
    return population / throughput


def state_predicate_probability(
    ctmc: Ctmc, dist: StationaryDistribution, predicate: Callable
) -> float:
    """Total stationary probability of states whose marking satisfies ``predicate``."""
    _check_dist(ctmc, dist)
    return float(
        sum(p for p, s in zip(dist.probabilities, ctmc.states) if predicate(s))
    )
