"""Stationary distribution of the embedded CTMC and derived metrics.

The generator Q is stored as its off-diagonal rates, parallel edges
summed, and its out-rates, which its diagonal holds negated.  Small chains
are solved directly by GTH elimination inside the envelope of Q in reverse
Cuthill-McKee order; larger chains fall back to Gauss-Seidel sweeps on
pi*Q = 0 with renormalization.  A non-finite result is never returned.

The direct solve eliminates 32 states at a time, each block over its
envelope window: the states below it that reach into it, the only ones
that fill can touch.  A block's own states are eliminated in a small
array that stands in for the rest of the chain with two kinds of extra
entries: one aggregate column, holding each block row's summed rates into
the window, which is all a pivot needs of the window; and identity seeds,
which the same eliminations turn into T = (I - N)^-1 and V = (S - M)^-1,
where minus the block's part of the generator factors as (I - N)(S - M).
Three matrix products then update the block's rows (T @ R0), its columns
(C0 @ V) and the window (C @ R).  The small array is eliminated by the
same scheme, 16 states at a time, and only that inner level goes state
by state.  Back-substitution goes a block at a time through T, which is
(I - N)^-1 for N the block's in-block coupling.  All of these entries,
and every operation on them, are non-negative sums, products and
quotients, so GTH's componentwise accuracy (O'Cinneide 1993) holds as it
does one state at a time.

Gauss-Seidel runs each sweep's forward substitution level by level and
reads the sweep's residual off the upper inflow the next sweep needs.
What depends only on the chain's structure -- Q's pattern, the
irreducibility verdict, the RCM order with Q's layout and envelope
windows, and the level plan in level order -- is derived once, with
numpy alone, and kept in ``Ctmc.structure_memo``, so a solve does rate
work only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .net import SpnError
from .reachability import Ctmc

DIRECT_STATE_LIMIT = 2000
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000


class ChainStructureError(SpnError):
    """The chain is not irreducible (deadlocks or several recurrent classes)."""


class ConvergenceError(SpnError):
    """A solve did not reach ``DEFAULT_TOL`` with a non-negative, finite result."""

    def __init__(self, residual, iterations, method="iterative"):
        self.residual = residual
        self.iterations = iterations
        path = "the direct solve" if method == "direct" else f"{iterations} sweeps"
        super().__init__(f"no convergence after {path} (residual {residual:.3e})")


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


class _Pattern:
    """Where a chain's generator Q has entries: everything about Q that the
    rates do not change, and what the solver derives from it.

    ``row`` and ``col`` list Q's off-diagonal entries sorted by (row, col):
    each distinct edge once (parallel edges summed, self-loops dropped).
    ``edge_slot`` maps each kept edge of the chain to its entry.
    """

    def __init__(self, ctmc: Ctmc):
        n = self.n = ctmc.n_states
        self.keep = ctmc.src != ctmc.dst
        keys, self.edge_slot = np.unique(
            ctmc.src[self.keep] * n + ctmc.dst[self.keep], return_inverse=True
        )
        self.row, self.col = np.divmod(keys, n)

    @cached_property
    def unreturning(self) -> np.ndarray:
        return _cannot_return(self)

    @cached_property
    def rcm(self) -> np.ndarray:
        return _reverse_cuthill_mckee(self)

    @cached_property
    def band(self) -> tuple:
        return _band(self)

    @cached_property
    def windows(self) -> np.ndarray:
        return _windows(self)

    @cached_property
    def gs_plan(self) -> tuple:
        return _level_plan(self)


def _pattern(ctmc: Ctmc) -> _Pattern:
    pattern = ctmc.structure_memo.get("generator")
    if pattern is None:
        pattern = ctmc.structure_memo["generator"] = _Pattern(ctmc)
    return pattern


@dataclass(frozen=True, eq=False)
class Generator:
    """Generator Q of a chain: ``val`` holds the off-diagonal entries at
    ``pattern.row`` and ``pattern.col``; the diagonal is minus ``out``, each
    state's out-rate."""

    pattern: _Pattern
    val: np.ndarray
    out: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.pattern.n, self.pattern.n)


def generator(ctmc: Ctmc) -> Generator:
    """Q's summed off-diagonal rates and each state's out-rate, their row sum."""
    p = _pattern(ctmc)
    val = np.bincount(p.edge_slot, ctmc.rate[p.keep], minlength=p.row.size)
    return Generator(p, val, np.bincount(p.row, val, minlength=p.n))


def _row_pointers(row: np.ndarray, n: int) -> np.ndarray:
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
    return ptr


def _gather(ptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Entry positions of the CSR rows ``nodes``, row after row."""
    start = ptr[nodes]
    length = ptr[nodes + 1] - start
    return np.repeat(start - np.cumsum(length) + length, length) + np.arange(length.sum())


def _cannot_return(p: _Pattern) -> np.ndarray:
    # explore reaches every state from state 0, so the chain is irreducible
    # exactly when every state reaches state 0: one level-synchronous search
    # back along the edges, dst -> src
    ptr, pred = _row_pointers(p.col, p.n), p.row[np.argsort(p.col)]
    seen = np.zeros(p.n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        reached = np.zeros(p.n, dtype=bool)
        reached[pred[_gather(ptr, frontier)]] = True
        frontier = np.flatnonzero(reached & ~seen)
        seen[frontier] = True
    return np.flatnonzero(~seen)


def _check_structure(ctmc: Ctmc, q: Generator):
    if ctmc.deadlock_states:
        names = sorted(ctmc.deadlock_states)
        raise ChainStructureError(
            f"chain has deadlock states {names[:10]}"
            + (" ..." if len(names) > 10 else "")
        )
    stuck = q.pattern.unreturning
    if stuck.size:
        raise ChainStructureError(
            f"chain is reducible: states {stuck[:10].tolist()}"
            + (" ..." if stuck.size > 10 else "")
            + " cannot return to state 0"
        )


def _residual(pi: np.ndarray, q: Generator) -> float:
    # (pi Q)_j is the inflow into j less its outflow pi_j out_j; bincount
    # adds each column's entries in row order
    p = q.pattern
    inflow = np.bincount(p.col, pi[p.row] * q.val, minlength=p.n)
    return float(np.abs(inflow - pi * q.out).max())


def _reverse_cuthill_mckee(p: _Pattern) -> np.ndarray:
    # Cuthill and McKee (1969) on the pattern of Q + Q^T, one level at a
    # time: each new state joins the next level after its earliest-ordered
    # neighbour, then by degree, then by index, which is the order a
    # state-by-state search gives.  Each component starts at a state of
    # minimum degree, as scipy's reverse_cuthill_mckee does.
    n, r, c = p.n, p.row, p.col
    # sorted distinct keys: np.unique would build a hash table, which numpy 2
    # makes many times slower than this on large arrays
    keys = np.sort(np.concatenate([r * n + c, c * n + r]))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    state, neighbour = np.divmod(keys, n)
    degree = np.bincount(state, minlength=n)
    ptr = _row_pointers(state, n)
    order = np.empty(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    hi = 0
    while hi < n:
        rest = np.flatnonzero(~seen)
        seed = rest[np.argmin(degree[rest])]
        order[hi] = seed
        seen[seed] = True
        lo, hi = hi, hi + 1
        while lo < hi:
            nodes = neighbour[_gather(ptr, order[lo:hi])]
            parent = np.repeat(np.arange(lo, hi), degree[order[lo:hi]])
            new = ~seen[nodes]
            nodes, first = np.unique(nodes[new], return_index=True)
            nodes = nodes[np.lexsort((nodes, degree[nodes], parent[new][first]))]
            order[hi : hi + nodes.size] = nodes
            seen[nodes] = True
            lo, hi = hi, hi + nodes.size
    return order[::-1]


def _band(p: _Pattern) -> tuple[np.ndarray, np.ndarray]:
    """The places of Q's off-diagonal entries in RCM order."""
    at = np.argsort(p.rcm)  # where each state sits in the order
    return at[p.row], at[p.col]


def _windows(p: _Pattern) -> np.ndarray:
    """Where each state's elimination window starts, in RCM order.

    With ``reach[j]`` the highest state adjacent to j in Q + Q^T, state k's
    window starts at the first state j with ``max(reach[:j + 1]) >= k``.
    Eliminating from the top keeps every nonzero a[i, k] and a[k, i],
    i < k, at i >= start[k] (George and Liu 1981): fill joins two states
    below the pivot, and both of them reach it.
    """
    i, j = p.band
    reach = np.arange(p.n)
    np.maximum.at(reach, i, j)
    np.maximum.at(reach, j, i)
    return np.searchsorted(np.maximum.accumulate(reach), np.arange(p.n))


def _eliminate(a: np.ndarray, first: int, sizes: tuple, start=None) -> list:
    """GTH-eliminate states ``a.shape[0] - 1`` down to ``first`` in place.

    State k's pivot adds up ``a[k, first - 1:k]``: the columns below
    ``first - 1`` are not states.  With ``sizes`` empty the states go one
    by one.  Otherwise they go in blocks of ``sizes[0]`` from the top, each
    over the window ``[start[lo], lo)`` below it (``[0, lo)`` when ``start``
    is None), and each block's own array is eliminated the same way with
    ``sizes[1:]``.  Leaves a's strictly upper part as eliminating one state
    at a time would, and returns each block's ``(lo, hi, T)``, from the top.
    """
    n = a.shape[0]
    if not sizes:
        for k in range(n - 1, first - 1, -1):
            col = a[:k, k]
            col /= a[k, first - 1 : k].sum()
            a[:k, :k] += col[:, None] * a[k, :k]
        return []
    blocks = []
    bounds = [*range(n, first, -sizes[0]), first]
    for hi, lo in zip(bounds, bounds[1:]):
        m = hi - lo
        w = 0 if start is None else start[lo]
        win, blk = slice(w, lo), slice(lo, hi)
        g = np.zeros((2 * m + 1, 2 * m + 1))
        g[:m, m + 1 :] = np.eye(m)
        g[m + 1 :, :m] = np.eye(m)
        g[m + 1 :, m] = a[blk, max(w, first - 1) : lo].sum(axis=1)
        g[m + 1 :, m + 1 :] = a[blk, blk]
        _eliminate(g, m + 1, sizes[1:])
        t, v = g[m + 1 :, :m], g[:m, m + 1 :]
        r = t @ a[blk, win]
        a[win, blk] = a[win, blk] @ v
        a[win, win] += a[win, blk] @ r
        a[blk, win] = r
        a[blk, blk] = g[m + 1 :, m + 1 :]
        blocks.append((lo, hi, t.copy()))  # T alone, not all of g
    return blocks


def _back_substitute(a: np.ndarray, blocks: list, start: np.ndarray) -> np.ndarray:
    """Unnormalized pi from ``_eliminate``'s array and blocks, block by
    block from state 0: ``x[lo:hi] = (x[w:lo] @ a[w:lo, lo:hi]) @ T``."""
    x = np.empty(a.shape[0])
    x[0] = 1.0
    for lo, hi, t in reversed(blocks):
        w = start[lo]
        x[lo:hi] = (x[w:lo] @ a[w:lo, lo:hi]) @ t
        # x holds probability ratios, which grow by up to T's entries within
        # a block: keep its largest entry below 1 by an exact power of two
        top = x[lo:hi].max()
        if top > 1.0:
            x[:hi] = np.ldexp(x[:hi], -math.frexp(top)[1])
    return x


def _solve_direct(q: Generator, block: int = 32) -> tuple[np.ndarray, int]:
    # GTH state elimination.  Every operation adds, multiplies or divides
    # non-negative rates -- no cancellation -- so the probabilities keep
    # componentwise relative accuracy in any elimination order (O'Cinneide
    # 1993).  In reverse Cuthill-McKee order, eliminating state k touches
    # only its envelope window [start[k], k) (``_windows``): no fill
    # outside it.
    #
    # States [lo, hi) go as one block B of m states over the window
    # W = [start[lo], lo) below it.  Minus the generator's B part factors as
    # (I - N)(S - M): N the pivot-scaled columns a[j, k] / s_k, S - M the
    # rows at each pivot.  g holds m seeds, an aggregate column and B.
    # The aggregate column starts as each B row's sum over W and is
    # updated like any column, so it stays that sum, and each pivot s_k
    # is the rest of B's row plus it.  Seed column i starts as e_i in B's
    # rows and ends as column i of T = (I - N)^-1; seed row i starts as e_i
    # in B's columns and ends as row i of V = (S - M)^-1.  Then W's scaled
    # columns into B are C0 @ V, B's rows into W are T @ R0, and W gains
    # C @ R.  Each entry is built from sums, products and quotients of
    # non-negative numbers: nothing is subtracted.
    #
    # g is eliminated by the same scheme, 16 states at a time, each inner
    # block over all of g below it; its pivots add up the aggregate column
    # and B's own columns, never the seeds.  Only this inner level goes
    # state by state.  T lives in the rows of g's inner blocks, so each
    # block's rows are written back as T @ R0 -- the outer level never
    # reads its own stale rows, but the inner level does.
    #
    # Back-substitution: x_B = x_W C + x_B N, as N is B's in-block
    # coupling, so x_B = (x_W C) @ T, one block at a time.
    p = q.pattern
    n = p.n
    i, j = p.band
    a = np.zeros((n, n))
    a[i, j] = q.val
    x = _back_substitute(a, _eliminate(a, 1, (block, 16), p.windows), p.windows)
    pi = np.empty(n)
    pi[p.rcm] = x / x.sum()
    return pi, 0


def _level_plan(p: _Pattern) -> tuple:
    """Gauss-Seidel's forward substitution in levels (Anderson and Saad 1989).

    A state's new value needs the new values of the lower-numbered states
    with an edge into it.  A level holds states whose needs all lie in
    earlier levels, so each level is one vector step.  Returns ``order``,
    the levels one after another; per level ``lo``, ``hi`` (it is
    ``order[lo:hi]``), the entries that feed it, their sources' positions in
    ``order`` and their targets' places in the level; and the entries from
    higher-numbered states, which read the previous sweep, with their
    sources' and targets' positions in ``order``.
    """
    lower = np.flatnonzero(p.row < p.col)
    src, dst = p.row[lower], p.col[lower]
    # Kahn's topological sort, one level at a time; lower is sorted by src
    ptr = _row_pointers(src, p.n)
    needs = np.bincount(dst, minlength=p.n)
    levels = [np.flatnonzero(needs == 0)]
    while True:
        nodes = dst[_gather(ptr, levels[-1])]
        needs -= np.bincount(nodes, minlength=p.n)
        ready = np.zeros(p.n, dtype=bool)
        ready[nodes[needs[nodes] == 0]] = True
        if not ready.any():
            break
        levels.append(np.flatnonzero(ready))
    order = np.concatenate(levels)
    bounds = np.cumsum([0] + [level.size for level in levels])
    at = np.argsort(order)
    # each target's entries stay in source order, the order of a row sweep
    target = at[dst]
    by_target = np.argsort(target, kind="stable")
    lower, source, target = lower[by_target], at[src[by_target]], target[by_target]
    ebounds = np.searchsorted(target, bounds)
    local = target - np.repeat(bounds[:-1], np.diff(ebounds))
    spans = zip(bounds.tolist(), bounds[1:].tolist(), ebounds, ebounds[1:])
    levels = [(lo, hi, lower[e:f], source[e:f], local[e:f]) for lo, hi, e, f in spans]
    upper = np.flatnonzero(p.row > p.col)
    return order, levels, (upper, at[p.row[upper]], at[p.col[upper]])


def _solve_gauss_seidel(q: Generator) -> tuple[np.ndarray, int]:
    # Each sweep solves (D + L) x' = -U x with Q^T = D + L + U, in the
    # chain's own state order: x'_i is the inflow into i, from the new x'
    # of lower-numbered states and the old x of higher-numbered ones, over
    # the out-rate of i.  Every term is non-negative.  The forward
    # substitution runs level by level (``_level_plan``) on y, which holds x
    # in level order so that each level is a slice.
    #
    # By the sweep's own equations the lower terms of x' Q cancel:
    # (x' Q)_i = sum over upper entries q_ji (x'_j - x_j).  So with u(y) the
    # upper inflow and y' = x' / total, the residual max|y' Q| is
    # max|u(y') - u(y) / total|, and u(y') is what the next sweep starts from.
    order, levels, (upper, usrc, udst) = q.pattern.gs_plan
    n, out, uval = order.size, q.out[order], q.val[upper]
    levels = [(lo, hi, q.val[lower], src, local) for lo, hi, lower, src, local in levels]
    y = np.full(n, 1.0 / n)
    inflow = np.bincount(udst, uval * y[usrc], minlength=n)
    for sweep in range(1, DEFAULT_MAX_ITER + 1):
        for lo, hi, val, src, local in levels:
            into = inflow[lo:hi]
            if src.size:  # the first level needs no new values
                into = into + np.bincount(local, val * y[src], minlength=hi - lo)
            np.divide(into, out[lo:hi], out=y[lo:hi])
        total = y.sum()
        if total == 0.0:
            raise ConvergenceError(np.inf, sweep)
        y /= total
        previous, inflow = inflow, np.bincount(udst, uval * y[usrc], minlength=n)
        residual = float(np.abs(inflow - previous / total).max())
        if residual <= DEFAULT_TOL:
            pi = np.empty(n)
            pi[order] = y
            return pi, sweep
    raise ConvergenceError(residual, DEFAULT_MAX_ITER)


def steady_state(ctmc: Ctmc, method: str = "auto") -> StationaryDistribution:
    """Solve pi Q = 0, sum(pi) = 1 for an irreducible chain.

    ``auto``, the only selection the pipeline makes, uses direct
    elimination up to ``DIRECT_STATE_LIMIT`` states and Gauss-Seidel
    beyond; tests force ``direct`` or ``iterative`` to compare the two.
    Gauss-Seidel gives up after ``DEFAULT_MAX_ITER`` sweeps.  Either path's
    result is refused unless it is non-negative and finite with residual
    ``max|pi Q| <= DEFAULT_TOL``, the one tolerance.
    """
    if ctmc.n_states == 0:
        raise ValueError("empty chain")
    if method not in ("auto", "direct", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    q = generator(ctmc)
    _check_structure(ctmc, q)

    if ctmc.n_states == 1:
        return StationaryDistribution(np.array([1.0]), 0.0, "direct")

    if method == "auto":
        method = "direct" if ctmc.n_states <= DIRECT_STATE_LIMIT else "iterative"
    if method == "direct":
        pi, iters = _solve_direct(q)
    else:
        pi, iters = _solve_gauss_seidel(q)

    # both paths only add, multiply and divide non-negative numbers, so a
    # negative entry is a fault, refused before normalizing could flip it
    if (pi < 0).any():
        raise ConvergenceError(_residual(pi, q), iters, method)
    pi = pi / pi.sum()
    res = _residual(pi, q)
    if not res <= DEFAULT_TOL:  # also refuses a NaN residual or probability
        raise ConvergenceError(res, iters, method)
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
