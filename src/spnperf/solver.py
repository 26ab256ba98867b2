"""Stationary distribution of the embedded CTMC and derived metrics.

The generator Q is stored as its off-diagonal rates, parallel edges
summed, and its out-rates, which its diagonal holds negated.  A solve is
accepted on its balance residual max_j |(pi Q)_j| / (pi_j out_j), each
state's net flow over its outflow, which no choice of time unit changes;
a non-finite result is never returned.

Every chain is first given to Gauss-Seidel sweeps on pi Q = 0 with
renormalization.  They stop once the balance residual, divided by one
minus the rate at which it falls, is at most DEFAULT_TOL: that quotient
estimates the relative error left in pi.  Gauss-Seidel runs each sweep's
forward substitution level by level and reads the residual off the upper
inflow the next sweep needs.  The sweeps get a budget of about what GTH
elimination would cost, in numpy calls and flops, from the chain's
structure alone; a chain they have not solved by then, such as a long
birth-death chain, goes to GTH, if its dense n x n array fits
DIRECT_MAX_BYTES.

The direct solve runs GTH elimination inside the envelope of Q in reverse
Cuthill-McKee order.  It eliminates 32 states at a time, each block over
its envelope window: the states below it that reach into it, the only
ones that fill can touch.  A block's own states are eliminated one by one
in a small array with one extra column, each row's summed rates into the
window, which is all a pivot needs of the window.  Then two recurrences,
top down, pass the pivots on to the rows and the columns between block
and window, and one matrix product updates the window.
Back-substitution goes one state at a time over the same windows, and
rescales by a power of two whenever a probability ratio passes 1.  All
of these entries, and every operation on them, are non-negative sums,
products and quotients, so GTH's componentwise accuracy (O'Cinneide
1993) holds as it does one state at a time.

What depends only on the chain's structure -- Q's pattern, the
irreducibility verdict, the level plan in level order, and the RCM order
with Q's layout and envelope windows -- is derived once, with numpy
alone, and kept in ``Ctmc.structure_memo``, so a solve does rate work
only.  The RCM order and the windows are derived only for a chain that
reaches GTH.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .net import AnalysisError
from .reachability import Ctmc

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
#: the balance residual skips states whose outflow pi_j out_j is at or below
#: this, where pi has underflowed or is about to
BALANCE_FLOOR = 1e-290
#: the largest dense array ``auto``'s fallback to the direct solve may fill
DIRECT_MAX_BYTES = 32 * 2**20

# auto's cost model (``_budget``), in microseconds on one core, fitted to
# solves of pub/sub, M/M/1/K and complete chains of 41 to 3,900 states with
# one BLAS thread
NUMPY_CALL_US = 0.7
ENTRY_US = 0.005
GTH_STATE_US = 16.0
FLOP_US = 1.3e-4


class ChainStructureError(AnalysisError):
    """The chain is not irreducible (deadlocks or several recurrent classes)."""


class ConvergenceError(AnalysisError):
    """A solve did not reach ``DEFAULT_TOL`` with a non-negative, finite result.

    ``residual`` is the balance residual of the refused result, NaN for a
    negative or non-finite one; ``iterations`` counts the Gauss-Seidel
    sweeps run.
    """

    def __init__(self, residual, iterations, method="iterative", note=""):
        self.residual = residual
        self.iterations = iterations
        paths = [f"{iterations} sweeps"] if iterations or method == "iterative" else []
        if method == "direct":
            paths.append("the direct solve")
        super().__init__(
            f"no convergence after {' and '.join(paths)}"
            f" (balance residual {residual:.3e}){note}"
        )


@dataclass(frozen=True)
class StationaryDistribution:
    """Steady-state probabilities, one per CTMC state.

    ``residual`` is ``max|pi Q|`` and ``balance_residual`` its unit-free
    counterpart, the one the solve was accepted on; ``method`` is the path
    that gave pi, and ``iterations`` the Gauss-Seidel sweeps run.
    """

    probabilities: np.ndarray
    residual: float
    method: str
    iterations: int = 0
    balance_residual: float = 0.0

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


def _balance(net: np.ndarray, outflow: np.ndarray) -> float:
    """max ``net_j / outflow_j`` over the states whose outflow exceeds
    ``BALANCE_FLOOR``, where pi has not underflowed and is not about to;
    infinite when no state is left."""
    counted = outflow > BALANCE_FLOOR
    return float((net[counted] / outflow[counted]).max()) if counted.any() else np.inf


def _residuals(pi: np.ndarray, q: Generator) -> tuple[float, float]:
    """``max|pi Q|`` and the balance residual ``max |(pi Q)_j| / (pi_j out_j)``.

    (pi Q)_j is the inflow into j less its outflow pi_j out_j, so the
    balance residual is unit-free: scaling every rate leaves it unchanged.
    """
    p = q.pattern
    outflow = pi * q.out
    # bincount adds each column's entries in row order
    net = np.abs(np.bincount(p.col, pi[p.row] * q.val, minlength=p.n) - outflow)
    return float(net.max()), _balance(net, outflow)


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


def _eliminate(a: np.ndarray, start: np.ndarray):
    """GTH-eliminate states ``a.shape[0] - 1`` down to 1 in place, 32 at a
    time, each block ``[lo, hi)`` over its window ``[start[lo], lo)``.
    Leaves a's strictly upper part as eliminating one state at a time would.
    """
    n = a.shape[0]
    bounds = [*range(n, 1, -32), 1]
    for hi, lo in zip(bounds, bounds[1:]):
        m = hi - lo
        win, blk = slice(start[lo], lo), slice(lo, hi)
        rows, cols = a[blk, win].copy(), a[win, blk].T.copy()
        # block state k at g[k - lo + 1]; column 0 holds each row's rates
        # into the window, all its pivot needs of them
        g = np.zeros((m + 1, m + 1))
        g[1:, 0] = rows.sum(axis=1)
        g[1:, 1:] = a[blk, blk]
        pivot = np.empty(m + 1)
        for k in range(m, 0, -1):
            pivot[k] = g[k, :k].sum()
            col = g[1:k, k]
            col /= pivot[k]
            g[1:k, :k] += col[:, None] * g[k, :k]
        a[blk, blk] = g[1:, 1:]
        # each block row into the window, and each window column into the
        # block, gains what the pivots above it pass on, top down
        for k in range(m, 0, -1):
            rows[k - 1] += np.dot(g[k, k + 1 :], rows[k:])
            cols[k - 1] += np.dot(g[k + 1 :, k], cols[k:])
            cols[k - 1] /= pivot[k]
        a[win, blk] = cols.T
        a[win, win] += cols.T @ rows


def _solve_direct(q: Generator) -> tuple[np.ndarray, int]:
    # GTH state elimination.  Every operation adds, multiplies or divides
    # non-negative rates -- no cancellation -- so the probabilities keep
    # componentwise relative accuracy in any elimination order (O'Cinneide
    # 1993).  In reverse Cuthill-McKee order, eliminating state k touches
    # only its envelope window [start[k], k) (``_windows``): no fill
    # outside it.
    #
    # States [lo, hi) go as one block B over the window W = [start[lo], lo)
    # below it (``_eliminate``).  B's states are eliminated one at a time in
    # g, whose column 0 starts as each B row's sum over W and is updated
    # like any column, so it stays that sum and each pivot is the rest of
    # B's row plus it.  Then, for k from the top of B down, B's row k into
    # W gains a[k, j] / s_j times the final row j into W, for each j above
    # k in B, and W's column into k gains W's final scaled column into j
    # times a[j, k], before it is divided by s_k; W gains W's scaled
    # columns into B times B's rows into W.  These are the sums one state
    # at a time forms, in another order, and nothing is subtracted.
    #
    # Back-substitution reads only the scaled columns, which end as one
    # state at a time leaves them: x_k = x[start[k]:k] @ a[start[k]:k, k].
    p = q.pattern
    n = p.n
    i, j = p.band
    a = np.zeros((n, n))
    a[i, j] = q.val
    _eliminate(a, p.windows)
    x = np.empty(n)
    x[0] = 1.0
    for k, s in enumerate(p.windows.tolist()[1:], 1):
        x[k] = v = np.dot(x[s:k], a[s:k, k])
        if v > 1.0:  # ratios may pass float64's range: rescale exactly
            x[: k + 1] = np.ldexp(x[: k + 1], -math.frexp(v)[1])
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


def _solve_gauss_seidel(q: Generator, budget=None) -> tuple[np.ndarray, int, bool]:
    """Gauss-Seidel sweeps from the uniform vector; returns the last iterate,
    the sweeps run and whether they stopped on their rule.

    ``budget`` yields how many sweeps may run in all, each value asked for
    only once the sweeps before it have run; by default DEFAULT_MAX_ITER.
    """
    # Each sweep solves (D + L) x' = -U x with Q^T = D + L + U, in the
    # chain's own state order: x'_i is the inflow into i, from the new x'
    # of lower-numbered states and the old x of higher-numbered ones, over
    # the out-rate of i.  Every term is non-negative.  The forward
    # substitution runs level by level (``_level_plan``) on y, which holds x
    # in level order so that each level is a slice.
    #
    # By the sweep's own equations the lower terms of x' Q cancel:
    # (x' Q)_i = sum over upper entries q_ji (x'_j - x_j).  So with u(y) the
    # upper inflow and y' = x' / total, (y' Q)_i is u(y')_i - u(y)_i / total,
    # and u(y') is what the next sweep starts from.
    #
    # The stop: the balance residual b (``_balance``) falls by a rate r per
    # sweep, and the relative error left in pi is about b / (1 - r), so the
    # sweeps stop once that is at most DEFAULT_TOL, with r measured over the
    # last two sweeps.  On a chain that mixes slowly, r is near 1, and a
    # balance residual of DEFAULT_TOL alone would leave an error many times
    # larger.
    order, levels, (upper, usrc, udst) = q.pattern.gs_plan
    n, out, uval = order.size, q.out[order], q.val[upper]
    levels = [(lo, hi, q.val[lower], src, local) for lo, hi, lower, src, local in levels]
    y = np.full(n, 1.0 / n)
    inflow = np.bincount(udst, uval * y[usrc], minlength=n)
    sweep, stopped, older, old = 0, False, np.inf, np.inf
    for limit in (DEFAULT_MAX_ITER,) if budget is None else budget:
        while sweep < limit and not stopped:
            sweep += 1
            for lo, hi, val, src, local in levels:
                into = inflow[lo:hi]
                if src.size:  # the first level needs no new values
                    into = into + np.bincount(local, val * y[src], minlength=hi - lo)
                np.divide(into, out[lo:hi], out=y[lo:hi])
            total = y.sum()
            if total == 0.0:
                return np.zeros(n), sweep, False  # every entry underflowed
            y /= total
            previous, inflow = inflow, np.bincount(udst, uval * y[usrc], minlength=n)
            balance = _balance(np.abs(inflow - previous / total), y * out)
            stopped = balance <= DEFAULT_TOL * (1.0 - math.sqrt(balance / older))
            older, old = old, balance
        if stopped:
            break
    pi = np.empty(n)
    pi[order] = y
    return pi, sweep, stopped


def _budget(p: _Pattern):
    """``auto``'s budget for Gauss-Seidel: about as many sweeps as the direct
    solve would cost, estimated in microseconds from the structure alone.

    A sweep makes five numpy calls per level and ten more, and works on
    each of Q's entries.  The direct solve takes a step of its per-state
    loop for each state, and two flops per window entry of each pivot's
    update.  Yields the sweeps that the per-state steps alone would cost, a
    lower bound, and then those that all of it would: the envelope windows
    that price the flops, which the direct solve needs anyway, are derived
    only for a chain that Gauss-Seidel has not solved within the first.
    """
    sweep = NUMPY_CALL_US * (5 * len(p.gs_plan[1]) + 10) + ENTRY_US * p.row.size
    steps = GTH_STATE_US * p.n
    yield int(steps / sweep)
    width = np.arange(p.n) - p.windows
    yield int((steps + FLOP_US * 2.0 * float(width @ width)) / sweep)


def _solve_auto(q: Generator) -> tuple[np.ndarray, int, str]:
    """Gauss-Seidel within ``_budget``, then the direct solve; returns pi,
    the sweeps run and the path that gave pi.

    The direct solve runs only if its dense n x n array fits
    ``DIRECT_MAX_BYTES``; otherwise Gauss-Seidel gets DEFAULT_MAX_ITER
    sweeps, and a refusal names both paths.  The budget depends only on the
    chain's structure, so the same chain always takes the same path.
    """
    dense = 8 * q.pattern.n**2
    fits = dense <= DIRECT_MAX_BYTES
    pi, sweeps, stopped = _solve_gauss_seidel(q, _budget(q.pattern) if fits else None)
    if stopped:
        return pi, sweeps, "iterative"
    if fits:
        return _solve_direct(q)[0], sweeps, "direct"
    raise ConvergenceError(
        _residuals(pi, q)[1], sweeps, "iterative",
        f"; the direct solve needs {dense / 2**20:.0f} MiB,"
        f" over its {DIRECT_MAX_BYTES / 2**20:.0f} MiB limit",
    )


def steady_state(ctmc: Ctmc, method: str = "auto") -> StationaryDistribution:
    """Solve pi Q = 0, sum(pi) = 1 for an irreducible chain.

    ``auto``, the only selection the pipeline makes, runs Gauss-Seidel
    first and falls back to direct elimination (``_solve_auto``); tests
    force ``direct`` or ``iterative`` to compare the two.  Either path's
    result is refused unless it is non-negative and finite with balance
    residual ``max |(pi Q)_j| / (pi_j out_j) <= DEFAULT_TOL``, the one
    tolerance (``_residuals``).
    """
    if ctmc.n_states == 0:
        raise ValueError("empty chain")
    if method not in ("auto", "direct", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    q = generator(ctmc)
    _check_structure(ctmc, q)

    if ctmc.n_states == 1:
        return StationaryDistribution(np.array([1.0]), 0.0, "direct")

    if method == "direct":
        pi, iters = _solve_direct(q)[0], 0
    elif method == "iterative":
        pi, iters, stopped = _solve_gauss_seidel(q)
        if not stopped:
            raise ConvergenceError(_residuals(pi, q)[1], iters)
    else:
        pi, iters, method = _solve_auto(q)

    # both paths only add, multiply and divide non-negative numbers, so a
    # negative entry is a fault, refused before normalizing could flip it
    total = pi.sum()
    if not (np.isfinite(pi).all() and (pi >= 0).all() and 0.0 < total < np.inf):
        raise ConvergenceError(np.nan, iters, method)
    pi = pi / total
    residual, balance = _residuals(pi, q)
    if not balance <= DEFAULT_TOL:
        raise ConvergenceError(balance, iters, method)
    return StationaryDistribution(pi, residual, method, iters, balance)


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
