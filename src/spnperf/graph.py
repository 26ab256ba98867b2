"""Level-synchronous searches over the transition graph of a chain.

Each search takes a chain's ``solver._Pattern``, Q's off-diagonal entries as
sorted ``row`` and ``col`` arrays over ``n`` states, and moves one whole
level of states per step with numpy alone: the states that cannot return
to state 0 (an irreducibility test), the reverse Cuthill-McKee order of
the direct solve, and the level plan of Gauss-Seidel's forward
substitution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .solver import _Pattern


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
