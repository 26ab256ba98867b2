"""Reachable state-space enumeration and the embedded CTMC.

Breadth-first exploration from the initial marking with first-seen state
numbering, so identical nets always yield identical state orderings.  The
search is level-synchronous: unexpanded markings form a frontier matrix that
is expanded in bounded row blocks by the vectorized firing kernel
(``net.enabling_degree``), and new markings are numbered in (parent,
transition) order, which is the order a scalar FIFO search visits them.

A marking is known by its mixed-radix code ``sum_p m[p] * w[p]``, where
``w[p]`` is the product of ``top[q] + 1`` over the places ``q < p``.  The
code is linear, so a firing of ``t`` moves it by the constant ``delta[t] @
w``: a block's successor codes are one gather and one add, looked up in a
dict of first-seen ids, and only new markings are built as rows.  The digit
tops grow on demand: once a new marking could send a successor past a
place's top, that top doubles and every known code is computed again.
Codes are int64 while they fit, and Python ints beyond, so none wraps.

Each edge keeps the enabling degree of its transition in its source
marking, and its rate is the transition's base rate times that degree.
Rates never decide which markings are reachable, so a net whose
``SpnNet.structure`` equals an explored one's has the same states and
edges: ``rerate`` builds its chain from the explored one with the new net,
without a search, and the chain derives its rates from that net.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .net import AnalysisError, SpnNet, enabling_degree, int_array, is_count

DEFAULT_MAX_STATES = 1_000_000
#: Frontier rows expanded per kernel call; bounds the kernel's temporaries.
BLOCK_ROWS = 2048


class StateExplosionError(AnalysisError):
    """State count exceeded the exploration bound."""

    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"state space exceeds max_states={limit}")


def _check_max_states(max_states) -> None:
    if not is_count(max_states):
        raise ValueError(f"max_states must be an integer within int64, got {max_states!r}")


@dataclass(frozen=True, eq=False)
class Ctmc:
    """Reachability graph with rate-labeled edges, stored as columns.

    ``markings`` is the (n_states, n_places) state matrix; row 0 is the
    initial marking.  Edge ``k`` goes from state ``src[k]`` to ``dst[k]``
    at rate ``rate[k]`` by firing transition ``trans[k]``, whose enabling
    degree in the source marking is ``degree[k]``.  Parallel edges from
    distinct transitions are kept distinct.  All arrays are read-only, so
    chains of one structure may share them.
    ``structure_memo`` holds what is derived from the states and edges
    alone, never from the rates (the solver keeps its irreducibility
    verdict, orderings and sweep plan there); ``rerate`` passes it on with
    the arrays, so chains of one structure derive each of these once.
    ``rate`` is derived on first use as ``net.base_rates[trans] * degree``,
    the one expression for edge rates.
    """

    net: SpnNet
    markings: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    trans: np.ndarray
    degree: np.ndarray
    deadlock_states: frozenset[int]
    structure_memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for name in ("markings", "src", "dst", "trans", "degree"):
            getattr(self, name).setflags(write=False)

    @cached_property
    def rate(self) -> np.ndarray:
        rate = self.net.base_rates[self.trans] * self.degree
        rate.setflags(write=False)
        return rate

    @property
    def n_states(self) -> int:
        return self.markings.shape[0]

    @property
    def n_edges(self) -> int:
        return self.src.shape[0]

    # Not read by spnperf: perfbench/tracing.py counts a chain's edges as
    # len(ctmc.edges), so this tuple view stays until the bench reads n_edges.
    @cached_property
    def edges(self) -> tuple[tuple[int, int, float, int], ...]:
        """``(source, target, rate, transition_index)`` tuples in edge order."""
        return tuple(
            zip(
                self.src.tolist(),
                self.dst.tolist(),
                self.rate.tolist(),
                self.trans.tolist(),
            )
        )


def _weights(top) -> np.ndarray:
    """Place weights of the mixed-radix code whose digit ``p`` runs from 0 to
    ``top[p]``: ``w[p]`` is the product of ``top[q] + 1`` over ``q < p``.

    The array is int64 while every code fits in it, and holds Python ints
    otherwise, so a code never wraps.
    """
    w, span = [], 1
    for t in top:
        w.append(span)
        span *= t + 1
    return np.array(w, dtype=np.int64 if span <= 2**63 else object)


def _widened(top, rise, high) -> list:
    # each digit too short for a place that holds ``high`` tokens and may
    # gain ``rise`` more in one firing doubles its range, or takes what it needs
    return [t if h + r <= t else max(2 * t + 1, h + r) for t, r, h in zip(top, rise, high)]


def _coding(top, rise, delta):
    # the code weights, each transition's code step, and the most tokens a
    # place may hold for a state's successors to stay within the digit tops
    w = _weights(top)
    room = np.array([min(t - r, 2**63 - 1) for t, r in zip(top, rise)], dtype=np.int64)
    return w, delta @ w, room


def _numbering(codes) -> defaultdict:
    # code -> state id, where a missing code is numbered with the next free id
    next_id = itertools.count(len(codes)).__next__
    return defaultdict(next_id, zip(codes.tolist(), range(len(codes))))


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    out = np.empty((size,) + a.shape[1:], dtype=a.dtype)
    out[:len(a)] = a
    return out


def explore(net: SpnNet, max_states: int = DEFAULT_MAX_STATES) -> Ctmc:
    """Enumerate all markings reachable from the initial marking.

    Raises ``StateExplosionError`` once more than ``max_states`` distinct
    markings have been found.  Deadlock markings are recorded, not rejected.
    """
    _check_max_states(max_states)

    # the initial marking is always kept, so the bound bites from state 2 on
    limit = max(max_states, 1)
    delta = net.delta
    # the most one firing adds to each place
    rise = np.maximum(delta.max(axis=0), 0).tolist()
    top = _widened([0] * net.n_places, rise, net.initial_marking())
    w, dcode, room = _coding(top, rise, delta)
    states = np.array([net.initial_marking()], dtype=np.int64)
    index = _numbering(states @ w)
    src, dst, trans, degrees = [], [], [], []
    done = 0  # states below this id are expanded
    n = 1  # states below this id are known

    while done < n:
        hi = min(n, done + BLOCK_ROWS)
        block = states[done:hi]
        degree = enabling_degree(net, block)
        rows, ts = np.nonzero(degree)  # row-major: parent, then transition
        # a firing moves the code by its transition's step
        succ = (block @ w)[rows] + dcode[ts]
        ids = np.fromiter(map(index.__getitem__, succ.tolist()), dtype=np.int64, count=len(ts))
        n_new = len(index)
        if n_new > limit:
            raise StateExplosionError(max_states)
        if n_new > n:
            if n_new > len(states):
                states = _grown(states, max(2 * len(states), n_new))
            # ids are handed out in order, so each new id's first edge is
            # where the running maximum of the ids reaches it
            first = np.maximum.accumulate(ids).searchsorted(np.arange(n, n_new))
            new = block[rows[first]] + delta[ts[first]]
            states[n:n_new] = new
            n = n_new
            high = new.max(axis=0)
            if (high > room).any():
                # a new state's successor could pass its digit: widen the
                # digits that need it and code every known state anew
                top = _widened(top, rise, high.tolist())
                w, dcode, room = _coding(top, rise, delta)
                index = _numbering(states[:n] @ w)
        src.append(done + rows)
        dst.append(ids)
        trans.append(ts)
        degrees.append(degree[rows, ts])
        done = hi

    src = np.concatenate(src)
    return Ctmc(
        net=net,
        markings=states[:n].copy(),
        src=src,
        dst=np.concatenate(dst),
        trans=np.concatenate(trans),
        degree=np.concatenate(degrees),
        deadlock_states=frozenset(np.flatnonzero(np.bincount(src, minlength=n) == 0).tolist()),
    )


def rerate(ctmc: Ctmc, net: SpnNet, max_states: int = DEFAULT_MAX_STATES) -> Ctmc | None:
    """The chain of ``net`` from the explored chain ``ctmc`` of a net of the same structure.

    Returns ``None`` unless ``net.structure`` equals ``ctmc.net.structure``,
    the key of everything but the rates that decides the states and edges.
    Otherwise the result shares every array of ``ctmc``, and its
    ``structure_memo``, and derives its own ``rate``, so it equals
    ``explore(net, max_states)`` exactly.
    Like ``explore``, raises ``StateExplosionError`` for a chain of more
    than ``max_states`` states.
    """
    _check_max_states(max_states)
    if ctmc.net.structure != net.structure:
        return None
    if ctmc.n_states > max(max_states, 1):
        raise StateExplosionError(max_states)
    return dataclasses.replace(ctmc, net=net)


def check_place_invariant(ctmc: Ctmc, weights, expected: int):
    """Check a conservation law over all reachable states.

    Returns ``None`` when every state ``s`` satisfies
    ``sum_p weights[p] * s[p] == expected``, otherwise the first violating
    marking in state order.  The weights are a numpy integer array, as
    ``p_invariants`` gives them, or counts, and ``expected`` is a count;
    anything else raises ``ValueError``, since int64 would truncate 1.9.
    """
    w = int_array(weights, "place invariant weights")
    if not is_count(expected):
        raise ValueError(f"expected must be an integer, got {expected!r}")
    if w.shape != (ctmc.net.n_places,):
        raise ValueError(
            f"weight vector length {w.shape} does not match {ctmc.net.n_places} places"
        )
    sums = ctmc.markings @ w
    bad = np.flatnonzero(sums != expected)
    if bad.size:
        return tuple(ctmc.markings[bad[0]].tolist())
    return None
