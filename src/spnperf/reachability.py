"""Reachable state-space enumeration and the embedded CTMC.

Breadth-first exploration from the initial marking with first-seen state
numbering, so identical nets always yield identical state orderings.  The
search is level-synchronous: unexpanded markings form a frontier matrix that
is expanded in bounded row blocks by the vectorized firing kernel
(``net.enabled_rates``), and new markings are numbered in (parent,
transition) order, which is the order a scalar FIFO search visits them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .net import (
    Marking,
    SpnNet,
    SpnError,
    enabled_rates,
    validate_net,
)

DEFAULT_MAX_STATES = 1_000_000
#: Frontier rows expanded per kernel call; bounds the kernel's temporaries.
BLOCK_ROWS = 2048


class InvalidNetError(SpnError):
    """Exploration was asked to run on a net that fails validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid net: " + "; ".join(self.violations))


class StateExplosionError(SpnError):
    """State count exceeded the exploration bound."""

    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"state space exceeds max_states={limit}")


@dataclass(frozen=True, eq=False)
class Ctmc:
    """Reachability graph with rate-labeled edges, stored as columns.

    ``markings`` is the (n_states, n_places) state matrix; row 0 is the
    initial marking.  Edge ``k`` goes from state ``src[k]`` to ``dst[k]``
    at rate ``rate[k]`` by firing transition ``trans[k]``; parallel edges
    from distinct transitions are kept distinct.  All arrays are read-only.
    ``states``, ``edges`` and ``state_index`` are tuple/dict views built on
    first use.
    """

    net: SpnNet
    markings: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    rate: np.ndarray
    trans: np.ndarray
    deadlock_states: frozenset[int]

    def __post_init__(self):
        for name in ("markings", "src", "dst", "rate", "trans"):
            getattr(self, name).setflags(write=False)

    @property
    def n_states(self) -> int:
        return self.markings.shape[0]

    @property
    def n_edges(self) -> int:
        return self.src.shape[0]

    @cached_property
    def states(self) -> tuple[Marking, ...]:
        """Markings as tuples, in state order."""
        return tuple(map(tuple, self.markings.tolist()))

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

    @cached_property
    def _index(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}

    def state_index(self, m: Marking) -> int:
        return self._index[tuple(m)]

    def state_array(self) -> np.ndarray:
        """States as a read-only (n_states, n_places) integer array."""
        return self.markings


def explore(net: SpnNet, max_states: int = DEFAULT_MAX_STATES) -> Ctmc:
    """Enumerate all markings reachable from the initial marking.

    Raises ``InvalidNetError`` for nets failing validation and
    ``StateExplosionError`` once more than ``max_states`` distinct markings
    have been found.  Deadlock markings are recorded, not rejected.
    """
    violations = validate_net(net)
    if violations:
        raise InvalidNetError(violations)

    # the initial marking is always kept, so the bound bites from state 2 on
    limit = max(max_states, 1)
    delta = net.delta
    states = np.empty((64, net.n_places), dtype=np.int64)
    states[0] = net.initial_marking()
    index = {states[0].tobytes(): 0}
    setdefault = index.setdefault
    width = states.itemsize * net.n_places
    src, dst, rate, trans, deadlocks = [], [], [], [], []
    done = 0  # states below this id are expanded
    n = 1  # states below this id are known

    while done < n:
        hi = min(n, done + BLOCK_ROWS)
        block = states[done:hi]
        enabled, rates = enabled_rates(net, block)
        rows, ts = np.nonzero(enabled)  # row-major: parent, then transition
        deadlocks.extend((done + np.flatnonzero(~enabled.any(axis=1))).tolist())
        succ = block[rows] + delta[ts]
        buf = succ.tobytes()
        # setdefault numbers an unseen marking with the next free id
        ids = np.array(
            [setdefault(buf[k:k + width], len(index)) for k in range(0, len(buf), width)],
            dtype=np.int64,
        )
        n_new = len(index)
        if n_new > limit:
            raise StateExplosionError(max_states)
        if n_new > n:
            if n_new > states.shape[0]:
                grown = np.empty((max(2 * states.shape[0], n_new), net.n_places), dtype=np.int64)
                grown[:n] = states[:n]
                states = grown
            # the first occurrence of each new id is in id order
            fresh = np.flatnonzero(ids >= n)
            _, first = np.unique(ids[fresh], return_index=True)
            states[n:n_new] = succ[fresh[first]]
            n = n_new
        src.append(done + rows)
        dst.append(ids)
        rate.append(rates[rows, ts])
        trans.append(ts)
        done = hi

    return Ctmc(
        net=net,
        markings=states[:n].copy(),
        src=np.concatenate(src),
        dst=np.concatenate(dst),
        rate=np.concatenate(rate),
        trans=np.concatenate(trans),
        deadlock_states=frozenset(deadlocks),
    )


def check_place_invariant(ctmc: Ctmc, weights, expected: int):
    """Check a conservation law over all reachable states.

    Returns ``None`` when every state ``s`` satisfies
    ``sum_p weights[p] * s[p] == expected``, otherwise the first violating
    marking in state order.
    """
    w = np.asarray(weights, dtype=np.int64)
    if w.shape != (ctmc.net.n_places,):
        raise ValueError(
            f"weight vector length {w.shape} does not match {ctmc.net.n_places} places"
        )
    sums = ctmc.markings @ w
    bad = np.flatnonzero(sums != expected)
    if bad.size:
        return tuple(ctmc.markings[bad[0]].tolist())
    return None
