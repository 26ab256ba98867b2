"""Stochastic Petri net structure and firing semantics.

A net is a set of places holding integer tokens and a set of timed
transitions with exponentially distributed firing delays.  Arc weights are
kept as dense (place x transition) integer matrices: ``pre`` (tokens
consumed), ``post`` (tokens produced) and ``inh`` (inhibition thresholds,
0 meaning "no inhibitor arc").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SINGLE_SERVER = "single_server"
INFINITE_SERVER = "infinite_server"
SERVER_SEMANTICS = (SINGLE_SERVER, INFINITE_SERVER)

#: A marking is a tuple of non-negative token counts, one per place.
Marking = tuple


class SpnError(Exception):
    """Base class for net-level errors."""


class DimensionError(SpnError):
    """Marking or matrix size does not match the net."""


class NotEnabledError(SpnError):
    """Attempt to fire or rate a transition that is not enabled."""


def is_count(value) -> bool:
    """A whole number: a Python ``int`` but not a ``bool`` (JSON true is no count),
    within int64, in which markings and arc weights are stored."""
    return isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63


def is_real(value) -> bool:
    """A real number: a ``float`` or a count; a longer ``int`` is refused, not rounded."""
    return isinstance(value, float) or is_count(value)


@dataclass(frozen=True)
class Place:
    name: str
    tokens: int = 0


@dataclass(frozen=True)
class Transition:
    name: str
    rate: float
    priority: int = 0
    semantics: str = SINGLE_SERVER


def _frozen_int_matrix(m, shape, label) -> np.ndarray:
    # an integer array converts as is; anything else is checked element by
    # element, since numpy would truncate 1.5 and turn [[True, 1]] into int64
    exact = isinstance(m, np.ndarray) and np.issubdtype(m.dtype, np.integer)
    a = np.asarray(m, dtype=None if exact else object)
    if a.shape != shape:
        raise DimensionError(f"matrix shape {a.shape} != expected {shape}")
    bad = [] if exact else [v for v in a.flat if not is_count(v)]
    if bad:
        raise ValueError(f"{label} arc weights must be integers, got {bad[0]!r}")
    a = a.astype(np.int64)
    if (a < 0).any():
        raise ValueError(f"negative entries in {label} matrix")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SpnNet:
    """Immutable stochastic Petri net.

    ``pre``, ``post`` and ``inh`` are (n_places, n_transitions) integer
    matrices.  ``inh`` defaults to all zeros (no inhibitor arcs).
    """

    places: tuple[Place, ...]
    transitions: tuple[Transition, ...]
    pre: np.ndarray
    post: np.ndarray
    inh: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "places", tuple(self.places))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        shape = (len(self.places), len(self.transitions))
        inh = self.inh if self.inh is not None else np.zeros(shape, dtype=np.int64)
        for label, m in (("pre", self.pre), ("post", self.post), ("inh", inh)):
            object.__setattr__(self, label, _frozen_int_matrix(m, shape, label))

    # built on first use: validate_net reports a name that is no string
    @cached_property
    def _place_index(self):
        return {p.name: i for i, p in enumerate(self.places)}

    @cached_property
    def _transition_index(self):
        return {t.name: i for i, t in enumerate(self.transitions)}

    @property
    def n_places(self) -> int:
        return len(self.places)

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)

    def place_index(self, name: str) -> int:
        try:
            return self._place_index[name]
        except KeyError:
            raise KeyError(f"unknown place {name!r}") from None

    def transition_index(self, name: str) -> int:
        try:
            return self._transition_index[name]
        except KeyError:
            raise KeyError(f"unknown transition {name!r}") from None

    def initial_marking(self) -> Marking:
        return tuple(p.tokens for p in self.places)

    @cached_property
    def delta(self) -> np.ndarray:
        """Token change of each firing, ``post - pre``, as (n_transitions, n_places)."""
        d = (self.post - self.pre).T.copy()
        d.setflags(write=False)
        return d

    @cached_property
    def _kernel_columns(self):
        # base rates, priorities and the infinite-server transitions that
        # have input arcs
        rates = np.array([t.rate for t in self.transitions], dtype=np.float64)
        prio = np.array([t.priority for t in self.transitions], dtype=np.int64)
        infinite = np.flatnonzero(
            np.array([t.semantics == INFINITE_SERVER for t in self.transitions], dtype=bool)
            & (self.pre > 0).any(axis=0)
        )
        return rates, prio, infinite


def validate_net(net: SpnNet) -> list[str]:
    """Return the list of invariant violations (empty list means the net is ok)."""
    violations = []
    if net.n_places < 1:
        violations.append("net has no places")
    if net.n_transitions < 1:
        violations.append("net has no transitions")

    for kind, nodes in (("place", net.places), ("transition", net.transitions)):
        seen = set()
        for node in nodes:
            if not isinstance(node.name, str):
                violations.append(f"{kind} name not a string: {node.name!r}")
            elif node.name in seen:
                violations.append(f"duplicate name: {kind} {node.name!r}")
            else:
                seen.add(node.name)
    for p in net.places:
        if not is_count(p.tokens):
            violations.append(f"initial tokens on place {p.name!r} not an integer: {p.tokens!r}")
        elif p.tokens < 0:
            violations.append(f"negative initial tokens on place {p.name!r}")
    for t in net.transitions:
        if not is_real(t.rate):
            violations.append(f"rate on transition {t.name!r} not a number: {t.rate!r}")
        elif not (t.rate > 0.0 and math.isfinite(t.rate)):
            violations.append(f"non-positive rate on transition {t.name!r}: {t.rate}")
        if not is_count(t.priority):
            violations.append(f"priority on transition {t.name!r} not an integer: {t.priority!r}")
        elif t.priority < 0:
            violations.append(f"negative priority on transition {t.name!r}")
        if t.semantics not in SERVER_SEMANTICS:
            violations.append(f"unknown semantics on transition {t.name!r}: {t.semantics!r}")
    return violations


def enabled_rates(net: SpnNet, markings) -> tuple[np.ndarray, np.ndarray]:
    """The firing kernel: enabled transitions and their rates for a block of markings.

    ``markings`` is an (F, n_places) integer array.  Returns an (F,
    n_transitions) boolean mask and an (F, n_transitions) float array of
    effective rates (0.0 where disabled).  A transition is enabled when every
    input place holds at least its arc weight and every inhibitor place
    stays below its threshold; of those, only the ones of maximal priority
    in the row remain enabled.  Single-server transitions fire at their base
    rate; infinite-server transitions scale it by the enabling degree (1 for
    a transition without inputs).
    """
    m = np.asarray(markings, dtype=np.int64)
    if m.ndim != 2 or m.shape[1] != net.n_places:
        raise DimensionError(
            f"marking block shape {m.shape} does not match {net.n_places} places"
        )
    base, prio, infinite = net._kernel_columns
    cube = m[:, :, None]
    enabled = (cube >= net.pre).all(axis=1)
    enabled &= ((net.inh == 0) | (cube < net.inh)).all(axis=1)
    masked = np.where(enabled, prio, -1)
    enabled &= masked == masked.max(axis=1, keepdims=True, initial=-1)
    rates = np.where(enabled, base, 0.0)
    if infinite.size:
        pre = net.pre[:, infinite]
        degree = np.where(
            pre > 0, cube // np.maximum(pre, 1), np.iinfo(np.int64).max
        ).min(axis=1)
        rates[:, infinite] = np.where(enabled[:, infinite], base[infinite] * degree, 0.0)
    return enabled, rates


def _single(net: SpnNet, m: Marking) -> tuple[np.ndarray, np.ndarray]:
    # the kernel on a one-row block; a wrong marking length fails its check
    enabled, rates = enabled_rates(net, np.asarray(m, dtype=np.int64).reshape(1, -1))
    return enabled[0], rates[0]


def enabled_transitions(net: SpnNet, m: Marking) -> tuple[int, ...]:
    """Indices of enabled transitions.

    Among the marking-enabled transitions only those of maximal priority
    remain enabled (priority masking).
    """
    return tuple(np.flatnonzero(_single(net, m)[0]).tolist())


def _not_enabled(net: SpnNet, m: Marking, t: int) -> NotEnabledError:
    return NotEnabledError(
        f"transition {net.transitions[t].name!r} is not enabled in {m}"
    )


def fire(net: SpnNet, m: Marking, t: int) -> Marking:
    """Fire transition ``t`` in marking ``m`` and return the successor marking."""
    if not _single(net, m)[0][t]:
        raise _not_enabled(net, m, t)
    return tuple((np.asarray(m, dtype=np.int64) + net.delta[t]).tolist())


def rate_at(net: SpnNet, m: Marking, t: int) -> float:
    """Effective firing rate of ``t`` in ``m``.

    Single-server transitions fire at their base rate; infinite-server
    transitions scale the base rate by the enabling degree.
    """
    enabled, rates = _single(net, m)
    if not enabled[t]:
        raise _not_enabled(net, m, t)
    return float(rates[t])
