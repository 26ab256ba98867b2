"""Stochastic Petri net structure and firing semantics.

A net is a set of places holding integer tokens and a set of timed
transitions with exponentially distributed firing delays.  Arc weights are
kept as dense (place x transition) integer matrices: ``pre`` (tokens
consumed), ``post`` (tokens produced) and ``inh`` (inhibition thresholds,
0 meaning "no inhibitor arc").

The firing kernel (``enabling_degree``) walks the arcs, not the dense
matrices: it gathers the marking at each input and inhibitor arc's place,
scatters the failed arc tests onto the enabled mask and takes an
infinite-server transition's degree as the least ``tokens // weight`` over
its input arcs.  The degree is 0 for a disabled transition and 1 for an
enabled single-server one or one without inputs, so a rate is always
``base rate * degree``: the degree holds the structure, the base rate the
timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SINGLE_SERVER = "single_server"
INFINITE_SERVER = "infinite_server"
SERVER_SEMANTICS = (SINGLE_SERVER, INFINITE_SERVER)


class SpnError(Exception):
    """Base class for net-level errors."""


class DimensionError(SpnError):
    """Marking or matrix size does not match the net."""


class InvalidNetError(SpnError):
    """``SpnNet`` refuses to build a net: ``violations`` lists what is wrong."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid net: " + "; ".join(self.violations))


class AnalysisError(SpnError):
    """A valid model whose analysis failed: the CLI's exit 3."""


class TokenOverflowError(AnalysisError):
    """A firing took a place past 2**63 - 1 tokens, where its int64 count wraps."""


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


def int_array(values, what: str) -> np.ndarray:
    """``values`` as an int64 array.  A numpy integer array converts as is;
    anything else must hold counts only, since numpy would truncate 1.5 and
    turn True into 1: otherwise ``ValueError`` names the first other value."""
    exact = isinstance(values, np.ndarray) and np.issubdtype(values.dtype, np.integer)
    a = np.asarray(values, dtype=None if exact else object)
    bad = [] if exact else [v for v in a.flat if not is_count(v)]
    if bad:
        raise ValueError(f"{what} must be integers, got {bad[0]!r}")
    return a.astype(np.int64)


def _frozen_int_matrix(m, shape, label) -> np.ndarray:
    a = int_array(m, f"{label} arc weights")
    if a.shape != shape:
        raise DimensionError(f"matrix shape {a.shape} != expected {shape}")
    if (a < 0).any():
        raise ValueError(f"negative entries in {label} matrix")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SpnNet:
    """Immutable stochastic Petri net.

    ``pre``, ``post`` and ``inh`` are (n_places, n_transitions) integer
    matrices.  ``inh`` defaults to all zeros (no inhibitor arcs).  A net
    with an invalid name, token count, rate, priority or semantics raises
    ``InvalidNetError`` when built, so every ``SpnNet`` is valid.
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
        violations = _violations(self)
        if violations:
            raise InvalidNetError(violations)

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

    def initial_marking(self) -> tuple:
        return tuple(p.tokens for p in self.places)

    @cached_property
    def structure(self) -> tuple:
        """Everything but the rates that decides the reachability graph, as
        a hashable key: the initial marking, each transition's priority and
        semantics, and the shape and bytes of ``pre``, ``post`` and ``inh``,
        but no names.  ``reachability.rerate`` reuses a chain on it."""
        return (
            self.initial_marking(),
            tuple((t.priority, t.semantics) for t in self.transitions),
            self.pre.shape, self.pre.tobytes(), self.post.tobytes(), self.inh.tobytes(),
        )

    @cached_property
    def delta(self) -> np.ndarray:
        """Token change of each firing, ``post - pre``, as (n_transitions, n_places)."""
        d = (self.post - self.pre).T.copy()
        d.setflags(write=False)
        return d

    @cached_property
    def base_rates(self) -> np.ndarray:
        """Base rate of each transition, as a read-only float array."""
        rates = np.array([t.rate for t in self.transitions], dtype=np.float64)
        rates.setflags(write=False)
        return rates

    @cached_property
    def _kernel_columns(self):
        # the arcs as columns: input arcs (place, transition, weight) in
        # transition order, inhibitor arcs (place, transition, threshold),
        # the priorities (None when all are equal: then they mask nothing),
        # and the infinite-server transitions with inputs, with the input
        # arcs of each and the offset of each one's first arc among them
        in_trans, in_place = np.nonzero(self.pre.T)
        inh_trans, inh_place = np.nonzero(self.inh.T)
        prio = np.array([t.priority for t in self.transitions], dtype=np.int64)
        infinite_arc = np.array(
            [self.transitions[t].semantics == INFINITE_SERVER for t in in_trans.tolist()],
            dtype=bool,
        )
        is_trans, is_place = in_trans[infinite_arc], in_place[infinite_arc]
        first = np.flatnonzero(np.diff(is_trans, prepend=-1))
        return _KernelColumns(
            in_place=in_place,
            in_trans=in_trans,
            in_weight=self.pre[in_place, in_trans],
            inh_place=inh_place,
            inh_trans=inh_trans,
            inh_threshold=self.inh[inh_place, inh_trans],
            # neighbours compared, not np.unique: on numpy 2, np.unique without
            # return_* flags imports numpy.ma, about 27 ms of a cold call
            prio=prio if (prio[1:] != prio[:-1]).any() else None,
            infinite=is_trans[first],
            infinite_place=is_place,
            infinite_weight=self.pre[is_place, is_trans],
            infinite_first=first,
        )


@dataclass(frozen=True)
class _KernelColumns:
    in_place: np.ndarray
    in_trans: np.ndarray
    in_weight: np.ndarray
    inh_place: np.ndarray
    inh_trans: np.ndarray
    inh_threshold: np.ndarray
    prio: np.ndarray | None
    infinite: np.ndarray
    infinite_place: np.ndarray
    infinite_weight: np.ndarray
    infinite_first: np.ndarray


def _violations(net: SpnNet) -> list[str]:
    # what SpnNet refuses a net for, once its matrices are checked
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


def enabling_degree(net: SpnNet, markings) -> np.ndarray:
    """The firing kernel: the enabling degree of every transition in a block of markings.

    ``markings`` is an (F, n_places) integer array.  Returns an (F,
    n_transitions) int64 array, 0 where a transition is disabled.  A
    transition is enabled when every input place holds at least its arc
    weight and every inhibitor place stays below its threshold; of those,
    only the ones of maximal priority in the row remain enabled.  An
    enabled single-server transition, or one without inputs, has degree 1;
    an enabled infinite-server transition has the least ``tokens // weight``
    over its input arcs.  A negative count raises ``TokenOverflowError``.
    """
    m = np.asarray(markings, dtype=np.int64)
    if m.ndim != 2 or m.shape[1] != net.n_places:
        raise DimensionError(
            f"marking block shape {m.shape} does not match {net.n_places} places"
        )
    # an enabled firing never takes a place below 0, so a negative count in
    # a block of markings can only be one that wrapped past 2**63 - 1
    if m.size and m.min() < 0:
        place = net.places[int(np.flatnonzero((m < 0).any(axis=0))[0])].name
        raise TokenOverflowError(
            f"place {place!r} went past 2**63 - 1 tokens, where its int64 count wraps"
        )
    arcs = net._kernel_columns
    enabled = np.ones((m.shape[0], net.n_transitions), dtype=bool)
    rows, k = np.nonzero(m[:, arcs.in_place] < arcs.in_weight)
    enabled[rows, arcs.in_trans[k]] = False
    if arcs.inh_place.size:
        rows, k = np.nonzero(m[:, arcs.inh_place] >= arcs.inh_threshold)
        enabled[rows, arcs.inh_trans[k]] = False
    if arcs.prio is not None:
        masked = np.where(enabled, arcs.prio, -1)
        enabled &= masked == masked.max(axis=1, keepdims=True)
    degree = enabled.astype(np.int64)
    if arcs.infinite.size:
        degree[:, arcs.infinite] *= np.minimum.reduceat(
            m[:, arcs.infinite_place] // arcs.infinite_weight, arcs.infinite_first, axis=1
        )
    return degree


def enabled_rates(net: SpnNet, markings) -> tuple[np.ndarray, np.ndarray]:
    """Enabled transitions and their rates for a block of markings.

    Returns the (F, n_transitions) boolean mask ``degree > 0`` and the
    effective rates ``base rate * degree`` (0.0 where disabled) of the
    ``enabling_degree`` block.
    """
    degree = enabling_degree(net, markings)
    return degree > 0, net.base_rates * degree
