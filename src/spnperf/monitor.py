"""Closed-loop self-optimizer: capture load, evaluate the model, act.

Each workload snapshot overwrites the model populations; the model is then
solved and the headline response times compared against operator
thresholds.  While thresholds are violated, factor-strengthening actions
are applied in policy order and the model re-evaluated, up to a per-snapshot
action budget.  Every action maps params to params, the QoS level included,
and adjusted factors persist across snapshots.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .net import AnalysisError, is_count, is_real
from .pubsub import (
    NETWORK_BUFFERS,
    RESPONSE_TIMES,
    PubSubParams,
    build_pubsub_net,
    headline_metrics,
    set_factor,
)
from .reachability import DEFAULT_MAX_STATES, explore, rerate
from .solver import MetricsReport, chain_metrics, steady_state

GROW_NETWORK_BUFFERS = "grow_network_buffers"
GROW_BROKER_MEMORY = "grow_broker_memory"
LOWER_QOS_LEVEL = "lower_qos_level"
ACTIONS = (GROW_NETWORK_BUFFERS, GROW_BROKER_MEMORY, LOWER_QOS_LEVEL)

COMPLIANT = "compliant"
EXHAUSTED_ACTIONS = "exhausted_actions"
EVALUATION_FAILED = "evaluation_failed"

#: why the loop stopped acting on a snapshot: ``COMPLIANT`` and
#: ``EVALUATION_FAILED`` as for the outcome, or the violation outlasted every
#: applicable action, or ``max_actions_per_snapshot`` ran out first
NO_ACTION_LEFT = "no_action_left"
ACTION_BUDGET_SPENT = "action_budget_spent"

#: growth action -> the factors it multiplies by ``step``, each against its own cap
_GROWS = {GROW_NETWORK_BUFFERS: NETWORK_BUFFERS, GROW_BROKER_MEMORY: ("broker_memory",)}
_DEFAULT_CAPS = {factor: 64 for factors in _GROWS.values() for factor in factors}


@dataclass(frozen=True)
class WorkloadSnapshot:
    """Captured load parameters at one monitoring instant."""

    timestamp: float
    n_publishers: int
    n_subscribers: int
    n_events: int

    def __post_init__(self):
        if not (is_real(self.timestamp) and math.isfinite(self.timestamp)):
            raise ValueError(f"timestamp must be a finite number, got {self.timestamp!r}")
        object.__setattr__(self, "timestamp", float(self.timestamp))
        for name in ("n_publishers", "n_subscribers", "n_events"):
            value = getattr(self, name)
            if not (is_count(value) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class MonitorPolicy:
    """Thresholds, action ordering and resource caps for the optimizer."""

    max_accept_publication_response_time: float
    max_notification_response_time: float
    action_order: tuple = ACTIONS
    step: int = 2
    qos_reduction_allowed: bool = False
    caps: dict = field(default_factory=lambda: dict(_DEFAULT_CAPS))
    max_actions_per_snapshot: int = 10

    def __post_init__(self):
        order = self.action_order
        if not (isinstance(order, (list, tuple)) and all(isinstance(a, str) for a in order)):
            raise ValueError(f"action_order must be a list of strings, got {order!r}")
        if not order:
            raise ValueError("action_order must not be empty")
        unknown = set(order) - set(ACTIONS)
        if unknown:
            raise ValueError(f"unknown actions: {sorted(unknown)}")
        if len(set(order)) != len(order):
            raise ValueError(f"action_order repeats an action: {list(order)}")
        object.__setattr__(self, "action_order", tuple(order))
        # counts are whole numbers, and bool is an int subclass that no count
        # should be: a cap of 2.5 would reach set_factor as a buffer size; a
        # step of 1 would spend every growth action on an unchanged model
        for name, least in (("step", 2), ("max_actions_per_snapshot", 0)):
            value = getattr(self, name)
            if not (is_count(value) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        for name, _places in RESPONSE_TIMES:
            value = getattr(self, f"max_{name}")
            if not (is_real(value) and value >= 0):  # also refuses NaN
                raise ValueError(f"max_{name} must be a number >= 0, got {value!r}")
        if not isinstance(self.qos_reduction_allowed, bool):
            raise ValueError(
                f"qos_reduction_allowed must be a boolean, got {self.qos_reduction_allowed!r}"
            )
        if not isinstance(self.caps, dict):
            raise ValueError(f"caps must be an object of integers, got {self.caps!r}")
        unknown = set(self.caps) - set(_DEFAULT_CAPS)
        if unknown:
            raise ValueError(f"unknown caps: {sorted(unknown)}")
        if not all(is_count(cap) and cap >= 1 for cap in self.caps.values()):
            raise ValueError(f"caps must be integers >= 1, got {self.caps!r}")
        object.__setattr__(self, "caps", {**_DEFAULT_CAPS, **self.caps})


@dataclass(frozen=True)
class DecisionRecord:
    """Audit entry for one snapshot: metrics before/after, actions taken
    and why the loop stopped, which decides the outcome."""

    timestamp: float
    before: MetricsReport | None
    after: MetricsReport | None
    actions: tuple
    stop_reason: str

    @property
    def outcome(self) -> str:
        """``compliant`` or ``evaluation_failed`` as the stop reason says,
        else ``exhausted_actions``: the violation outlasted the actions."""
        if self.stop_reason in (COMPLIANT, EVALUATION_FAILED):
            return self.stop_reason
        return EXHAUSTED_ACTIONS


def solve_model(model, max_states: int = DEFAULT_MAX_STATES, held=None):
    """Explore and solve a model; return ``(ctmc, dist, report)``.

    ``model`` is a ``PubSubParams``, reported by ``headline_metrics``, or an
    ``SpnNet``, reported by ``chain_metrics``.  This is the only path from
    a model to its metrics, and the one owner of chain reuse: ``held`` is a
    list that a loop of solves passes to each call, empty or holding the
    chain of the call before.  When the model's net differs from that
    chain's only in transition rates, the chain is re-rated instead of
    explored again (``reachability.rerate``); otherwise it is dropped before
    exploring, so one chain at a time is alive.  Without ``held`` every call
    explores, and no chain outlives it.
    """
    is_params = isinstance(model, PubSubParams)
    net = build_pubsub_net(model) if is_params else model
    ctmc = rerate(held.pop(), net, max_states) if held else None
    if ctmc is None:
        ctmc = explore(net, max_states=max_states)
    if held is not None:
        held.append(ctmc)
    dist = steady_state(ctmc)
    report = headline_metrics(ctmc, dist) if is_params else chain_metrics(ctmc, dist)
    return ctmc, dist, report


def evaluate(
    params: PubSubParams, max_states: int = DEFAULT_MAX_STATES, held=None
) -> MetricsReport:
    """Build the net, solve its CTMC and return the headline metrics."""
    return solve_model(params, max_states, held)[2]


def detect_degradation(report: MetricsReport, policy: MonitorPolicy) -> list[str]:
    """Headline response times strictly exceeding their thresholds, in
    ``RESPONSE_TIMES`` order; each time's threshold is the policy's
    ``max_<name>``.

    Undefined (``None``) metrics always count as violations.
    """
    violations = []
    for name, _places in RESPONSE_TIMES:
        value, limit = report.response_times[name], getattr(policy, f"max_{name}")
        if value is None:
            violations.append(f"{name}: undefined")
        elif value > limit:
            violations.append(f"{name}: {value:.6g} > {limit:.6g}")
    return violations


def next_action(params: PubSubParams, policy: MonitorPolicy) -> str | None:
    """First applicable action in policy order, or ``None`` when exhausted.

    A growth action applies while any of its factors is below its cap, and
    lowering the QoS level while the policy allows it and the level is above 0.
    """
    for action in policy.action_order:
        if action == LOWER_QOS_LEVEL:
            if policy.qos_reduction_allowed and params.qos_level > 0:
                return action
        elif any(getattr(params, f) < policy.caps[f] for f in _GROWS[action]):
            return action
    return None


def apply_action(params: PubSubParams, policy: MonitorPolicy, action: str) -> PubSubParams:
    """Apply one action: integer factors below their cap multiply by ``step``
    (clamped to the cap), and a factor at or above it stays; lowering the QoS
    level takes ``qos_level`` one down."""
    if action == LOWER_QOS_LEVEL:
        if params.qos_level <= 0:
            raise ValueError("QoS level is already at its minimum")
        return dataclasses.replace(params, qos_level=params.qos_level - 1)
    if action not in _GROWS:
        raise ValueError(f"unknown action {action!r}")
    for factor in _GROWS[action]:
        value, cap = getattr(params, factor), policy.caps[factor]
        if value < cap:
            params = set_factor(params, factor, min(value * policy.step, cap))
    return params


def run_loop(
    trace,
    params: PubSubParams,
    policy: MonitorPolicy,
    max_states: int = DEFAULT_MAX_STATES,
) -> list[DecisionRecord]:
    """Run the monitoring loop over a workload trace.

    Returns one DecisionRecord per snapshot.  Each snapshot takes one pass:
    while a threshold is violated, apply the next applicable action and
    re-evaluate.  The stop reason is set where the pass stops: ``compliant``,
    ``no_action_left``, ``action_budget_spent`` (``max_actions_per_snapshot``
    ran out while an action still applied) or ``evaluation_failed`` (an
    ``AnalysisError``; the carried-forward params stay unchanged).  Factor
    adjustments persist across snapshots.
    """
    records, held = [], []
    for snap in trace:
        candidate = dataclasses.replace(
            params,
            n_publishers=snap.n_publishers,
            n_subscribers=snap.n_subscribers,
            n_events=snap.n_events,
        )
        before = None
        actions = []
        try:
            before = report = evaluate(candidate, max_states, held)
            while detect_degradation(report, policy):
                action = next_action(candidate, policy)
                if action is None:
                    reason = NO_ACTION_LEFT
                    break
                if len(actions) >= policy.max_actions_per_snapshot:
                    reason = ACTION_BUDGET_SPENT
                    break
                candidate = apply_action(candidate, policy, action)
                actions.append(action)
                report = evaluate(candidate, max_states, held)
            else:  # no threshold is violated
                reason = COMPLIANT
        except AnalysisError:
            reason, report = EVALUATION_FAILED, None
        records.append(DecisionRecord(snap.timestamp, before, report, tuple(actions), reason))
        if reason != EVALUATION_FAILED:
            params = candidate
    return records
