"""Closed-loop self-optimizer: capture load, evaluate the model, act.

Each workload snapshot overwrites the model populations; the model is then
solved and the headline response times compared against operator
thresholds.  While thresholds are violated, factor-strengthening actions
are applied in policy order and the model re-evaluated, up to a per-snapshot
action budget.  Adjusted factors persist across snapshots.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .net import SpnError
from .pubsub import (
    PubSubParams,
    build_pubsub_net,
    headline_metrics,
    qos_rate,
    set_factor,
)
from .reachability import DEFAULT_MAX_STATES, explore
from .solver import DEFAULT_TOL, MetricsReport, chain_metrics, steady_state

GROW_NETWORK_BUFFERS = "grow_network_buffers"
GROW_BROKER_MEMORY = "grow_broker_memory"
LOWER_QOS_LEVEL = "lower_qos_level"
ACTIONS = (GROW_NETWORK_BUFFERS, GROW_BROKER_MEMORY, LOWER_QOS_LEVEL)

COMPLIANT = "compliant"
EXHAUSTED_ACTIONS = "exhausted_actions"
EVALUATION_FAILED = "evaluation_failed"

_DEFAULT_CAPS = {"net_recv_buffer": 64, "net_send_buffer": 64, "broker_memory": 64}


@dataclass(frozen=True)
class WorkloadSnapshot:
    """Captured load parameters at one monitoring instant."""

    timestamp: float
    n_publishers: int
    n_subscribers: int
    n_events: int

    def __post_init__(self):
        for name in ("n_publishers", "n_subscribers", "n_events"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


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
    initial_qos_level: int = 1

    def __post_init__(self):
        if not self.action_order:
            raise ValueError("action_order must not be empty")
        unknown = set(self.action_order) - set(ACTIONS)
        if unknown:
            raise ValueError(f"unknown actions: {sorted(unknown)}")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        object.__setattr__(self, "caps", {**_DEFAULT_CAPS, **self.caps})


@dataclass(frozen=True)
class DecisionRecord:
    """Audit entry for one snapshot: metrics before/after and actions taken."""

    timestamp: float
    before: MetricsReport | None
    after: MetricsReport | None
    actions: tuple
    outcome: str


def solve_model(
    model,
    max_states: int = DEFAULT_MAX_STATES,
    tol: float = DEFAULT_TOL,
    method: str = "auto",
):
    """Explore and solve a model; return ``(ctmc, dist, report)``.

    ``model`` is a ``PubSubParams``, reported by ``headline_metrics``, or an
    ``SpnNet``, reported by ``chain_metrics``.  This is the only path from
    a model to its metrics.
    """
    is_params = isinstance(model, PubSubParams)
    ctmc = explore(build_pubsub_net(model) if is_params else model, max_states=max_states)
    dist = steady_state(ctmc, method=method, tol=tol)
    report = headline_metrics(ctmc, dist) if is_params else chain_metrics(ctmc, dist)
    return ctmc, dist, report


def evaluate(
    params: PubSubParams,
    max_states: int = DEFAULT_MAX_STATES,
    tol: float = DEFAULT_TOL,
    method: str = "auto",
) -> MetricsReport:
    """Build the net, solve its CTMC and return the headline metrics."""
    return solve_model(params, max_states, tol, method)[2]


def detect_degradation(report: MetricsReport, policy: MonitorPolicy) -> list[str]:
    """Names of headline metrics strictly exceeding their thresholds.

    Undefined (``None``) metrics always count as violations.
    """
    thresholds = {
        "accept_publication_response_time": policy.max_accept_publication_response_time,
        "notification_response_time": policy.max_notification_response_time,
    }
    violations = []
    for name, limit in thresholds.items():
        value = report.response_times[name]
        if value is None:
            violations.append(f"{name}: undefined")
        elif value > limit:
            violations.append(f"{name}: {value:.6g} > {limit:.6g}")
    return violations


def _buffers_below_cap(params: PubSubParams, policy: MonitorPolicy) -> bool:
    return (
        params.net_recv_buffer < policy.caps["net_recv_buffer"]
        or params.net_send_buffer < policy.caps["net_send_buffer"]
    )


def next_action(
    params: PubSubParams,
    policy: MonitorPolicy,
    qos_level: int | None = None,
) -> str | None:
    """First applicable action in policy order, or ``None`` when exhausted."""
    if qos_level is None:
        qos_level = policy.initial_qos_level
    for action in policy.action_order:
        if action == GROW_NETWORK_BUFFERS and _buffers_below_cap(params, policy):
            return action
        if action == GROW_BROKER_MEMORY and params.broker_memory < policy.caps["broker_memory"]:
            return action
        if action == LOWER_QOS_LEVEL and policy.qos_reduction_allowed and qos_level > 0:
            return action
    return None


def apply_action(
    params: PubSubParams, policy: MonitorPolicy, action: str, qos_level: int
) -> tuple[PubSubParams, int]:
    """Apply one action: integer factors multiply by ``step`` (clamped to the
    cap); lowering the QoS level raises the QoS processing rate one step."""
    if action == GROW_NETWORK_BUFFERS:
        for factor in ("net_recv_buffer", "net_send_buffer"):
            grown = min(getattr(params, factor) * policy.step, policy.caps[factor])
            params = set_factor(params, factor, grown)
        return params, qos_level
    if action == GROW_BROKER_MEMORY:
        grown = min(params.broker_memory * policy.step, policy.caps["broker_memory"])
        return set_factor(params, "broker_memory", grown), qos_level
    if action == LOWER_QOS_LEVEL:
        if qos_level <= 0:
            raise ValueError("QoS level is already at its minimum")
        new_level = qos_level - 1
        new_rate = params.r_pub_qos * qos_rate(1.0, new_level) / qos_rate(1.0, qos_level)
        return set_factor(params, "r_pub_qos", new_rate), new_level
    raise ValueError(f"unknown action {action!r}")


def run_loop(
    trace,
    params: PubSubParams,
    policy: MonitorPolicy,
    max_states: int = DEFAULT_MAX_STATES,
    tol: float = DEFAULT_TOL,
) -> list[DecisionRecord]:
    """Run the monitoring loop over a workload trace.

    Returns one DecisionRecord per snapshot.  Factor adjustments persist
    across snapshots; an evaluation failure records the snapshot as
    ``evaluation_failed`` and leaves the carried-forward params unchanged.
    """
    records = []
    qos_level = policy.initial_qos_level
    for snap in trace:
        candidate = dataclasses.replace(
            params,
            n_publishers=snap.n_publishers,
            n_subscribers=snap.n_subscribers,
            n_events=snap.n_events,
        )
        before = None
        actions = []
        cand_level = qos_level
        try:
            before = report = evaluate(candidate, max_states=max_states, tol=tol)
            while (
                detect_degradation(report, policy)
                and len(actions) < policy.max_actions_per_snapshot
            ):
                action = next_action(candidate, policy, cand_level)
                if action is None:
                    break
                candidate, cand_level = apply_action(candidate, policy, action, cand_level)
                actions.append(action)
                report = evaluate(candidate, max_states=max_states, tol=tol)
        except SpnError:
            records.append(
                DecisionRecord(snap.timestamp, before, None, tuple(actions), EVALUATION_FAILED)
            )
            continue

        outcome = COMPLIANT if not detect_degradation(report, policy) else EXHAUSTED_ACTIONS
        records.append(
            DecisionRecord(snap.timestamp, before, report, tuple(actions), outcome)
        )
        params, qos_level = candidate, cand_level
    return records
