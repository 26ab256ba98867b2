import dataclasses
import math

import pytest

from spnperf import monitor
from spnperf.monitor import (
    COMPLIANT,
    EVALUATION_FAILED,
    EXHAUSTED_ACTIONS,
    GROW_BROKER_MEMORY,
    GROW_NETWORK_BUFFERS,
    LOWER_QOS_LEVEL,
    MonitorPolicy,
    WorkloadSnapshot,
    apply_action,
    detect_degradation,
    evaluate,
    next_action,
    run_loop,
)
from spnperf.pubsub import PubSubParams
from spnperf.reachability import explore
from spnperf.solver import MetricsReport

# thresholds frozen between the buffer=1 evaluation (accept 2.9239,
# notify 3.8813) and the buffer=10 evaluation (accept 2.6723, notify 3.5866)
DEGRADED_POLICY = MonitorPolicy(
    max_accept_publication_response_time=2.8,
    max_notification_response_time=3.7,
)


def report_with(accept, notify):
    return MetricsReport(
        transition_throughputs={},
        mean_tokens={},
        response_times={
            "accept_publication_response_time": accept,
            "notification_response_time": notify,
        },
    )


def test_evaluate_default_calibration():
    report = evaluate(PubSubParams())
    assert report.response_times["accept_publication_response_time"] > 0
    assert report.response_times["notification_response_time"] > 0


def test_evaluate_surfaces_explosion():
    from spnperf.reachability import StateExplosionError

    with pytest.raises(StateExplosionError):
        evaluate(PubSubParams(), max_states=10)


def test_evaluate_rate_doubling_halves_times():
    params = PubSubParams()
    doubled = dataclasses.replace(
        params,
        **{
            f.name: getattr(params, f.name) * 2
            for f in dataclasses.fields(params)
            if f.name.startswith("r_")
        },
    )
    base, fast = evaluate(params), evaluate(doubled)
    for key, value in base.response_times.items():
        assert fast.response_times[key] == pytest.approx(value / 2, rel=1e-9)


def test_detect_no_violations():
    policy = MonitorPolicy(10.0, 10.0)
    assert detect_degradation(report_with(1.0, 2.0), policy) == []


def test_detect_accept_time_violation():
    # mirrors the degraded buffer=1 regime: 8.5 against a 7.0 threshold
    policy = MonitorPolicy(7.0, 10.0)
    violations = detect_degradation(report_with(8.50740309, 9.06444339), policy)
    assert len(violations) == 1
    assert violations[0].startswith("accept_publication_response_time")


def test_undefined_metric_is_always_a_violation():
    policy = MonitorPolicy(10.0, 10.0)
    violations = detect_degradation(report_with(1.0, None), policy)
    assert violations == ["notification_response_time: undefined"]


def test_next_action_follows_order():
    params = PubSubParams()
    policy = MonitorPolicy(1.0, 1.0)
    assert next_action(params, policy) == GROW_NETWORK_BUFFERS


def test_next_action_skips_capped_factors():
    policy = MonitorPolicy(
        1.0, 1.0, caps={"net_recv_buffer": 1, "net_send_buffer": 1, "broker_memory": 8}
    )
    assert next_action(PubSubParams(), policy) == GROW_BROKER_MEMORY


def test_next_action_exhausted():
    policy = MonitorPolicy(
        1.0, 1.0,
        caps={"net_recv_buffer": 1, "net_send_buffer": 1, "broker_memory": 2},
        qos_reduction_allowed=False,
    )
    assert next_action(PubSubParams(), policy) is None


def test_qos_action_gated_by_flag_and_level():
    caps = {"net_recv_buffer": 1, "net_send_buffer": 1, "broker_memory": 2}
    allowed = MonitorPolicy(1.0, 1.0, caps=caps, qos_reduction_allowed=True)
    assert next_action(PubSubParams(), allowed, qos_level=1) == LOWER_QOS_LEVEL
    assert next_action(PubSubParams(), allowed, qos_level=0) is None


def test_apply_action_grows_and_never_shrinks():
    params = PubSubParams()
    policy = MonitorPolicy(1.0, 1.0, step=2)
    grown, level = apply_action(params, policy, GROW_NETWORK_BUFFERS, 1)
    assert (grown.net_recv_buffer, grown.net_send_buffer) == (2, 2)
    grown, level = apply_action(grown, policy, GROW_BROKER_MEMORY, level)
    assert grown.broker_memory == 4
    grown, level = apply_action(grown, policy, LOWER_QOS_LEVEL, level)
    assert level == 0
    assert grown.r_pub_qos == pytest.approx(4.0)  # lower level, faster processing


def test_apply_action_clamps_to_cap():
    policy = MonitorPolicy(1.0, 1.0, step=8, caps={"broker_memory": 5})
    grown, _ = apply_action(PubSubParams(), policy, GROW_BROKER_MEMORY, 1)
    assert grown.broker_memory == 5


def test_apply_action_never_shrinks_a_factor_above_its_cap():
    # the receive buffer starts above its cap and stays; the send buffer grows
    policy = MonitorPolicy(1.0, 1.0, step=2, caps={"net_recv_buffer": 4, "net_send_buffer": 4})
    grown, _ = apply_action(PubSubParams(net_recv_buffer=8), policy, GROW_NETWORK_BUFFERS, 1)
    assert (grown.net_recv_buffer, grown.net_send_buffer) == (8, 2)


def test_run_loop_remediates_degraded_buffers():
    trace = [WorkloadSnapshot(1.0, 2, 2, 3)]
    records = run_loop(trace, PubSubParams(), DEGRADED_POLICY)
    (record,) = records
    assert record.outcome == COMPLIANT
    assert GROW_NETWORK_BUFFERS in record.actions
    assert detect_degradation(record.after, DEGRADED_POLICY) == []


def test_run_loop_infinite_thresholds_take_no_action():
    policy = MonitorPolicy(math.inf, math.inf)
    trace = [WorkloadSnapshot(1.0, 2, 2, 3), WorkloadSnapshot(2.0, 2, 2, 3)]
    records = run_loop(trace, PubSubParams(), policy)
    assert [r.outcome for r in records] == [COMPLIANT, COMPLIANT]
    assert all(r.actions == () for r in records)


def test_run_loop_exhausts_actions_with_tight_caps():
    params = PubSubParams()
    policy = MonitorPolicy(
        0.0, 0.0,
        caps={
            "net_recv_buffer": params.net_recv_buffer,
            "net_send_buffer": params.net_send_buffer,
            "broker_memory": params.broker_memory,
        },
    )
    (record,) = run_loop([WorkloadSnapshot(1.0, 2, 2, 3)], params, policy)
    assert record.outcome == EXHAUSTED_ACTIONS
    assert record.actions == ()


def test_run_loop_respects_action_budget():
    policy = MonitorPolicy(0.0, 0.0, max_actions_per_snapshot=3)
    (record,) = run_loop([WorkloadSnapshot(1.0, 2, 2, 3)], PubSubParams(), policy)
    assert record.outcome == EXHAUSTED_ACTIONS
    assert len(record.actions) == 3


def test_run_loop_failure_keeps_params():
    policy = MonitorPolicy(math.inf, math.inf)
    trace = [
        WorkloadSnapshot(1.0, 50, 50, 50),  # explodes under the state cap
        WorkloadSnapshot(2.0, 2, 2, 3),
    ]
    records = run_loop(trace, PubSubParams(), policy, max_states=5000)
    assert records[0].outcome == EVALUATION_FAILED
    assert records[1].outcome == COMPLIANT


def test_run_loop_adjustments_persist_across_snapshots():
    trace = [WorkloadSnapshot(1.0, 2, 2, 3), WorkloadSnapshot(2.0, 2, 2, 3)]
    records = run_loop(trace, PubSubParams(), DEGRADED_POLICY)
    assert records[0].actions != ()
    assert records[1].actions == ()  # the grown buffers carried over
    assert records[1].outcome == COMPLIANT


def test_lowering_the_qos_level_rerates_the_explored_chain(monkeypatch):
    # lower_qos_level changes only r_pub_qos: the snapshot explores its
    # structure once, re-rates it for the action's evaluation, and decides
    # as it does when every evaluation explores afresh
    policy = MonitorPolicy(
        0.0, 0.0, action_order=(LOWER_QOS_LEVEL,), qos_reduction_allowed=True
    )
    trace = [WorkloadSnapshot(1.0, 2, 2, 3)]
    explored = []

    def counted(net, max_states):
        explored.append(net)
        return explore(net, max_states=max_states)

    monkeypatch.setattr(monitor, "explore", counted)
    records = run_loop(trace, PubSubParams(), policy)
    assert len(explored) == 1
    assert records[0].actions == (LOWER_QOS_LEVEL,)
    monkeypatch.setattr(monitor, "rerate", lambda previous, net, max_states: None)
    assert run_loop(trace, PubSubParams(), policy) == records
    assert len(explored) == 3


@pytest.mark.parametrize(
    "policy",
    [
        MonitorPolicy(math.inf, math.inf),
        # lowers the QoS level on the first load, grows memory on the second
        MonitorPolicy(
            2.0, 3.0, action_order=(LOWER_QOS_LEVEL, GROW_BROKER_MEMORY, GROW_NETWORK_BUFFERS),
            qos_reduction_allowed=True, max_actions_per_snapshot=2,
        ),
    ],
    ids=["compliant", "acting"],
)
def test_a_repeated_load_rerates_the_last_chain(policy, monkeypatch):
    # each load comes twice in a row: the repeat, and any rate-only action,
    # re-rates the chain of the evaluation before it, so each structure is
    # explored once, and the decisions equal those of a run that explores
    # every evaluation afresh
    trace = [
        WorkloadSnapshot(float(t), 2, 2, events)
        for t, events in enumerate((3, 3, 4, 4), start=1)
    ]
    explored = []

    def counted(net, max_states):
        explored.append(net)
        return explore(net, max_states=max_states)

    monkeypatch.setattr(monitor, "explore", counted)
    records = run_loop(trace, PubSubParams(), policy)
    structures = [net.structure for net in explored]
    assert len(set(structures)) == len(structures)
    explored.clear()
    monkeypatch.setattr(monitor, "rerate", lambda previous, net, max_states: None)
    assert run_loop(trace, PubSubParams(), policy) == records
    assert len(explored) == sum(1 + len(r.actions) for r in records)
    assert {net.structure for net in explored} == set(structures)
    assert len(structures) < len(explored)


def test_run_loop_is_idempotent():
    trace = [WorkloadSnapshot(1.0, 2, 2, 3), WorkloadSnapshot(2.0, 1, 2, 2)]
    a = run_loop(trace, PubSubParams(), DEGRADED_POLICY)
    b = run_loop(trace, PubSubParams(), DEGRADED_POLICY)
    assert a == b


def test_policy_validation():
    with pytest.raises(ValueError):
        MonitorPolicy(1.0, 1.0, action_order=())
    with pytest.raises(ValueError):
        MonitorPolicy(1.0, 1.0, action_order=("unknown",))
    with pytest.raises(ValueError):
        MonitorPolicy(1.0, 1.0, step=0)
    with pytest.raises(ValueError):
        WorkloadSnapshot(1.0, 0, 1, 1)


@pytest.mark.parametrize(
    "overrides, field_name",
    [
        ({"step": 2.5}, "step"),
        ({"step": True}, "step"),
        ({"max_actions_per_snapshot": 1.5}, "max_actions_per_snapshot"),
        ({"max_actions_per_snapshot": True}, "max_actions_per_snapshot"),
        ({"initial_qos_level": 1.0}, "initial_qos_level"),
        ({"initial_qos_level": True}, "initial_qos_level"),
        ({"caps": {"broker_memory": 2.5}}, "caps"),
        ({"caps": {"net_recv_buffer": True}}, "caps"),
        # a step of 1 grows nothing: each growth action would re-solve the same model
        ({"step": 1}, "step"),
    ],
)
def test_policy_counts_must_be_integers(overrides, field_name):
    # a fractional cap used to be truncated by set_factor, so the monitor
    # spent its whole action budget growing broker memory by nothing
    with pytest.raises(ValueError, match=field_name):
        MonitorPolicy(0.0, 0.0, **overrides)


def test_policy_refuses_a_repeated_action():
    with pytest.raises(ValueError, match="action_order repeats"):
        MonitorPolicy(1.0, 1.0, action_order=(GROW_BROKER_MEMORY, GROW_BROKER_MEMORY))


@pytest.mark.parametrize(
    "counts", [(2.5, 2, 3), (2, True, 3), (2, 2, 3.5), (2, 2, True)]
)
def test_snapshot_counts_must_be_integers(counts):
    with pytest.raises(ValueError, match="must be a positive integer"):
        WorkloadSnapshot(1.0, *counts)


def test_snapshot_keeps_a_float_timestamp():
    assert WorkloadSnapshot(1, 2, 2, 3).timestamp == 1.0
    assert isinstance(WorkloadSnapshot(1, 2, 2, 3).timestamp, float)


def test_policy_threshold_must_not_be_a_bool():
    with pytest.raises(ValueError, match="max_notification_response_time"):
        MonitorPolicy(1.0, True)


def test_policy_refuses_a_negative_action_budget():
    # -3 used to be taken, and run_loop reported exhausted_actions without acting
    with pytest.raises(ValueError, match="max_actions_per_snapshot"):
        MonitorPolicy(0.0, 0.0, max_actions_per_snapshot=-3)


def test_a_zero_action_budget_only_observes():
    policy = MonitorPolicy(0.0, 0.0, max_actions_per_snapshot=0)
    (record,) = run_loop([WorkloadSnapshot(1.0, 2, 2, 3)], PubSubParams(), policy)
    assert record.actions == ()
    assert record.outcome == EXHAUSTED_ACTIONS
