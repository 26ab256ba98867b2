import dataclasses
import math

import pytest

from spnperf import files, monitor
from spnperf.monitor import (
    ACTION_BUDGET_SPENT,
    COMPLIANT,
    EVALUATION_FAILED,
    EXHAUSTED_ACTIONS,
    GROW_BROKER_MEMORY,
    GROW_NETWORK_BUFFERS,
    LOWER_QOS_LEVEL,
    NO_ACTION_LEFT,
    MonitorPolicy,
    WorkloadSnapshot,
    apply_action,
    detect_degradation,
    evaluate,
    next_action,
    run_loop,
)
from spnperf.pubsub import RESPONSE_TIMES, PubSubParams
from spnperf.reachability import explore
from spnperf.solver import MetricsReport
from test_pubsub import qos_rate

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
    assert next_action(PubSubParams(qos_level=1), allowed) == LOWER_QOS_LEVEL
    assert next_action(PubSubParams(qos_level=0), allowed) is None


def test_apply_action_grows_and_never_shrinks():
    params = PubSubParams()
    policy = MonitorPolicy(1.0, 1.0, step=2)
    grown = apply_action(params, policy, GROW_NETWORK_BUFFERS)
    assert (grown.net_recv_buffer, grown.net_send_buffer) == (2, 2)
    grown = apply_action(grown, policy, GROW_BROKER_MEMORY)
    assert grown.broker_memory == 4
    grown = apply_action(grown, policy, LOWER_QOS_LEVEL)
    assert grown.qos_level == 0
    assert grown.r_pub_qos == params.r_pub_qos  # the level-1 base rate stays
    assert qos_rate(grown) == 4.0 * qos_rate(params)  # lower level, faster processing


def test_apply_action_refuses_a_qos_level_below_0_and_an_unknown_action():
    policy = MonitorPolicy(1.0, 1.0)
    with pytest.raises(ValueError, match="^QoS level is already at its minimum$"):
        apply_action(PubSubParams(qos_level=0), policy, LOWER_QOS_LEVEL)
    with pytest.raises(ValueError, match="^unknown action 'shrink'$"):
        apply_action(PubSubParams(), policy, "shrink")
    # a level outside 0-2, a fraction or a bool is no QoS level: params
    # refuse it, so no action ever sees it
    for level in (3, 1.5, True):
        for action in (LOWER_QOS_LEVEL, GROW_BROKER_MEMORY):
            with pytest.raises(ValueError, match=r"^qos_level must be one of \[0, 1, 2\], got "):
                apply_action(PubSubParams(qos_level=level), policy, action)


@pytest.mark.parametrize("level", [3, 7, 1.5, True, -1])
def test_next_action_refuses_an_unknown_qos_level(level):
    # the level is a model factor, checked where params are built or replaced
    policy = MonitorPolicy(1.0, 1.0, qos_reduction_allowed=True)
    with pytest.raises(ValueError, match=r"^qos_level must be one of \[0, 1, 2\], got "):
        next_action(dataclasses.replace(PubSubParams(), qos_level=level), policy)


def test_apply_action_clamps_to_cap():
    policy = MonitorPolicy(1.0, 1.0, step=8, caps={"broker_memory": 5})
    grown = apply_action(PubSubParams(), policy, GROW_BROKER_MEMORY)
    assert grown.broker_memory == 5


def test_apply_action_never_shrinks_a_factor_above_its_cap():
    # the receive buffer starts above its cap and stays; the send buffer grows
    policy = MonitorPolicy(1.0, 1.0, step=2, caps={"net_recv_buffer": 4, "net_send_buffer": 4})
    grown = apply_action(PubSubParams(net_recv_buffer=8), policy, GROW_NETWORK_BUFFERS)
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


def test_stop_reason_compliant():
    (record,) = run_loop([WorkloadSnapshot(1.0, 2, 2, 3)], PubSubParams(), DEGRADED_POLICY)
    assert (record.outcome, record.stop_reason) == (COMPLIANT, COMPLIANT)


def test_stop_reason_no_action_left():
    # the buffers may grow from 1 to 2 once, memory is at its cap: one action
    # is applicable, and a budget of exactly one spends it and leaves none
    policy = MonitorPolicy(
        0.0, 0.0, max_actions_per_snapshot=1,
        caps={"net_recv_buffer": 2, "net_send_buffer": 2, "broker_memory": 2},
    )
    (record,) = run_loop([WorkloadSnapshot(1.0, 2, 2, 3)], PubSubParams(), policy)
    assert record.actions == (GROW_NETWORK_BUFFERS,)
    assert (record.outcome, record.stop_reason) == (EXHAUSTED_ACTIONS, NO_ACTION_LEFT)


def test_stop_reason_action_budget_spent():
    # the budget of 3 runs out while the buffers are still below their caps
    policy = MonitorPolicy(0.0, 0.0, max_actions_per_snapshot=3)
    (record,) = run_loop([WorkloadSnapshot(1.0, 2, 2, 3)], PubSubParams(), policy)
    assert len(record.actions) == 3
    assert (record.outcome, record.stop_reason) == (EXHAUSTED_ACTIONS, ACTION_BUDGET_SPENT)


def test_stop_reason_evaluation_failed():
    policy = MonitorPolicy(math.inf, math.inf)
    (record,) = run_loop(
        [WorkloadSnapshot(1.0, 50, 50, 50)], PubSubParams(), policy, max_states=5000
    )
    assert (record.outcome, record.stop_reason) == (EVALUATION_FAILED, EVALUATION_FAILED)


def test_an_evaluation_failing_after_an_action_keeps_the_params_before_it():
    # growing the buffers takes the chain from 1,260 to 1,500 states, past
    # the limit: the record keeps the first evaluation and the action, and
    # the next snapshot starts from the un-grown params
    policy = MonitorPolicy(0.0, 0.0)
    trace = [WorkloadSnapshot(1.0, 2, 2, 3), WorkloadSnapshot(2.0, 2, 2, 3)]
    records = run_loop(trace, PubSubParams(), policy, max_states=1400)
    assert records[0].before is not None
    assert records[0].actions == (GROW_NETWORK_BUFFERS,)
    assert records[0].after is None
    assert records[0].stop_reason == EVALUATION_FAILED
    assert records[1].before == records[0].before


def test_run_loop_adjustments_persist_across_snapshots():
    trace = [WorkloadSnapshot(1.0, 2, 2, 3), WorkloadSnapshot(2.0, 2, 2, 3)]
    records = run_loop(trace, PubSubParams(), DEGRADED_POLICY)
    assert records[0].actions != ()
    assert records[1].actions == ()  # the grown buffers carried over
    assert records[1].outcome == COMPLIANT


def test_lowering_the_qos_level_rerates_the_explored_chain(monkeypatch):
    # lower_qos_level changes only the QoS processing rate: the snapshot
    # explores its structure once, re-rates it for the action's evaluation,
    # and decides as it does when every evaluation explores afresh
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
        # the QoS level is a params value: a policy that carries one is refused
        ({"initial_qos_level": 1.0}, "initial_qos_level"),
        ({"initial_qos_level": True}, "initial_qos_level"),
        ({"caps": {"broker_memory": 2.5}}, "caps"),
        ({"caps": {"net_recv_buffer": True}}, "caps"),
        # a step of 1 grows nothing: each growth action would re-solve the same model
        ({"step": 1}, "step"),
        ({"step": "2"}, "step"),
        ({"max_actions_per_snapshot": 2.0}, "max_actions_per_snapshot"),
    ],
)
def test_policy_counts_must_be_integers(overrides, field_name):
    # a fractional cap used to be truncated by set_factor, so the monitor
    # spent its whole action budget growing broker memory by nothing; the
    # policy document's loader passes every value to MonitorPolicy, whose
    # ValueError it reports
    doc = {
        "max_accept_publication_response_time": 0.0,
        "max_notification_response_time": 0.0,
        **overrides,
    }
    with pytest.raises(files.FormatError, match=field_name):
        files.policy_from_document(doc)


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
    assert record.stop_reason == ACTION_BUDGET_SPENT


def test_every_headline_time_has_a_policy_threshold():
    # detect_degradation reads each time's threshold as max_<name>
    fields = {f.name for f in dataclasses.fields(MonitorPolicy)}
    assert all(f"max_{name}" in fields for name, _places in RESPONSE_TIMES)
