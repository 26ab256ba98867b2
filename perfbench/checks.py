"""Correctness checks for every op a workload's CLI call prints.

An op is one checked output: a ``sweep`` row, a ``monitor`` decision
record or a ``simulate`` metric.  Each checker parses
the captured stdout and returns one list of problems per op; an op with no
problems passed.  The checks are of three kinds:

* model laws that hold for every seed: equal throughput along the event
  cycle, P-invariant sums of mean tokens, Little's law, response times that
  fall as ``r_pub_qos`` rises, simulator confidence intervals that cover
  the analytic values at about the stated rate;
* state counts that depend only on the net structure, which the seed does
  not change;
* reference values checked in for the default seed (``reference.json``),
  compared at ``REFERENCE_RTOL``.

Monitor outcome labels are not checked; only numbers are.
"""

from __future__ import annotations

import json
import math

from workloads import (MONITOR_ACTIONS, MONITOR_EVALUATIONS, SIMULATE_REPLICATIONS,
                       STATES_DEFAULT_MODEL)

DEFAULT_SEED = 0
#: relative tolerance against reference values (the iterative solver stops
#: at an absolute residual of 1e-12, so results can move well below this)
REFERENCE_RTOL = 1e-6
#: equal throughput along the event cycle, and Little's law
CYCLE_RTOL = 1e-7
#: P-invariant sums of mean tokens hold for every state, hence exactly
INVARIANT_RTOL = 1e-9
SOLVER_TOL = 1e-12
#: every simulated estimate lies within this many 95% half-widths of the
#: analytic value (about 4 standard errors; over 40 seeds the worst was 1.5)
CI_HALF_WIDTHS = 2.0
#: share of the 95% intervals that must cover the analytic value.  The rate
#: is about 95% on average over seeds, but the intervals are strongly
#: correlated (the five cycle throughputs are one quantity), so a single
#: run covers as few as 60%.
MIN_CI_COVERAGE = 0.5

CYCLE = ("publish", "acceptPub", "pubQoSProcessing", "notify", "consume")
TRANSITIONS = (
    "connectPub", "acceptPubConn", "disconnectPub", "connectSub",
    "acceptSubConn", "disconnectSub", "subscribe", "unsubscribe", "publish",
    "acceptPub", "pubQoSProcessing", "notify", "consume",
)
# P-invariants of the pub/sub net: places with weight 1 -> parameter(s)
# whose sum is the conserved total.
INVARIANTS = (
    (("PublishersIdle", "PubConnecting", "PublishersConnected"), "n_publishers"),
    (("SubscribersIdle", "SubConnecting", "SubscribersConnected", "Subscribed"),
     "n_subscribers"),
    (("BrokerCapacity", "PublishersConnected", "SubscribersConnected", "Subscribed"),
     "broker_capacity"),
    (("EventToPublish", "PubRequest", "PubAccepted", "PublishedEvent",
      "SubQoSProcessing"), "n_events"),
    (("NetworkReceiveBuffer", "PubAccepted"), "net_recv_buffer"),
    (("NetworkSendBuffer", "SubQoSProcessing"), "net_send_buffer"),
    (("BrokerMemory", "PubAccepted", "PublishedEvent", "SubQoSProcessing"),
     "broker_memory"),
    (("ReceivedEventCapacity", "SubQoSProcessing"), "received_event_capacity"),
    (("Topics",), "n_topics"),
)
PLACES = tuple(sorted({p for places, _ in INVARIANTS for p in places}))


def _close(a, b, rtol) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol * 1e-3)


def _finite_positive(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def _compare(actual, expected, rtol, path="") -> list[str]:
    """Differences between two JSON values, numbers compared at ``rtol``."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ from the reference"]
        return [p for k in expected for p in _compare(actual[k], expected[k], rtol, f"{path}/{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs from the reference"]
        return [p for i, (a, e) in enumerate(zip(actual, expected))
                for p in _compare(a, e, rtol, f"{path}/{i}")]
    if isinstance(expected, bool) or not isinstance(expected, (int, float)):
        return [] if actual == expected else [f"{path}: {actual!r} != reference {expected!r}"]
    if not isinstance(actual, (int, float)) or not _close(actual, expected, rtol):
        return [f"{path}: {actual!r} != reference {expected!r}"]
    return []


def check_report(doc, totals: dict) -> list[str]:
    """Model laws on one metrics report (throughputs, tokens, response times).

    ``totals`` gives the conserved total of each invariant parameter.
    """
    problems = []
    try:
        tput = doc["transition_throughputs"]
        tokens = doc["mean_tokens"]
        rts = doc["response_times"]
        flow = [tput[t] for t in CYCLE]
        missing = set(TRANSITIONS) - set(tput) or set(PLACES) - set(tokens)
    except (KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
    if missing:
        return [f"report lacks {sorted(missing)}"]
    if not all(_finite_positive(x) for x in flow):
        problems.append(f"cycle throughputs not finite and positive: {flow}")
    elif not all(_close(x, flow[0], CYCLE_RTOL) for x in flow):
        problems.append(f"throughput differs along the event cycle: {flow}")
    for places, param in INVARIANTS:
        total = sum(tokens[p] for p in places)
        if not _close(total, totals[param], INVARIANT_RTOL):
            problems.append(f"P-invariant {param}: mean tokens sum to {total!r}, "
                            f"expected {totals[param]}")
    accept = rts.get("accept_publication_response_time")
    notify = rts.get("notification_response_time")
    if not (_finite_positive(accept) and _finite_positive(notify) and notify > accept):
        problems.append(f"response times invalid: accept={accept!r} notify={notify!r}")
    elif _finite_positive(tput["publish"]):
        little = (tokens["PubRequest"] + tokens["PubAccepted"]) / tput["publish"]
        if not _close(accept, little, CYCLE_RTOL):
            problems.append(f"accept response time {accept!r} breaks Little's law ({little!r})")
    return problems


# -- per workload -------------------------------------------------------------
# Each returns (ops, comparable) where ops is a list of problem lists, one per
# op, and comparable is the part of the output kept in reference.json.

def _sweep(stdout: str, data: dict):
    values = data["values"]
    lines = stdout.splitlines()
    if not lines or lines[0] != "factor,accept_publication_rt,notification_rt,states,residual":
        return [["missing CSV header"] for _ in values], None
    rows = [line.split(",") for line in lines[1:]]
    ops, parsed = [], []
    for k, value in enumerate(values):
        problems = []
        try:
            factor, accept, notify, states, residual = rows[k]
            row = [float(factor), float(accept), float(notify), int(states), float(residual)]
        except (IndexError, ValueError) as exc:
            ops.append([f"row {k}: unreadable ({exc})"])
            parsed.append(None)
            continue
        parsed.append(row)
        if row[0] != value:
            problems.append(f"row {k}: factor {row[0]!r}, expected {value!r}")
        if not (_finite_positive(row[1]) and _finite_positive(row[2]) and row[2] > row[1]):
            problems.append(f"row {k}: response times invalid {row[1:3]}")
        if row[3] != STATES_DEFAULT_MODEL:
            problems.append(f"row {k}: {row[3]} states, expected {STATES_DEFAULT_MODEL}")
        if row[4] > SOLVER_TOL:
            problems.append(f"row {k}: residual {row[4]!r} above {SOLVER_TOL}")
        prev = parsed[k - 1] if k else None
        if prev is not None and not (row[1] < prev[1] and row[2] < prev[2]):
            problems.append(f"row {k}: response times do not fall as r_pub_qos rises "
                            f"({prev[1:3]} -> {row[1:3]})")
        ops.append(problems)
    if len(rows) != len(values):
        ops[-1].append(f"{len(rows)} rows, expected {len(values)}")
    return ops, parsed


def _monitor(stdout: str, data: dict):
    snapshots, policy = data["snapshots"], data["policy"]
    caps = {"net_recv_buffer": 64, "net_send_buffer": 64, "broker_memory": 64,
            **policy.get("caps", {})}
    step = policy["step"]
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        return [[f"output is not JSON Lines: {exc}"] for _ in snapshots], None
    # resource totals carried across snapshots, replayed from the actions
    carried = {k: data["params"][k] for k in caps}
    ops = []
    for k, snap in enumerate(snapshots):
        if k >= len(records):
            ops.append([f"record {k} missing"])
            continue
        rec = records[k]
        problems = []
        totals = {**data["params"], **carried, "n_publishers": snap["publishers"],
                  "n_subscribers": snap["subscribers"], "n_events": snap["events"]}
        if rec.get("t") != snap["t"]:
            problems.append(f"record {k}: t={rec.get('t')!r}, expected {snap['t']}")
        if rec.get("before") is None or rec.get("after") is None:
            problems.append(f"record {k}: evaluation failed")
            ops.append(problems)
            continue
        if rec.get("actions") != MONITOR_ACTIONS[k]:
            problems.append(f"record {k}: actions {rec.get('actions')!r}, "
                            f"expected {MONITOR_ACTIONS[k]!r}")
        problems += [f"record {k} before: {p}" for p in check_report(rec["before"], totals)]
        for action in rec["actions"]:
            if action == "grow_network_buffers":
                for f in ("net_recv_buffer", "net_send_buffer"):
                    totals[f] = min(totals[f] * step, caps[f])
            elif action == "grow_broker_memory":
                totals["broker_memory"] = min(totals["broker_memory"] * step,
                                              caps["broker_memory"])
            elif action != "lower_qos_level":
                problems.append(f"record {k}: unknown action {action!r}")
        problems += [f"record {k} after: {p}" for p in check_report(rec["after"], totals)]
        carried = {f: totals[f] for f in caps}
        ops.append(problems)
    if len(records) != len(snapshots):
        ops[-1].append(f"{len(records)} records, expected {len(snapshots)}")
    evaluations = sum(1 + len(r.get("actions") or ()) for r in records if r.get("before"))
    if evaluations != MONITOR_EVALUATIONS:
        ops[-1].append(f"{evaluations} evaluations, expected {MONITOR_EVALUATIONS}")
    comparable = [{key: r.get(key) for key in ("t", "actions", "before", "after")}
                  for r in records]
    return ops, comparable


def _simulate(stdout: str, data: dict):
    params = data["params"]
    names = [f"throughput:{t}" for t in TRANSITIONS] + [f"mean_tokens:{p}" for p in PLACES]
    try:
        doc = json.loads(stdout)
        metrics = doc["metrics"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [[f"malformed output: {exc!r}"] for _ in names], None
    ops = {}
    for name in names:
        entry = metrics.get(name)
        problems = []
        if not isinstance(entry, dict) or not {"mean", "half_width_95", "analytic",
                                               "inside_ci"} <= set(entry):
            ops[name] = [f"{name}: missing or incomplete"]
            continue
        mean, hw, analytic = entry["mean"], entry["half_width_95"], entry["analytic"]
        if not (math.isfinite(mean) and math.isfinite(hw) and hw >= 0
                and math.isfinite(analytic)):
            problems.append(f"{name}: non-finite estimate {entry}")
        elif entry["inside_ci"] != (abs(analytic - mean) <= hw):
            problems.append(f"{name}: inside_ci flag contradicts its numbers")
        elif hw == 0:
            # a constant metric (e.g. Topics) has a zero-width interval that
            # rounding alone can miss, so its value is compared directly
            if not _close(mean, analytic, INVARIANT_RTOL):
                problems.append(f"{name}: constant estimate {mean!r} != analytic {analytic!r}")
        elif abs(analytic - mean) > CI_HALF_WIDTHS * hw:
            problems.append(f"{name}: analytic {analytic!r} is more than {CI_HALF_WIDTHS} "
                            f"half-widths from the estimate {mean!r} +- {hw!r}")
        ops[name] = problems
    if any(ops[n] for n in names):
        return list(ops.values()), None
    if doc.get("replications") != SIMULATE_REPLICATIONS or doc.get("deadlock_runs") != 0:
        ops[names[0]].append(f"replications={doc.get('replications')} "
                             f"deadlock_runs={doc.get('deadlock_runs')}")
    intervals = [n for n in names if metrics[n]["half_width_95"] > 0]
    uncovered = [n for n in intervals if not metrics[n]["inside_ci"]]
    if len(uncovered) > (1 - MIN_CI_COVERAGE) * len(intervals):
        for n in uncovered:
            ops[n].append(f"{n}: outside its interval, and only "
                          f"{len(intervals) - len(uncovered)}/{len(intervals)} intervals cover")
    # simulated and analytic time-averaged tokens obey the P-invariants
    for field in ("mean", "analytic"):
        for places, param in INVARIANTS:
            total = sum(metrics[f"mean_tokens:{p}"][field] for p in places)
            if not _close(total, params[param], INVARIANT_RTOL):
                ops[f"mean_tokens:{places[0]}"].append(
                    f"P-invariant {param} ({field}): sum {total!r}, expected {params[param]}")
    flow = [metrics[f"throughput:{t}"]["analytic"] for t in CYCLE]
    if not all(_close(x, flow[0], CYCLE_RTOL) for x in flow):
        ops["throughput:publish"].append(f"analytic throughput differs along the cycle: {flow}")
    comparable = {n: [metrics[n]["mean"], metrics[n]["half_width_95"], metrics[n]["analytic"]]
                  for n in names}
    return list(ops.values()), comparable


CHECKERS = {
    "rate-sweep": _sweep,
    "monitor-trace": _monitor,
    "simulate": _simulate,
}


def expected_ops(workload) -> int:
    """Number of ops one CLI call of ``workload`` should produce."""
    if workload.name == "rate-sweep":
        return len(workload.data["values"])
    if workload.name == "monitor-trace":
        return len(workload.data["snapshots"])
    return len(TRANSITIONS) + len(PLACES)  # simulate


def check(workload, stdout: str, reference: dict | None) -> list[list[str]]:
    """Problems per op of one CLI call; ``reference`` only for the default seed."""
    ops, comparable = CHECKERS[workload.name](stdout, workload.data)
    if reference is not None and comparable is not None:
        diffs = _compare(comparable, reference, REFERENCE_RTOL)
        if diffs:
            ops[0] = ops[0] + [f"reference: {d}" for d in diffs[:5]]
    return ops


def comparable_output(workload, stdout: str):
    """The part of the output stored in reference.json."""
    return CHECKERS[workload.name](stdout, workload.data)[1]
