"""The three workloads: seeded input files and the CLI call that uses them.

Every workload is derived from ``--seed`` with the standard library's
``random.Random``, so the same seed always writes the same files.  The seed
varies values (rates, sweep points, timestamps, simulator seeds), never the
amount of work: state spaces, sweep lengths, monitor decisions and
replication counts are the same for every seed, so run-to-run differences in
time come from the program, not from the draw.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

#: Rates of the default pub/sub calibration (``PubSubParams()``).
BASE_RATES = {
    "r_connect_pub": 1.0,
    "r_connect_sub": 1.0,
    "r_accept_conn": 5.0,
    "r_disconnect_pub": 0.1,
    "r_disconnect_sub": 0.1,
    "r_subscribe": 1.0,
    "r_unsubscribe": 0.1,
    "r_publish": 2.0,
    "r_accept_pub": 4.0,
    "r_pub_qos": 1.0,
    "r_notify": 4.0,
    "r_consume": 2.0,
}

#: Populations and resources of the default calibration.
BASE_PARAMS = {
    "n_publishers": 2,
    "n_subscribers": 2,
    "n_topics": 1,
    "n_events": 3,
    "broker_capacity": 4,
    "broker_memory": 2,
    "net_recv_buffer": 1,
    "net_send_buffer": 1,
    "received_event_capacity": 2,
}

SWEEP_POINTS = 6
SWEEP_RANGE = (0.25, 4.0)

#: monitor-trace: event populations per snapshot (rising), as in the
#: monitor demo; publishers and subscribers stay at 2.  With the policy's
#: caps and 2-action budget every seed takes the same 5 evaluations, each
#: on a new structure: 1,260 -> 1,500 states (buffers grown, compliant);
#: 2,100 -> 2,100 -> 3,900 (buffers, then memory grown; the budget is spent
#: while QoS lowering is still available, labelled exhausted_actions).
MONITOR_EVENTS = (3, 4)
#: actions of each snapshot's record, the same for every seed.  A record
#: takes one evaluation before its actions and one after each action.
MONITOR_ACTIONS = (
    ["grow_network_buffers"],
    ["grow_network_buffers", "grow_broker_memory"],
)
MONITOR_EVALUATIONS = 5
MONITOR_RATE_JITTER = 0.02
MONITOR_POLICY = {
    "max_accept_publication_response_time": 2.8,
    "max_notification_response_time": 3.7,
    "step": 2,
    "qos_reduction_allowed": True,
    "max_actions_per_snapshot": 2,
    "caps": {"net_recv_buffer": 4, "net_send_buffer": 4, "broker_memory": 4},
}

SIMULATE_HORIZON = 1000
SIMULATE_REPLICATIONS = 30

STATES_DEFAULT_MODEL = 1260


@dataclass
class Workload:
    """One generated workload: its CLI arguments and what the checks need."""

    name: str
    seed: int
    argv: list
    #: (kind, path) of every input file, kind in model/trace/policy
    inputs: list
    #: parameter document(s) and other generated values, for the checks
    data: dict = field(default_factory=dict)


def _jittered_rates(rng: random.Random, amplitude: float) -> dict:
    return {
        name: round(rate * math.exp(rng.uniform(-amplitude, amplitude)), 6)
        for name, rate in BASE_RATES.items()
    }


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


def _rate_sweep(rng, out: Path):
    # one value per equal-width stratum of log(r_pub_qos), drawn from the
    # middle 80% of the stratum: sorted, distinct and at least 9% apart
    lo, hi = (math.log(v) for v in SWEEP_RANGE)
    width = (hi - lo) / SWEEP_POINTS
    values = [
        round(math.exp(lo + (k + rng.uniform(0.1, 0.9)) * width), 4)
        for k in range(SWEEP_POINTS)
    ]
    params = {**BASE_PARAMS, **BASE_RATES}
    model = _write_json(out / "model.json", params)
    argv = ["sweep", model, "--factor", "r_pub_qos",
            "--values", ",".join(repr(v) for v in values)]
    return argv, [("model", model)], {"params": params, "values": values}


def _monitor_trace(rng, out: Path):
    params = {**BASE_PARAMS, **_jittered_rates(rng, MONITOR_RATE_JITTER)}
    t = 0.0
    snapshots = []
    for events in MONITOR_EVENTS:
        t = round(t + rng.uniform(5.0, 15.0), 3)
        snapshots.append({"t": t, "publishers": 2, "subscribers": 2, "events": events})
    trace = out / "trace.jsonl"
    trace.write_text("".join(json.dumps(s, sort_keys=True) + "\n" for s in snapshots))
    model = _write_json(out / "model.json", params)
    policy = _write_json(out / "policy.json", MONITOR_POLICY)
    argv = ["monitor", str(trace), model, policy]
    inputs = [("trace", str(trace)), ("model", model), ("policy", policy)]
    return argv, inputs, {"params": params, "snapshots": snapshots,
                          "policy": MONITOR_POLICY}


def _simulate(rng, out: Path):
    params = {**BASE_PARAMS, **BASE_RATES}
    base_seed = rng.randrange(1, 2**31)
    model = _write_json(out / "model.json", params)
    argv = ["simulate", model, "--horizon", str(SIMULATE_HORIZON),
            "--replications", str(SIMULATE_REPLICATIONS), "--seed", str(base_seed)]
    return argv, [("model", model)], {"params": params, "base_seed": base_seed}


GENERATORS = {
    "rate-sweep": _rate_sweep,
    "monitor-trace": _monitor_trace,
    "simulate": _simulate,
}


def generate(name: str, seed: int, out: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``out``."""
    rng = random.Random(f"{name}:{seed}")
    argv, inputs, data = GENERATORS[name](rng, out)
    return Workload(name, seed, argv, inputs, data)
