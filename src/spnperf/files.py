"""JSON document formats: nets, model params, policies, traces and reports.

All loaders reject unknown keys so schema drift fails loudly.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .monitor import DecisionRecord, MonitorPolicy, WorkloadSnapshot
from .net import SERVER_SEMANTICS, SINGLE_SERVER, Place, SpnNet, Transition
from .pubsub import PubSubParams
from .simulator import SimulationEstimate
from .solver import MetricsReport


class FormatError(Exception):
    """Malformed or schema-violating input document."""


def _require_keys(doc: dict, required, optional=(), what="document"):
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object")
    missing = set(required) - set(doc)
    if missing:
        raise FormatError(f"{what} is missing keys: {sorted(missing)}")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise FormatError(f"{what} has unknown keys: {sorted(unknown)}")


# -- nets ---------------------------------------------------------------

def net_to_document(net: SpnNet) -> dict:
    arcs = []
    for kind, mat in (("pre", net.pre), ("post", net.post), ("inhibitor", net.inh)):
        for p, t in zip(*np.nonzero(mat)):
            arcs.append(
                {
                    "place": net.places[p].name,
                    "transition": net.transitions[t].name,
                    "kind": kind,
                    "weight": int(mat[p, t]),
                }
            )
    return {
        "places": [{"name": p.name, "initial": p.tokens} for p in net.places],
        "transitions": [
            {
                "name": t.name,
                "rate": t.rate,
                "priority": t.priority,
                "semantics": t.semantics,
            }
            for t in net.transitions
        ],
        "arcs": arcs,
    }


_KINDS = {int: "an integer", (int, float): "a number", str: "a string"}


def _typed(entry: dict, key: str, default, what: str, kind=int):
    value = entry.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(f"{what} {key} must be {_KINDS[kind]}, got {value!r}")
    return value


def net_from_document(doc: dict) -> SpnNet:
    _require_keys(doc, ("places", "transitions", "arcs"), what="net document")
    places = []
    for entry in doc["places"]:
        _require_keys(entry, ("name",), ("initial",), what="place")
        places.append(
            Place(_typed(entry, "name", None, "place", str), _typed(entry, "initial", 0, "place"))
        )
    transitions = []
    for entry in doc["transitions"]:
        _require_keys(entry, ("name", "rate"), ("priority", "semantics"), what="transition")
        semantics = entry.get("semantics", SINGLE_SERVER)
        if semantics not in SERVER_SEMANTICS:
            raise FormatError(f"unknown semantics {semantics!r}")
        transitions.append(
            Transition(
                _typed(entry, "name", None, "transition", str),
                float(_typed(entry, "rate", None, "transition", (int, float))),
                _typed(entry, "priority", 0, "transition"),
                semantics,
            )
        )
    pidx = {p.name: i for i, p in enumerate(places)}
    tidx = {t.name: i for i, t in enumerate(transitions)}
    pre = np.zeros((len(places), len(transitions)), dtype=np.int64)
    post = np.zeros_like(pre)
    inh = np.zeros_like(pre)
    mats = {"pre": pre, "post": post, "inhibitor": inh}
    seen = set()
    for entry in doc["arcs"]:
        _require_keys(entry, ("place", "transition", "kind"), ("weight",), what="arc")
        if entry["kind"] not in mats:
            raise FormatError(f"unknown arc kind {entry['kind']!r}")
        try:
            p, t = pidx[entry["place"]], tidx[entry["transition"]]
        except KeyError as exc:
            raise FormatError(f"arc references unknown node {exc.args[0]!r}") from None
        arc = (p, t, entry["kind"])
        if arc in seen:
            raise FormatError(
                f"duplicate {entry['kind']} arc {entry['place']!r} -> {entry['transition']!r}"
            )
        seen.add(arc)
        mats[entry["kind"]][p, t] = _typed(entry, "weight", 1, "arc")
    return SpnNet(tuple(places), tuple(transitions), pre, post, inh)


# -- pub/sub params -----------------------------------------------------

_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(PubSubParams))


def params_to_document(params: PubSubParams) -> dict:
    return dataclasses.asdict(params)


def params_from_document(doc: dict) -> PubSubParams:
    _require_keys(doc, (), _PARAM_FIELDS, what="params document")
    try:
        return PubSubParams(**doc)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad params document: {exc}") from exc


def load_model_file(path):
    """Read a model file; returns ("net", SpnNet) or ("params", PubSubParams)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if isinstance(doc, dict) and "places" in doc:
        return "net", net_from_document(doc)
    return "params", params_from_document(doc)


# -- policy and trace ---------------------------------------------------

def policy_from_document(doc: dict) -> MonitorPolicy:
    required = (
        "max_accept_publication_response_time",
        "max_notification_response_time",
    )
    optional = (
        "action_order",
        "step",
        "qos_reduction_allowed",
        "caps",
        "max_actions_per_snapshot",
        "initial_qos_level",
    )
    _require_keys(doc, required, optional, what="policy document")
    for key in ("step", "max_actions_per_snapshot"):  # optional integers
        _typed(doc, key, 0, "policy document")
    kwargs = dict(doc)
    if "action_order" in kwargs:
        kwargs["action_order"] = tuple(kwargs["action_order"])
    try:
        return MonitorPolicy(**kwargs)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad policy document: {exc}") from exc


def read_trace(lines) -> list[WorkloadSnapshot]:
    """Parse a workload trace: one JSON object per line with keys
    t, publishers, subscribers, events; timestamps strictly increasing."""
    snapshots = []
    last_t = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"trace line {lineno}: not valid JSON ({exc})") from exc
        what = f"trace line {lineno}"
        _require_keys(doc, ("t", "publishers", "subscribers", "events"), what=what)
        counts = [_typed(doc, key, None, what) for key in ("publishers", "subscribers", "events")]
        try:
            snap = WorkloadSnapshot(float(_typed(doc, "t", None, what, (int, float))), *counts)
        except ValueError as exc:
            raise FormatError(f"{what}: {exc}") from exc
        if last_t is not None and snap.timestamp <= last_t:
            raise FormatError(f"{what}: timestamps must strictly increase")
        last_t = snap.timestamp
        snapshots.append(snap)
    return snapshots


# -- outputs ------------------------------------------------------------

def report_to_document(report: MetricsReport) -> dict:
    return {
        "transition_throughputs": dict(report.transition_throughputs),
        "mean_tokens": dict(report.mean_tokens),
        "response_times": dict(report.response_times),
    }


def estimate_to_document(estimate: SimulationEstimate) -> dict:
    return {
        "metrics": {
            name: {"mean": mean, "half_width_95": hw}
            for name, (mean, hw) in estimate.metrics.items()
        },
        "replications": estimate.replications,
        "deadlock_runs": estimate.deadlock_runs,
    }


def decision_record_to_document(record: DecisionRecord) -> dict:
    return {
        "t": record.timestamp,
        "outcome": record.outcome,
        "actions": list(record.actions),
        "before": report_to_document(record.before) if record.before else None,
        "after": report_to_document(record.after) if record.after else None,
    }
