"""JSON document formats: nets, model params, policies, traces and reports.

Loaders check only the JSON shape: required and unknown keys, no key
repeated within an object, lists and objects where the format has them,
arc references to node names, and no listed arc of weight below 1, which
the weight matrices would hold as no arc or refuse without naming the arc.
Every value is checked by the object it builds (``SpnNet`` for nets,
``PubSubParams``, ``MonitorPolicy``, ``WorkloadSnapshot``), whose
``ValueError`` or ``InvalidNetError`` becomes a ``FormatError``.  So a
Python caller is refused exactly what a document is.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import MISSING

import numpy as np

from .monitor import DecisionRecord, MonitorPolicy, WorkloadSnapshot
from .net import InvalidNetError, Place, SpnNet, Transition, is_count
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


def _construct(cls, doc: dict, what: str):
    """Build a dataclass from a document whose keys are its fields; ``cls`` checks
    the values, and its ``ValueError`` becomes a ``FormatError``."""
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is MISSING and f.default_factory is MISSING]
    _require_keys(doc, required, [f.name for f in fields], what=what)
    try:
        return cls(**doc)
    except ValueError as exc:
        raise FormatError(f"bad {what}: {exc}") from exc


def net_from_document(doc: dict) -> SpnNet:
    _require_keys(doc, ("places", "transitions", "arcs"), what="net document")
    if not all(isinstance(doc[key], list) for key in doc):
        raise FormatError("net document places, transitions and arcs must be JSON lists")
    places = []
    for entry in doc["places"]:
        _require_keys(entry, ("name",), ("initial",), what="place")
        places.append(Place(entry["name"], entry.get("initial", 0)))
    transitions = [_construct(Transition, entry, "transition") for entry in doc["transitions"]]
    # weights go in as loaded, so that SpnNet refuses a fraction or a bool
    kinds = ("pre", "post", "inhibitor")  # `in` a tuple compares; a dict would hash a list
    mats = {kind: np.zeros((len(places), len(transitions)), dtype=object) for kind in kinds}
    # the nodes are checked before any arc is resolved against their names
    try:
        net = SpnNet(places, transitions, mats["pre"], mats["post"])
    except InvalidNetError as exc:
        raise FormatError(str(exc)) from exc
    pidx = {p.name: i for i, p in enumerate(places)}
    tidx = {t.name: i for i, t in enumerate(transitions)}
    seen = set()
    for entry in doc["arcs"]:
        _require_keys(entry, ("place", "transition", "kind"), ("weight",), what="arc")
        if entry["kind"] not in kinds:
            raise FormatError(f"unknown arc kind {entry['kind']!r}")
        for name, index in ((entry["place"], pidx), (entry["transition"], tidx)):
            if not (isinstance(name, str) and name in index):
                raise FormatError(f"arc references unknown node {name!r}")
        p, t = pidx[entry["place"]], tidx[entry["transition"]]
        arc = (p, t, entry["kind"])
        if arc in seen:
            raise FormatError(
                f"duplicate {entry['kind']} arc {entry['place']!r} -> {entry['transition']!r}"
            )
        seen.add(arc)
        weight = entry.get("weight", 1)
        if is_count(weight) and weight < 1:
            raise FormatError(
                f"{entry['kind']} arc {entry['place']!r} -> {entry['transition']!r}"
                f" has weight {weight}; an arc's weight is at least 1"
            )
        mats[entry["kind"]][p, t] = weight
    try:
        return dataclasses.replace(net, pre=mats["pre"], post=mats["post"], inh=mats["inhibitor"])
    except ValueError as exc:
        raise FormatError(f"bad net document: {exc}") from exc


# -- pub/sub params -----------------------------------------------------

def params_to_document(params: PubSubParams) -> dict:
    return dataclasses.asdict(params)


def params_from_document(doc: dict) -> PubSubParams:
    return _construct(PubSubParams, doc, "params document")


def _unique_keys(pairs):
    # the object_pairs_hook of every loader: json.loads would let the last
    # of two equal keys overwrite the first without a word
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise FormatError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def _decode(text: str, what: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what}: not valid JSON ({exc})") from exc
    except FormatError as exc:
        raise FormatError(f"{what}: {exc}") from exc


def load_json(path):
    """Read one JSON document from a UTF-8 file (RFC 8259), whatever the locale."""
    with open(path, encoding="utf-8") as fh:
        return _decode(fh.read(), path)


def load_model_file(path) -> SpnNet | PubSubParams:
    """Read a model file: a net document or a pub/sub params document."""
    doc = load_json(path)
    if isinstance(doc, dict) and "places" in doc:
        return net_from_document(doc)
    return params_from_document(doc)


# -- policy and trace ---------------------------------------------------

def policy_from_document(doc: dict) -> MonitorPolicy:
    return _construct(MonitorPolicy, doc, "policy document")


def read_trace(lines) -> list[WorkloadSnapshot]:
    """Parse a workload trace: one JSON object per line with keys
    t, publishers, subscribers, events; timestamps strictly increasing."""
    snapshots = []
    last_t = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        what = f"trace line {lineno}"
        doc = _decode(line, what)
        _require_keys(doc, ("t", "publishers", "subscribers", "events"), what=what)
        try:
            snap = WorkloadSnapshot(
                doc["t"], doc["publishers"], doc["subscribers"], doc["events"]
            )
        except ValueError as exc:
            raise FormatError(f"{what}: {exc}") from exc
        if last_t is not None and snap.timestamp <= last_t:
            raise FormatError(f"{what}: timestamps must strictly increase")
        last_t = snap.timestamp
        snapshots.append(snap)
    return snapshots


# -- outputs ------------------------------------------------------------

def report_to_document(report: MetricsReport) -> dict:
    return dataclasses.asdict(report)


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
        "stop_reason": record.stop_reason,
        "actions": list(record.actions),
        "before": report_to_document(record.before) if record.before else None,
        "after": report_to_document(record.after) if record.after else None,
    }
