"""In-memory spans around the public functions of each spnperf layer.

A ``Tracer`` replaces module attributes such as ``spnperf.cli.explore`` with
wrappers that record one span per call: its name, start and end, the span
that was open when it started (its parent) and a few counts read from the
call's result.  Each span is named ``<layer>.<function>`` after the layer
that defines the function, under the name its caller uses; the layers are
the spnperf modules.  Nothing under ``src/`` changes: the wrappers are
installed for a traced call and removed afterwards.

``layer_metrics`` turns the spans of one call into the per-layer metrics
listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# Counts read from a call's result, per wrapped function.
def _explore_attrs(ctmc):
    return {"states": ctmc.n_states, "edges": len(ctmc.edges)}


def _steady_state_attrs(dist):
    return {"method": dist.method, "iterations": dist.iterations,
            "residual": dist.residual}


def _simulate_run_attrs(run):
    return {"firings": sum(run.firing_counts.values()),
            "deadlocked": bool(run.deadlocked)}


def _run_loop_attrs(records):
    return {"snapshots": len(records),
            "actions": sum(len(r.actions) for r in records),
            "outcomes": [r.outcome for r in records]}


# (module, attribute, span name, result -> attrs); one entry per caller.
PATCH_POINTS = (
    ("spnperf.cli", "explore", "reachability.explore", _explore_attrs),
    ("spnperf.monitor", "explore", "reachability.explore", _explore_attrs),
    ("spnperf.cli", "steady_state", "solver.steady_state", _steady_state_attrs),
    ("spnperf.monitor", "steady_state", "solver.steady_state", _steady_state_attrs),
    ("spnperf.cli", "transition_throughput", "solver.transition_throughput", None),
    ("spnperf.pubsub", "transition_throughput", "solver.transition_throughput", None),
    ("spnperf.cli", "mean_token_count", "solver.mean_token_count", None),
    ("spnperf.pubsub", "mean_token_count", "solver.mean_token_count", None),
    ("spnperf.cli", "build_pubsub_net", "pubsub.build_pubsub_net", None),
    ("spnperf.monitor", "build_pubsub_net", "pubsub.build_pubsub_net", None),
    ("spnperf.cli", "headline_metrics", "pubsub.headline_metrics", None),
    ("spnperf.monitor", "headline_metrics", "pubsub.headline_metrics", None),
    ("spnperf.cli", "estimate_metrics", "simulator.estimate_metrics", None),
    ("spnperf.simulator", "simulate_run", "simulator.simulate_run", _simulate_run_attrs),
    ("spnperf.cli", "run_loop", "monitor.run_loop", _run_loop_attrs),
    ("spnperf.monitor", "evaluate", "monitor.evaluate", None),
    # cli calls these as ``files.<name>``, so patching the module suffices
    ("spnperf.files", "load_model_file", "files.load_model_file", None),
    ("spnperf.files", "read_trace", "files.read_trace", None),
    ("spnperf.files", "policy_from_document", "files.policy_from_document", None),
    ("spnperf.files", "report_to_document", "files.report_to_document", None),
    ("spnperf.files", "estimate_to_document", "files.estimate_to_document", None),
    ("spnperf.files", "decision_record_to_document",
     "files.decision_record_to_document", None),
)


class Tracer:
    """Records spans in memory; ``installed()`` patches the layers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        """A span around a block, e.g. the whole CLI call."""
        index = len(self.spans)
        span = Span(name, self._open[-1] if self._open else None,
                    time.perf_counter())
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def _record(self, name, fn, attrs_of):
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs_of is not None:
                span.attrs = attrs_of(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, modules):
        """Patch every PATCH_POINTS entry; ``modules`` maps names to modules."""
        saved = []
        try:
            for mod_name, attr, name, attrs_of in PATCH_POINTS:
                mod = modules[mod_name]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._record(name, fn, attrs_of))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def to_document(self) -> list[dict]:
        return [
            {"id": i, "parent": s.parent, "name": s.name,
             "start": s.start, "end": s.end, "attrs": s.attrs}
            for i, s in enumerate(self.spans)
        ]


def _outermost(spans: list[Span], ids, layer: str):
    """Spans of ``layer`` with no ancestor in the same layer."""
    out = []
    for i in ids:
        s = spans[i]
        if s.layer != layer:
            continue
        p = s.parent
        while p is not None and spans[p].layer != layer:
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out


def _self_time(spans: list[Span], index: int, children: dict) -> float:
    return spans[index].duration - sum(spans[c].duration for c in children.get(index, ()))


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced call (rooted at a ``cli.main`` span).

    A call that raised has no result counts; it contributes only its time.
    """
    ids = range(len(spans))
    children: dict[int, list[int]] = {}
    for i in ids:
        if spans[i].parent is not None:
            children.setdefault(spans[i].parent, []).append(i)

    def named(name):
        return [spans[i] for i in ids if spans[i].name == name]

    def total(layer):
        return sum(s.duration for s in _outermost(spans, ids, layer))

    m = {}
    explores = named("reachability.explore")
    edges = sum(s.attrs.get("edges", 0) for s in explores)
    m["reachability.calls"] = len(explores)
    m["reachability.s"] = sum(s.duration for s in explores)
    m["reachability.states"] = sum(s.attrs.get("states", 0) for s in explores)
    m["reachability.edges"] = edges
    m["reachability.us_per_edge"] = (
        1e6 * m["reachability.s"] / edges if edges else 0.0)
    m["reachability.max_states"] = max(
        (s.attrs.get("states", 0) for s in explores), default=0)

    solves = named("solver.steady_state")
    direct = [s for s in solves if s.attrs.get("method") == "direct"]
    iterative = [s for s in solves if s.attrs.get("method") == "iterative"]
    m["solver.calls"] = len(solves)
    m["solver.s"] = sum(s.duration for s in solves)
    m["solver.direct_calls"] = len(direct)
    m["solver.direct_s"] = sum(s.duration for s in direct)
    m["solver.iterative_calls"] = len(iterative)
    m["solver.iterative_s"] = sum(s.duration for s in iterative)
    m["solver.gs_sweeps"] = sum(s.attrs.get("iterations", 0) for s in iterative)
    m["solver.residual_max"] = max((s.attrs.get("residual", 0) for s in solves), default=0.0)
    m["solver.metrics_s"] = sum(
        s.duration for s in _outermost(spans, ids, "solver")
        if s.name != "solver.steady_state")

    headline = named("pubsub.headline_metrics")
    m["pubsub.build_s"] = sum(s.duration for s in named("pubsub.build_pubsub_net"))
    m["pubsub.metrics_calls"] = len(headline)
    m["pubsub.metrics_s"] = sum(s.duration for s in headline)

    runs = named("simulator.simulate_run")
    run_s = sum(s.duration for s in runs)
    firings = sum(s.attrs.get("firings", 0) for s in runs)
    m["simulator.replications"] = len(runs)
    m["simulator.s"] = total("simulator")
    m["simulator.firings"] = firings
    m["simulator.firings_per_s"] = firings / run_s if run_s else 0.0
    m["simulator.deadlock_runs"] = sum(s.attrs.get("deadlocked", 0) for s in runs)

    loop_ids = [i for i in ids if spans[i].name == "monitor.run_loop"]
    loops = [spans[i] for i in loop_ids]
    outcomes = [o for s in loops for o in s.attrs.get("outcomes", ())]
    m["monitor.snapshots"] = sum(s.attrs.get("snapshots", 0) for s in loops)
    m["monitor.evaluations"] = len(named("monitor.evaluate"))
    m["monitor.evaluate_s"] = sum(s.duration for s in named("monitor.evaluate"))
    m["monitor.self_s"] = sum(_self_time(spans, i, children) for i in loop_ids)
    m["monitor.actions"] = sum(s.attrs.get("actions", 0) for s in loops)
    for outcome in ("compliant", "exhausted_actions", "evaluation_failed"):
        m[f"monitor.outcome.{outcome}"] = outcomes.count(outcome)

    m["files.s"] = total("files")
    (root,) = [i for i in ids if spans[i].name == "cli.main"]
    m["cli.self_s"] = _self_time(spans, root, children)
    return m
