"""Loader contract under fuzzing.

Each case takes a valid net, params, policy or trace document and replaces
one value in it (a leaf, or a nested list or object) with a value from a
fixed pool of JSON values.  A loader must either raise ``FormatError`` or
return an object whose counts are non-bool ``int``s; the CLI must exit 0, 2
or 3, never with a traceback, and on exit 0 print strict JSON.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spnperf import files
from spnperf.cli import main
from spnperf.monitor import ACTIONS
from spnperf.net import is_count, is_real
from spnperf.pubsub import PubSubParams
from nets import mm1k_net

POOL = (True, False, 2.5, -1, 0, "x", None, [], {}, math.nan, math.inf)

#: 60 states: the monitor evaluates it within --max-states 64; at QoS level
#: 2 the policy's lower_qos_level applies
SMALL_PARAMS = PubSubParams(
    n_publishers=1, n_subscribers=1, n_events=1, broker_capacity=2, qos_level=2
)


def valid_documents():
    return {
        "net": files.net_to_document(mm1k_net(1.0, 2.0, 2)),
        "params": files.params_to_document(SMALL_PARAMS),
        "policy": {
            "max_accept_publication_response_time": 2.8,
            "max_notification_response_time": 3.7,
            "action_order": list(ACTIONS),
            "step": 2,
            "qos_reduction_allowed": True,
            "caps": {"net_recv_buffer": 4, "net_send_buffer": 4, "broker_memory": 4},
            "max_actions_per_snapshot": 2,
        },
        "trace": {"t": 1.0, "publishers": 1, "subscribers": 1, "events": 1},
    }


def value_paths(doc, prefix=()):
    """Paths to every value below the root: leaves, lists and objects."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in children:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from value_paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def mutations(draw, kinds=("net", "params", "policy", "trace")):
    docs = valid_documents()
    kind = draw(st.sampled_from(kinds))
    path = draw(st.sampled_from(list(value_paths(docs[kind]))))
    docs[kind] = replaced(docs[kind], path, draw(st.sampled_from(POOL)))
    return kind, docs


def load(kind, doc):
    if kind == "net":
        return files.net_from_document(doc)
    if kind == "params":
        return files.params_from_document(doc)
    if kind == "policy":
        return files.policy_from_document(doc)
    return files.read_trace([json.dumps(doc)])[0]


def check_counts(kind, model):
    if kind == "net":
        assert all(is_count(p.tokens) for p in model.places)
        assert all(is_count(t.priority) and is_real(t.rate) for t in model.transitions)
        assert all(m.dtype == np.int64 for m in (model.pre, model.post, model.inh))
    elif kind == "params":
        for f in dataclasses.fields(PubSubParams):
            if isinstance(f.default, int):
                assert is_count(getattr(model, f.name))
    elif kind == "policy":
        assert all(is_count(v) for v in model.caps.values())
        assert all(is_count(v) for v in (model.step, model.max_actions_per_snapshot))
    else:
        assert isinstance(model.timestamp, float)
        assert all(is_count(v) for v in (model.n_publishers, model.n_subscribers, model.n_events))


@settings(max_examples=300, deadline=None)
@given(mutations())
def test_a_loader_raises_format_error_or_returns_whole_counts(case):
    kind, docs = case
    try:
        model = load(kind, docs[kind])
    except files.FormatError:
        return
    check_counts(kind, model)


def strict_json(text):
    def refuse(constant):
        raise AssertionError(f"non-finite number {constant} in output")

    return json.loads(text, parse_constant=refuse)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--max-states", "64"])
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(mutations())
def test_the_cli_exits_0_2_or_3_and_prints_strict_json(case):
    kind, docs = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in docs}
        for name, doc in docs.items():
            paths[name].write_text(json.dumps(doc) + "\n")
        if kind in ("net", "params"):
            code, out = run_cli("analyze", str(paths[kind]))
            outputs = [out] if code == 0 else []
        else:
            code, out = run_cli(
                "monitor", str(paths["trace"]), str(paths["params"]), str(paths["policy"])
            )
            outputs = out.splitlines() if code == 0 else []
    assert code in (0, 2, 3)
    for text in outputs:
        strict_json(text)
