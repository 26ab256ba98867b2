"""Command-line surface: analyze, sweep, simulate, monitor, export-net.

Exit codes: 0 success, 2 invalid input (schema, an invalid net or value,
arguments), 3 analysis failure, any ``AnalysisError`` (state explosion,
token overflow, reducible chain, no convergence).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import files
from .monitor import run_loop, solve_model
from .net import AnalysisError, InvalidNetError
from .pubsub import PubSubParams, build_pubsub_net, factor_type, set_factor
from .reachability import DEFAULT_MAX_STATES
from .simulator import default_metrics, estimate_metrics

# Not called here: perfbench/tracing.py times each layer by patching these
# names in this module, so they must stay importable from it.
from .pubsub import headline_metrics  # noqa: F401
from .reachability import explore  # noqa: F401
from .solver import mean_token_count, steady_state, transition_throughput  # noqa: F401

SWEEP_HEADER = "factor,accept_publication_rt,notification_rt,states,residual"


def _checked(convert, valid, expected):
    """An argparse ``type`` that converts the text and rejects invalid values."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_non_negative = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")


def _load_params(path, command: str) -> PubSubParams:
    model = files.load_model_file(path)
    if not isinstance(model, PubSubParams):
        raise files.FormatError(f"{command} requires a pub/sub params file")
    return model


def cmd_analyze(args) -> int:
    ctmc, dist, report = solve_model(files.load_model_file(args.model), args.max_states)
    doc = files.report_to_document(report)
    doc["states"] = ctmc.n_states
    doc["residual"] = dist.residual
    doc["balance_residual"] = dist.balance_residual
    doc["method"] = dist.method
    doc["iterations"] = dist.iterations
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _parse_values(factor: str, text: str) -> list:
    convert = factor_type(factor)  # an unknown factor is named before any value
    values = []
    for item in text.split(","):
        if item.strip():
            try:
                # int and float also read digit groups ("1_0") and non-ASCII digits
                if "_" in item or not item.isascii():
                    raise ValueError
                value = convert(item)
            except ValueError:
                raise ValueError(f"{factor} takes {convert.__name__} values, got {item!r}") from None
            if value in values:
                raise ValueError(f"{factor} value {item!r} is given twice")
            values.append(value)
    return sorted(values)


def cmd_sweep(args) -> int:
    model = _load_params(args.model, "sweep")
    # every point is built before any row is printed, so a bad value exits
    # 2 with nothing on stdout
    values = _parse_values(args.factor, args.values)
    points = [(value, set_factor(model, args.factor, value)) for value in values]

    print(SWEEP_HEADER)
    held = []
    for value, params in points:
        dist, report = solve_model(params, args.max_states, held)[1:]
        times = ["nan" if t is None else repr(t) for t in report.response_times.values()]
        print(",".join([repr(value), *times, str(dist.probabilities.size), repr(dist.residual)]))
    return 0


def cmd_simulate(args) -> int:
    model = files.load_model_file(args.model)
    net = build_pubsub_net(model) if isinstance(model, PubSubParams) else model
    estimate = estimate_metrics(
        net,
        horizon=args.horizon,
        warmup=args.warmup,
        replications=args.replications,
        base_seed=args.seed,
    )
    doc = files.estimate_to_document(estimate)

    try:
        report = solve_model(net, max_states=args.max_states)[2]
    except AnalysisError:
        pass  # no analytic values: the estimates are printed alone
    else:
        analytic = dict(zip(
            default_metrics(net),
            [*report.transition_throughputs.values(), *report.mean_tokens.values()],
        ))
        for name, entry in doc["metrics"].items():
            value = analytic[name]
            entry["analytic"] = value
            entry["inside_ci"] = bool(
                abs(value - entry["mean"]) <= entry["half_width_95"]
            )
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_monitor(args) -> int:
    with open(args.trace, encoding="utf-8") as fh:
        trace = files.read_trace(fh)
    model = _load_params(args.params, "monitor")
    policy = files.policy_from_document(files.load_json(args.policy))
    records = run_loop(trace, model, policy, max_states=args.max_states)
    for record in records:
        print(json.dumps(files.decision_record_to_document(record), sort_keys=True))
    return 0


def cmd_export_net(args) -> int:
    model = _load_params(args.params, "export-net")
    print(json.dumps(files.net_to_document(build_pubsub_net(model)), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spnperf",
        description="Stochastic Petri net performance analysis for pub/sub brokers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="steady-state metrics of a net or params file")
    p.add_argument("model", help="net document or pub/sub params JSON file")
    p.add_argument("--max-states", type=_count, default=DEFAULT_MAX_STATES)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="sweep one influencing factor, CSV output")
    p.add_argument("model", help="pub/sub params JSON file")
    p.add_argument("--factor", required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated values, e.g. 1,2,4,8")
    p.add_argument("--max-states", type=_count, default=DEFAULT_MAX_STATES)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="discrete-event estimates vs analytic values")
    p.add_argument("model", help="net document or pub/sub params JSON file")
    p.add_argument("--horizon", type=_positive, required=True)
    p.add_argument("--warmup", type=_non_negative, default=None)
    p.add_argument("--replications", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-states", type=_count, default=DEFAULT_MAX_STATES)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("monitor", help="run the self-optimizing loop over a trace")
    p.add_argument("trace", help="workload trace, JSON Lines")
    p.add_argument("params", help="pub/sub params JSON file")
    p.add_argument("policy", help="monitor policy JSON file")
    p.add_argument("--max-states", type=_count, default=DEFAULT_MAX_STATES)
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("export-net", help="dump a params file as a net document")
    p.add_argument("params", help="pub/sub params JSON file")
    p.set_defaults(func=cmd_export_net)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (files.FormatError, InvalidNetError, ValueError, KeyError, OSError) as exc:
        print(f"spnperf: error: {exc}", file=sys.stderr)
        return 2
    except AnalysisError as exc:
        print(f"spnperf: analysis failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
