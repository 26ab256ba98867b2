"""Parametric publish/subscribe broker net and its headline metrics.

The net composes four behaviors over shared resource places: client
connection/disconnection, topic subscription, publication and subscriber
notification.  Events cycle: publish -> broker accept -> QoS processing ->
notify -> consume -> back to the publishable pool, so the net is bounded
and its CTMC finite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .net import INFINITE_SERVER, SINGLE_SERVER, Place, SpnNet, Transition
from .reachability import Ctmc
from .solver import (
    MetricsReport,
    StationaryDistribution,
    chain_metrics,
    response_time_little,
)

# Not called here: perfbench/tracing.py times the solver layer by patching
# these names in this module, so they must stay importable from it.
from .solver import mean_token_count, transition_throughput  # noqa: F401

_POPULATIONS = ("n_publishers", "n_subscribers", "n_topics", "n_events")
_RESOURCE_FACTORS = (
    "broker_capacity",
    "broker_memory",
    "net_recv_buffer",
    "net_send_buffer",
    "received_event_capacity",
)
_RATES = (
    "r_connect_pub",
    "r_connect_sub",
    "r_accept_conn",
    "r_disconnect_pub",
    "r_disconnect_sub",
    "r_subscribe",
    "r_unsubscribe",
    "r_publish",
    "r_accept_pub",
    "r_pub_qos",
    "r_notify",
    "r_consume",
)

#: Factors the self-optimizer may adjust.
FACTOR_NAMES = (
    "net_recv_buffer",
    "net_send_buffer",
    "broker_memory",
    "broker_capacity",
    "received_event_capacity",
    "r_pub_qos",
)

#: QoS level -> multiplier applied to the base QoS processing rate.
#: Lower levels mean less delivery bookkeeping, hence faster processing.
QOS_LEVEL_RATE_FACTOR = {0: 4.0, 1: 1.0, 2: 0.5}


@dataclass(frozen=True)
class PubSubParams:
    """Populations, resource capacities and rates of the broker model.

    The defaults are the toolkit's calibration: small enough for desk-scale
    exact analysis, with the network buffers acting as the bottleneck.
    """

    n_publishers: int = 2
    n_subscribers: int = 2
    n_topics: int = 1
    n_events: int = 3
    broker_capacity: int = 4
    broker_memory: int = 2
    net_recv_buffer: int = 1
    net_send_buffer: int = 1
    received_event_capacity: int = 2
    r_connect_pub: float = 1.0
    r_connect_sub: float = 1.0
    r_accept_conn: float = 5.0
    r_disconnect_pub: float = 0.1
    r_disconnect_sub: float = 0.1
    r_subscribe: float = 1.0
    r_unsubscribe: float = 0.1
    r_publish: float = 2.0
    r_accept_pub: float = 4.0
    r_pub_qos: float = 1.0
    r_notify: float = 4.0
    r_consume: float = 2.0

    def __post_init__(self):
        for name in _POPULATIONS + _RESOURCE_FACTORS:
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        for name in _RATES:
            v = getattr(self, name)
            if not (float(v) > 0.0 and np.isfinite(v)):
                raise ValueError(f"{name} must be a positive rate, got {v!r}")


PLACE_NAMES = (
    "PublishersIdle",
    "PubConnecting",
    "PublishersConnected",
    "SubscribersIdle",
    "SubConnecting",
    "SubscribersConnected",
    "Subscribed",
    "BrokerCapacity",
    "Topics",
    "EventToPublish",
    "PubRequest",
    "PubAccepted",
    "PublishedEvent",
    "SubQoSProcessing",
    "BrokerMemory",
    "NetworkReceiveBuffer",
    "NetworkSendBuffer",
    "ReceivedEventCapacity",
)

# name -> (inputs, outputs, rate field, semantics); self-loops list a place
# on both sides.
_TRANSITION_TABLE = (
    ("connectPub", ("PublishersIdle",), ("PubConnecting",), "r_connect_pub", INFINITE_SERVER),
    ("acceptPubConn", ("PubConnecting", "BrokerCapacity"), ("PublishersConnected",), "r_accept_conn", SINGLE_SERVER),
    ("disconnectPub", ("PublishersConnected",), ("PublishersIdle", "BrokerCapacity"), "r_disconnect_pub", SINGLE_SERVER),
    ("connectSub", ("SubscribersIdle",), ("SubConnecting",), "r_connect_sub", INFINITE_SERVER),
    ("acceptSubConn", ("SubConnecting", "BrokerCapacity"), ("SubscribersConnected",), "r_accept_conn", SINGLE_SERVER),
    ("disconnectSub", ("SubscribersConnected",), ("SubscribersIdle", "BrokerCapacity"), "r_disconnect_sub", SINGLE_SERVER),
    ("subscribe", ("SubscribersConnected", "Topics"), ("Subscribed", "Topics"), "r_subscribe", INFINITE_SERVER),
    ("unsubscribe", ("Subscribed",), ("SubscribersConnected",), "r_unsubscribe", SINGLE_SERVER),
    ("publish", ("PublishersConnected", "EventToPublish"), ("PublishersConnected", "PubRequest"), "r_publish", INFINITE_SERVER),
    ("acceptPub", ("PubRequest", "BrokerMemory", "NetworkReceiveBuffer"), ("PubAccepted",), "r_accept_pub", SINGLE_SERVER),
    ("pubQoSProcessing", ("PubAccepted",), ("PublishedEvent", "NetworkReceiveBuffer"), "r_pub_qos", SINGLE_SERVER),
    ("notify", ("PublishedEvent", "NetworkSendBuffer", "ReceivedEventCapacity", "Subscribed"), ("SubQoSProcessing", "Subscribed"), "r_notify", SINGLE_SERVER),
    ("consume", ("SubQoSProcessing",), ("EventToPublish", "NetworkSendBuffer", "BrokerMemory", "ReceivedEventCapacity"), "r_consume", SINGLE_SERVER),
)

TRANSITION_NAMES = tuple(row[0] for row in _TRANSITION_TABLE)


def _initial_tokens(params: PubSubParams) -> dict:
    return {
        "PublishersIdle": params.n_publishers,
        "SubscribersIdle": params.n_subscribers,
        "BrokerCapacity": params.broker_capacity,
        "Topics": params.n_topics,
        "EventToPublish": params.n_events,
        "BrokerMemory": params.broker_memory,
        "NetworkReceiveBuffer": params.net_recv_buffer,
        "NetworkSendBuffer": params.net_send_buffer,
        "ReceivedEventCapacity": params.received_event_capacity,
    }


def build_pubsub_net(params: PubSubParams) -> SpnNet:
    """Build the canonical 18-place, 13-transition publish/subscribe net."""
    init = _initial_tokens(params)
    places = tuple(Place(name, init.get(name, 0)) for name in PLACE_NAMES)
    pidx = {name: i for i, name in enumerate(PLACE_NAMES)}

    n_p, n_t = len(PLACE_NAMES), len(_TRANSITION_TABLE)
    pre = np.zeros((n_p, n_t), dtype=np.int64)
    post = np.zeros((n_p, n_t), dtype=np.int64)
    transitions = []
    for j, (name, inputs, outputs, rate_field, semantics) in enumerate(_TRANSITION_TABLE):
        for p in inputs:
            pre[pidx[p], j] += 1
        for p in outputs:
            post[pidx[p], j] += 1
        transitions.append(Transition(name, getattr(params, rate_field), 0, semantics))
    return SpnNet(places, tuple(transitions), pre, post)


def p_invariants(params: PubSubParams) -> list:
    """Conservation laws of the net as (label, weights, expected) triples."""
    def weights(*names):
        w = np.zeros(len(PLACE_NAMES), dtype=np.int64)
        for n in names:
            w[PLACE_NAMES.index(n)] = 1
        return w

    return [
        ("publishers", weights("PublishersIdle", "PubConnecting", "PublishersConnected"),
         params.n_publishers),
        ("subscribers", weights("SubscribersIdle", "SubConnecting", "SubscribersConnected", "Subscribed"),
         params.n_subscribers),
        ("broker_capacity", weights("BrokerCapacity", "PublishersConnected", "SubscribersConnected", "Subscribed"),
         params.broker_capacity),
        ("events", weights("EventToPublish", "PubRequest", "PubAccepted", "PublishedEvent", "SubQoSProcessing"),
         params.n_events),
        ("recv_buffer", weights("NetworkReceiveBuffer", "PubAccepted"),
         params.net_recv_buffer),
        ("send_buffer", weights("NetworkSendBuffer", "SubQoSProcessing"),
         params.net_send_buffer),
        ("broker_memory", weights("BrokerMemory", "PubAccepted", "PublishedEvent", "SubQoSProcessing"),
         params.broker_memory),
        ("received_event_capacity", weights("ReceivedEventCapacity", "SubQoSProcessing"),
         params.received_event_capacity),
        ("topics", weights("Topics"), params.n_topics),
    ]


def headline_metrics(ctmc: Ctmc, dist: StationaryDistribution) -> MetricsReport:
    """``chain_metrics`` plus the two Little's-law response times.

    accept_publication_response_time covers a publication from issuance
    until QoS processing completes; notification_response_time covers a
    publication from issuance until subscriber consumption, so it always
    dominates the acceptance time.  A zero throughput leaves the
    corresponding time undefined (``None``).
    """
    report = chain_metrics(ctmc, dist)
    tokens = report.mean_tokens
    publish = report.transition_throughputs["publish"]
    accepting = tokens["PubRequest"] + tokens["PubAccepted"]
    notifying = accepting + tokens["PublishedEvent"] + tokens["SubQoSProcessing"]

    # zero throughput marks the metric undefined even for an empty pipeline:
    # it signals a dead configuration, not an instantaneous one
    def little(population):
        return response_time_little(population, publish) if publish > 0 else None

    return dataclasses.replace(
        report,
        response_times={
            "accept_publication_response_time": little(accepting),
            "notification_response_time": little(notifying),
        },
    )


def set_factor(params: PubSubParams, factor: str, value) -> PubSubParams:
    """Return new params with one influencing factor changed."""
    if factor not in FACTOR_NAMES:
        raise ValueError(f"unknown factor {factor!r}; expected one of {FACTOR_NAMES}")
    if factor == "r_pub_qos":
        value = float(value)
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"r_pub_qos must be a positive rate, got {value!r}")
    else:
        value = int(value)
        if value < 1:
            raise ValueError(f"{factor} must be a positive integer, got {value!r}")
    return dataclasses.replace(params, **{factor: value})


def qos_rate(base_rate: float, level: int) -> float:
    """QoS processing rate at a discrete QoS level, from the base (level 1) rate."""
    if level not in QOS_LEVEL_RATE_FACTOR:
        raise ValueError(f"QoS level must be one of {sorted(QOS_LEVEL_RATE_FACTOR)}")
    return base_rate * QOS_LEVEL_RATE_FACTOR[level] / QOS_LEVEL_RATE_FACTOR[1]
