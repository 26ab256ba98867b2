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

from .net import INFINITE_SERVER, SINGLE_SERVER, Place, SpnNet, Transition, is_count, is_real
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

#: The network buffers, adjusted together by sweeps and the monitor.
NETWORK_BUFFERS = ("net_recv_buffer", "net_send_buffer")

#: The sweepable factors, which ``set_factor`` sets: ``PubSubParams`` fields,
#: and ``network_buffer``, which sets both network buffers to one value.  The
#: monitor's actions adjust only the buffers, the broker memory and
#: ``qos_level``, which is no sweep factor.
FACTOR_NAMES = (
    "network_buffer", *NETWORK_BUFFERS, "broker_memory", "broker_capacity",
    "received_event_capacity", "r_pub_qos",
)

#: QoS level -> multiplier applied to the base QoS processing rate, the
#: level-1 rate ``r_pub_qos``.  Lower levels mean less delivery bookkeeping,
#: hence faster processing.
QOS_LEVEL_RATE_FACTOR = {0: 4.0, 1: 1.0, 2: 0.5}


@dataclass(frozen=True)
class PubSubParams:
    """Populations, resource capacities and rates of the broker model.

    The defaults are the toolkit's calibration: small enough for desk-scale
    exact analysis, with the network buffers acting as the bottleneck.
    ``qos_level`` is a key of ``QOS_LEVEL_RATE_FACTOR``; ``build_pubsub_net``
    alone turns it into the QoS processing rate.
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
    qos_level: int = 1
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
        # each field is checked by its declared type, which this module's
        # postponed annotations keep as a string
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name == "qos_level":
                if not (is_count(v) and v in QOS_LEVEL_RATE_FACTOR):
                    raise ValueError(
                        f"qos_level must be one of {sorted(QOS_LEVEL_RATE_FACTOR)}, got {v!r}"
                    )
            elif f.type == "int":
                if not (is_count(v) and v >= 1):
                    raise ValueError(f"{f.name} must be a positive integer, got {v!r}")
            elif not (is_real(v) and v > 0.0 and np.isfinite(v)):
                raise ValueError(f"{f.name} must be a positive rate, got {v!r}")


_RATES = tuple(f.name for f in dataclasses.fields(PubSubParams) if f.type == "float")


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
        rate = getattr(params, rate_field)
        if rate_field == "r_pub_qos":
            rate *= QOS_LEVEL_RATE_FACTOR[params.qos_level]
        transitions.append(Transition(name, rate, 0, semantics))
    return SpnNet(places, tuple(transitions), pre, post)


# label -> places whose token total is conserved (weight 1 each)
_P_INVARIANTS = (
    ("publishers", ("PublishersIdle", "PubConnecting", "PublishersConnected")),
    ("subscribers", ("SubscribersIdle", "SubConnecting", "SubscribersConnected", "Subscribed")),
    ("broker_capacity", ("BrokerCapacity", "PublishersConnected", "SubscribersConnected", "Subscribed")),
    ("events", ("EventToPublish", "PubRequest", "PubAccepted", "PublishedEvent", "SubQoSProcessing")),
    ("recv_buffer", ("NetworkReceiveBuffer", "PubAccepted")),
    ("send_buffer", ("NetworkSendBuffer", "SubQoSProcessing")),
    ("broker_memory", ("BrokerMemory", "PubAccepted", "PublishedEvent", "SubQoSProcessing")),
    ("received_event_capacity", ("ReceivedEventCapacity", "SubQoSProcessing")),
    ("topics", ("Topics",)),
)


def p_invariants(params: PubSubParams) -> list:
    """Conservation laws of the net as (label, weights, expected) triples;
    ``expected`` is the weighted token count of the initial marking."""
    init = _initial_tokens(params)
    return [
        (
            label,
            np.array([name in names for name in PLACE_NAMES], dtype=np.int64),
            sum(init.get(name, 0) for name in names),
        )
        for label, names in _P_INVARIANTS
    ]


#: Headline response time -> places a publication occupies from issuance
#: until that time ends: QoS processing done for acceptance, subscriber
#: consumption for notification, so the notification time always dominates.
#: ``MonitorPolicy`` holds each time's threshold as ``max_<name>``.
RESPONSE_TIMES = (
    ("accept_publication_response_time", ("PubRequest", "PubAccepted")),
    ("notification_response_time", ("PubRequest", "PubAccepted", "PublishedEvent", "SubQoSProcessing")),
)


def headline_metrics(ctmc: Ctmc, dist: StationaryDistribution) -> MetricsReport:
    """``chain_metrics`` plus the two Little's-law response times, each the
    mean token count of its places over the publish throughput."""
    report = chain_metrics(ctmc, dist)
    publish = report.transition_throughputs["publish"]
    times = {}
    for name, places in RESPONSE_TIMES:
        # left to right, not sum(), which Python 3.12 made compensated
        population = 0.0
        for place in places:
            population += report.mean_tokens[place]
        times[name] = response_time_little(population, publish)
    return dataclasses.replace(report, response_times=times)


def _factor_fields(factor: str) -> tuple:
    if factor not in FACTOR_NAMES:
        raise ValueError(f"unknown factor {factor!r}; expected one of {FACTOR_NAMES}")
    return NETWORK_BUFFERS if factor == "network_buffer" else (factor,)


def factor_type(factor: str) -> type:
    """``int`` or ``float``: the declared type of the fields a factor sets.
    An unknown factor raises ``ValueError``, as in ``set_factor``."""
    return float if _factor_fields(factor)[0] in _RATES else int


def set_factor(params: PubSubParams, factor: str, value) -> PubSubParams:
    """Return new params with one factor of ``FACTOR_NAMES`` changed;
    ``PubSubParams`` checks the value's type and range."""
    return dataclasses.replace(params, **dict.fromkeys(_factor_fields(factor), value))

