"""Small nets shared across the test suite."""

import math

import numpy as np

from spnperf import pubsub
from spnperf.net import INFINITE_SERVER, Place, SpnNet, Transition, SINGLE_SERVER


def simple_net(places, transitions, arcs, inh_arcs=()):
    """Build a net from short specs.

    places: [(name, tokens)]; transitions: [(name, rate)] or
    [(name, rate, priority, semantics)]; arcs: [(place, transition, kind, weight)]
    with kind "pre"/"post"; inh_arcs: [(place, transition, threshold)].
    """
    ps = tuple(Place(n, k) for n, k in places)
    ts = []
    for spec in transitions:
        name, rate = spec[0], spec[1]
        prio = spec[2] if len(spec) > 2 else 0
        sem = spec[3] if len(spec) > 3 else SINGLE_SERVER
        ts.append(Transition(name, rate, prio, sem))
    ts = tuple(ts)
    pidx = {p.name: i for i, p in enumerate(ps)}
    tidx = {t.name: i for i, t in enumerate(ts)}
    pre = np.zeros((len(ps), len(ts)), dtype=np.int64)
    post = np.zeros_like(pre)
    inh = np.zeros_like(pre)
    for p, t, kind, w in arcs:
        {"pre": pre, "post": post}[kind][pidx[p], tidx[t]] = w
    for p, t, thr in inh_arcs:
        inh[pidx[p], tidx[t]] = thr
    return SpnNet(ps, ts, pre, post, inh)


def mm1k_net(lam, mu, k):
    """M/M/1/K queue as an SPN: Free holds spare capacity, Queue the customers."""
    return simple_net(
        [("Free", k), ("Queue", 0)],
        [("arrive", lam), ("serve", mu)],
        [
            ("Free", "arrive", "pre", 1),
            ("Queue", "arrive", "post", 1),
            ("Queue", "serve", "pre", 1),
            ("Free", "serve", "post", 1),
        ],
    )


def stiff_cycle_net():
    """One token around A -> B -> C -> A at rates 1e-200, 1 and 1e200: pi
    spans 400 orders of magnitude, past float64's range, and a Gauss-Seidel
    sweep from the uniform vector overflows at once."""
    return simple_net(
        [("A", 1), ("B", 0), ("C", 0)],
        [("ab", 1e-200), ("bc", 1.0), ("ca", 1e200)],
        [
            ("A", "ab", "pre", 1), ("B", "ab", "post", 1),
            ("B", "bc", "pre", 1), ("C", "bc", "post", 1),
            ("C", "ca", "pre", 1), ("A", "ca", "post", 1),
        ],
    )


def mm1k_pi(lam, mu, k):
    """Closed-form M/M/1/K stationary queue-length distribution."""
    rho = lam / mu
    pis = np.array([rho**n for n in range(k + 1)], dtype=float)
    return pis / pis.sum()


def mm1k_log_pi(lam, mu, k):
    """Natural log of the M/M/1/K distribution, computed in log space.

    ``mm1k_pi`` forms ``rho**n``, which overflows for large K with rho > 1;
    here the weights are scaled by the largest before they are summed, so
    stiff tails (M/M/1/1900, rho = 1.5) neither overflow nor underflow.
    """
    log_w = np.arange(k + 1) * math.log(lam / mu)
    log_w -= log_w.max()
    return log_w - math.log(np.exp(log_w).sum())


def producer_consumer_net():
    """Two places exchanging 2 tokens: states (2,0), (1,1), (0,2)."""
    return simple_net(
        [("A", 2), ("B", 0)],
        [("t1", 1.0), ("t2", 1.0)],
        [
            ("A", "t1", "pre", 1),
            ("B", "t1", "post", 1),
            ("B", "t2", "pre", 1),
            ("A", "t2", "post", 1),
        ],
    )


def two_state_net(up=1.0, down=1.0):
    """Birth-death chain with two states."""
    return simple_net(
        [("Low", 1), ("High", 0)],
        [("up", up), ("down", down)],
        [
            ("Low", "up", "pre", 1),
            ("High", "up", "post", 1),
            ("High", "down", "pre", 1),
            ("Low", "down", "post", 1),
        ],
    )


def self_loop_net(rate=1.0):
    """One place, one pre=post self-loop transition."""
    return simple_net(
        [("P", 1)],
        [("loop", rate)],
        [("P", "loop", "pre", 1), ("P", "loop", "post", 1)],
    )


def deadlock_net():
    """One token moves a -> b once; (0, 1) is a deadlock."""
    return simple_net(
        [("a", 1), ("b", 0)],
        [("t", 1.0)],
        [("a", "t", "pre", 1), ("b", "t", "post", 1)],
    )


def random_rate_params(seed, decades=1):
    """Default pub/sub populations and resources with every rate drawn from
    10^U(-decades, decades), in field order, from ``np.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return pubsub.PubSubParams(
        **{name: 10.0 ** rng.uniform(-decades, decades) for name in pubsub._RATES}
    )


def closed_network_net(rates, kinds, n):
    """A closed cyclic queueing network as an SPN: station i is place ``q{i}``,
    and its service, transition ``s{i}`` at ``rates[i]`` with server semantics
    ``kinds[i]``, moves a customer on to station i + 1, the last to the
    first.  All n customers start at the first station."""
    k = len(rates)
    return simple_net(
        [(f"q{i}", n if i == 0 else 0) for i in range(k)],
        [(f"s{i}", rate, 0, kind) for i, (rate, kind) in enumerate(zip(rates, kinds))],
        [
            arc
            for i in range(k)
            for arc in ((f"q{i}", f"s{i}", "pre", 1), (f"q{(i + 1) % k}", f"s{i}", "post", 1))
        ],
    )


def mva(rates, kinds, n):
    """Exact mean value analysis (Reiser and Lavenberg 1980) of
    ``closed_network_net(rates, kinds, n)``: each station's mean response
    time and the throughput.  Every station is visited once a cycle; a
    single server's response time is its service time times one plus the
    mean queue an arriving customer finds, the queue of the network with one
    customer fewer, and a delay station's is its service time alone."""
    queue = [0.0] * len(rates)
    for m in range(1, n + 1):
        times = [
            (1.0 if kind == INFINITE_SERVER else 1.0 + q) / rate
            for rate, kind, q in zip(rates, kinds, queue)
        ]
        throughput = m / sum(times)
        queue = [throughput * t for t in times]
    return times, throughput
