"""Small nets shared across the test suite."""

import numpy as np

from spnperf.net import Place, SpnNet, Transition, SINGLE_SERVER


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


def mm1k_pi(lam, mu, k):
    """Closed-form M/M/1/K stationary queue-length distribution."""
    rho = lam / mu
    pis = np.array([rho**n for n in range(k + 1)], dtype=float)
    return pis / pis.sum()


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
