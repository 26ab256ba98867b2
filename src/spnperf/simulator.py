"""Discrete-event simulation of an SPN, the independent oracle for the solver.

At every marking the enabled transitions race with freshly sampled
exponential delays (memoryless, so equivalent to next-reaction scheduling);
the minimum-delay transition fires.  Randomness comes from numpy's PCG64
generator seeded per run, so a (net, horizon, warmup, seed) quadruple fully
determines the output on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

from .net import SpnNet, enabled_rates, validate_net
from .reachability import InvalidNetError


@dataclass(frozen=True)
class RunResult:
    """Raw statistics of one simulation run (post-warmup window only)."""

    firing_counts: dict
    mean_tokens: dict
    observed_time: float
    deadlocked: bool


@dataclass(frozen=True)
class SimulationEstimate:
    """Replication means with Student-t 95% half-widths per metric."""

    metrics: dict  # name -> (mean, half_width_95)
    replications: int
    deadlock_runs: int


def _marking_info(net: SpnNet, m, cache):
    # enabled transitions, their mean delays (1/rate), the successor of
    # each and the marking as an array, computed once per visited marking
    info = cache.get(m)
    if info is None:
        arr = np.array(m, dtype=np.int64)
        enabled, rates = enabled_rates(net, arr[None, :])
        ts = np.flatnonzero(enabled[0])
        successors = [tuple(row) for row in (arr + net.delta[ts]).tolist()]
        info = (tuple(ts.tolist()), 1.0 / rates[0, ts], successors, arr)
        cache[m] = info
    return info


def simulate_run(
    net: SpnNet,
    horizon: float,
    warmup: float | None = None,
    seed: int = 0,
) -> RunResult:
    """Simulate one trajectory over [0, horizon].

    Statistics (firing counts and time-weighted token averages) cover the
    window (warmup, horizon].  ``warmup`` defaults to 10% of the horizon.
    A deadlock freezes the marking for the remaining time.
    """
    violations = validate_net(net)
    if violations:
        raise InvalidNetError(violations)
    if warmup is None:
        warmup = 0.1 * horizon
    if not (0 <= warmup < horizon):
        raise ValueError("warmup must satisfy 0 <= warmup < horizon")

    rng = np.random.default_rng(seed)
    cache = {}
    m = net.initial_marking()
    now = 0.0
    counts = np.zeros(net.n_transitions, dtype=np.int64)
    token_time = np.zeros(net.n_places)

    while now < horizon:
        enabled, scales, successors, arr = _marking_info(net, m, cache)
        # a deadlocked marking's next event is at +inf: it holds to the horizon
        deadlocked = not enabled
        if deadlocked:
            nxt = np.inf
        else:
            delays = rng.exponential(scales)
            k = int(delays.argmin())
            nxt = now + float(delays[k])
        span = min(nxt, horizon) - max(now, warmup)
        if span > 0:
            token_time += arr * span
        if nxt > horizon:
            break
        if nxt > warmup:
            counts[enabled[k]] += 1
        m = successors[k]
        now = nxt

    window = horizon - warmup
    return RunResult(
        firing_counts={t.name: int(c) for t, c in zip(net.transitions, counts)},
        mean_tokens={p.name: float(x / window) for p, x in zip(net.places, token_time)},
        observed_time=window,
        deadlocked=deadlocked,
    )


def default_metrics(net: SpnNet) -> tuple[str, ...]:
    """Throughput of every transition plus mean tokens of every place."""
    return tuple(f"throughput:{t.name}" for t in net.transitions) + tuple(
        f"mean_tokens:{p.name}" for p in net.places
    )


def estimate_metrics(
    net: SpnNet,
    horizon: float,
    warmup: float | None = None,
    replications: int = 30,
    base_seed: int = 0,
) -> SimulationEstimate:
    """Independent replications with seeds base_seed .. base_seed+n-1,
    estimating every ``default_metrics`` entry.

    Half-widths use the Student-t 97.5% quantile with ``replications - 1``
    degrees of freedom.
    """
    if replications < 2:
        raise ValueError("at least 2 replications are required")

    runs = [
        simulate_run(net, horizon, warmup, seed=base_seed + i)
        for i in range(replications)
    ]
    deadlock_runs = sum(r.deadlocked for r in runs)
    # the Student-t quantile; scipy.stats gives the same value but costs
    # most of the CLI's import time
    tq = float(scipy.special.stdtrit(replications - 1, 0.975))
    # one row per metric, in default_metrics order; each row is reduced on
    # its own, contiguous, so it sums in the same order as a 1-D array
    values = np.array(
        [[r.firing_counts[t.name] / r.observed_time for r in runs] for t in net.transitions]
        + [[r.mean_tokens[p.name] for r in runs] for p in net.places]
    )
    out = {}
    for metric, vals in zip(default_metrics(net), values):
        hw = tq * vals.std(ddof=1) / np.sqrt(replications)
        out[metric] = (float(vals.mean()), float(hw))
    return SimulationEstimate(out, replications, deadlock_runs)
