"""Discrete-event simulation of an SPN, the independent oracle for the solver.

At every marking the enabled transitions race with freshly sampled
exponential delays (memoryless, so equivalent to next-reaction scheduling);
the minimum-delay transition fires.  Randomness comes from numpy's PCG64
generator seeded per run, so a (net, horizon, warmup, seed) quadruple fully
determines the output on any platform.

Each run draws standard exponentials in blocks of ``DRAW_BLOCK`` and scales
them by the racing transitions' mean delays 1/rate.  numpy's
``exponential(scale)`` is ``scale * standard_exponential()`` over the same
stream, so every delay equals the one a per-event ``rng.exponential(scales)``
would give; the draws left over when a run ends are never used.  The event
loop itself does only Python float arithmetic: the firing kernel is asked
once per visited marking, and its answer is kept in a marking cache that
all replications of one ``estimate_metrics`` call share.
"""

from __future__ import annotations

import math
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


#: standard exponentials drawn at a time by each run
DRAW_BLOCK = 4096
#: entries a marking cache holds (about 2.3 kB each for the 18-place pub/sub
#: net); markings found once it is full are computed at every visit
MARKING_CACHE_LIMIT = 10_000


def _event_entry(net: SpnNet, m, cache):
    # what the event loop needs of marking m, asked of the firing kernel
    # once: the enabled transitions, their mean delays (1/rate) as floats,
    # the successor of each and the marked places as (place, tokens) pairs;
    # stored while the cache has room (caching changes no result)
    entry = cache.get(m)
    if entry is None:
        arr = np.array(m, dtype=np.int64)
        enabled, rates = enabled_rates(net, arr[None, :])
        ts = np.flatnonzero(enabled[0])
        successors = [tuple(row) for row in (arr + net.delta[ts]).tolist()]
        marked = [(p, x) for p, x in enumerate(m) if x]
        entry = (tuple(ts.tolist()), (1.0 / rates[0, ts]).tolist(), successors, marked)
        if len(cache) < MARKING_CACHE_LIMIT:
            cache[m] = entry
    return entry


def _marking_info(net: SpnNet, m, cache):
    # the event loop's entry for m as arrays: the enabled transitions, their
    # mean delays, the successor of each and the marking
    enabled, scales, successors, _marked = _event_entry(net, m, cache)
    return enabled, np.array(scales), successors, np.array(m, dtype=np.int64)


def simulate_run(
    net: SpnNet,
    horizon: float,
    warmup: float | None = None,
    seed: int = 0,
    *,
    _cache: dict | None = None,
) -> RunResult:
    """Simulate one trajectory over [0, horizon].

    Statistics (firing counts and time-weighted token averages) cover the
    window (warmup, horizon].  ``warmup`` defaults to 10% of the horizon.
    A deadlock freezes the marking for the remaining time.  ``_cache`` is
    the marking cache ``estimate_metrics`` shares between its replications.
    """
    violations = validate_net(net)
    if violations:
        raise InvalidNetError(violations)
    if warmup is None:
        warmup = 0.1 * horizon
    if not (0 <= warmup < horizon):
        raise ValueError("warmup must satisfy 0 <= warmup < horizon")

    rng = np.random.default_rng(seed)
    cache = {} if _cache is None else _cache
    get = cache.get
    m = net.initial_marking()
    now = 0.0
    counts = [0] * net.n_transitions
    token_time = [0.0] * net.n_places
    draws = []
    pos = 0

    while now < horizon:
        entry = get(m)
        if entry is None:
            entry = _event_entry(net, m, cache)
        enabled, scales, successors, marked = entry
        n = len(scales)
        # a deadlocked marking's next event is at +inf: it holds to the horizon
        deadlocked = not n
        if deadlocked:
            nxt = math.inf
        else:
            if pos + n > len(draws):
                draws = draws[pos:] + rng.standard_exponential(DRAW_BLOCK).tolist()
                pos = 0
            # the first minimum wins, as argmin picks it
            k = 0
            delay = draws[pos] * scales[0]
            for i in range(1, n):
                d = draws[pos + i] * scales[i]
                if d < delay:
                    k = i
                    delay = d
            pos += n
            nxt = now + delay
        # min and max, as conditional expressions (cheaper than the calls)
        span = (nxt if nxt < horizon else horizon) - (now if now > warmup else warmup)
        if span > 0:
            # an empty place would add 0 * span, which changes no sum
            for p, x in marked:
                token_time[p] += x * span
        if nxt > horizon:
            break
        if nxt > warmup:
            counts[enabled[k]] += 1
        m = successors[k]
        now = nxt

    window = horizon - warmup
    return RunResult(
        firing_counts={t.name: c for t, c in zip(net.transitions, counts)},
        mean_tokens={p.name: x / window for p, x in zip(net.places, token_time)},
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

    cache = {}
    runs = [
        simulate_run(net, horizon, warmup, seed=base_seed + i, _cache=cache)
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
