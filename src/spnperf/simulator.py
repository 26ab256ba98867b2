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
import sys
from dataclasses import dataclass

import numpy as np

from .net import SpnNet, enabled_rates, is_count, validate_net
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
    # what the event loop needs of marking m, which the cache lacks, asked of
    # the firing kernel: the enabled transitions, their mean delays (1/rate)
    # as floats, the successor of each and the marked places as (place,
    # tokens) pairs; stored while the cache has room (caching changes no result)
    arr = np.array(m, dtype=np.int64)
    enabled, rates = enabled_rates(net, arr[None, :])
    ts = np.flatnonzero(enabled[0])
    successors = [tuple(row) for row in (arr + net.delta[ts]).tolist()]
    marked = [(p, x) for p, x in enumerate(m) if x]
    entry = (tuple(ts.tolist()), (1.0 / rates[0, ts]).tolist(), successors, marked)
    if len(cache) < MARKING_CACHE_LIMIT:
        cache[m] = entry
    return entry


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
    if not math.isfinite(horizon):  # the event loop would never reach it
        raise ValueError(f"horizon must be finite, got {horizon!r}")
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


_EPS = sys.float_info.epsilon


def _log_gamma_ratio(a: float) -> float:
    """``log(Γ(a + 1/2) / Γ(a))`` for ``a >= 1/2``, to a few ulps."""
    # raise a to 10 or more by Γ(a + 1/2)/Γ(a) = a/(a + 1/2) Γ(a + 3/2)/Γ(a + 1),
    # then take the difference of Stirling's series at a + 1/2 and at a;
    # math.lgamma(a + 0.5) - math.lgamma(a) would lose digits to cancellation
    scale = 1.0
    while a < 10.0:
        scale *= a / (a + 0.5)
        a += 1.0
    b = a + 0.5
    series = sum(
        c * (b ** (1 - 2 * k) - a ** (1 - 2 * k))
        for k, c in enumerate((1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188), 1)
    )
    return 0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5) + series + math.log(scale)


def _t_density(t: float, df: float) -> float:
    # Γ((df + 1)/2) / (sqrt(df π) Γ(df/2)) (1 + t²/df)^(-(df + 1)/2)
    return math.exp(
        _log_gamma_ratio(0.5 * df)
        - 0.5 * math.log(df * math.pi)
        - 0.5 * (df + 1) * math.log1p(t * t / df)
    )


def _t_tail(t: float, df: float) -> float:
    """``P(T > t)`` for Student's t with ``df`` degrees of freedom and ``t > 0``.

    The tail is ``I_x(df/2, 1/2) / 2`` with ``x = df / (df + t²)``, the
    regularised incomplete beta function.
    """
    a = 0.5 * df
    u = t * t / df
    x, y = 1.0 / (1.0 + u), u / (1.0 + u)  # y = 1 - x, without cancellation
    # x^a y^(1/2) / B(a, 1/2), where B(a, 1/2) = sqrt(π) Γ(a) / Γ(a + 1/2)
    front = math.exp(
        -a * math.log1p(u) + 0.5 * math.log(y) + _log_gamma_ratio(a) - 0.5 * math.log(math.pi)
    )
    if x < 0.9:
        # the continued fraction of I_x(a, 1/2), by the modified Lentz method;
        # nearer x = 1 its first terms cancel
        c, d = 1.0, 1.0 / (1.0 - (a + 0.5) * x / (a + 1.0))
        h = d
        m = 1
        while True:
            for num in (
                m * (0.5 - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                -(a + m) * (a + 0.5 + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
            ):
                d = 1.0 / (1.0 + num * d)
                c = 1.0 + num / c
                h *= c * d
            if not abs(c * d - 1.0) > _EPS:
                return 0.5 * front / a * h
            m += 1
    # (1 - I_y(1/2, a)) / 2, by the power series of I_y(1/2, a): its terms
    # are all positive, and fewer the larger df is
    term = total = 1.0
    n = 0
    while term > _EPS * total:
        term *= (a + 0.5 + n) * y / (1.5 + n)
        total += term
        n += 1
    return 0.5 - front * total


def student_t_quantile(df: int, p: float) -> float:
    """The ``p`` quantile of Student's t distribution with ``df`` degrees of freedom.

    Within about 1e-14 relative of ``scipy.special.stdtrit`` for df 1 to
    1000 and p from 0.6 to 0.995; at p = 0.975 it takes about 0.1 ms for
    any df.  It uses only ``math``, so that the CLI need not import
    ``scipy.special``.
    """
    if not (df >= 1 and 0.0 < p < 1.0):
        raise ValueError(f"need df >= 1 and 0 < p < 1, got df={df!r}, p={p!r}")
    if p < 0.5:
        return -student_t_quantile(df, 1.0 - p)
    if p == 0.5:
        return 0.0
    q = 1.0 - p
    # Newton's method on the tail, from t = 0 where the tail is 1/2: the
    # tail is convex for t > 0, so every step lands left of the root and t
    # rises; rounding noise ends it with a step that points back or vanishes
    t = (0.5 - q) / _t_density(0.0, df)
    while True:
        step = (_t_tail(t, df) - q) / _t_density(t, df)
        if not t + step > t:
            return t
        t += step


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
    if not (is_count(replications) and replications >= 2):
        raise ValueError(f"replications must be an integer >= 2, got {replications!r}")

    cache = {}
    runs = [
        simulate_run(net, horizon, warmup, seed=base_seed + i, _cache=cache)
        for i in range(replications)
    ]
    deadlock_runs = sum(r.deadlocked for r in runs)
    tq = student_t_quantile(replications - 1, 0.975)
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
