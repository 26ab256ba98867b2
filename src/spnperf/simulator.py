"""Discrete-event simulation of an SPN, the independent oracle for the solver.

At every marking the enabled transitions race with freshly sampled
exponential delays (memoryless, so equivalent to next-reaction scheduling);
the minimum-delay transition fires.  Randomness comes from numpy's PCG64
generator seeded per run, so a (net, horizon, warmup, seed) quadruple fully
determines the output on any platform; the seed is an integer from 0 to
2**63 - 1.

Each run draws standard exponentials in blocks of ``DRAW_BLOCK`` and scales
them by the racing transitions' mean delays 1/rate.  numpy's
``exponential(scale)`` is ``scale * standard_exponential()`` over the same
stream, so every delay equals the one a per-event ``rng.exponential(scales)``
would give; the draws left over when a run ends are never used.

The event loop hashes no marking.  A ``_MarkingTable``, which all
replications of one ``estimate_metrics`` call share, gives each marking a
row id and an entry: its row, its enabled transitions, their scales and
links to its successors' entries.  The links are resolved on the entry's
first visit, and the successors that are new to the table are asked of the
firing kernel as one block.  An event only races the scales, records its
row, its time and the transition that fired, and follows a link.  A visit
that leaves fewer free entries than the net has transitions makes the run
refill early, drawing nothing: it reduces, empties the table and goes on.

Token time and firing counts are reduced once per draw block, over the
events recorded since the last one.  Event i's span is
``clip(min(t_i, horizon) - max(t_{i-1}, warmup), 0)``; the rows of marking
times span are summed down the event axis by ``np.add.accumulate`` with
the running totals as the first row.  That is a strictly sequential sum per
place in event order, and an empty place or a span outside the window adds
``x * 0.0 = 0.0``, which changes no sum: every total equals the one a loop
adding ``x * span`` per marked place would give.  Counts are a
``bincount`` of the transitions fired in (warmup, horizon].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .net import SpnNet, enabling_degree, is_count, is_real


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
#: markings a marking table holds (about 0.9 kB each, row buffer included,
#: for the 18-place pub/sub net); a run that fills it empties it.  The rows
#: are allocated once, and rows never written are never paged in
MARKING_CACHE_LIMIT = 10_000


def _check_seed(name: str, seed) -> None:
    if not (is_count(seed) and seed >= 0):
        raise ValueError(f"{name} must be an integer from 0 to 2**63 - 1, got {seed!r}")


class _MarkingTable:
    """Markings -> entries ``[row, enabled, scales, links]``, shared by the
    replications of one ``estimate_metrics`` call.

    ``row`` indexes ``marks``, the markings as int64 rows.  ``links`` is
    None until the entry's first visit, then the successors' entries in
    ``enabled`` order.  ``simulate_run`` keeps the table within
    ``MARKING_CACHE_LIMIT`` markings by emptying it with ``restart``.
    """

    __slots__ = ("net", "entries", "marks")

    def __init__(self, net: SpnNet):
        self.net = net
        self.entries = {}
        # a run may start on a full table; a visit enters <= n_transitions
        rows = max(MARKING_CACHE_LIMIT, net.n_transitions) + 1
        self.marks = np.empty((rows, net.n_places), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.entries)

    def enter(self, markings) -> list:
        """Entries for markings the table lacks: their rows are written and
        handed to the firing kernel as one block."""
        first = len(self.entries)
        block = self.marks[first : first + len(markings)]
        block[:] = markings
        degree = enabling_degree(self.net, block)
        rates = self.net.base_rates * degree
        out = []
        for row, (m, d, r) in enumerate(zip(markings, degree, rates), first):
            ts = np.flatnonzero(d)
            entry = self.entries[m] = [row, tuple(ts.tolist()), (1.0 / r[ts]).tolist(), None]
            out.append(entry)
        return out

    def visit(self, entry: list) -> list:
        """Resolve ``entry``'s links in place, and return them."""
        row, enabled = entry[0], entry[1]
        successors = list(map(tuple, (self.net.delta[list(enabled)] + self.marks[row]).tolist()))
        new = [m for m in dict.fromkeys(successors) if m not in self.entries]
        if new:
            self.enter(new)
        entry[3] = [self.entries[m] for m in successors]
        return entry[3]

    def restart(self, entry: list) -> list:
        """Empty the table and enter ``entry``'s marking again."""
        self.entries = {}
        return self.enter([tuple(self.marks[entry[0]].tolist())])[0]


def _reduce(marks, rows, times, fired, start, warmup, horizon, token_time, counts):
    """Add the recorded events' token time and in-window firings; the
    first event's sojourn began at ``start``.  Returns the new token time."""
    n = len(times)
    t1 = np.fromiter(times, float, n)
    t0 = np.empty(n)
    t0[0] = start
    t0[1:] = t1[:-1]
    span = np.minimum(t1, horizon) - np.maximum(t0, warmup)
    np.maximum(span, 0.0, out=span)
    acc = np.empty((n + 1, token_time.size))
    acc[0] = token_time
    np.multiply(marks[np.fromiter(rows, np.intp, n)], span[:, None], out=acc[1:])
    np.add.accumulate(acc, axis=0, out=acc)
    inside = (t1 > warmup) & (t1 <= horizon)
    counts += np.bincount(np.fromiter(fired, np.intp, n)[inside], minlength=counts.size)
    return acc[-1]


def simulate_run(
    net: SpnNet,
    horizon: float,
    warmup: float | None = None,
    seed: int = 0,
    *,
    _cache: _MarkingTable | None = None,
) -> RunResult:
    """Simulate one trajectory over [0, horizon].

    Statistics (firing counts and time-weighted token averages) cover the
    window (warmup, horizon].  ``warmup`` defaults to 10% of the horizon.
    ``seed`` is an integer from 0 to 2**63 - 1.  A deadlock freezes the
    marking for the remaining time.  ``_cache`` is the marking table
    ``estimate_metrics`` shares between its replications.
    """
    # True would run to 1.0: a time is a float or a count, nothing else
    if not is_real(horizon):
        raise ValueError(f"horizon must be a real number, got {horizon!r}")
    if not math.isfinite(horizon):  # the event loop would never reach it
        raise ValueError(f"horizon must be finite, got {horizon!r}")
    if warmup is None:
        warmup = 0.1 * horizon
    elif not is_real(warmup):
        raise ValueError(f"warmup must be a real number, got {warmup!r}")
    if not (0 <= warmup < horizon):
        raise ValueError("warmup must satisfy 0 <= warmup < horizon")
    _check_seed("seed", seed)

    rng = np.random.default_rng(seed)
    table = _MarkingTable(net) if _cache is None else _cache
    m = net.initial_marking()
    entry = table.entries.get(m) or table.enter([m])[0]
    n_max = net.n_transitions
    token_time = np.zeros(net.n_places)
    counts = np.zeros(n_max, dtype=np.int64)
    rows, times, fired = [], [], []
    add_row, add_time, add_fired = rows.append, times.append, fired.append
    start = now = 0.0
    draws = []
    pos = 0
    last = -1  # refill once pos > last, i.e. fewer than n_max draws are left
    deadlocked = False

    while True:
        if pos > last:
            # reduce the events so far, then draw; a full table is emptied
            # only here, so no row is reused while still recorded
            if times:
                token_time = _reduce(
                    table.marks, rows, times, fired, start, warmup, horizon, token_time, counts
                )
                start = times[-1]
                rows.clear()
                times.clear()
                fired.clear()
            if len(table) + n_max > MARKING_CACHE_LIMIT:
                entry = table.restart(entry)
            draws = draws[pos:]
            pos = 0
            while len(draws) < n_max:
                draws += rng.standard_exponential(DRAW_BLOCK).tolist()
            last = len(draws) - n_max
        row, enabled, scales, links = entry
        if links is None:
            links = table.visit(entry)
            if len(table) + n_max > MARKING_CACHE_LIMIT:
                last = -1  # too full for the next visit: refill early
        n = len(scales)
        if not n:
            # a deadlocked marking's next event is at +inf: it holds to the horizon
            deadlocked = True
            add_row(row)
            add_time(math.inf)
            add_fired(0)  # never counted: +inf lies past the horizon
            break
        # the first minimum wins, as argmin picks it
        k = 0
        delay = draws[pos] * scales[0]
        for i in range(1, n):
            d = draws[pos + i] * scales[i]
            if d < delay:
                k = i
                delay = d
        pos += n
        now += delay
        add_row(row)
        add_time(now)
        add_fired(enabled[k])
        if now >= horizon:
            break
        entry = links[k]

    token_time = _reduce(table.marks, rows, times, fired, start, warmup, horizon, token_time, counts)
    window = horizon - warmup
    return RunResult(
        firing_counts=dict(zip((t.name for t in net.transitions), counts.tolist())),
        mean_tokens=dict(zip((p.name for p in net.places), (token_time / window).tolist())),
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
    """Independent replications with seeds base_seed .. base_seed+n-1
    (integers from 0 to 2**63 - 1), estimating every ``default_metrics`` entry.

    Half-widths use the Student-t 97.5% quantile with ``replications - 1``
    degrees of freedom.
    """
    if not (is_count(replications) and replications >= 2):
        raise ValueError(f"replications must be an integer >= 2, got {replications!r}")
    _check_seed("base_seed", base_seed)
    # the last replication's seed, refused before any replication runs
    _check_seed("base_seed + replications - 1", base_seed + replications - 1)

    cache = _MarkingTable(net)
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
