"""The simulator's event loop against a numpy-per-event oracle.

The oracle is the earlier event loop: one ``rng.exponential(scales)`` call
per event, ``argmin`` for the winner, a marking cache per run and token time
accumulated as a numpy vector over every place.  The simulator draws
standard exponentials in blocks, picks the winner over Python floats,
follows links between marking-table entries, reduces token time and counts
once per draw block and shares one marking table between the replications
of an ``estimate_metrics`` call.  None of that may change a result, so
every comparison here is ``==``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spnperf import simulator
from spnperf.net import enabling_degree
from spnperf.pubsub import PubSubParams, build_pubsub_net
from spnperf.simulator import RunResult, estimate_metrics, simulate_run
from nets import deadlock_net, mm1k_net, self_loop_net, simple_net
from test_explore_oracle import (
    bounded_nets,
    inhibitor_net,
    mint_net,
    priority_net,
    weighted_infinite_server_net,
)


def oracle_run(net, horizon, warmup=None, seed=0, *, events=None, _cache=None):
    """The earlier loop; appends (event time, racing transitions) to ``events``.

    ``_cache`` takes the argument ``estimate_metrics`` passes and ignores
    it: the oracle keeps a cache per run.
    """
    if warmup is None:
        warmup = 0.1 * horizon
    rng = np.random.default_rng(seed)
    cache = {}
    m = net.initial_marking()
    now = 0.0
    counts = np.zeros(net.n_transitions, dtype=np.int64)
    token_time = np.zeros(net.n_places)
    while now < horizon:
        info = cache.get(m)
        if info is None:
            arr = np.array(m, dtype=np.int64)
            degree = enabling_degree(net, arr[None, :])[0]
            ts = np.flatnonzero(degree)
            info = cache[m] = (ts, 1.0 / (net.base_rates * degree)[ts], arr)
        ts, scales, arr = info
        deadlocked = ts.size == 0
        if deadlocked:
            nxt = np.inf
        else:
            delays = rng.exponential(scales)
            k = int(delays.argmin())
            nxt = now + float(delays[k])
        if events is not None:
            events.append((nxt, ts.size))
        span = min(nxt, horizon) - max(now, warmup)
        if span > 0:
            token_time += arr * span
        if nxt > horizon:
            break
        if nxt > warmup:
            counts[ts[k]] += 1
        m = tuple((arr + net.delta[ts[k]]).tolist())
        now = nxt
    window = horizon - warmup
    return RunResult(
        firing_counts={t.name: int(c) for t, c in zip(net.transitions, counts)},
        mean_tokens={p.name: float(x / window) for p, x in zip(net.places, token_time)},
        observed_time=window,
        deadlocked=deadlocked,
    )


def oracle_estimate(monkeypatch, net, *args, **kwargs):
    # estimate_metrics calls simulate_run by its module name, so the same
    # reduction runs over the oracle's replications
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "simulate_run", oracle_run)
        return estimate_metrics(net, *args, **kwargs)


NETS = {
    "pubsub": lambda: build_pubsub_net(PubSubParams()),
    "priority": priority_net,
    "inhibitor": inhibitor_net,
    "weighted_is": weighted_infinite_server_net,
    "deadlock": deadlock_net,
}


@pytest.mark.parametrize("name", sorted(NETS))
@pytest.mark.parametrize("warmup", [0.0, 13.7, None])
def test_runs_equal_the_oracle(name, warmup):
    net = NETS[name]()
    for seed in range(3):
        expected = oracle_run(net, 150.0, warmup, seed)
        assert simulate_run(net, 150.0, warmup, seed) == expected


@pytest.mark.parametrize("name", sorted(NETS))
def test_estimates_equal_the_oracle(monkeypatch, name):
    net = NETS[name]()
    args = (net, 120.0, 10.0, 6, 40)
    assert estimate_metrics(*args) == oracle_estimate(monkeypatch, *args)


def test_pubsub_estimate_at_the_default_horizon_equals_the_oracle(monkeypatch):
    net = build_pubsub_net(PubSubParams())
    args = (net, 1000.0, None, 4, 987)
    assert estimate_metrics(*args) == oracle_estimate(monkeypatch, *args)


def test_warmup_ending_mid_event():
    net = self_loop_net(rate=1.0)
    warmup = 2.5
    events = []
    expected = oracle_run(net, 40.0, warmup, seed=4, events=events)
    times = [0.0] + [t for t, _n in events]
    # one sojourn starts before the warmup ends and finishes after it
    assert any(a < warmup < b for a, b in zip(times, times[1:]))
    assert simulate_run(net, 40.0, warmup, seed=4) == expected


def test_run_crossing_several_draw_blocks():
    net = build_pubsub_net(PubSubParams())
    events = []
    expected = oracle_run(net, 1000.0, 100.0, seed=8, events=events)
    assert sum(n for _t, n in events) > 3 * simulator.DRAW_BLOCK
    assert simulate_run(net, 1000.0, 100.0, seed=8) == expected


def test_blocked_standard_exponentials_reproduce_the_exponential_stream():
    # the simulator relies on numpy's exponential(scale) being
    # scale * standard_exponential() over the same stream; a numpy release
    # that breaks this must fail here rather than change the output
    scales = [np.array([0.5, 2.0, 1.0 / 3.0]), np.array([7.25]), np.array([0.1, 1e-3])]
    per_event = np.random.default_rng(2024)
    expected = [
        per_event.exponential(s) for _ in range(3000) for s in scales
    ]
    blocked = np.random.default_rng(2024)
    draws = []
    got = []
    for _ in range(3000):
        for s in scales:
            n = len(s)
            if len(draws) < n:
                draws += blocked.standard_exponential(simulator.DRAW_BLOCK).tolist()
            got.append([d * x for d, x in zip(draws[:n], s.tolist())])
            del draws[:n]
    # 18,000 values, drawn in five blocks
    assert [e.tolist() for e in expected] == got


class UnitDraws:
    """A generator whose every standard exponential is 1.0, so equal rates tie."""

    def __init__(self, seed):
        pass

    def standard_exponential(self, size):
        return np.ones(size)

    def exponential(self, scale):
        return np.asarray(scale) * 1.0


def test_a_tie_goes_to_the_first_enabled_transition(monkeypatch):
    # argmin's rule: of equal delays the lowest transition index wins
    net = simple_net(
        [("idle", 1), ("busy", 0)],
        [("first", 2.0), ("second", 2.0), ("back", 1.0)],
        [
            ("idle", "first", "pre", 1), ("busy", "first", "post", 1),
            ("idle", "second", "pre", 1), ("busy", "second", "post", 1),
            ("busy", "back", "pre", 1), ("idle", "back", "post", 1),
        ],
    )
    monkeypatch.setattr(np.random, "default_rng", UnitDraws)
    run = simulate_run(net, 20.0, 0.0)
    assert run == oracle_run(net, 20.0, 0.0)
    assert run.firing_counts["second"] == 0 < run.firing_counts["first"]


@settings(max_examples=100, deadline=None)
@given(
    bounded_nets(),
    st.sampled_from([0.0, 2.3, None]),
    st.integers(0, 2**32 - 1),
)
def test_random_bounded_nets_equal_the_oracle(net, warmup, seed):
    assert simulate_run(net, 25.0, warmup, seed) == oracle_run(net, 25.0, warmup, seed)


def test_mm1k_estimate_shares_one_cache_per_call(monkeypatch):
    caches = []
    real_run = simulator.simulate_run

    def spy(*args, _cache, **kwargs):
        caches.append(_cache)
        return real_run(*args, _cache=_cache, **kwargs)

    monkeypatch.setattr(simulator, "simulate_run", spy)
    net = mm1k_net(1.0, 2.0, 3)
    estimate_metrics(net, 50.0, replications=3)
    estimate_metrics(net, 50.0, replications=2)
    assert caches[0] is caches[1] is caches[2]
    assert caches[3] is caches[4] and caches[3] is not caches[0]


def spy_restarts(monkeypatch):
    # the marking table's size at each restart, which empties it
    seen = []
    real_restart = simulator._MarkingTable.restart

    def spy(table, entry):
        seen.append(len(table))
        return real_restart(table, entry)

    monkeypatch.setattr(simulator._MarkingTable, "restart", spy)
    return seen


def test_unbounded_net_keeps_the_cache_at_its_cap(monkeypatch):
    # the mint net visits a new marking at every event, so the cache fills
    # up, is emptied and fills again
    limit = 40
    monkeypatch.setattr(simulator, "MARKING_CACHE_LIMIT", limit)
    sizes = []
    real_run = simulator.simulate_run

    def spy(*args, _cache, **kwargs):
        result = real_run(*args, _cache=_cache, **kwargs)
        sizes.append(len(_cache))
        return result

    net = mint_net()
    args = (net, 200.0, 20.0, 4, 3)
    expected = oracle_estimate(monkeypatch, *args)
    monkeypatch.setattr(simulator, "simulate_run", spy)
    restarts = spy_restarts(monkeypatch)
    assert estimate_metrics(*args) == expected
    assert len(sizes) == 4 and max(sizes) <= limit
    assert restarts
    assert expected.metrics["mean_tokens:p"][0] > 2 * limit


def test_a_bounded_net_restarts_its_full_table(monkeypatch):
    # room for 100 of the pub/sub net's 1,260 markings: the table is emptied
    # again and again, and the runs come back to markings they have seen
    limit = 100
    monkeypatch.setattr(simulator, "MARKING_CACHE_LIMIT", limit)
    sizes = []
    real_visit = simulator._MarkingTable.visit

    def spy(table, entry):
        links = real_visit(table, entry)
        sizes.append(len(table))
        return links

    args = (build_pubsub_net(PubSubParams()), 1000.0, None, 4, 987)
    expected = oracle_estimate(monkeypatch, *args)
    restarts = spy_restarts(monkeypatch)
    monkeypatch.setattr(simulator._MarkingTable, "visit", spy)
    assert estimate_metrics(*args) == expected
    assert restarts and max(restarts) <= limit
    assert len(sizes) > len(restarts) and max(sizes) <= limit


def test_a_cap_below_the_transition_count_equals_the_oracle(monkeypatch):
    # a visit may enter 13 pub/sub markings into a table with room for 1:
    # the table is emptied at the next event, every event
    monkeypatch.setattr(simulator, "MARKING_CACHE_LIMIT", 1)
    args = (build_pubsub_net(PubSubParams()), 50.0, None, 2, 5)
    assert estimate_metrics(*args) == oracle_estimate(monkeypatch, *args)


def spy_reductions(monkeypatch):
    # (events, marking-table rows) of each reduction of token time and counts
    seen = []
    real_reduce = simulator._reduce

    def spy(marks, rows, times, *args):
        seen.append((len(times), len(marks)))
        return real_reduce(marks, rows, times, *args)

    monkeypatch.setattr(simulator, "_reduce", spy)
    return seen


@pytest.mark.parametrize("name", ["pubsub", "inhibitor", "deadlock"])
def test_small_draw_blocks_equal_the_oracle(monkeypatch, name):
    # 7 draws per refill, fewer than the pub/sub net's 13 transitions: the
    # events are reduced every few events, and a refill may need two blocks
    monkeypatch.setattr(simulator, "DRAW_BLOCK", 7)
    seen = spy_reductions(monkeypatch)
    net = NETS[name]()
    for seed in range(3):
        expected = oracle_run(net, 150.0, 13.7, seed)
        assert simulate_run(net, 150.0, 13.7, seed) == expected
    sizes = [events for events, _rows in seen]
    if expected.deadlocked:
        # one firing, then the deadlock's hold to the horizon: two events
        assert sizes == [2] * 3
    else:
        assert len(sizes) > 300 and max(sizes) <= 7 + net.n_transitions


def test_small_draw_blocks_restart_a_full_table(monkeypatch):
    # each mint-net event meets a new marking, so the table of 40 fills and
    # is emptied at a refill, each 7 events or so, after the reduction that
    # reads its rows; its row buffer is allocated once, with 41 rows
    monkeypatch.setattr(simulator, "DRAW_BLOCK", 7)
    monkeypatch.setattr(simulator, "MARKING_CACHE_LIMIT", 40)
    seen = spy_reductions(monkeypatch)
    args = (mint_net(), 200.0, 20.0, 3, 11)
    expected = oracle_estimate(monkeypatch, *args)
    assert estimate_metrics(*args) == expected
    assert len(seen) > 60
    assert max(rows for _events, rows in seen) < 2 * (40 + 8)
    assert expected.metrics["mean_tokens:p"][0] > 2 * 40


def test_first_estimate_discovers_successors_in_blocks(monkeypatch):
    # a new marking's successors reach the firing kernel as one block, so
    # the kernel is asked fewer times than the table gains markings
    calls = []
    real_kernel = simulator.enabling_degree

    def spy(net, markings):
        calls.append(len(markings))
        return real_kernel(net, markings)

    tables = []
    real_run = simulator.simulate_run

    def keep(*args, _cache, **kwargs):
        tables.append(_cache)
        return real_run(*args, _cache=_cache, **kwargs)

    monkeypatch.setattr(simulator, "enabling_degree", spy)
    monkeypatch.setattr(simulator, "simulate_run", keep)
    estimate_metrics(build_pubsub_net(PubSubParams()), 1000.0, replications=2)
    assert len(calls) < len(tables[0]) == sum(calls)


def test_run_memory_does_not_grow_with_the_horizon():
    # events are recorded per draw block and then reduced, so a run holds
    # O(DRAW_BLOCK) of them at any time, not O(events)
    net = self_loop_net(rate=1.0)
    simulate_run(net, 100.0, 0.0, seed=1)  # allocations made once per process
    peaks = []
    for horizon in (2e4, 2e5):
        tracemalloc.start()
        run = simulate_run(net, horizon, 0.0, seed=1)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert run.firing_counts["loop"] > 0.9 * horizon
    assert peaks[1] < peaks[0] + 64 * 1024
