import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats

from spnperf import simulator
from spnperf.simulator import (
    default_metrics,
    estimate_metrics,
    simulate_run,
    student_t_quantile,
)
from nets import mm1k_net, self_loop_net, simple_net, two_state_net


def test_poisson_firing_count():
    # Poisson oracle: mean 1000, sd ~31.6; a seeded run stays within 4 sigma
    run = simulate_run(self_loop_net(rate=1.0), horizon=1000.0, warmup=0.0, seed=7)
    assert abs(run.firing_counts["loop"] - 1000) <= 127
    assert not run.deadlocked


def test_symmetric_chain_time_fractions():
    run = simulate_run(two_state_net(1.0, 1.0), horizon=20_000.0, warmup=0.0, seed=3)
    assert run.mean_tokens["Low"] == pytest.approx(0.5, abs=0.03)
    assert run.mean_tokens["High"] == pytest.approx(0.5, abs=0.03)


def test_same_seed_is_bit_identical():
    a = simulate_run(mm1k_net(1.0, 2.0, 2), horizon=500.0, seed=11)
    b = simulate_run(mm1k_net(1.0, 2.0, 2), horizon=500.0, seed=11)
    assert a == b


def test_different_seeds_differ():
    a = simulate_run(mm1k_net(1.0, 2.0, 2), horizon=500.0, seed=11)
    b = simulate_run(mm1k_net(1.0, 2.0, 2), horizon=500.0, seed=12)
    assert a != b


def test_race_win_fraction():
    # one token, two competing transitions with rates 2 and 1; the fast one
    # wins with probability 2/3 (binomial 3-sigma bound over 400 races)
    net = simple_net(
        [("p", 1), ("a", 0), ("b", 0)],
        [("fast", 2.0), ("slow", 1.0)],
        [
            ("p", "fast", "pre", 1),
            ("a", "fast", "post", 1),
            ("p", "slow", "pre", 1),
            ("b", "slow", "post", 1),
        ],
    )
    n = 400
    wins = sum(
        simulate_run(net, horizon=100.0, warmup=0.0, seed=s).firing_counts["fast"]
        for s in range(n)
    )
    p = 2 / 3
    assert abs(wins / n - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_deadlock_reported():
    net = simple_net(
        [("a", 1), ("b", 0)],
        [("t", 1.0)],
        [("a", "t", "pre", 1), ("b", "t", "post", 1)],
    )
    run = simulate_run(net, horizon=100.0, warmup=0.0, seed=0)
    assert run.deadlocked
    # the marking freezes at (0,1) for nearly the whole horizon
    assert run.mean_tokens["b"] == pytest.approx(1.0, abs=0.1)

    est = estimate_metrics(net, horizon=100.0, warmup=0.0, replications=3, base_seed=0)
    assert est.deadlock_runs == 3


def test_estimate_interval_contains_closed_form_queue_length():
    est = estimate_metrics(
        mm1k_net(1.0, 2.0, 2), horizon=2000.0, warmup=200.0, replications=30, base_seed=1
    )
    mean, hw = est.metrics["mean_tokens:Queue"]
    assert abs(mean - 4 / 7) <= hw


def test_two_replications_use_t_quantile_df1():
    net = two_state_net(1.0, 1.0)
    est = estimate_metrics(net, horizon=100.0, warmup=0.0, replications=2, base_seed=5)
    runs = [simulate_run(net, 100.0, 0.0, seed=5 + i) for i in range(2)]
    vals = np.array([r.mean_tokens["Low"] for r in runs])
    tq = scipy.stats.t.ppf(0.975, 1)
    expected = tq * vals.std(ddof=1) / math.sqrt(2)
    assert est.metrics["mean_tokens:Low"][1] == pytest.approx(expected, rel=1e-12)


def test_zero_variance_metric_has_zero_half_width():
    # an isolated place holds exactly one token in every run
    net = simple_net(
        [("p", 1), ("const", 1)],
        [("loop", 1.0)],
        [("p", "loop", "pre", 1), ("p", "loop", "post", 1)],
    )
    est = estimate_metrics(net, horizon=50.0, warmup=0.0, replications=5, base_seed=2)
    mean, hw = est.metrics["mean_tokens:const"]
    assert mean == 1.0
    assert hw == 0.0


def test_replications_must_be_at_least_two():
    with pytest.raises(ValueError):
        estimate_metrics(self_loop_net(), horizon=10.0, replications=1)


def test_replications_must_be_an_integer():
    with pytest.raises(ValueError, match="replications"):
        estimate_metrics(self_loop_net(), horizon=10.0, replications=2.5)


@pytest.mark.parametrize("seed", [None, True, 2.5, -1, 2**63])
def test_a_seed_must_be_a_count(seed):
    # None would draw OS entropy and True would run as seed 1: the seed
    # must fix the output, so only an integer from 0 to 2**63 - 1 is taken
    net = self_loop_net()
    expected = rf"must be an integer from 0 to 2\*\*63 - 1, got {seed!r}$"
    with pytest.raises(ValueError, match="^seed " + expected):
        simulate_run(net, 5.0, seed=seed)
    with pytest.raises(ValueError, match="^base_seed " + expected):
        estimate_metrics(net, 5.0, base_seed=seed)


def test_the_last_replication_seed_is_checked_before_any_run(monkeypatch):
    # seed 2**63 - 2 passes, but the third replication's would not
    runs = []
    monkeypatch.setattr(simulator, "simulate_run", lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ValueError, match=rf"^base_seed \+ replications - 1 .*, got {2**63}$"):
        estimate_metrics(self_loop_net(), 5.0, replications=3, base_seed=2**63 - 2)
    assert runs == []


def test_an_infinite_horizon_is_refused():
    # with warmup 0 an infinite horizon passes 0 <= warmup < horizon, and the
    # event loop would never end: run it in a child process that fails the
    # test by timing out instead of hanging it
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    script = (
        "import math\n"
        "from nets import self_loop_net\n"
        "from spnperf.simulator import estimate_metrics, simulate_run\n"
        "for run in (simulate_run, estimate_metrics):\n"
        "    try:\n"
        "        run(self_loop_net(), horizon=math.inf, warmup=0.0)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["horizon must be finite, got inf"] * 2


def test_default_metrics_cover_all_nodes():
    net = mm1k_net(1.0, 2.0, 2)
    assert set(default_metrics(net)) == {
        "throughput:arrive",
        "throughput:serve",
        "mean_tokens:Free",
        "mean_tokens:Queue",
    }


def test_invalid_net_is_refused():
    from spnperf.net import InvalidNetError

    with pytest.raises(InvalidNetError, match="negative initial tokens"):
        simple_net([("p", -1)], [("t", 1.0)], [("p", "t", "pre", 1)])


@pytest.mark.parametrize("horizon", [True, "10", None])
def test_a_horizon_must_be_a_real_number(horizon):
    # True would run to 1.0, and "10" or None would fail with a TypeError
    message = f"^horizon must be a real number, got {re.escape(repr(horizon))}$"
    for run in (simulate_run, estimate_metrics):
        with pytest.raises(ValueError, match=message):
            run(self_loop_net(), horizon)


@pytest.mark.parametrize("warmup", [True, False, "1"])
def test_a_warmup_must_be_a_real_number(warmup):
    # True and False would run as warm-ups of 1 and 0
    message = f"^warmup must be a real number, got {re.escape(repr(warmup))}$"
    for run in (simulate_run, estimate_metrics):
        with pytest.raises(ValueError, match=message):
            run(self_loop_net(), 5.0, warmup)


@pytest.mark.parametrize("warmup", [10.0, 20.0])
def test_warmup_must_end_before_the_horizon(warmup):
    with pytest.raises(ValueError, match="warmup"):
        simulate_run(mm1k_net(1.0, 2.0, 2), horizon=10.0, warmup=warmup)


def test_student_t_quantile_matches_stdtrit_for_df_up_to_1000():
    for df in range(1, 1001):
        want = float(scipy.special.stdtrit(df, 0.975))
        assert student_t_quantile(df, 0.975) == pytest.approx(want, rel=1e-13, abs=0), df


@pytest.mark.parametrize("p", [0.025, 0.1, 0.5, 0.6, 0.9, 0.995])
@pytest.mark.parametrize("df", [1, 2, 3, 7, 29, 300])
def test_student_t_quantile_at_other_probabilities(df, p):
    want = float(scipy.special.stdtrit(df, p))
    assert student_t_quantile(df, p) == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("df", [1001, 4096, 10**4, 54321, 10**5])
def test_student_t_quantile_stays_fast_and_accurate_for_large_df(df):
    start = time.perf_counter()
    got = student_t_quantile(df, 0.975)
    elapsed = time.perf_counter() - start
    assert got == pytest.approx(float(scipy.special.stdtrit(df, 0.975)), rel=1e-12, abs=0)
    assert elapsed < 0.05


@pytest.mark.parametrize("df,p", [(0, 0.975), (1, 0.0), (1, 1.0), (2, float("nan"))])
def test_student_t_quantile_refuses_out_of_range_arguments(df, p):
    with pytest.raises(ValueError):
        student_t_quantile(df, p)
