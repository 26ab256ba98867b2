"""The whole pipeline against product-form closed queueing networks.

A closed cyclic network of single-server and infinite-server (delay)
stations is an SPN with one place and one transition per station, and its
exact mean response times and throughput follow from mean value analysis
(``nets.mva``) in O(KN) operations, at any number of states.  So these
tests check explore, the stationary solve, ``chain_metrics`` and Little's
law together on chains far larger than a dense reference allows.
"""

import numpy as np
import pytest

from spnperf.monitor import solve_model
from spnperf.net import INFINITE_SERVER, SINGLE_SERVER
from spnperf.solver import response_time_little
from nets import closed_network_net, mva

RTOL = 1e-12


@pytest.mark.parametrize(
    "stations, customers, first, n_states",
    [(4, 30, INFINITE_SERVER, 5456), (6, 20, SINGLE_SERVER, 53130)],
    ids=["delay-5456", "single-53130"],
)
def test_cyclic_network_matches_mean_value_analysis(stations, customers, first, n_states):
    rates = (10.0 ** np.random.default_rng(7).uniform(-1, 1, stations)).tolist()
    kinds = [first] + [SINGLE_SERVER] * (stations - 1)
    ctmc, dist, report = solve_model(closed_network_net(rates, kinds, customers))
    assert ctmc.n_states == n_states
    assert dist.method == "iterative"
    times, throughput = mva(rates, kinds, customers)
    for i, expected in enumerate(times):
        got = report.transition_throughputs[f"s{i}"]
        assert got == pytest.approx(throughput, rel=RTOL, abs=0.0)
        assert response_time_little(report.mean_tokens[f"q{i}"], got) == pytest.approx(
            expected, rel=RTOL, abs=0.0
        )
