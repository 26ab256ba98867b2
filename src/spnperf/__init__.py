"""spnperf: stochastic Petri net performance toolkit for pub/sub broker models."""

from .net import (
    INFINITE_SERVER,
    SINGLE_SERVER,
    Place,
    SpnNet,
    Transition,
)
from .reachability import Ctmc, check_place_invariant, explore
from .solver import (
    MetricsReport,
    StationaryDistribution,
    mean_token_count,
    response_time_little,
    steady_state,
    transition_throughput,
)
from .simulator import estimate_metrics, simulate_run
from .pubsub import (
    PubSubParams,
    build_pubsub_net,
    headline_metrics,
    p_invariants,
    set_factor,
)

__version__ = "0.1.0"
