"""How platform sizing factors shape the headline response times.

Sweeps three tunable factors of the pub/sub model -- the network
buffers, the broker memory and the QoS processing rate -- and prints
one table per factor.  All three show the same qualitative story:
more resource (or faster QoS handling) monotonically lowers both the
accept-publication and the end-to-end notification response time,
with diminishing returns once the bottleneck moves elsewhere.
"""

from spnperf import PubSubParams
from spnperf.monitor import solve_model
from spnperf.pubsub import set_factor


def evaluate(params, held):
    ctmc, _dist, report = solve_model(params, held=held)
    return (
        report.response_times["accept_publication_response_time"],
        report.response_times["notification_response_time"],
        ctmc.n_states,
    )


def sweep(title, apply, values):
    print(title)
    print(f"  {'value':>6} {'accept RT':>10} {'notify RT':>10} {'states':>7}")
    held = []  # the table's last chain, re-rated when only a rate changes
    for value in values:
        accept, notify, states = evaluate(apply(PubSubParams(), value), held)
        print(f"  {value!s:>6} {accept:10.4f} {notify:10.4f} {states:>7}")
    print()


sweep(
    "network buffers (receive and send grown together)",
    lambda p, v: set_factor(set_factor(p, "net_recv_buffer", v), "net_send_buffer", v),
    (1, 2, 4, 6, 8, 10),
)
sweep(
    "broker memory",
    lambda p, v: set_factor(p, "broker_memory", v),
    (1, 2, 4, 6, 8, 10),
)
sweep(
    "QoS processing rate r_pub_qos",
    lambda p, v: set_factor(p, "r_pub_qos", v),
    (0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
)
