"""Machine-speed probe that the end-to-end times are scaled by.

On a shared VM the machine's speed drifts with its neighbours' load. On the
2-vCPU Xeon (2.1 GHz) the benchmark was defined on, the 3-second block
medians of one fixed ring solve ranged over 1.7x within 90 seconds, in CPU
time as well as wall time, with no steal time recorded; whole runs landed
in faster or slower minutes, so raw wall times of two runs of the same code
differed by more than any useful regression bound.

A fixed pure-Python probe (maximum-adjacency order over a fixed graph with
``heapq``, the same kind of dict, list and heap work symcut does) slows down
with the machine. The benchmark runs it between operations and scales each
operation's wall time by ``REFERENCE_MS`` over the mean of the probes on
either side of it: the result is the time the operation would have taken on
a machine where the probe takes ``REFERENCE_MS``. In a six-minute
recording of interleaved solves and probes on that machine, scaling cut
the quartile spread of 24-second window medians from 18 % to 3 % (rings)
and from 14 % to 4 % (hypergraphs).

The probe is independent of symcut and of the workload seed, so a change to
symcut moves the scaled times in the same proportion as the raw ones.
"""

import heapq
import random
from time import perf_counter_ns

# the probe's median time on the machine above; scaled times are in ms at
# this probe speed
REFERENCE_MS = 2.0
PROBE_N = 400
PROBE_DEGREE = 8
PROBE_SEED = 20240101


def _probe_graph():
    rng = random.Random(PROBE_SEED)
    adjacency = [{} for _ in range(PROBE_N)]
    for u in range(PROBE_N):
        for _ in range(PROBE_DEGREE // 2):
            v = rng.randrange(PROBE_N)
            if v != u:
                w = rng.randint(1, 10)
                adjacency[u][v] = adjacency[v][u] = w
    return adjacency


def _max_adjacency_order(adjacency):
    key = [0] * len(adjacency)
    seen = [False] * len(adjacency)
    heap = [(0, 0)]
    order = []
    while heap:
        k, u = heapq.heappop(heap)
        if seen[u] or -k != key[u]:
            continue
        seen[u] = True
        order.append(u)
        for v, w in adjacency[u].items():
            if not seen[v]:
                key[v] += w
                heapq.heappush(heap, (-key[v], v))
    return order


class Probe:
    """Times the fixed probe; keeps every time it measured."""

    def __init__(self, warmup=5):
        self._adjacency = _probe_graph()
        self.times = []
        for _ in range(warmup):
            self.run()
        self.times.clear()

    def run(self):
        """Run the probe once; returns its wall time in ns."""
        start = perf_counter_ns()
        _max_adjacency_order(self._adjacency)
        elapsed = perf_counter_ns() - start
        self.times.append(elapsed)
        return elapsed


def scaled(raw_ns, probe_before_ns, probe_after_ns):
    """`raw_ns` in ns at the reference probe speed."""
    return raw_ns * REFERENCE_MS * 2e6 / (probe_before_ns + probe_after_ns)
