"""Seeded instance families and the three benchmark workloads.

Every instance is drawn from the workload seed and its slot in the
workload, so one seed always yields the same inputs. Sizes are fixed per
slot: the seed changes structure, not scale, which keeps run-to-run
medians comparable across seeds.

Why each workload exists is recorded in BENCHMARK.json; the sizes and
the reasons for them are in the comments on the size constants below.
"""

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass

from symcut import (GraphCutOracle, HypergraphCutOracle, MinimizeConfig,
                    WeightedGraph, cli, driver, gen_random_hypergraph,
                    graph_cut_table, write_graph, write_hypergraph,
                    write_table)


def instance_seed(seed, slot):
    """Seed of one instance: distinct per (workload seed, slot)."""
    return seed * 1000 + slot


def sparse_graph(n, degree, seed, float_weights=False):
    """Connected graph with about n*degree/2 edges, no parallel edges.

    A random spanning tree (each vertex of a random order attaches to an
    earlier one) plus uniformly random extra edges. This is O(n + m), where
    ``gen_random_graph`` walks all n^2/2 vertex pairs. Weights are integers
    in 1..10, or two-decimal floats in [1, 10] with ``float_weights``.
    """
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pairs = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        pairs.add((min(u, v), max(u, v)))
    target = min(n * (n - 1) // 2, max(n - 1, n * degree // 2))
    while len(pairs) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    if float_weights:
        return WeightedGraph(n, [(u, v, round(rng.uniform(1, 10), 2))
                                 for u, v in sorted(pairs)])
    return WeightedGraph(n, [(u, v, rng.randint(1, 10)) for u, v in sorted(pairs)])


def noisy_ring(n, chord_frac, seed):
    """Ring with weights 5..10 plus round(chord_frac*n) chords of weight 1..2.

    The chords are light, so the minimum cut still crosses the ring twice
    and threshold-capped orders rarely find more than one pair to join.
    """
    rng = random.Random(seed)
    edges = [(i, (i + 1) % n, rng.randint(5, 10)) for i in range(n)]
    chords = set()
    while len(chords) < round(chord_frac * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if (u - v) % n not in (0, 1, n - 1):
            chords.add((min(u, v), max(u, v)))
    edges += [(u, v, rng.randint(1, 2)) for u, v in sorted(chords)]
    return WeightedGraph(n, edges)


def random_hypergraph(n, m, seed):
    """``symcut.gen_random_hypergraph`` with weights 1..10 and 2..4 pins."""
    return gen_random_hypergraph(n, m, 10, seed)


def cut_table(n, seed):
    """Cut function of a sparse graph (average degree 4) as an explicit table."""
    return graph_cut_table(sparse_graph(n, 4, seed))


@dataclass
class Instance:
    """One generated input and what solving it needs.

    ``params`` names the generator, its parameters and seed; it keys the
    reference-value cache. ``oracle`` is set on library workloads, ``argv``
    on ``cli-scan``.
    """

    family: str          # "graph" | "hypergraph" | "table"
    params: str
    data: object         # WeightedGraph | Hypergraph | SetFunctionTable
    oracle: object = None
    argv: list = None

    @property
    def n(self):
        return self.data.n

    def text(self):
        """The instance in symcut's file format."""
        writer = {"graph": write_graph, "hypergraph": write_hypergraph,
                  "table": write_table}[self.family]
        return writer(self.data)


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, decoded after the timed loop."""

    best: frozenset
    value: object
    rounds: int


class OperationFailed(Exception):
    """An operation ended without a usable answer (non-zero exit, bad report)."""


QUEUE_CONFIGS = {kind: MinimizeConfig(order_builder="queue", queue_kind=kind)
                 for kind in ("heap", "bucket")}


def solve_library(instance, kind):
    """One ``optimal_set`` call with the queue builder; returns the raw triple."""
    return driver.optimal_set(instance.oracle, instance.n, QUEUE_CONFIGS[kind])


def decode_library(instance, raw):
    best, value, stats = raw
    return Outcome(frozenset(best), value, stats.rounds)


def solve_cli(instance, _config):
    """One in-process ``symcut`` invocation; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(instance.argv)
    return code, out.getvalue()


def decode_cli(instance, raw):
    code, text = raw
    if code != 0:
        raise OperationFailed(f"exit code {code}")
    try:
        report = json.loads(text)
        best = frozenset(v - 1 for v in report["set"])
        return Outcome(best, report["lambda"], report["stats"]["rounds"])
    except (ValueError, KeyError, TypeError) as exc:
        raise OperationFailed(f"unreadable report: {exc!r}") from None


# Instance counts are chosen so that the median and the 90th percentile of
# the solve times fall among operations of similar cost, not on the boundary
# between two groups of instances (where a different seed or leftover
# machine-speed drift moves them from one group to the other). A block of
# passes runs each instance once per configuration.
#
# multijoin: graph n (average degree 10) and hypergraph n (m = 4n). Hypergraph
# solves are the cheaper ones, so with three of them the median lies among
# hypergraph solves and the p90 among bucket-queue graph solves. Sizes are the
# low ends of 1000..2000 and 500..1000: the references (stoer_wagner, maxback)
# grow quadratically and already take about 27 s per seed here.
MULTIJOIN_GRAPHS = (1000, 1000)
MULTIJOIN_HYPERGRAPHS = (500, 500, 500)
# onejoin: (n, chord fraction) per ring. Sizes spread evenly over 250..400, so
# solve times form one broad continuum: the heap/bucket difference and the
# three chord classes leave no gap near the median. How many rounds a ring
# takes depends on where its chords fall, so the median moves with the seed;
# with a cost model of rounds * (n + m) its quartile spread over 12 seeds was
# 11.5 % for 24 rings, 3.2 % for 48 and 2.1 % for 60. A pass of 60 solves
# takes about 10 s, so a 15 s run is one block of two passes, 120 samples.
ONEJOIN_RINGS = tuple((250 + round(150 * i / 59), (0.0, 0.05, 0.10)[i % 3])
                      for i in range(60))
# cli-scan: graph files n=150 (degree 8; every other one with float weights),
# hypergraph files n=100 m=300 (the slowest calls), graph-cut tables n=13..14.
# With fifteen calls per pass, the median falls mid-way into the 8th of them
# in cost order and the p90 mid-way into the 14th.
CLI_GRAPHS = 6
CLI_HYPERGRAPHS = 4
CLI_TABLES = (13, 13, 14, 14, 14)


def setup_multijoin(seed, _workdir):
    graphs, hypers = [], []
    for slot, n in enumerate(MULTIJOIN_GRAPHS):
        s = instance_seed(seed, slot)
        graph = sparse_graph(n, 10, s)
        graphs.append(Instance("graph", f"sparse n={n} degree=10 seed={s}",
                               graph, GraphCutOracle(graph)))
    for slot, n in enumerate(MULTIJOIN_HYPERGRAPHS, start=len(MULTIJOIN_GRAPHS)):
        s = instance_seed(seed, slot)
        hyper = random_hypergraph(n, 4 * n, s)
        hypers.append(Instance("hypergraph", f"random n={n} m={4 * n} seed={s}",
                               hyper, HypergraphCutOracle(hyper)))
    return _interleave(hypers, graphs)


def setup_onejoin(seed, _workdir):
    instances = []
    for slot, (n, frac) in enumerate(ONEJOIN_RINGS):
        s = instance_seed(seed, slot)
        ring = noisy_ring(n, frac, s)
        instances.append(Instance("graph", f"ring n={n} chords={frac} seed={s}",
                                  ring, GraphCutOracle(ring)))
    return instances


def setup_cli_scan(seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    graphs, hypers, tables = [], [], []
    slot = 0
    for i in range(CLI_GRAPHS):
        s = instance_seed(seed, slot)
        floats = i % 2 == 1
        graphs.append(Instance(
            "graph", f"sparse n=150 degree=8 floats={floats} seed={s}",
            sparse_graph(150, 8, s, float_weights=floats)))
        slot += 1
    for _ in range(CLI_HYPERGRAPHS):
        s = instance_seed(seed, slot)
        hypers.append(Instance("hypergraph", f"random n=100 m=300 seed={s}",
                               random_hypergraph(100, 300, s)))
        slot += 1
    for n in CLI_TABLES:
        s = instance_seed(seed, slot)
        tables.append(Instance("table", f"graph-cut n={n} degree=4 seed={s}",
                               cut_table(n, s)))
        slot += 1
    instances = _interleave(graphs, tables, hypers)
    for index, inst in enumerate(instances):
        path = workdir / f"{index}-{inst.family}.txt"
        path.write_text(inst.text(), encoding="utf-8")
        inst.argv = (["minimize", "--table", str(path), "--json"]
                     if inst.family == "table" else ["mincut", str(path), "--json"])
    return instances


def _interleave(*families):
    """Round-robin over the families, so cheap and expensive calls alternate."""
    return [inst for group in itertools.zip_longest(*families)
            for inst in group if inst is not None]


@dataclass(frozen=True)
class Workload:
    setup: object      # (seed, workdir) -> list of Instance
    configs: tuple     # configurations every instance runs under in each pass
    solve: object      # (instance, config) -> raw result
    decode: object     # (instance, raw) -> Outcome, raising OperationFailed


WORKLOADS = {
    "multijoin": Workload(setup_multijoin, ("heap", "bucket"), solve_library,
                          decode_library),
    "onejoin": Workload(setup_onejoin, ("heap", "bucket"), solve_library, decode_library),
    "cli-scan": Workload(setup_cli_scan, ("default",), solve_cli, decode_cli),
}
