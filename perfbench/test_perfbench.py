"""Tests of the benchmark's own code: generators, checker and tracer.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import bench
import check
import speed
import workloads
from spans import Tracer
from speed import Probe
from symcut import GraphCutOracle, HypergraphCutOracle, cli, driver
from workloads import Instance

HERE = Path(__file__).resolve().parent


def small_library_instances(seed):
    graph = workloads.sparse_graph(60, 6, seed)
    ring = workloads.noisy_ring(40, 0.1, seed + 1)
    hyper = workloads.random_hypergraph(30, 120, seed + 2)
    return [
        Instance("graph", f"sparse n=60 seed={seed}", graph, GraphCutOracle(graph)),
        Instance("graph", f"ring n=40 seed={seed + 1}", ring, GraphCutOracle(ring)),
        Instance("hypergraph", f"random n=30 seed={seed + 2}", hyper,
                 HypergraphCutOracle(hyper)),
    ]


def small_cli_instances(seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    instances = [
        Instance("graph", "g", workloads.sparse_graph(25, 4, seed, float_weights=True)),
        Instance("hypergraph", "h", workloads.random_hypergraph(20, 60, seed)),
        Instance("table", "t", workloads.cut_table(8, seed)),
    ]
    for index, inst in enumerate(instances):
        path = workdir / f"{index}.txt"
        path.write_text(inst.text(), encoding="utf-8")
        inst.argv = (["minimize", "--table", str(path), "--json"]
                     if inst.family == "table" else ["mincut", str(path), "--json"])
    return instances


LIBRARY = workloads.WORKLOADS["onejoin"]
CLI = workloads.WORKLOADS["cli-scan"]


# -- generators --------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda s: workloads.sparse_graph(80, 10, s),
    lambda s: workloads.sparse_graph(80, 10, s, float_weights=True),
    lambda s: workloads.noisy_ring(50, 0.1, s),
    lambda s: workloads.random_hypergraph(40, 160, s),
    lambda s: workloads.cut_table(7, s),
])
def test_generators_repeat_per_seed_and_differ_across_seeds(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_sparse_graph_is_connected_with_the_requested_edge_count():
    graph = workloads.sparse_graph(200, 10, 5)
    assert graph.m == 1000
    assert len({(min(u, v), max(u, v)) for u, v, _ in graph.edges}) == graph.m
    seen, stack = {0}, [0]
    while stack:
        for v in graph.adjacency[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert len(seen) == graph.n


def test_noisy_ring_has_ring_and_light_chords():
    ring = workloads.noisy_ring(100, 0.1, 2)
    assert ring.m == 110
    assert all(5 <= w <= 10 for _, _, w in ring.edges[:100])
    assert all(1 <= w <= 2 for _, _, w in ring.edges[100:])


@pytest.mark.parametrize("name", ["onejoin", "cli-scan"])
def test_workload_setup_is_a_function_of_the_seed(name, tmp_path):
    setup = workloads.WORKLOADS[name].setup
    first = [i.text() for i in setup(7, tmp_path / "a")]
    again = [i.text() for i in setup(7, tmp_path / "b")]
    other = [i.text() for i in setup(8, tmp_path / "c")]
    assert first == again
    assert all(x != y for x, y in zip(first, other))


# -- checker -----------------------------------------------------------------

def solved(instance, kind="heap"):
    return LIBRARY.decode(instance, LIBRARY.solve(instance, kind))


def test_checker_accepts_correct_answers():
    for instance in small_library_instances(11):
        outcome = solved(instance)
        reference = check.reference_value(instance)
        assert check.check_outcome(instance, outcome, reference) is None


def test_checker_flags_corrupted_lambda_and_trivial_sets():
    instance = small_library_instances(12)[0]
    outcome = solved(instance)
    reference = check.reference_value(instance)
    everything = frozenset(range(instance.n))
    assert check.check_outcome(instance, replace(outcome, value=outcome.value + 1),
                               reference) is not None
    assert check.check_outcome(instance, replace(outcome, best=frozenset()),
                               reference) is not None
    assert check.check_outcome(instance, replace(outcome, best=everything),
                               reference) is not None
    # right for the set it returned, wrong against the reference
    assert check.check_outcome(instance, outcome, reference + 1) is not None


def test_check_all_counts_raised_and_corrupted_operations(tmp_path):
    instances = small_library_instances(13)
    good = solved(instances[0])
    outcomes = Counter({
        (0, good): 2,
        (0, replace(good, value=good.value + 1)): 3,
        (1, RuntimeError("boom")): 1,
    })
    cache = check.ReferenceCache(tmp_path / "refs.json")
    failed, reasons = bench.check_all(instances, outcomes, cache)
    assert failed == 4
    assert len(reasons) == 2


def test_failed_operations_are_counted_not_fatal(tmp_path):
    instances = small_cli_instances(14, tmp_path)
    broken = replace(instances[0], argv=["mincut", str(tmp_path / "missing.txt"), "--json"])
    outcomes = Counter()
    bench.run_pass(CLI, [instances[0], broken], [0, 1], 0, [], outcomes, Probe())
    failed, reasons = bench.check_all([instances[0], broken], outcomes,
                                      check.ReferenceCache(tmp_path / "refs.json"))
    assert sum(outcomes.values()) == 2
    assert failed == 1
    assert "exit code 2" in reasons[0]


def test_reference_cache_round_trips(tmp_path):
    instance = small_library_instances(15)[2]
    first = check.ReferenceCache(tmp_path / "refs.json").get(instance)
    assert check.ReferenceCache(tmp_path / "refs.json")._values  # persisted
    assert check.ReferenceCache(tmp_path / "refs.json").get(instance) == first


# -- tracer ------------------------------------------------------------------

def rounds_per_operation(tracer):
    rounds = {}
    for span in tracer.spans:
        if span.name.startswith("order."):
            rounds[span.op] = rounds.get(span.op, 0) + 1
    return rounds


@pytest.mark.parametrize("kind", ["heap", "bucket"])
def test_traced_library_run_matches_untraced(kind):
    instances = small_library_instances(21)
    plain = [solved(i, kind) for i in instances]
    tracer = Tracer()
    with tracer.installed():
        traced = []
        for instance in instances:
            tracer.next_operation()
            traced.append(solved(instance, kind))
    assert traced == plain
    assert rounds_per_operation(tracer) == {
        op + 1: outcome.rounds for op, outcome in enumerate(plain)}
    assert driver.optimal_set.__module__ == "symcut.driver"  # patches removed


def test_traced_cli_run_matches_untraced(tmp_path):
    instances = small_cli_instances(22, tmp_path)
    plain = [CLI.decode(i, CLI.solve(i, "default")) for i in instances]
    tracer = Tracer()
    with tracer.installed():
        traced = []
        for instance in instances:
            tracer.next_operation()
            traced.append(CLI.decode(instance, CLI.solve(instance, "default")))
    assert traced == plain
    assert rounds_per_operation(tracer) == {
        op + 1: outcome.rounds for op, outcome in enumerate(plain)}
    assert cli.main.__module__ == "symcut.cli"
    metrics = tracer.layer_metrics()
    assert metrics["oracles.eval_calls"][0] > 0
    assert metrics["instances.parse_ms"][0] > 0


def count_metrics(tracer):
    return {name: value for name, (value, unit) in tracer.layer_metrics().items()
            if unit != "ms"}


def test_traced_counts_repeat_exactly():
    instances = small_library_instances(31)
    runs = [bench.measure(LIBRARY, instances, seconds, True, Probe())[2]
            for seconds in (0.05, 0.3)]
    assert runs[0].ops < runs[1].ops  # different lengths, same per-op counts
    first, second = (count_metrics(t) for t in runs)
    assert first == second
    assert first["driver.rounds"] > 0
    assert first["queues.heap.ops"] > 0 and first["queues.bucket.ops"] > 0
    assert first["oracles.tracker_init_calls"] == first["driver.rounds"]


def test_cli_traced_counts_repeat_exactly(tmp_path):
    instances = small_cli_instances(32, tmp_path)
    first, second = (count_metrics(bench.measure(CLI, instances, 0.05, True, Probe())[2])
                     for _ in range(2))
    assert first == second
    assert first["oracles.eval_calls"] > 0


# -- speed probe -------------------------------------------------------------

def test_scaled_times_follow_the_probe():
    reference_ns = speed.REFERENCE_MS * 1e6
    assert speed.scaled(1000, reference_ns, reference_ns) == pytest.approx(1000)
    # a machine half as fast: raw time and probes both doubled
    assert speed.scaled(2000, 2 * reference_ns, 2 * reference_ns) == pytest.approx(1000)
    probe = Probe(warmup=1)
    assert probe.times == [] and probe.run() > 0 and len(probe.times) == 1


# -- entry point -------------------------------------------------------------

def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "onejoin", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
