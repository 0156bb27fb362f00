"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a PASS/FAIL line; run
with `pytest tests/test_acceptance.py -v -s` to see them. The random
corpora are seeded, so every run checks the identical instances.
"""

import json
import random
import re

import pytest

from symcut import (INF, ConnectivityOracle, GraphCutOracle, HypergraphCutOracle,
                    MinimizeConfig, brute_min_bipartition, check_consistent,
                    check_monotone, gen_random_graph, gen_random_hypergraph,
                    graph_cut_table, optimal_set)
from symcut.brute import (bipartition_values, check_symmetric, table_submodular,
                          table_symmetric)
from symcut.cli import main
from symcut.oracles import ThresholdedOracle
from symcut.verify import check_contraction_record, check_order_record

CORPUS_SIZE = 200

# every distinct laxback builder/queue configuration (the scan builder has no queue)
CONFIGS = {
    "scan": MinimizeConfig(order_builder="scan"),
    "queue-heap": MinimizeConfig(order_builder="queue"),
    "queue-bucket": MinimizeConfig(order_builder="queue", queue_kind="bucket"),
}


def report(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def corpus():
    graphs = []
    for i in range(CORPUS_SIZE):
        n = 3 + i % 6  # 3..8
        p = (0.35, 0.55, 0.75, 0.95)[i % 4]
        graphs.append((n, gen_random_graph(n, p, 10, seed=i, connected=True)))
    return graphs


@pytest.fixture(scope="module")
def corpus_runs(corpus):
    """Every configuration on every corpus instance, with round records."""
    runs = []
    for n, graph in corpus:
        oracle = GraphCutOracle(graph)
        expected = brute_min_bipartition(oracle, n).value
        per_config = {}
        for name, cfg in CONFIGS.items():
            records = []
            best, value, stats = optimal_set(oracle, n, cfg,
                                             observer=records.append)
            per_config[name] = (best, value, stats, records)
        mb_records = []
        mb = optimal_set(oracle, n,
                         MinimizeConfig(algorithm="maxback", order_builder="scan"),
                         observer=mb_records.append)
        runs.append((n, graph, expected, per_config, (*mb, mb_records)))
    return runs


def test_criterion_01_all_configurations_match_enumeration(corpus_runs):
    mismatches = []
    for n, graph, expected, per_config, _ in corpus_runs:
        for name, (best, value, stats, _) in per_config.items():
            if value != expected:
                mismatches.append((graph, name, value, expected))
    report(1, not mismatches,
           f"{len(corpus_runs)} graphs x {len(CONFIGS)} configurations "
           f"match brute force exactly ({len(mismatches)} mismatches)")


def test_criterion_02_pendant_pair_baseline(corpus_runs):
    bad = 0
    for n, graph, expected, _, maxback in corpus_runs:
        best, value, stats, _ = maxback
        if value != expected or stats.rounds != n - 1 \
                or [r.joins for r in stats.per_round] != [1] * (n - 1):
            bad += 1
    report(2, bad == 0,
           f"pendant-pair baseline matches on all {len(corpus_runs)} graphs "
           f"with exactly n-1 single-join rounds ({bad} bad)")


def test_criterion_03_capped_oracles_keep_the_axioms(corpus):
    rng = random.Random(12345)
    checked = 0
    violations = 0
    for n, graph in corpus:
        if n > 5:
            continue
        oracle = GraphCutOracle(graph, early_exit=False)
        full = (1 << n) - 1
        finite_values = set()
        for mask in range(1, full):
            s = frozenset(v for v in range(n) if mask >> v & 1)
            t = frozenset(v for v in range(n) if (full ^ mask) >> v & 1)
            finite_values.add(oracle.eval(s, t, INF))
        top = max(finite_values)
        caps = [0, top, INF, rng.randint(0, top), rng.randint(0, top)]
        for cap in caps:
            capped = ThresholdedOracle(oracle, cap)
            if not (check_monotone(capped, n) and check_consistent(capped, n)):
                violations += 1
            checked += 1
    report(3, violations == 0 and checked >= 5 * 5,
           f"{checked} capped oracles pass exhaustive monotone+consistent "
           f"checks ({violations} violations)")


def test_criterion_04_order_and_contraction_properties(corpus_runs):
    counts = {}
    failures = []
    for n, graph, expected, per_config, maxback in corpus_runs:
        strict = GraphCutOracle(graph, early_exit=False)
        values = bipartition_values(strict, n)
        all_records = [rec for _, _, _, records in per_config.values()
                       for rec in records]
        all_records += maxback[3]
        for rec in all_records:
            for name, result in check_order_record(strict, rec, values):
                counts[name] = counts.get(name, 0) + 1
                if not result:
                    failures.append((name, graph, rec.index, result.witness))
            name, result = check_contraction_record(rec, values)
            counts[name] = counts.get(name, 0) + 1
            if not result:
                failures.append((name, graph, rec.index, result.witness))
        symmetric = check_symmetric(strict, n)
        counts["oracle-symmetric"] = counts.get("oracle-symmetric", 0) + 1
        if not symmetric:
            failures.append(("oracle-symmetric", graph, None, symmetric.witness))
    total = sum(counts.values())
    report(4, not failures,
           f"{total} property checks over every produced order/round "
           f"({', '.join(f'{k}:{v}' for k, v in sorted(counts.items()))}); "
           f"{len(failures)} violations")


def test_criterion_05_scan_call_bound(corpus_runs):
    checked = 0
    bad = 0
    for _, _, _, per_config, _ in corpus_runs:
        for name, (_, _, stats, _) in per_config.items():
            if not name.startswith("scan"):
                continue
            for r in stats.per_round:
                checked += 1
                if r.evals > r.classes * (r.classes - 1) // 2:
                    bad += 1
    report(5, bad == 0 and checked > 0,
           f"{checked} scan-built orders within the k(k-1)/2 call bound "
           f"({bad} over)")


def test_criterion_06_symmetric_submodular_minimization():
    bad = 0
    count = 50
    for i in range(count):
        n = 3 + i % 4  # 3..6
        table = graph_cut_table(gen_random_graph(n, 0.75, 7, seed=3000 + i,
                                                 connected=(i % 2 == 0)))
        assert table_symmetric(table) and table_submodular(table)
        f = table.table_values
        best_f = min(f[m] for m in range(1, (1 << n) - 1))
        found, _, _ = optimal_set(ConnectivityOracle(table), n)
        if f[sum(1 << v for v in found)] != best_f:
            bad += 1
    report(6, bad == 0,
           f"{count} symmetric submodular tables minimized exactly ({bad} bad)")


def test_criterion_07_hypergraph_path():
    bad = 0
    axiom_bad = 0
    count = 50
    for i in range(count):
        n = 4 + i % 4  # 4..7
        h = gen_random_hypergraph(n, n + 3, 6, seed=4000 + i)
        oracle = HypergraphCutOracle(h)
        expected = brute_min_bipartition(oracle, n).value
        for cfg in (MinimizeConfig(order_builder="scan"),
                    MinimizeConfig(order_builder="queue"),
                    MinimizeConfig(order_builder="queue", queue_kind="bucket")):
            _, value, _ = optimal_set(oracle, n, cfg)
            if value != expected:
                bad += 1
        if n <= 5:
            strict = HypergraphCutOracle(h, early_exit=False)
            if not (check_monotone(strict, n) and check_consistent(strict, n)):
                axiom_bad += 1
    report(7, bad == 0 and axiom_bad == 0,
           f"{count} hypergraphs match enumeration under all builders "
           f"({bad} mismatches, {axiom_bad} axiom violations)")


def test_criterion_08_queue_differential():
    from symcut.queues import BucketQueue, HeapQueue
    rng = random.Random(777)
    tau = 8
    steps = 10000
    exact = {}
    builds = 0
    violations = 0
    deletions = 0
    for _ in range(steps):
        if not exact:
            # every key stays below tau, as the order builder guarantees
            exact = {v: rng.randrange(tau) for v in range(rng.randint(1, 40))}
            heap, bucket = HeapQueue(exact), BucketQueue(tau, exact)
            builds += 1
        elif rng.random() < 0.45:
            v = rng.choice(sorted(exact))
            k = min(tau - 1, exact[v] + rng.randint(0, 4))
            heap.update_key(v, k)
            bucket.update_key(v, k)
            exact[v] = k
        else:
            want = min(exact.items(), key=lambda e: (-e[1], e[0]))
            got = heap.del_max(), bucket.del_max()
            deletions += 1
            if got != (want, want):
                violations += 1
                break  # the queues and the shadow no longer hold the same entries
            del exact[want[0]]
    report(8, violations == 0,
           f"{steps} randomized steps over {builds} queue pairs, {deletions} "
           f"extractions checked against the exact contract ({violations} violations)")


def test_criterion_09_cli_determinism(tmp_path, capsys):
    path = tmp_path / "det.graph"
    assert main(["gen", "--n", "7", "--p", "0.6", "--wmax", "9", "--seed", "11",
                 "--connected"]) == 0
    path.write_text(capsys.readouterr().out)
    args = ["mincut", str(path), "--json", "--check"]
    outputs = []
    for _ in range(2):
        assert main(args) == 0
        outputs.append(capsys.readouterr().out)
    stripped = [re.sub(r'"wall_ns": \d+', '"wall_ns": 0', o) for o in outputs]
    ok = stripped[0] == stripped[1] and json.loads(outputs[0])["check"]["ok"]
    report(9, ok, "identical --json reports modulo the wall-time field")


def test_criterion_10_multi_join_rounds_reduce_round_count(corpus_runs):
    worse = 0
    strictly_better = 0
    for n, graph, _, per_config, maxback in corpus_runs:
        lax_rounds = per_config["scan"][2].rounds
        max_rounds = maxback[2].rounds
        if lax_rounds > max_rounds:
            worse += 1
        if lax_rounds < max_rounds:
            strictly_better += 1
    report(10, worse == 0 and strictly_better > 0,
           f"multi-join rounds never exceed the baseline and beat it on "
           f"{strictly_better}/{len(corpus_runs)} instances")
