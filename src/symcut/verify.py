"""Cross-checks tying the fast path to exhaustive enumeration.

Each check re-derives a fact the minimizer relies on: every round joins
exactly the pairs its rule names, and, by brute force, orders really
dominate their suffixes, stored keys are exact and bound pairwise
separation, contraction preserves the capped optimum, and the oracle is
symmetric, monotone and consistent. Together the exact keys, the bound
and the symmetry make an order's last pair pendant up to the threshold:
the last key is min(tau, d(last, rest)), at least the last pair's capped
separation, since {last} separates the pair, and at most it by the
bound. `verify_oracle` bundles them with a configuration sweep whose
results must all match the enumerated optimum, and `verify_table` runs
that same sweep on an explicit set function.

The joins, each result set and laxback within maxback are checked at any
n. Each order takes one polynomial walk against its prefixes
(:func:`brute.check_lax_back_order`), run for n <= 8 with the checks
that need d over every bipartition. Those read one table,
:func:`brute.bipartition_values`, built once per instance: the optimum,
the sampled caps, and the separation bound and the contraction check,
each a least cut over unions of a round's classes, and the symmetry
check, which evaluates only the other side of each bipartition. Only
the axiom checks enumerate on their own.
Every check evaluates through the oracle that solves, uncapped or through
a capped view, so the capped checks test its own lax answers (a cut
oracle's early exit included), not those of a second copy.
"""

from dataclasses import dataclass

from .brute import (CheckResult, bipartition_values, check_consistent,
                    check_lax_back_order, check_monotone, check_symmetric,
                    table_submodular, table_symmetric)
from .driver import MinimizeConfig, optimal_set
from .oracles import ConnectivityOracle, ThresholdedOracle
from .values import INF, mask_of, value_below, values_equal


@dataclass
class VerifyEntry:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerifyReport:
    entries: list

    @property
    def ok(self):
        return all(e.ok for e in self.entries)


def _entry(name, result):
    """A VerifyEntry for a CheckResult, its witness as the detail on failure."""
    return VerifyEntry(name, bool(result), "" if result else repr(result.witness))


def named_configs(oracle):
    """Configuration sweep supported by the oracle's capabilities.

    The scan builder is forced on the `scan` and `maxback` entries, so it
    is verified on keyed oracles too, whose default is the queue builder.
    The queue builder runs on the heap queue, the solver's default.
    """
    configs = [("scan", MinimizeConfig(order_builder="scan"))]
    if getattr(oracle, "keyed", False):
        configs.append(("queue-heap", MinimizeConfig(order_builder="queue")))
    return configs + [("maxback", MinimizeConfig(algorithm="maxback", order_builder="scan"))]


def least_union(values, inside, classes):
    """Least d(U, V\\U) over the proper unions U of `inside` and some of `classes`.

    `inside` and `classes` are masks of disjoint classes and `values` is
    the instance's :func:`brute.bipartition_values`. Each d(U, V\\U) is
    its entry, read on the side, U or V\\U, that holds element 0.
    """
    full = 2 * len(values) + 1
    unions = [inside]
    for mask in classes:
        unions += [u | mask for u in unions]
    return min(values[(u if u & 1 else full ^ u) >> 1] for u in unions if u != full)


def check_order_record(oracle, record, values):
    """Per-order checks against enumeration; returns [(name, CheckResult)].

    The order is walked against its prefixes by
    :func:`brute.check_lax_back_order`; each stored key must bound its
    pair's capped separation, the least cut between classes i - 1 and i,
    read from `values`, the instance's :func:`brute.bipartition_values`.
    """
    order = record.order
    seq = order.order
    tau = order.threshold
    results = check_lax_back_order(oracle, record.members_before, order)

    masks = [mask_of(record.members_before[c]) for c in seq]
    bound = CheckResult(True)
    for i in range(1, len(seq)):
        sep = min(tau, least_union(values, masks[i - 1], masks[:i - 1] + masks[i + 1:]))
        if value_below(sep, order.keys[i]):
            bound = CheckResult(False, (i, order.keys[i], sep))
            break
    results.append(("keys-bound-separation", bound))
    return results


def check_join_record(record, algorithm):
    """The round's joins are the rule's: its classes after, from those before.

    ``laxback`` joins each run of keys at or above the round's tau,
    ``record.stats.tau``, into the class at its head; ``maxback`` joins the
    order's last class into the one before it. Reads only the record's
    snapshots, so it runs at any n. The witness is the first label,
    ascending, whose class differs: (label, its class after the round, the
    class the rule gives), a missing class as None.
    """
    before = record.members_before
    seq = record.order.order
    if algorithm == "maxback":
        want = dict(before)
        want[seq[-2]] = before[seq[-2]] | want.pop(seq[-1])
    else:
        head = seq[0]
        want = {head: before[head]}
        for c, key in zip(seq[1:], record.order.keys[1:]):
            if key >= record.stats.tau:
                want[head] = want[head] | before[c]
            else:
                head = c
                want[c] = before[c]
    after = record.members_after
    for label in sorted(want.keys() | after.keys()):
        if want.get(label) != after.get(label):
            return CheckResult(False, (label, after.get(label), want.get(label)))
    return CheckResult(True)


def check_contraction_record(record, values):
    """Contracting threshold-reaching runs must preserve the capped optimum.

    Both optima are least unions of the round's classes, read from
    `values`, the instance's :func:`brute.bipartition_values`.
    """
    tau = record.stats.tau
    before = [mask_of(members) for members in record.members_before.values()]
    after = [mask_of(members) for members in record.members_after.values()]
    optimum_before = least_union(values, before[0], before[1:])
    if len(after) >= 2:
        optimum_after = least_union(values, after[0], after[1:])
        ok = values_equal(min(tau, optimum_before), min(tau, optimum_after))
        witness = None if ok else (optimum_before, optimum_after, tau)
    else:
        # everything contracted: legal only if nothing below tau was lost
        ok = not value_below(optimum_before, tau)
        witness = None if ok else (optimum_before, tau)
    return "contraction-preserves-capped-min", CheckResult(ok, witness)


def verify_oracle(oracle, n):
    """Full verification sweep for a pairwise oracle on {0..n-1}.

    Runs every supported configuration and compares each result to the
    enumerated optimum; a configuration that raises a ValueError (on a
    non-finite oracle value, say) fails its agreement entry with the error
    as the detail. Each result set must attain its run's final tau, and
    every round must join what its rule names (:func:`check_join_record`);
    the scan and maxback runs also give ``laxback-within-maxback``, the
    paper's claim on the scan path.
    For n <= 8 the per-round order and contraction checks and the symmetry
    of every bipartition value run too, and for n <= 6 the
    monotonicity/consistency axioms are checked exhaustively, including on
    the oracle capped at 0 and at the median and top bipartition values.
    Every check evaluates through `oracle` itself. The bipartitions are
    walked once, into the table that the optimum, the caps, the per-round
    bound and contraction checks and one side of the symmetry check read.
    """
    deep = n <= 8
    values = bipartition_values(oracle, n)
    expected = min(values)
    entries = []

    round_failures = {}
    round_counts = {}
    run_stats = {}
    for name, cfg in named_configs(oracle):
        records = []
        try:
            best, value, stats = optimal_set(oracle, n, cfg, observer=records.append)
        except ValueError as exc:
            entries.append(VerifyEntry(f"agrees-with-bruteforce[{name}]", False, str(exc)))
            continue
        run_stats[name] = stats
        agree = values_equal(value, expected)
        entries.append(VerifyEntry(
            f"agrees-with-bruteforce[{name}]", agree, f"value {value} vs {expected}"))
        attained = oracle.eval(frozenset(best), frozenset(range(n)) - best, INF)
        tau = records[-1].stats.tau
        entries.append(VerifyEntry(
            f"result-set-attains-value[{name}]", values_equal(attained, tau),
            f"d(S, rest) = {attained}, final tau {tau}"))
        for record in records:
            checks = [("joins-follow-the-rule", check_join_record(record, cfg.algorithm))]
            if deep:
                checks += check_order_record(oracle, record, values)
                checks.append(check_contraction_record(record, values))
            for check_name, result in checks:
                round_counts[check_name] = round_counts.get(check_name, 0) + 1
                if not result and check_name not in round_failures:
                    round_failures[check_name] = (name, record.index, result.witness)
    if "scan" in run_stats and "maxback" in run_stats:
        entries.append(_within_maxback(run_stats["scan"], run_stats["maxback"]))
    for check_name in sorted(round_counts):
        failure = round_failures.get(check_name)
        entries.append(VerifyEntry(
            check_name, failure is None,
            f"{round_counts[check_name]} rounds" if failure is None else repr(failure)))

    if deep:
        entries.append(_entry("oracle-symmetric", check_symmetric(oracle, values)))

    if n <= 6:
        entries.append(_entry("oracle-monotone", check_monotone(oracle, n)))
        entries.append(_entry("oracle-consistent", check_consistent(oracle, n)))
        distinct = sorted(set(values))
        for cap in sorted({0, distinct[len(distinct) // 2], distinct[-1]}):
            capped = ThresholdedOracle(oracle, cap)
            mono = check_monotone(capped, n)
            cons = check_consistent(capped, n)
            entries.append(VerifyEntry(
                f"capped-oracle-axioms[cap={cap}]", bool(mono) and bool(cons)))
    return VerifyReport(entries)


def _within_maxback(lax, maxback):
    """The paper's claim on the scan path: laxback does no more than maxback.

    The laxback run's builds make at most the evals of the pendant-pair
    loop's, and its orders list at most as many classes: its class counts
    fall strictly from n, where maxback's take every value from n down to
    2. Only the builds' evals are compared: the seed's singleton probes,
    which a cut oracle does not make, are no part of either build.
    """
    evals = sum(r.evals for r in lax.per_round)
    max_evals = sum(r.evals for r in maxback.per_round)
    classes = sum(r.classes for r in lax.per_round)
    max_classes = sum(r.classes for r in maxback.per_round)
    ok = evals <= max_evals and classes <= max_classes
    return VerifyEntry("laxback-within-maxback", ok,
                       f"evals {evals} vs {max_evals}, classes {classes} vs {max_classes}")


def verify_table(table):
    """The table's own axioms, then :func:`verify_oracle` on its connectivity.

    For a symmetric f, d(S, V\\S) = 2 f(S) - f(V), so the sweep's
    agreement with enumeration, with each result set attaining its value,
    says that every configuration returns a minimizer of f.
    """
    entries = [VerifyEntry("table-symmetric", table_symmetric(table)),
               VerifyEntry("table-submodular", table_submodular(table))]
    report = verify_oracle(ConnectivityOracle(table), table.n)
    return VerifyReport(entries + report.entries)
