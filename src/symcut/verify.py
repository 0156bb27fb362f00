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
Every check evaluates through the oracle that solves, uncapped or through
a capped view, so the capped checks test its own lax answers (a cut
oracle's early exit included), not those of a second copy.
"""

from dataclasses import dataclass

from .brute import (CheckResult, brute_lambda, brute_min_bipartition,
                    check_consistent, check_monotone, check_symmetric,
                    table_submodular, table_symmetric, verify_lax_back_order)
from .driver import MinimizeConfig, optimal_set
from .oracles import ConnectivityOracle, InducedOracle, ThresholdedOracle
from .values import INF, set_of, value_below, values_equal


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


def check_order_record(oracle, record):
    """Per-order checks against enumeration; returns [(name, CheckResult)]."""
    order = record.order
    seq = order.order
    tau = order.threshold
    blocks = record.members_before
    results = [("order-dominates-suffix", verify_lax_back_order(oracle, blocks, order))]

    # stored keys must equal the capped value against the prefix they saw
    exact = CheckResult(True)
    prefix = frozenset(blocks[seq[0]])
    for i in range(1, len(seq)):
        want = min(tau, oracle.eval(frozenset(blocks[seq[i]]), prefix, INF))
        if not values_equal(order.keys[i], want):
            exact = CheckResult(False, (i, order.keys[i], want))
            break
        prefix = prefix | blocks[seq[i]]
    results.append(("stored-keys-exact", exact))

    induced = InducedOracle(oracle, [blocks[c] for c in seq])
    k = len(seq)
    bound = CheckResult(True)
    for i in range(1, k):
        sep = min(tau, brute_lambda(induced, k, i - 1, i))
        if value_below(sep, order.keys[i]):
            bound = CheckResult(False, (i, order.keys[i], sep))
            break
    results.append(("keys-bound-separation", bound))
    return results


def check_join_record(record, algorithm):
    """The round's joins are the rule's: its classes after, from those before.

    ``laxback`` joins each run of keys at or above ``tau_after`` into the
    class at its head; ``maxback`` joins the order's last class into the
    one before it. Reads only the record's snapshots, so it runs at any n.
    The witness is the first label, ascending, whose class differs:
    (label, its class after the round, the class the rule gives), a
    missing class as None.
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
            if key >= record.tau_after:
                want[head] = want[head] | before[c]
            else:
                head = c
                want[c] = before[c]
    after = record.members_after
    for label in sorted(want.keys() | after.keys()):
        if want.get(label) != after.get(label):
            return CheckResult(False, (label, after.get(label), want.get(label)))
    return CheckResult(True)


def check_contraction_record(oracle, record):
    """Contracting threshold-reaching runs must preserve the capped optimum."""
    tau = record.tau_after
    before = [record.members_before[c] for c in sorted(record.members_before)]
    after = [record.members_after[c] for c in sorted(record.members_after)]
    optimum_before = brute_min_bipartition(
        InducedOracle(oracle, before), len(before)).value
    if len(after) >= 2:
        optimum_after = brute_min_bipartition(
            InducedOracle(oracle, after), len(after)).value
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
    capped views of the oracle. Every check evaluates through
    `oracle` itself.
    """
    deep = n <= 8
    expected = brute_min_bipartition(oracle, n)
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
        agree = values_equal(value, expected.value)
        entries.append(VerifyEntry(
            f"agrees-with-bruteforce[{name}]", agree,
            f"value {value} vs {expected.value}"))
        attained = oracle.eval(frozenset(best), frozenset(range(n)) - best, INF)
        tau = records[-1].tau_after
        entries.append(VerifyEntry(
            f"result-set-attains-value[{name}]", values_equal(attained, tau),
            f"d(S, rest) = {attained}, final tau {tau}"))
        for record in records:
            checks = [("joins-follow-the-rule", check_join_record(record, cfg.algorithm))]
            if deep:
                checks += check_order_record(oracle, record)
                checks.append(check_contraction_record(oracle, record))
            for check_name, result in checks:
                round_counts[check_name] = round_counts.get(check_name, 0) + 1
                if not result and check_name not in round_failures:
                    round_failures[check_name] = (name, record.index, result.witness)
    if "scan" in run_stats and "maxback" in run_stats:
        entries.append(_within_maxback(run_stats["scan"], run_stats["maxback"], n))
    for check_name in sorted(round_counts):
        failure = round_failures.get(check_name)
        entries.append(VerifyEntry(
            check_name, failure is None,
            f"{round_counts[check_name]} rounds" if failure is None else repr(failure)))

    if deep:
        entries.append(_entry("oracle-symmetric", check_symmetric(oracle, n)))

    if n <= 6:
        entries.append(_entry("oracle-monotone", check_monotone(oracle, n)))
        entries.append(_entry("oracle-consistent", check_consistent(oracle, n)))
        for cap in _sample_caps(oracle, n):
            capped = ThresholdedOracle(oracle, cap)
            mono = check_monotone(capped, n)
            cons = check_consistent(capped, n)
            entries.append(VerifyEntry(
                f"capped-oracle-axioms[cap={cap}]", bool(mono) and bool(cons)))
    return VerifyReport(entries)


def _within_maxback(lax, maxback, n):
    """The paper's claim on the scan path: laxback does no more than maxback.

    Beyond its n singleton probes, the laxback run makes at most the oracle
    calls of the pendant-pair loop, and its orders list at most as many
    classes: its class counts fall strictly from n, where maxback's take
    every value from n down to 2.
    """
    calls = lax.oracle_calls - n
    classes = sum(k for k, _ in lax.calls_per_order)
    max_classes = sum(k for k, _ in maxback.calls_per_order)
    ok = calls <= maxback.oracle_calls and classes <= max_classes
    return VerifyEntry("laxback-within-maxback", ok,
                       f"calls {calls} (+{n} probes) vs {maxback.oracle_calls}, "
                       f"classes {classes} vs {max_classes}")


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


def _sample_caps(oracle, n):
    """The distinct caps among 0 and the median and top bipartition values, ascending."""
    values = set()
    full = (1 << n) - 1
    for mask in range(1, full):
        values.add(oracle.eval(set_of(mask), set_of(full ^ mask), INF))
    values = sorted(values)
    return sorted({0, values[len(values) // 2], values[-1]})
