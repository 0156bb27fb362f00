"""Cross-checks tying the fast path to exhaustive enumeration.

Each check re-derives, by brute force, a fact the minimizer relies on:
orders really dominate their suffixes, the last pair of an order is a
pendant pair up to the threshold, stored keys bound pairwise separation,
contraction preserves the capped optimum, and separation values satisfy
the threshold triangle rule. `verify_oracle` bundles them with a
configuration sweep whose results must all match the enumerated optimum,
and `verify_table` runs that same sweep on an explicit set function.
Every check evaluates through the oracle that solves, uncapped or through
a capped view, so the capped checks test its own lax answers (a cut
oracle's early exit included), not those of a second copy.
"""

from contextlib import suppress
from dataclasses import dataclass

from .brute import (CheckResult, brute_lambda, brute_min_bipartition,
                    check_consistent, check_monotone,
                    check_symmetric_submodular, verify_lax_back_order)
from .driver import MinimizeConfig, optimal_set
from .oracles import ConnectivityOracle, InducedOracle, ThresholdedOracle
from .queues import BucketQueue
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
    """Configuration sweep supported by the oracle's capabilities."""
    configs = [("scan", MinimizeConfig())]
    if getattr(oracle, "keyed", False):
        configs.append(("queue-heap", MinimizeConfig(order_builder="queue")))
        with suppress(ValueError):  # a bound taken at tau = INF is taken at every tau
            BucketQueue(INF, getattr(oracle, "value_bound", None))
            configs.append(("queue-bucket",
                            MinimizeConfig(order_builder="queue", queue_kind="bucket")))
    return configs + [("maxback", MinimizeConfig(algorithm="maxback"))]


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

    if len(seq) >= 2:
        induced = InducedOracle(oracle, [blocks[c] for c in seq])
        k = len(seq)
        last_value = induced.eval(frozenset((k - 1,)),
                                  frozenset(range(k - 1)), INF)
        separation = brute_lambda(induced, k, k - 1, k - 2)
        pendant = values_equal(min(tau, last_value), min(tau, separation))
        results.append(("last-pair-pendant",
                        CheckResult(pendant, None if pendant
                                    else (last_value, separation))))

        bound = CheckResult(True)
        for i in range(1, k):
            sep = min(tau, brute_lambda(induced, k, i - 1, i))
            if value_below(sep, order.keys[i]):
                bound = CheckResult(False, (i, order.keys[i], sep))
                break
        results.append(("keys-bound-separation", bound))
    return results


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


def check_separation_triangle(oracle, n):
    """If two overlapping pairs separate at >= tau, so does the outer pair.

    The taus are 0 and the lowest and highest separation values; a finite
    separation never reaches tau = INF, so that tau would test nothing.
    """
    lam = {}
    for s in range(n):
        for t in range(s + 1, n):
            lam[(s, t)] = lam[(t, s)] = brute_lambda(oracle, n, s, t)
    vals = sorted(set(lam.values()))
    for tau in [0] + vals[:3] + vals[-2:]:
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    if len({u, v, w}) != 3:
                        continue
                    if (not value_below(lam[(u, v)], tau)
                            and not value_below(lam[(v, w)], tau)
                            and value_below(lam[(u, w)], tau)):
                        return CheckResult(False, (u, v, w, tau))
    return CheckResult(True)


def verify_oracle(oracle, n):
    """Full verification sweep for a pairwise oracle on {0..n-1}.

    Runs every supported configuration and compares each result to the
    enumerated optimum; a configuration that raises a ValueError (a key
    above an understated ``value_bound``, say) fails its agreement entry
    with the error as the detail. For n <= 8 the per-round order and
    contraction checks run too, and for n <= 6 the monotonicity/consistency
    axioms are checked exhaustively, including on capped views of the
    oracle. Every check evaluates through `oracle` itself.
    """
    deep = n <= 8
    expected = brute_min_bipartition(oracle, n)
    entries = [VerifyEntry("bruteforce-optimum", True, f"value {expected.value}")]

    deep_failures = {}
    deep_counts = {}
    for name, cfg in named_configs(oracle):
        records = []
        try:
            best, value, stats = optimal_set(oracle, n, cfg, observer=records.append)
        except ValueError as exc:
            entries.append(VerifyEntry(f"agrees-with-bruteforce[{name}]", False, str(exc)))
            continue
        agree = values_equal(value, expected.value)
        entries.append(VerifyEntry(
            f"agrees-with-bruteforce[{name}]", agree,
            f"value {value} vs {expected.value}"))
        attained = oracle.eval(frozenset(best), frozenset(range(n)) - best, INF)
        entries.append(VerifyEntry(
            f"result-set-attains-value[{name}]", values_equal(attained, value),
            f"d(S, rest) = {attained}"))
        if cfg.order_builder == "scan":
            ok = all(ops <= k * (k - 1) // 2 for k, ops in stats.calls_per_order)
            entries.append(VerifyEntry(f"scan-call-bound[{name}]", ok))
        if cfg.algorithm == "maxback":
            ok = stats.rounds == n - 1 and all(j == 1 for j in stats.joins_per_round)
            entries.append(VerifyEntry(
                "maxback-one-join-per-round", ok, f"rounds {stats.rounds}"))
        if deep:
            for record in records:
                for check_name, result in (check_order_record(oracle, record)
                                           + [check_contraction_record(oracle, record)]):
                    deep_counts[check_name] = deep_counts.get(check_name, 0) + 1
                    if not result and check_name not in deep_failures:
                        deep_failures[check_name] = (name, record.index, result.witness)
    for check_name in sorted(deep_counts):
        failure = deep_failures.get(check_name)
        entries.append(VerifyEntry(
            check_name, failure is None,
            f"{deep_counts[check_name]} rounds" if failure is None else repr(failure)))

    if deep:
        entries.append(_entry("separation-triangle", check_separation_triangle(oracle, n)))

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


def verify_table(table):
    """The table's own axioms, then :func:`verify_oracle` on its connectivity.

    For a symmetric f, d(S, V\\S) = 2 f(S) - f(V), so the sweep's
    agreement with enumeration, with each result set attaining its value,
    says that every configuration returns a minimizer of f.
    """
    symmetric, submodular = check_symmetric_submodular(table)
    entries = [VerifyEntry("table-symmetric", symmetric),
               VerifyEntry("table-submodular", submodular)]
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
