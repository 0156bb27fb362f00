"""Cross-checks tying the fast path to exhaustive enumeration.

Each check re-derives, by brute force, a fact the minimizer relies on:
orders really dominate their suffixes, the last pair of an order is a
pendant pair up to the threshold, stored keys bound pairwise separation,
contraction preserves the capped optimum, and separation values satisfy
the threshold triangle rule. `verify_oracle` bundles them with a
configuration sweep whose results must all match the enumerated optimum.
"""

from dataclasses import dataclass

from .brute import (CheckResult, brute_lambda, brute_min_bipartition,
                    check_consistent, check_monotone,
                    check_symmetric_submodular, verify_lax_back_order)
from .driver import MinimizeConfig, optimal_set
from .oracles import ConnectivityOracle, InducedOracle, ThresholdedOracle
from .values import INF, mask_of, values_equal


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


def named_configs(oracle, include_maxback=True):
    """Configuration sweep supported by the oracle's capabilities."""
    configs = [
        ("scan-inf", MinimizeConfig()),
        ("scan-minsingleton", MinimizeConfig(init_threshold="min_singleton")),
    ]
    if getattr(oracle, "keyed", False):
        configs += [
            ("queue-heap-inf", MinimizeConfig(order_builder="queue")),
            ("queue-heap-minsingleton",
             MinimizeConfig(order_builder="queue", init_threshold="min_singleton")),
        ]
        if oracle.integer_valued and oracle.value_bound is not None:
            configs += [
                ("queue-bucket-inf",
                 MinimizeConfig(order_builder="queue", queue_kind="bucket")),
                ("queue-bucket-minsingleton",
                 MinimizeConfig(order_builder="queue", queue_kind="bucket",
                                init_threshold="min_singleton")),
            ]
    if include_maxback:
        configs.append(("maxback", MinimizeConfig(algorithm="maxback")))
    return configs


def run_with_records(oracle, n, config):
    records = []
    best, value, stats = optimal_set(oracle, n, config, observer=records.append)
    return best, value, stats, records


def check_order_record(oracle, record, tol=0.0):
    """Per-order checks against enumeration; returns [(name, CheckResult)]."""
    order = record.order
    seq = order.order
    tau = record.tau_build
    blocks = record.members_before
    results = [("order-dominates-suffix",
                verify_lax_back_order(oracle, blocks, order, tau, tol))]

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
            if sep < order.keys[i] and not values_equal(sep, order.keys[i]):
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
        ok = optimum_before >= tau or values_equal(optimum_before, tau)
        witness = None if ok else (optimum_before, tau)
    return "contraction-preserves-capped-min", CheckResult(ok, witness)


def check_separation_triangle(oracle, n, taus=None):
    """If two overlapping pairs separate at >= tau, so does the outer pair."""
    lam = {}
    for s in range(n):
        for t in range(s + 1, n):
            lam[(s, t)] = lam[(t, s)] = brute_lambda(oracle, n, s, t)
    if taus is None:
        vals = sorted(set(lam.values()))
        taus = [0, INF] + vals[:3] + vals[-2:]
    for tau in taus:
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    if len({u, v, w}) != 3:
                        continue
                    if lam[(u, v)] >= tau and lam[(v, w)] >= tau and lam[(u, w)] < tau:
                        return CheckResult(False, (u, v, w, tau))
    return CheckResult(True)


def verify_oracle(oracle, n, *, deep=None, axioms=None, strict_oracle=None):
    """Full verification sweep for a pairwise oracle on {0..n-1}.

    Runs every supported configuration and compares each result to the
    enumerated optimum; with `deep` (default n <= 8) the per-round order
    and contraction checks run too, and with `axioms` (default n <= 6) the
    monotonicity/consistency axioms are checked exhaustively, including on
    capped views of the oracle. `strict_oracle` (no early exit) is used
    for re-evaluation when given.
    """
    if deep is None:
        deep = n <= 8
    if axioms is None:
        axioms = n <= 6
    ref = strict_oracle if strict_oracle is not None else oracle
    entries = []
    expected = brute_min_bipartition(ref, n)
    entries.append(VerifyEntry(
        "bruteforce-optimum", True, f"value {expected.value}"))

    deep_failures = {}
    deep_counts = {}
    for name, cfg in named_configs(oracle):
        best, value, stats, records = run_with_records(oracle, n, cfg)
        agree = values_equal(value, expected.value)
        entries.append(VerifyEntry(
            f"agrees-with-bruteforce[{name}]", agree,
            f"value {value} vs {expected.value}"))
        attained = ref.eval(frozenset(best), frozenset(range(n)) - best, INF)
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
                for check_name, result in check_order_record(ref, record):
                    deep_counts[check_name] = deep_counts.get(check_name, 0) + 1
                    if not result and check_name not in deep_failures:
                        deep_failures[check_name] = (name, record.index, result.witness)
                check_name, result = check_contraction_record(ref, record)
                deep_counts[check_name] = deep_counts.get(check_name, 0) + 1
                if not result and check_name not in deep_failures:
                    deep_failures[check_name] = (name, record.index, result.witness)
    for check_name in sorted(deep_counts):
        failure = deep_failures.get(check_name)
        entries.append(VerifyEntry(
            check_name, failure is None,
            f"{deep_counts[check_name]} rounds" if failure is None else repr(failure)))

    if deep:
        triangle = check_separation_triangle(ref, n)
        entries.append(VerifyEntry(
            "separation-triangle", bool(triangle),
            "" if triangle else repr(triangle.witness)))

    if axioms:
        mono = check_monotone(ref, n)
        entries.append(VerifyEntry("oracle-monotone", bool(mono),
                                   "" if mono else repr(mono.witness)))
        cons = check_consistent(ref, n)
        entries.append(VerifyEntry("oracle-consistent", bool(cons),
                                   "" if cons else repr(cons.witness)))
        for cap in _sample_caps(ref, n):
            capped = ThresholdedOracle(ref, cap)
            mono = check_monotone(capped, n)
            cons = check_consistent(capped, n)
            entries.append(VerifyEntry(
                f"capped-oracle-axioms[cap={cap}]", bool(mono) and bool(cons)))
    return VerifyReport(entries)


def verify_table(table, axioms=None):
    """Verification sweep for minimizing an explicit symmetric submodular f."""
    n = table.n
    if axioms is None:
        axioms = n <= 6
    entries = []
    symmetric, submodular = check_symmetric_submodular(table)
    entries.append(VerifyEntry("table-symmetric", symmetric))
    entries.append(VerifyEntry("table-submodular", submodular))
    oracle = ConnectivityOracle(table)
    if axioms:
        mono = check_monotone(oracle, n)
        entries.append(VerifyEntry("connectivity-monotone", bool(mono),
                                   "" if mono else repr(mono.witness)))
        cons = check_consistent(oracle, n)
        entries.append(VerifyEntry("connectivity-consistent", bool(cons),
                                   "" if cons else repr(cons.witness)))
    if symmetric and submodular:
        f = table.table_values
        best_f = min(f[mask] for mask in range(1, (1 << n) - 1))
        found, _, _ = optimal_set(oracle, n)
        mask = mask_of(found)
        ok = f[mask] == best_f
        entries.append(VerifyEntry(
            "minimizes-set-function", ok, f"f(S) = {f[mask]}, best {best_f}"))
    return VerifyReport(entries)


def _sample_caps(oracle, n):
    values = set()
    full = (1 << n) - 1
    for mask in range(1, full):
        left = frozenset(v for v in range(n) if mask >> v & 1)
        right = frozenset(v for v in range(n) if (full ^ mask) >> v & 1)
        values.add(oracle.eval(left, right, INF))
    top = max(values)
    mid = sorted(values)[len(values) // 2]
    return [0, mid, top]
