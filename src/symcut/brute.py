"""Exhaustive ground truth for small instances.

Everything the fast path relies on can be recomputed here by direct
enumeration: minimum bipartitions, pairwise separation values, and the
symmetry / monotonicity / consistency axioms the minimizer assumes. All
evaluations go through the oracle uncapped (tau = INF), so thresholding
can never mask a discrepancy. Failed checks carry a witness. An
inequality counts as violated only beyond the float tolerance
(``values.value_below``), and a premise or an equality holds within it;
integer values compare exactly.
"""

from dataclasses import dataclass
from functools import cache

from .values import INF, set_of, submasks, value_below, values_equal

#: largest n enumerated; 2^(n-1) evaluations take seconds at n = 20 and
#: double with every further element
MAX_ENUM = 20


@dataclass(frozen=True)
class BruteResult:
    """Best bipartition found by enumeration; the side containing element 0."""

    mask: int
    value: object

    def elements(self):
        return set_of(self.mask)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


def _full_eval(oracle, s_mask, t_mask):
    return oracle.eval(set_of(s_mask), set_of(t_mask), INF)


def brute_min_bipartition(oracle, n):
    """Minimum of d(S, V\\S) over all nontrivial S by enumeration.

    Element 0 is pinned to the S side (the complement gives the same value
    by symmetry), so 2^(n-1) - 1 evaluations suffice. Ties break toward the
    smallest bitmask.
    """
    if not 2 <= n <= MAX_ENUM:
        raise ValueError(f"enumeration supports 2 <= n <= {MAX_ENUM}")
    full = (1 << n) - 1
    best_mask = None
    best = None
    for m in range(1, full, 2):
        val = _full_eval(oracle, m, full ^ m)
        if best is None or val < best:
            best = val
            best_mask = m
    return BruteResult(best_mask, best)


def brute_lambda(oracle, n, s, t):
    """Minimum of d(S, V\\S) over all S containing s but not t."""
    if s == t:
        raise ValueError("need two distinct elements")
    if not 2 <= n <= MAX_ENUM:
        raise ValueError(f"enumeration supports 2 <= n <= {MAX_ENUM}")
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("element out of range")
    full = (1 << n) - 1
    best = None
    for others in submasks(full ^ 1 << s ^ 1 << t):
        mask = others | 1 << s
        val = _full_eval(oracle, mask, full ^ mask)
        if best is None or val < best:
            best = val
    return best


def check_symmetric(oracle, n):
    """Check d(S, V\\S) = d(V\\S, S), within `values_equal`, for every bipartition.

    Element 0 is pinned to S, so each bipartition is tested once: 2^n
    evaluations in all. The witness is the mask of S. The tolerance is
    needed: a cut oracle's two sides walk in different orders, so float
    values of equal-sized sides may differ in the last place.
    """
    full = (1 << n) - 1
    for s in range(1, full, 2):
        if not values_equal(_full_eval(oracle, s, full ^ s),
                            _full_eval(oracle, full ^ s, s)):
            return CheckResult(False, s)
    return CheckResult(True)


def check_monotone(oracle, n):
    """Exhaustively check d(S, T') <= d(S, T) for all disjoint S, T and T' in T.

    Costs about 4^n cached pair evaluations; meant for n <= 6.
    """
    full = (1 << n) - 1
    d = cache(lambda s, t: _full_eval(oracle, s, t))
    for s in range(1 << n):
        for t in submasks(full ^ s):
            d_st = d(s, t)
            for tp in submasks(t):
                if tp != t and value_below(d_st, d(s, tp)):
                    return CheckResult(False, (s, t, tp))
    return CheckResult(True)


def check_consistent(oracle, n):
    """Exhaustively check consistency on all pairwise disjoint triples.

    For disjoint R, S, T: d(S,R) >= d(T,R) must imply
    d(S, R|T) >= d(S|R, T). Costs about 4^n cached comparisons; n <= 6.
    """
    full = (1 << n) - 1
    d = cache(lambda s, t: _full_eval(oracle, s, t))
    for r in range(1 << n):
        rest = full ^ r
        for s in submasks(rest):
            for t in submasks(rest ^ s):
                if (not value_below(d(s, r), d(t, r))
                        and value_below(d(s, r | t), d(s | r, t))):
                    return CheckResult(False, (r, s, t))
    return CheckResult(True)


#: largest table n the CLI gives to table_submodular (O(2^n n^2) steps)
MAX_TABLE_CHECK = 12


def table_symmetric(table):
    """Whether f(A) = f(V\\A) for every A, within `values_equal`, in O(2^n).

    With A a bitmask, V\\A is ``full ^ A == full - A``, so the table must
    read the same reversed. That exact test decides every table it passes;
    only a table it fails (a float table off in the last place, say) is
    compared entry by entry.
    """
    f = table.table_values
    return f == f[::-1] or all(map(values_equal, f, reversed(f)))


def table_submodular(table):
    """Whether f(S) + f(T) >= f(S|T) + f(S&T) for every pair, in O(2^n n^2).

    Tested in the local form f(S+i) + f(S+j) >= f(S+i+j) + f(S) for every
    S and i < j outside S, which is equivalent: any pair's inequality is a
    sum of local ones along a chain from S&T to S|T.
    """
    f = table.table_values
    n = table.n
    for s in range(1 << n):
        fs = f[s]
        outside = [1 << i for i in range(n) if not s >> i & 1]
        for a, bit_i in enumerate(outside):
            si = s | bit_i
            fsi = f[si]
            for bit_j in outside[a + 1:]:
                if value_below(fsi + f[s | bit_j], f[si | bit_j] + fs):
                    return False
    return True


def verify_lax_back_order(oracle, blocks, order):
    """Re-check the defining back-order inequality from scratch.

    `blocks` maps class labels to member sets. For every prefix position i
    and every later class j, min(tau, d(class_i, prefix before i)) must be
    at least min(tau, d(class_j, same prefix)), with tau the order's
    threshold. Evaluations are uncapped.
    """
    seq, tau = order.order, order.threshold
    k = len(seq)
    prefix = frozenset(blocks[seq[0]])
    for i in range(1, k):
        own = min(tau, oracle.eval(frozenset(blocks[seq[i]]), prefix, INF))
        for j in range(i + 1, k):
            later = min(tau, oracle.eval(frozenset(blocks[seq[j]]), prefix, INF))
            if value_below(own, later):
                return CheckResult(False, (i, j))
        prefix = prefix | blocks[seq[i]]
    return CheckResult(True)
