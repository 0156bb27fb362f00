"""Exhaustive ground truth for small instances.

Everything the fast path relies on can be recomputed here by direct
enumeration. :func:`bipartition_values` walks the bipartitions once
into a table of every value d(S, V\\S), from which the minimum
bipartition and any least separation over unions of classes are read.
:func:`check_lax_back_order` re-checks an order against its prefixes,
and the symmetry / monotonicity / consistency axioms the minimizer
assumes are checked exhaustively. All evaluations go through
the oracle uncapped (tau = INF), so thresholding can never mask a
discrepancy. Failed checks carry a witness. An inequality counts as
violated only beyond the float tolerance (``values.value_below``), and a
premise or an equality holds within it; integer values compare exactly.
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


def bipartition_values(oracle, n):
    """d(S, V\\S) for every nontrivial S holding element 0, at index ``mask >> 1``.

    One walk over the 2^(n-1) - 1 masks S with bit 0 set, in ascending
    order; the complement gives the same value by symmetry. Every minimum
    over bipartitions, here and in `verify`, reads this table.
    """
    if not 2 <= n <= MAX_ENUM:
        raise ValueError(f"enumeration supports 2 <= n <= {MAX_ENUM}")
    full = (1 << n) - 1
    return [_full_eval(oracle, m, full ^ m) for m in range(1, full, 2)]


def brute_min_bipartition(oracle, n):
    """Minimum of d(S, V\\S) over all nontrivial S by enumeration.

    Reads the least entry of :func:`bipartition_values`, so element 0 is
    on the S side. Ties break toward the smallest bitmask.
    """
    values = bipartition_values(oracle, n)
    best = values.index(min(values))
    return BruteResult(2 * best + 1, values[best])


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


def check_lax_back_order(oracle, blocks, order):
    """Re-check an order's two defining facts from scratch, in one walk.

    `blocks` maps class labels to member sets. At each position i >= 1,
    with P the classes before i and tau the order's threshold, each class
    from i on is evaluated once against P, uncapped:

    - ``order-dominates-suffix``: min(tau, d(class_i, P)) is at least
      min(tau, d(class_j, P)) for every later j; the witness is (i, j);
    - ``stored-keys-exact``: the stored key at i equals
      min(tau, d(class_i, P)); the witness is (i, stored, exact).

    Each check stops at its own first failure, the walk once both have.
    Returns ``[(name, CheckResult)]`` in that order.
    """
    seq, keys, tau = order.order, order.keys, order.threshold
    dominated = inexact = None
    prefix = frozenset(blocks[seq[0]])
    for i in range(1, len(seq)):
        own = min(tau, oracle.eval(frozenset(blocks[seq[i]]), prefix, INF))
        if inexact is None and not values_equal(keys[i], own):
            inexact = (i, keys[i], own)
        if dominated is None:
            for j in range(i + 1, len(seq)):
                later = min(tau, oracle.eval(frozenset(blocks[seq[j]]), prefix, INF))
                if value_below(own, later):
                    dominated = (i, j)
                    break
        if dominated is not None and inexact is not None:
            break
        prefix = prefix | blocks[seq[i]]
    return [("order-dominates-suffix", CheckResult(dominated is None, dominated)),
            ("stored-keys-exact", CheckResult(inexact is None, inexact))]
