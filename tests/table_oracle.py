"""An oracle given by an explicit table of pair values, for tests.

:class:`TableOracle` answers d(S, T) from a table keyed by the bitmask pair,
so a test can hand the solver and the checks any function it likes,
including ones that break monotonicity or consistency on purpose.
"""

from symcut.oracles import InstanceError, LaxOracle, _instance_values, _require_disjoint
from symcut.values import INF, mask_of, submasks


class TableOracle(LaxOracle):
    """d given explicitly for every disjoint bitmask pair.

    The table must be symmetric and complete over all disjoint pairs
    (including pairs with an empty side). Intended as a harness for
    adversarial or randomly generated functions in tests.
    """

    def __init__(self, n, table):
        if n < 1:
            raise ValueError("need at least one element")
        self.n = n
        table = dict(table)
        try:
            values, _ = _instance_values(list(table.values()), "entry", "value")
        except InstanceError as fault:
            raise InstanceError("masks", list(table)[fault.index], fault.reason) from None
        self.table = dict(zip(table, values))
        full = (1 << n) - 1
        for s in range(1 << n):
            for t in submasks(full ^ s):
                if (s, t) not in self.table:
                    raise ValueError(f"missing entry for masks ({s}, {t})")
                if self.table[(s, t)] != self.table[(t, s)]:
                    raise ValueError(f"asymmetric entries for masks ({s}, {t})")

    def eval(self, left, right, tau=INF):
        _require_disjoint(left, right)
        key = (mask_of(left), mask_of(right))
        if key not in self.table:
            raise ValueError(f"missing entry for masks {key}")
        return min(tau, self.table[key])


def complete_table(n, entries=None, default=0):
    """Symmetric complete pair table with the given overrides.

    `entries` maps (s_mask, t_mask) to values; each override is mirrored.
    Handy for constructing small adversarial fixtures.
    """
    full = (1 << n) - 1
    table = {(s, t): default for s in range(1 << n) for t in submasks(full ^ s)}
    for (s, t), v in (entries or {}).items():
        table[(s, t)] = v
        table[(t, s)] = v
    return table
