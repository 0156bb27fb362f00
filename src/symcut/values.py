"""Value conventions shared across the package.

Cut values are plain ints or floats; ``INF`` (= ``math.inf``) is the
"no threshold" sentinel and compares greater than every finite value.
Integer instances admit exact comparison; float instances are compared
with a relative plus an absolute tolerance, so that rounding in the sums
of large weights does not read as a different value. ``values_equal`` is
that equality and ``value_below`` the matching strict order: every
exhaustive check calls an inequality violated only through it.

Subsets of V = {0..n-1} are bitmasks: bit v set means element v is in
the subset. ``mask_of``, ``set_of`` and ``submasks`` are the package's
only subset codec; every walk over the submasks of a set goes through
``submasks``, so its order (descending) is fixed in one place.
"""

import math

INF = math.inf

#: relative and absolute tolerance for comparing fractional cut values
REL_TOL = 1e-9
ABS_TOL = 1e-9


def values_equal(a, b):
    """Equality for cut values: exact for ints, within REL_TOL or ABS_TOL otherwise."""
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def value_below(a, b):
    """Whether a < b beyond the tolerance of `values_equal`: exact for ints.

    ``not value_below(a, b)`` is the matching ">=": it holds when a >= b or
    a equals b within the tolerance.
    """
    return a < b and not values_equal(a, b)


def format_value(value):
    """Text of a value in files and reports: repr for floats, so it reads back exactly."""
    return repr(value) if isinstance(value, float) else str(value)


def finite_key(value, label, of="class"):
    """`value` itself, or a ValueError naming `of` and `label` if it is NaN or infinite.

    Every key an order is built from is checked: a NaN compares false
    with everything, so it would otherwise read as "below tau" in a scan,
    vanish inside a heap, or be recorded as tau by min(tau, nan). The scan
    builder, the singleton probe and the driver's final value pass each
    value through here. The queue builder tests each tracker key inline,
    before the queue sees it, and the driver each of an oracle's
    ``singleton_values``; both call this only to raise.
    """
    if not -INF < value < INF:
        raise ValueError(f"the oracle gave {of} {label} the non-finite key {value!r}")
    return value


def mask_of(elements):
    """Bitmask of a collection of element indices."""
    m = 0
    for v in elements:
        m |= 1 << v
    return m


def set_of(mask):
    """Element indices of a bitmask, as a frozenset."""
    out = []
    while mask:  # one pass per set bit, highest first
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    return frozenset(out)


def submasks(mask):
    """Every submask of `mask`, each once, from `mask` itself down to 0."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
    yield 0
