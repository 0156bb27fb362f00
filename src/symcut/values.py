"""Value conventions shared across the package.

Cut values are plain ints or floats; ``INF`` (= ``math.inf``) is the
"no threshold" sentinel and compares greater than every finite value.
Integer instances admit exact comparison; float instances are compared
with a relative plus an absolute tolerance, so that rounding in the sums
of large weights does not read as a different value.
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


def mask_of(elements):
    """Bitmask of a collection of element indices."""
    m = 0
    for v in elements:
        m |= 1 << v
    return m


def set_of(mask):
    """Element indices of a bitmask, as a set."""
    out = set()
    v = 0
    while mask:
        if mask & 1:
            out.add(v)
        mask >>= 1
        v += 1
    return out
