"""One tolerance policy for every real-valued comparison in the package.

Exact carriers (booleans, chain levels, integers) compare with ``==``;
real-valued carriers go through a :class:`Comparator`.  All modules share
``DEFAULT_COMPARATOR`` unless the caller supplies another one, so there is
a single place to tighten or loosen floating-point equality.
"""

from __future__ import annotations

import math

from .errors import Frozen


class Comparator(Frozen):
    """Absolute + relative tolerance equality for real numbers."""

    __slots__ = ("rel", "abs")

    def __init__(self, rel: float = 1e-9, abs: float = 1e-12):
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "abs", abs)

    def eq(self, a: float, b: float) -> bool:
        if a == b:
            # covers ints, equal floats and matching infinities
            return True
        if math.isinf(a) or math.isinf(b):
            return False
        return abs(a - b) <= max(self.abs, self.rel * max(abs(a), abs(b)))

    def is_zero(self, a: float) -> bool:
        return self.eq(a, 0.0)


DEFAULT_COMPARATOR = Comparator()
