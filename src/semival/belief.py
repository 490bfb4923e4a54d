"""Set potentials: sparse mass assignments over configuration sets.

A :class:`SetPotential` maps focal sets (bitmasks over the frame of its
domain) to positive masses.  Combination intersects cylindrically
extended focal pairs on the union domain and accumulates their mass
products; transport restricts each focal set to the shared variables,
extends it as a cylinder and merges colliding images.  A potential
flagged ``bpa`` carries total mass one.  Empty-set mass is kept, not
silently renormalized: :func:`dempster_combine` removes it and conditions
the rest on consistency.  A potential's ``conflict`` is the mass K this
removed from the whole combination, or else its own empty-set mass.

Belief and commonality are evaluated lazily per query set.  The full
tables and their inverse (Moebius) transforms are lists over all ``2^k``
subsets of the frame, indexed by bitmask, and are offered only under a
cap on the frame's configuration count k.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from functools import cmp_to_key, reduce
from itertools import compress, count

from . import domains as dm
from .compare import DEFAULT_COMPARATOR, Comparator
from .domains import Domain, VariableCatalog
from .errors import (
    CapacityError,
    DomainError,
    Frozen,
    MassError,
    MismatchError,
    TotalConflictError,
)
from .semiring import format_value

#: Frame-size cap for the explicit belief/commonality tables (2^k entries).
DEFAULT_SUBSET_CAP = 16

RAW = "raw"
BPA = "bpa"


class FocalSet(Frozen):
    """A set of configurations of one domain, as a mask over its frame: bit i
    is the i-th configuration in row-major order (tuple order)."""

    __slots__ = ("catalog", "domain", "mask", "_hash")

    def __init__(self, catalog: VariableCatalog, domain: Domain, mask: int):
        n = catalog.config_count(domain, cap=None)
        if mask < 0 or mask.bit_length() > n:
            raise DomainError(f"mask does not fit the {n} configurations of {domain}")
        object.__setattr__(self, "catalog", catalog)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_hash", hash((domain.names, mask)))

    # no _key(): focal sets key every mass and belief table, so hash them once
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask and self.domain == other.domain

    def __hash__(self):
        return self._hash

    @classmethod
    def of(cls, cat: VariableCatalog, domain: Domain,
           configs: Iterable[tuple[int, ...]]) -> "FocalSet":
        """The set of ``configs``, value-index tuples each checked against its frame."""
        cat.config_count(domain)  # the mask is as wide as the frame
        frames = [range(cat.size(name)) for name in domain.names]
        places = [math.prod(map(len, frames[j + 1:])) for j in range(len(frames))]
        mask = 0
        for values in configs:
            if len(values) != len(frames) or not all(map(operator.contains, frames, values)):
                raise DomainError(f"configuration {values} is outside the frame of {domain}")
            mask |= 1 << sum(map(operator.mul, values, places))
        return cls(cat, domain, mask)

    @classmethod
    def full(cls, cat: VariableCatalog, domain: Domain) -> "FocalSet":
        return cls(cat, domain, (1 << cat.config_count(domain)) - 1)

    @classmethod
    def empty(cls, cat: VariableCatalog, domain: Domain) -> "FocalSet":
        return cls(cat, domain, 0)

    @property
    def indices(self) -> list[int]:
        """The frame positions of the members, ascending."""
        return _indices(self.mask)

    @property
    def configs(self) -> tuple[tuple[int, ...], ...]:
        """The members as value-index tuples, in tuple order."""
        sizes = [self.catalog.size(name) for name in self.domain.names]
        places = [(math.prod(sizes[j + 1:]), size) for j, size in enumerate(sizes)]
        return tuple(tuple([i // p % size for p, size in places]) for i in self.indices)

    def complement(self) -> "FocalSet":
        full = FocalSet.full(self.catalog, self.domain)
        return FocalSet(self.catalog, self.domain, full.mask ^ self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()


_BYTES = bytes.maketrans(b"01", b"\0\1")


def _indices(mask: int) -> list[int]:
    """The positions of ``mask``'s set bits, lowest first."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BYTES)))


def _compare_focal(x: tuple[FocalSet, float], y: tuple[FocalSet, float]) -> int:
    """Order ``(focal set, mass)`` pairs as the sets' sorted member tuples: at
    the lowest bit where two masks differ, the set holding it comes first,
    unless the other has no member above it and so is a prefix of it."""
    a, b = x[0].mask, y[0].mask
    low = (a ^ b) & -(a ^ b)
    if not low:
        return 0
    if a & low:
        return -1 if b >= low << 1 else 1
    return 1 if a >= low << 1 else -1


_TUPLE_ORDER = cmp_to_key(_compare_focal)


class SetPotential(Frozen):
    """Compared and hashed by identity, as valuations are.  ``by_set`` maps
    each focal set to its mass."""

    __slots__ = ("catalog", "domain", "focal", "kind", "conflict", "by_set")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, catalog: VariableCatalog, domain: Domain,
                 focal: tuple[tuple[FocalSet, float], ...], kind: str = RAW,
                 conflict: float | None = None):
        for fs, mass in focal:
            if fs.domain != domain:
                raise DomainError(f"focal set over {fs.domain} in potential over {domain}")
            if not mass > 0:  # nan too
                raise MassError(f"non-positive mass {mass}")
        object.__setattr__(self, "catalog", catalog)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "focal", focal)
        object.__setattr__(self, "kind", kind)
        if conflict is None:  # not conditioned: the empty set's own mass
            conflict = math.fsum(mass for fs, mass in focal if not fs.mask)
        object.__setattr__(self, "conflict", conflict)
        object.__setattr__(self, "by_set", dict(focal))

    def mass(self, fs: FocalSet) -> float:
        return self.by_set.get(fs, 0.0)

    def total_mass(self) -> float:
        return math.fsum(m for _, m in self.focal)

    def empty_mass(self) -> float:
        return self.mass(FocalSet.empty(self.catalog, self.domain))


def set_potential(
    cat: VariableCatalog,
    domain: Domain,
    items: Iterable[tuple[FocalSet, float]],
    kind: str = RAW,
    comparator: Comparator = DEFAULT_COMPARATOR,
) -> SetPotential:
    """Build a potential in canonical form: merged, zero-dropped, sorted."""
    cat.check_domain(domain)
    merged: dict[FocalSet, float] = {}
    for fs, mass in items:
        if mass < 0 and not comparator.is_zero(mass):
            raise MassError(f"negative mass {mass}")
        merged[fs] = merged.get(fs, 0.0) + mass
    cleaned = {fs: m for fs, m in merged.items() if not comparator.is_zero(m)}
    ordered = tuple(sorted(cleaned.items(), key=_TUPLE_ORDER))
    if kind == BPA:
        total = math.fsum(cleaned.values())
        if not comparator.eq(total, 1.0):
            raise MassError(f"bpa masses sum to {total!r}, not 1")
    elif kind != RAW:
        raise MassError(f"unknown potential kind {kind!r}")
    return SetPotential(cat, domain, ordered, kind)


def vacuous(cat: VariableCatalog, domain: Domain) -> SetPotential:
    """Total ignorance: the full frame carries all the mass."""
    return set_potential(cat, domain, [(FocalSet.full(cat, domain), 1.0)], BPA)


def _fibres(cat: VariableCatalog, big: Domain, sub: Domain) -> tuple[int, dict[int, int]]:
    """The fibres in ``big`` of the configurations of ``sub <= big``, as one
    mask and each fibre's lowest index: fibre j is ``base << offsets[j]``,
    since a row-major index is a sum of one term per variable."""
    n = cat.config_count(sub, cap=None)
    index = dm.restriction_index_map(cat, big, sub, tuple(range(n)))
    base = int(bytes(b"01"[j == 0] for j in reversed(index)), 2)
    return base, dict(zip(reversed(index), reversed(range(len(index)))))  # each j's lowest


def _cylinder(mask: int, base: int, offsets: dict[int, int]) -> int:
    """The union of the fibres of ``mask``'s members."""
    return reduce(operator.or_, (base << offsets[j] for j in _indices(mask)), 0)


def combine_potentials(
    m1: SetPotential, m2: SetPotential, cap: int | None = dm.DEFAULT_CONFIG_CAP
) -> SetPotential:
    """Intersect focal pairs on the union domain, each set cylindrified once.

    Mass landing on the empty set is kept (the result is a raw
    potential); accumulation runs in canonical focal order so results are
    deterministic.
    """
    return set_potential(m1.catalog, *_meets(m1, m2, cap), RAW)


def _meets(m1: SetPotential, m2: SetPotential, cap: int | None):
    """The union domain and each focal pair's meet there, with its summed mass."""
    if m1.catalog != m2.catalog:
        raise MismatchError("potentials use different catalogs")
    cat, u = m1.catalog, m1.domain | m2.domain
    cat.config_count(u, cap=cap)
    fibres1, fibres2 = (_fibres(cat, u, m.domain) for m in (m1, m2))
    right = [(_cylinder(fs.mask, *fibres2), mass) for fs, mass in m2.focal]
    out: dict[int, float] = {}
    for fs, mass1 in m1.focal:
        s1 = _cylinder(fs.mask, *fibres1)
        for s2, mass2 in right:
            meet = s1 & s2
            out[meet] = out.get(meet, 0.0) + mass1 * mass2
    return u, [(FocalSet(cat, u, meet), mass) for meet, mass in out.items()]


def transport_potential(
    m: SetPotential, t: Domain, cap: int | None = dm.DEFAULT_CONFIG_CAP
) -> SetPotential:
    """Restrict each focal set to ``d(m) & t``, extend it to ``t``; images merge."""
    cat = m.catalog
    cat.check_domain(t)
    if t == m.domain:
        return m
    cat.config_count(m.domain | t, cap=cap)
    shared = m.domain & t
    base, offsets = _fibres(cat, m.domain, shared)
    out: dict[int, float] = {}
    for fs, mass in m.focal:  # the image holds each fibre the set meets
        image = sum(1 << j for j, off in offsets.items() if fs.mask >> off & base)
        out[image] = out.get(image, 0.0) + mass
    up = _fibres(cat, t, shared)
    items = [(FocalSet(cat, t, _cylinder(image, *up)), mass) for image, mass in out.items()]
    return set_potential(cat, t, items, RAW)


def dempster_combine(
    m1: SetPotential,
    m2: SetPotential,
    *more: SetPotential,
    comparator: Comparator = DEFAULT_COMPARATOR,
    cap: int | None = dm.DEFAULT_CONFIG_CAP,
) -> SetPotential:
    """Combine bpa's in argument order, rescaling each step by its non-empty
    mass and dropping nothing as zero until the end (a tiny meet may carry a
    later step's consistent mass); the conflict is ``1 - prod(1 - K_step)``."""
    acc, kept = m1, 1.0
    for m in (m2, *more):
        if acc.kind != BPA or m.kind != BPA:
            raise MassError("dempster_combine expects bpa-flagged potentials")
        u, items = _meets(acc, m, cap)
        conflict = sum(mass for fs, mass in items if not fs.mask)
        if comparator.eq(conflict, 1.0) or conflict > 1.0:
            raise TotalConflictError(
                f"operands are fully contradictory (conflict {format_value(conflict)})"
            )
        scale = math.fsum(mass for fs, mass in items if fs.mask)
        items = sorted(((fs, mass / scale) for fs, mass in items if fs.mask), key=_TUPLE_ORDER)
        acc, kept = SetPotential(acc.catalog, u, tuple(items), BPA), kept * (1.0 - conflict)
    result = set_potential(acc.catalog, acc.domain, acc.focal, BPA, comparator=comparator)
    return SetPotential(result.catalog, result.domain, result.focal, BPA, 1.0 - kept)


def mass_to_belief(m: SetPotential, s: FocalSet) -> float:
    """Total mass of focal sets contained in ``s``."""
    if s.domain != m.domain:
        raise DomainError(f"hypothesis over {s.domain}, potential over {m.domain}")
    return math.fsum(mass for fs, mass in m.focal if fs.mask | s.mask == s.mask)


def mass_to_commonality(m: SetPotential, s: FocalSet) -> float:
    """Total mass of focal sets containing ``s``."""
    if s.domain != m.domain:
        raise DomainError(f"hypothesis over {s.domain}, potential over {m.domain}")
    return math.fsum(mass for fs, mass in m.focal if fs.mask & s.mask == s.mask)


def _frame_size(cat: VariableCatalog, domain: Domain, cap: int | None) -> int:
    """The frame's configuration count k, checked against the subset cap."""
    k = cat.config_count(domain, cap=None)
    if cap is not None and k > cap:
        raise CapacityError(f"frame of {domain} has {k} > {cap} configurations")
    return k


def _subset_pass(f: list, k: int, op, superset: bool) -> None:
    """For each of the ``k`` bits in turn, every mask holding it (or, for
    ``superset``, lacking it) becomes ``op`` of its own entry and the entry
    of the mask that differs from it in that bit alone.

    Within one bit the two halves read only each other, so each pass is
    slice assignments: one per block of ``2 * step`` masks, or one per
    offset within a block, whichever is fewer.
    """
    n = len(f)
    for bit in range(k):
        step = 1 << bit
        if n // (2 * step) <= step:
            spans = [(slice(s, s + step), slice(s + step, s + 2 * step))
                     for s in range(0, n, 2 * step)]
        else:
            spans = [(slice(o, n, 2 * step), slice(o + step, n, 2 * step))
                     for o in range(step)]
        for lo, hi in spans:
            if superset:
                f[lo] = map(op, f[lo], f[hi])
            else:
                f[hi] = map(op, f[hi], f[lo])


def subset_tables(m: SetPotential, cap: int | None = DEFAULT_SUBSET_CAP
                  ) -> tuple[list[float], list[float]]:
    """The belief and commonality of every subset of the frame, by its mask.

    Each entry is the ``fsum`` of the same focal masses that
    :func:`mass_to_belief` and :func:`mass_to_commonality` add up: the focal
    sets below (above) every mask are found as integer sets of focal indices
    by an OR pass over the subset lattice, and each distinct set of focal
    indices is summed once.
    """
    cat, domain = m.catalog, m.domain
    k = _frame_size(cat, domain, cap)
    below = [0] * (1 << k)
    for i, (fs, _) in enumerate(m.focal):
        below[fs.mask] |= 1 << i
    above = below.copy()
    _subset_pass(below, k, operator.or_, superset=False)
    _subset_pass(above, k, operator.or_, superset=True)
    masses = [mass for _, mass in m.focal]
    total = {held: math.fsum(mass for i, mass in enumerate(masses) if held >> i & 1)
             for held in {*below, *above}}
    return list(map(total.__getitem__, below)), list(map(total.__getitem__, above))


def _moebius_invert(cat: VariableCatalog, domain: Domain,
                    table: Sequence[float], cap: int,
                    comparator: Comparator, superset: bool) -> SetPotential:
    """Invert a full table over all subsets of the frame, in mask order, to
    the masses.

    One frame configuration (bit) at a time, every set holding it (or, for
    ``superset``, lacking it) subtracts the entry of the set that differs
    from it in that bit alone.
    """
    k = _frame_size(cat, domain, cap)
    if len(table) != 1 << k:
        raise MassError(f"table has {len(table)} entries, expected {1 << k}")
    f = list(map(float, table))
    _subset_pass(f, k, operator.sub, superset)
    items = [(FocalSet(cat, domain, mask), v)
             for mask, v in enumerate(f) if not comparator.is_zero(v)]
    return set_potential(cat, domain, items, RAW, comparator=comparator)


def belief_to_mass(
    cat: VariableCatalog,
    domain: Domain,
    belief: Sequence[float],
    cap: int = DEFAULT_SUBSET_CAP,
    comparator: Comparator = DEFAULT_COMPARATOR,
) -> SetPotential:
    """Invert a full belief table (see :func:`subset_tables`) by the
    alternating subset sums."""
    return _moebius_invert(cat, domain, belief, cap, comparator, superset=False)


def commonality_to_mass(
    cat: VariableCatalog,
    domain: Domain,
    commonality: Sequence[float],
    cap: int = DEFAULT_SUBSET_CAP,
    comparator: Comparator = DEFAULT_COMPARATOR,
) -> SetPotential:
    """Invert a full commonality table (see :func:`subset_tables`) by the
    alternating superset sums."""
    return _moebius_invert(cat, domain, commonality, cap, comparator, superset=True)


def mass_deviation(a: SetPotential, b: SetPotential) -> float:
    """The largest difference between the masses two potentials give a set."""
    keys = set(a.by_set) | set(b.by_set)
    return max((abs(a.mass(k) - b.mass(k)) for k in keys), default=0.0)


def degree_of_support(
    m: SetPotential, h: FocalSet, comparator: Comparator = DEFAULT_COMPARATOR
) -> tuple[float, float]:
    """``(qsp, sp)``: the quasi-support is the mass of focal sets implying ``h``
    (the empty set implies everything), and sp conditions it on consistency."""
    qsp = mass_to_belief(m, h)
    total = m.total_mass()
    conflict = m.empty_mass()
    if comparator.eq(conflict, total):
        raise TotalConflictError("potential is fully contradictory")
    sp = (qsp - conflict) / (total - conflict)
    return qsp, sp


def degree_of_plausibility(
    m: SetPotential, h: FocalSet, comparator: Comparator = DEFAULT_COMPARATOR
) -> float:
    """Conditioned mass of focal sets not excluding ``h``."""
    if h.domain != m.domain:
        raise DomainError(f"hypothesis over {h.domain}, potential over {m.domain}")
    total = m.total_mass()
    conflict = m.empty_mass()
    if comparator.eq(conflict, total):
        raise TotalConflictError("potential is fully contradictory")
    possible = math.fsum(mass for fs, mass in m.focal if fs.mask & h.mask)
    return possible / (total - conflict)
