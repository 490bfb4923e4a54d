"""Variables, finite frames, domains and configurations.

A :class:`VariableCatalog` declares named variables, each with a finite,
nonempty frame of values.  A :class:`Domain` is a subset of the catalog's
variables, always stored sorted in the global (lexicographic) name order,
so that table layouts and printed output are deterministic.  A
:class:`Configuration` assigns one frame value (by index) to every
variable of a domain.

Configurations of a domain are enumerated in row-major order: the last
variable in sorted order varies fastest.  This order coincides with
lexicographic order on the value-index tuples, which the rest of the
package relies on for canonical sorting.

Everything here is immutable; all operations are pure and safe for
unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping

from .errors import CapacityError, DomainError

#: Dense enumeration guard: configuration counts above this raise
#: :class:`CapacityError` unless the caller passes a different cap.
DEFAULT_CONFIG_CAP = 2**24


@dataclass(frozen=True)
class Domain:
    """A set of variable names, kept sorted in the global name order.

    The empty domain is allowed; it is the bottom of the subset lattice
    and has exactly one (empty) configuration.
    """

    names: tuple[str, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(set(self.names)))
        if ordered != self.names:
            object.__setattr__(self, "names", ordered)

    @classmethod
    def of(cls, *names: str) -> "Domain":
        return cls(tuple(names))

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __bool__(self) -> bool:
        return bool(self.names)

    def __or__(self, other: "Domain") -> "Domain":
        return Domain(self.names + other.names)

    def __and__(self, other: "Domain") -> "Domain":
        keep = set(other.names)
        return Domain(tuple(n for n in self.names if n in keep))

    def __sub__(self, other: "Domain") -> "Domain":
        drop = set(other.names)
        return Domain(tuple(n for n in self.names if n not in drop))

    def __le__(self, other: "Domain") -> bool:
        """Subset test; the partial order of the domain lattice."""
        return set(self.names) <= set(other.names)

    def __str__(self) -> str:
        return "{" + " ".join(self.names) + "}" if self.names else "{}"


EMPTY_DOMAIN = Domain()


def cond_indep_subsets(s: Domain, t: Domain, r: Domain) -> bool:
    """Conditional independence of variable sets: ``s & t <= r``.

    This relation on the subset lattice is a strong separoid; the
    quantified separoid conditions are exercised by the test suite.
    """
    return (s & t) <= r


@dataclass(frozen=True)
class Variable:
    name: str
    frame: tuple[str, ...]

    def __post_init__(self):
        if not self.name:
            raise DomainError("variable name must be nonempty")
        if not self.frame:
            raise DomainError(f"variable {self.name!r} has an empty frame")
        if len(set(self.frame)) != len(self.frame):
            raise DomainError(f"variable {self.name!r} has duplicate frame values")


@dataclass(frozen=True)
class VariableCatalog:
    """Named variables with finite frames under a fixed total name order."""

    variables: tuple[Variable, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.variables, key=lambda v: v.name))
        names = [v.name for v in ordered]
        if len(set(names)) != len(names):
            raise DomainError("duplicate variable names in catalog")
        object.__setattr__(self, "variables", ordered)

    @classmethod
    def of(cls, spec: Mapping[str, Iterable[str]]) -> "VariableCatalog":
        return cls(tuple(Variable(n, tuple(f)) for n, f in spec.items()))

    @cached_property
    def _by_name(self) -> dict[str, Variable]:
        return {v.name: v for v in self.variables}

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def frame(self, name: str) -> tuple[str, ...]:
        try:
            return self._by_name[name].frame
        except KeyError:
            raise DomainError(f"unknown variable {name!r}") from None

    def size(self, name: str) -> int:
        return len(self.frame(name))

    def domain(self, *names: str) -> Domain:
        d = Domain(tuple(names))
        self.check_domain(d)
        return d

    def check_domain(self, d: Domain) -> Domain:
        for n in d.names:
            if n not in self._by_name:
                raise DomainError(f"unknown variable {n!r}")
        return d

    @property
    def full_domain(self) -> Domain:
        return Domain(tuple(v.name for v in self.variables))

    def config_count(self, d: Domain, cap: int | None = DEFAULT_CONFIG_CAP) -> int:
        n = 1
        for name in d.names:
            n *= self.size(name)
            if cap is not None and n > cap:
                raise CapacityError(
                    f"domain {d} has more than {cap} configurations"
                )
        return n


@dataclass(frozen=True)
class Configuration:
    """One frame-value index per variable of a domain."""

    domain: Domain
    values: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if len(self.values) != len(self.domain):
            raise DomainError(
                f"configuration has {len(self.values)} values "
                f"for domain of size {len(self.domain)}"
            )

    def value_of(self, name: str) -> int:
        try:
            return self.values[self.domain.names.index(name)]
        except ValueError:
            raise DomainError(f"variable {name!r} not in {self.domain}") from None

    def labels(self, cat: VariableCatalog) -> tuple[str, ...]:
        return tuple(cat.frame(n)[v] for n, v in zip(self.domain.names, self.values))


def restrict(c: Configuration, s: Domain) -> Configuration:
    """Project a configuration onto a subdomain (positional copy)."""
    if not s <= c.domain:
        raise DomainError(f"{s} is not a subset of {c.domain}")
    if s == c.domain:
        return c
    pos = {n: i for i, n in enumerate(c.domain.names)}
    return Configuration(s, tuple(c.values[pos[n]] for n in s.names))


def strides(cat: VariableCatalog, d: Domain) -> tuple[int, ...]:
    """Row-major strides: the last variable in sorted order varies fastest."""
    out = [1] * len(d)
    for i in range(len(d) - 2, -1, -1):
        out[i] = out[i + 1] * cat.size(d.names[i + 1])
    return tuple(out)


def config_index(cat: VariableCatalog, c: Configuration) -> int:
    st = strides(cat, c.domain)
    for name, v in zip(c.domain.names, c.values):
        if not 0 <= v < cat.size(name):
            raise DomainError(f"value index {v} out of range for {name!r}")
    return sum(v * s for v, s in zip(c.values, st))


def config_from_index(cat: VariableCatalog, d: Domain, i: int) -> Configuration:
    count = cat.config_count(d, cap=None)
    if not 0 <= i < count:
        raise DomainError(f"index {i} out of range for domain {d}")
    values = []
    for s in strides(cat, d):
        values.append(i // s)
        i %= s
    return Configuration(d, tuple(values))


def enumerate_configs(
    cat: VariableCatalog, d: Domain, cap: int | None = DEFAULT_CONFIG_CAP
) -> list[Configuration]:
    """All configurations of ``d`` in row-major index order.

    The empty domain yields exactly one empty configuration.
    """
    cat.check_domain(d)
    n = cat.config_count(d, cap=cap)
    sizes = [cat.size(name) for name in d.names]
    out = []
    digits = [0] * len(d)
    for _ in range(n):
        out.append(Configuration(d, tuple(digits)))
        for p in range(len(d) - 1, -1, -1):
            digits[p] += 1
            if digits[p] < sizes[p]:
                break
            digits[p] = 0
    return out


def _offsets(sizes, contribs) -> list[int]:
    """Row-major sweep of a mixed-radix counter: ``sum(digit * contrib)``.

    The first size is the outermost digit.  Built one variable at a time
    with list comprehensions, so the per-cell work runs at C level.
    """
    out = [0]
    for size, c in zip(sizes, contribs):
        steps = [k * c for k in range(size)]
        out = [x + k for x in out for k in steps]
    return out


# stores nothing; kept as a wrapper because perfbench/tracer.py reads cache_info()
@lru_cache(maxsize=0)
def restriction_index_map(
    cat: VariableCatalog, big: Domain, sub: Domain
) -> tuple[int, ...]:
    """``m[i]`` = index in ``sub`` of the restriction of ``big``'s config ``i``.

    No configuration objects are built; this is the indexing workhorse
    behind table combination and vacuous extension.
    """
    if not sub <= big:
        raise DomainError(f"{sub} is not a subset of {big}")
    sub_strides = dict(zip(sub.names, strides(cat, sub)))
    return tuple(_offsets([cat.size(name) for name in big.names],
                          [sub_strides.get(name, 0) for name in big.names]))
