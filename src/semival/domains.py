"""Variables, finite frames, domains and configurations.

A :class:`VariableCatalog` declares named variables, each with a finite,
nonempty frame of values.  A :class:`Domain` is a subset of the catalog's
variables, always stored sorted in the global (lexicographic) name order,
so that table layouts and printed output are deterministic.  A
configuration of a domain is a tuple of value indices, one per variable
in sorted order.

Configurations of a domain are enumerated in row-major order: the last
variable in sorted order varies fastest.  This order coincides with
lexicographic order on the value-index tuples, which the rest of the
package relies on for canonical sorting.

Everything here is immutable; all operations are pure and safe for
unrestricted concurrent use.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapacityError, DomainError, Frozen

#: Dense enumeration guard: configuration counts above this raise
#: :class:`CapacityError` unless the caller passes a different cap.
DEFAULT_CONFIG_CAP = 2**24


class Domain(Frozen):
    """A set of variable names, kept sorted in the global name order.

    The empty domain is allowed; it is the bottom of the subset lattice
    and has exactly one (empty) configuration.
    """

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...] = ()):
        object.__setattr__(self, "names", tuple(sorted(set(names))))

    # no _key(): domains are compared and hashed on every table operation
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return hash(self.names)

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

    @staticmethod
    def _presorted(names: tuple[str, ...]) -> "Domain":
        """A domain on names that are already sorted and unique; no re-sort."""
        out = object.__new__(Domain)
        object.__setattr__(out, "names", names)
        return out

    def __and__(self, other: "Domain") -> "Domain":
        keep = set(other.names)
        return self._presorted(tuple(n for n in self.names if n in keep))

    def __le__(self, other: "Domain") -> bool:
        """Subset test; the partial order of the domain lattice."""
        return set(other.names).issuperset(self.names)

    def __str__(self) -> str:
        return "{" + " ".join(self.names) + "}" if self.names else "{}"


EMPTY_DOMAIN = Domain()


def cond_indep_subsets(s: Domain, t: Domain, r: Domain) -> bool:
    """Conditional independence of variable sets: ``s & t <= r``.

    This relation on the subset lattice is a strong separoid; the
    quantified separoid conditions are exercised by the test suite.
    """
    return (s & t) <= r


class Variable(Frozen):
    __slots__ = ("name", "frame")

    def __init__(self, name: str, frame: tuple[str, ...]):
        if not name:
            raise DomainError("variable name must be nonempty")
        if not frame:
            raise DomainError(f"variable {name!r} has an empty frame")
        if len(set(frame)) != len(frame):
            raise DomainError(f"variable {name!r} has duplicate frame values")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "frame", frame)

    def _key(self) -> tuple:
        return (self.name, self.frame)


class VariableCatalog(Frozen):
    """Named variables with finite frames under a fixed total name order."""

    def __init__(self, variables: tuple[Variable, ...]):
        ordered = tuple(sorted(variables, key=lambda v: v.name))
        names = [v.name for v in ordered]
        if len(set(names)) != len(names):
            raise DomainError("duplicate variable names in catalog")
        object.__setattr__(self, "variables", ordered)

    # no _key(), and an identity test first: every operation on two tables
    # compares their catalogs, which are almost always one object
    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    @classmethod
    def of(cls, spec: Mapping[str, Iterable[str]]) -> "VariableCatalog":
        return cls(tuple(Variable(n, tuple(f)) for n, f in spec.items()))

    @cached_property
    def _by_name(self) -> dict[str, Variable]:
        return {v.name: v for v in self.variables}

    @cached_property
    def _sizes(self) -> dict[str, int]:
        return {v.name: len(v.frame) for v in self.variables}

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def frame(self, name: str) -> tuple[str, ...]:
        try:
            return self._by_name[name].frame
        except KeyError:
            raise DomainError(f"unknown variable {name!r}") from None

    def size(self, name: str) -> int:
        try:
            return self._sizes[name]
        except KeyError:
            raise DomainError(f"unknown variable {name!r}") from None

    def domain(self, *names: str) -> Domain:
        """The domain of ``names``, each a declared variable listed once."""
        d = self.check_domain(Domain(names))
        if len(d) != len(names):
            twice = next(n for n in names if names.count(n) > 1)
            raise DomainError(f"variable {twice!r} listed twice")
        return d

    def check_domain(self, d: Domain) -> Domain:
        for n in d.names:
            if n not in self._by_name:
                raise DomainError(f"unknown variable {n!r}")
        return d

    def config_count(self, d: Domain, cap: int | None = DEFAULT_CONFIG_CAP) -> int:
        sizes = self._sizes
        n = 1
        for name in d.names:
            if name not in sizes:
                raise DomainError(f"unknown variable {name!r}")
            n *= sizes[name]
            if cap is not None and n > cap:
                raise CapacityError(
                    f"domain {d} has more than {cap} configurations"
                )
        return n


def _repeat_blocks(seq: Iterable, length: int, times: int) -> Iterator:
    """Each consecutive block of ``length`` items of ``seq``, ``times`` times
    over, made as it is read: ``seq``'s blocks are read once, as tuples, and
    each is repeated by a ``repeat`` iterator, with no per-item Python step."""
    if length == 1:
        # zip reads ``seq`` ``times`` over, so it must be a tuple: one-item
        # blocks come only at _insert_runs' first repeat, on ``cells``
        return chain.from_iterable(zip(*[seq] * times))
    blocks = map(repeat, zip(*[iter(seq)] * length), repeat(times))
    return chain.from_iterable(chain.from_iterable(blocks))


# stores nothing; the name and its cache_info() stay for perfbench/tracer.py,
# and it returns a tuple because the tracer counts len(result)
@lru_cache(maxsize=0)
def restriction_index_map(
    cat: VariableCatalog, big: Domain, sub: Domain, cells: tuple
) -> tuple:
    """``cells``, a table on ``sub <= big``, in ``big``'s configuration order;
    with ``cells = tuple(range(count(sub)))``, the restriction index map."""
    if not sub <= big:
        raise DomainError(f"{sub} is not a subset of {big}")
    return tuple(_insert_runs(cat, big.names, sub, cells))


def _insert_runs(cat: VariableCatalog, names: Sequence[str], sub: Domain,
                 cells: tuple) -> Iterable:
    """``cells``, on ``sub``'s variables in ``names``' order, on all of
    ``names``, made as it is read.

    Each run of ``names`` that ``sub`` lacks is inserted as block
    repetitions of ``cells``, last run first: no configuration objects are
    built, no index map is applied and no per-cell Python step runs.  The
    outermost run's one block is the whole inner result, 1/run of the
    output; that block alone is held, and read ``run`` times.
    """
    if len(sub) == len(names):
        return cells
    out = cells
    block = run = 1  # block: items of ``out`` per configuration of the suffix done
    for name in reversed(names):
        if name in sub.names:
            if run > 1:
                out = _repeat_blocks(out, block, run)
            block, run = block * run * cat.size(name), 1
        else:
            run *= cat.size(name)
    return chain.from_iterable(repeat(tuple(out), run)) if run > 1 else out
