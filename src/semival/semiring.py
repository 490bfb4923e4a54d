"""Commutative semirings with capability flags and a sampling axiom checker.

A :class:`Semiring` bundles the two operations with their neutral
elements and three capability flags:

* ``idempotent_add`` -- ``a + a == a``; gates the transport operation on
  valuations and hypertree elimination,
* ``positive`` -- ``a + b == 0`` forces ``a == b == 0``; gates null
  detection through projection,
* ``idempotent_mul`` -- ``a * a == a``; together with ``idempotent_add``
  gates the idempotent (distribute-on-hypertree) machinery.

Flags are declared, then validated by :func:`check_semiring_axioms`;
capability gating elsewhere reads the flags, never runtime probes.
A ``member`` predicate describes the carrier; :meth:`Semiring.parse`
applies it, so a table value outside the carrier (``-1`` or ``nan`` in
an arithmetic table, say) is rejected before anything is computed.

The minus-infinity used as the tropical null is IEEE ``-inf``: ``max``
and ``+`` treat it as an exact annihilator, so no large-negative-float
approximation is ever involved.
"""

from __future__ import annotations

import math
import re
from functools import partial
from operator import add, mul
from typing import TYPE_CHECKING, Callable

from .compare import DEFAULT_COMPARATOR, Comparator
from .errors import DomainError, Frozen

if TYPE_CHECKING:
    import random

    from .reports import CheckReport

NEG_INF = float("-inf")


def format_value(v) -> str:
    """Canonical rendering: 12 significant digits for reals, ``-inf`` literal."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    if v == NEG_INF:
        return "-inf"
    return format(float(v), ".12g")


class Semiring(Frozen):
    """Compared and hashed by identity: two instances may share a name."""

    __slots__ = ("name", "carrier", "add", "mul", "zero", "one", "idempotent_add",
                 "positive", "idempotent_mul", "eq", "sample", "member")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, name: str, carrier: str, add: Callable, mul: Callable,
                 zero: object | None, one: object, idempotent_add: bool,
                 positive: bool, idempotent_mul: bool, eq: Callable,
                 sample: Callable,  # random.Random -> carrier element
                 member: Callable):  # value -> bool: is it in the carrier?
        for field, value in zip(self.__slots__, (
                name, carrier, add, mul, zero, one, idempotent_add, positive,
                idempotent_mul, eq, sample, member)):
            object.__setattr__(self, field, value)

    def parse(self, text: str):
        """Read one table value; text outside the carrier raises DomainError."""
        try:
            v = int(text)
        except ValueError:
            try:
                v = float(text)  # "-inf" reads as IEEE -inf
            except ValueError:
                raise DomainError(
                    f"cannot parse {text!r} as a {self.name} value") from None
        if not self.member(v):
            raise DomainError(
                f"{text!r} is not in the {self.name} carrier ({self.carrier})")
        return v



def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` without its Python frames: CPython's
    ``_randbelow_with_getrandbits``, so it consumes the same bits and
    returns the same value."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _sample_boolean(rng: random.Random) -> int:
    return _below(rng, 2)


def _sample_arithmetic(rng: random.Random) -> float:
    r = rng.random()
    if r < 0.15:
        return 0.0
    if r < 0.3:
        return float(1 + _below(rng, 4))
    return 0.0 + 4.0 * rng.random()  # rng.uniform(0.0, 4.0)


def _sample_tropical(rng: random.Random) -> float:
    r = rng.random()
    if r < 0.12:
        return NEG_INF
    if r < 0.6:
        return float(_below(rng, 13) - 6)
    return -6.0 + 12.0 * rng.random()  # rng.uniform(-6.0, 6.0)


def _sample_unit_interval(rng: random.Random) -> float:
    r = rng.random()
    if r < 0.1:
        return 0.0
    if r < 0.2:
        return 1.0
    return rng.random()


def _in_unit_interval(v) -> bool:
    return 0 <= v <= 1  # False for nan


def builtin_instances(comparator: Comparator = DEFAULT_COMPARATOR) -> dict[str, Semiring]:
    """The stock instances, keyed by their model-file identifiers."""
    cmp_eq = comparator.eq
    return {
        "boolean": Semiring(
            name="boolean",
            carrier="{0, 1} with max as + and min as *",
            add=max,
            mul=min,
            zero=0,
            one=1,
            idempotent_add=True,
            positive=True,
            idempotent_mul=True,
            eq=lambda a, b: a == b,
            sample=_sample_boolean,
            member=lambda v: v in (0, 1),
        ),
        "arithmetic": Semiring(
            name="arithmetic",
            carrier="nonnegative reals with ordinary + and *",
            add=add,
            mul=mul,
            zero=0.0,
            one=1.0,
            idempotent_add=False,
            positive=True,
            idempotent_mul=False,
            eq=cmp_eq,
            sample=_sample_arithmetic,
            member=lambda v: math.isfinite(v) and v >= 0,
        ),
        "tropical": Semiring(
            name="tropical",
            carrier="reals with -inf, max as + and ordinary + as *",
            add=max,
            mul=add,
            zero=NEG_INF,
            one=0,
            idempotent_add=True,
            positive=False,
            idempotent_mul=False,
            eq=cmp_eq,
            sample=_sample_tropical,
            member=lambda v: math.isfinite(v) or v == NEG_INF,
        ),
        "bottleneck": Semiring(
            name="bottleneck",
            carrier="[0, 1] with max as + and min as *",
            add=max,
            mul=min,
            zero=0.0,
            one=1.0,
            idempotent_add=True,
            positive=True,
            idempotent_mul=True,
            eq=cmp_eq,
            sample=_sample_unit_interval,
            member=_in_unit_interval,
        ),
        "fuzzy-product": Semiring(
            name="fuzzy-product",
            carrier="[0, 1] with max as + and the product t-norm as *",
            add=max,
            mul=mul,
            zero=0.0,
            one=1.0,
            idempotent_add=True,
            positive=True,
            idempotent_mul=False,
            eq=cmp_eq,
            sample=_sample_unit_interval,
            member=_in_unit_interval,
        ),
    }


def chain_instance(k: int) -> Semiring:
    """Bounded chain 0 < 1 < ... < k-1 with max as + and min as *."""
    if k < 1:
        raise DomainError("chain size must be >= 1")
    return Semiring(
        name=f"chain({k})",
        carrier=f"chain 0..{k - 1} with max as + and min as *",
        add=max,
        mul=min,
        zero=0,
        one=k - 1,
        idempotent_add=True,
        positive=True,
        idempotent_mul=True,
        eq=lambda a, b: a == b,
        sample=lambda rng: _below(rng, k),
        member=lambda v: v in range(k),
    )


_CHAIN_RE = re.compile(r"chain\((\d+)\)")


def get_instance(name: str, comparator: Comparator = DEFAULT_COMPARATOR) -> Semiring:
    m = _CHAIN_RE.fullmatch(name)
    if m:
        return chain_instance(int(m.group(1)))
    table = builtin_instances(comparator)
    if name not in table:
        known = ", ".join(sorted(table)) + ", chain(k)"
        raise DomainError(f"unknown semiring {name!r} (known: {known})")
    return table[name]


def _witness(k: int, abc: tuple) -> str:
    return ", ".join(f"{n}={format_value(v)}" for n, v in zip("abc", abc))


def check_semiring_axioms(
    sr: Semiring, samples: int = 10_000, seed: int = 0
) -> CheckReport:
    """Sample the semiring laws and the declared flags.

    Every law is reported separately with a witness for the first
    failure; the report is deterministic given the seed.  The laws are
    pure functions of the drawn values, so each is evaluated once per
    distinct draw, in first-seen order: the first failing distinct draw
    is the first failing draw, and ``samples`` still counts every draw.
    Draws that compare equal count as one.
    """
    import random

    from .reports import CheckReport, run_law
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = random.Random(seed)
    sample = sr.sample
    distinct = list(dict.fromkeys(
        (sample(rng), sample(rng), sample(rng)) for _ in range(samples)))
    add, mul, eq = sr.add, sr.mul, sr.eq
    has_zero = sr.zero is not None
    # fully idempotent bounded instances form a distributive lattice:
    # addition is join, multiplication meet; absorption witnesses that.
    both = sr.idempotent_add and sr.idempotent_mul
    law = partial(run_law, trials=distinct, witness=_witness)
    laws = (
        law("add-commutative", lambda a, b, c: eq(add(a, b), add(b, a))),
        law("add-associative", lambda a, b, c: eq(add(add(a, b), c), add(a, add(b, c)))),
        law("mul-commutative", lambda a, b, c: eq(mul(a, b), mul(b, a))),
        law("mul-associative", lambda a, b, c: eq(mul(mul(a, b), c), mul(a, mul(b, c)))),
        law("distributive",
            lambda a, b, c: eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))),
        law("zero-neutral", lambda a, b, c: eq(add(a, sr.zero), a), applicable=has_zero),
        law("zero-absorbing", lambda a, b, c: eq(mul(a, sr.zero), sr.zero),
            applicable=has_zero),
        law("one-neutral", lambda a, b, c: eq(mul(sr.one, a), a)),
        law("flag-idempotent-add", lambda a, b, c: eq(add(a, a), a),
            applicable=sr.idempotent_add),
        law("flag-idempotent-mul", lambda a, b, c: eq(mul(a, a), a),
            applicable=sr.idempotent_mul),
        law("flag-positive",
            lambda a, b, c: not eq(add(a, b), sr.zero) or (eq(a, sr.zero) and eq(b, sr.zero)),
            applicable=sr.positive and has_zero),
        law("absorption-add", lambda a, b, c: eq(add(a, mul(a, b)), a), applicable=both),
        law("absorption-mul", lambda a, b, c: eq(mul(a, add(a, b)), a), applicable=both),
    )
    return CheckReport(
        subject=f"semiring {sr.name}",
        seed=seed,
        samples=samples,
        laws=laws,
    )

