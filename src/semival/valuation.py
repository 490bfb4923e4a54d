"""Semiring-valued tables over multivariate domains.

A :class:`Valuation` stores one semiring value per configuration of its
domain, in row-major enumeration order.  Combination multiplies
pointwise on the joined domain, projection sums configurations out, and
transport (projection to the meet followed by vacuous extension) is
available exactly when the semiring has idempotent addition -- for other
semirings transport would silently break the algebra, so it raises
:class:`CapabilityError` instead.

Tables are tuples, and the kernels run at C level: combination and
vacuous extension gather cells through one ``operator.itemgetter`` on a
restriction index map, and projection block-transposes the summed-out
variables next to each other, then folds them with ``map`` and
``reduce``.  Every output cell of a projection is a left fold in
increasing source-index order, so results keep their exact bits, and
overflow to ``inf`` and ``nan`` passes silently, as on Python floats.

Valuations are immutable and all operations are pure.
"""

from __future__ import annotations

import math
import operator
from functools import partial, reduce
from itertools import chain, groupby, repeat, starmap
from typing import TYPE_CHECKING, Sequence

from . import domains as dm
from .domains import Domain, VariableCatalog
from .errors import CapabilityError, DomainError, Frozen, MassError, MismatchError
from .semiring import Semiring

if TYPE_CHECKING:
    import random

    from .reports import CheckReport


class Valuation(Frozen):
    """A semiring value per configuration of ``domain``, in row-major order.

    ``table`` is stored as a tuple, so a list passed in is copied and
    later changes to it do not reach the valuation.  Valuations are
    compared and hashed by identity; :func:`valuations_equal` compares
    their cells.
    """

    __slots__ = ("catalog", "semiring", "domain", "table")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, catalog: VariableCatalog, semiring: Semiring, domain: Domain,
                 table: Sequence):
        table = tuple(table)
        expected = catalog.config_count(domain, cap=None)
        if len(table) != expected:
            raise DomainError(
                f"table has {len(table)} entries, domain {domain} needs {expected}"
            )
        object.__setattr__(self, "catalog", catalog)
        object.__setattr__(self, "semiring", semiring)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "table", table)

    def __mul__(self, other: "Valuation") -> "Valuation":
        return combine(self, other)


def _check_operands(a: Valuation, b: Valuation):
    if a.catalog != b.catalog:
        raise MismatchError("valuations use different catalogs")
    if a.semiring is not b.semiring and a.semiring.name != b.semiring.name:
        raise MismatchError(
            f"semiring mismatch: {a.semiring.name} vs {b.semiring.name}"
        )


def valuations_equal(a: Valuation, b: Valuation) -> bool:
    """Structural equality up to the semiring's comparator."""
    if a.domain != b.domain:
        return False
    eq = a.semiring.eq
    return all(eq(x, y) for x, y in zip(a.table, b.table))


def _constant(cat: VariableCatalog, sr: Semiring, d: Domain, value,
              cap: int | None) -> Valuation:
    n = cat.config_count(cat.check_domain(d), cap=cap)
    return Valuation(cat, sr, d, (value,) * n)


def unit(cat: VariableCatalog, sr: Semiring, d: Domain,
         cap: int | None = dm.DEFAULT_CONFIG_CAP) -> Valuation:
    return _constant(cat, sr, d, sr.one, cap)


def null(cat: VariableCatalog, sr: Semiring, d: Domain,
         cap: int | None = dm.DEFAULT_CONFIG_CAP) -> Valuation:
    if sr.zero is None:
        raise CapabilityError(f"semiring {sr.name} has no zero element")
    return _constant(cat, sr, d, sr.zero, cap)


def combine(a: Valuation, b: Valuation,
            cap: int | None = dm.DEFAULT_CONFIG_CAP) -> Valuation:
    """Pointwise product on the union domain."""
    _check_operands(a, b)
    cat, sr = a.catalog, a.semiring
    u = a.domain | b.domain
    cat.config_count(u, cap=cap)
    return Valuation(cat, sr, u, tuple(map(sr.mul, _gather(a, u), _gather(b, u))))


def _gather(a: Valuation, t: Domain) -> tuple:
    """``a``'s cells in ``t``'s configuration order (``d(a) <= t``)."""
    if a.domain == t:
        return a.table
    if len(a.table) == 1:  # the scalar identity a join-tree node starts from, say
        return a.table * a.catalog.config_count(t, cap=None)
    # the map has as many cells as t, so at least two: itemgetter returns a tuple
    return operator.itemgetter(*dm.restriction_index_map(a.catalog, t, a.domain))(a.table)


def combine_all(factors: Sequence[Valuation], cat: VariableCatalog, sr: Semiring,
                cap: int | None = dm.DEFAULT_CONFIG_CAP) -> Valuation:
    """Combination of the factors in index order; empty list gives the scalar unit."""
    if not factors:
        return unit(cat, sr, dm.EMPTY_DOMAIN)
    return reduce(lambda x, y: combine(x, y, cap=cap), factors)


def project(a: Valuation, t: Domain) -> Valuation:
    """Sum out the variables of ``d(a) - t``.

    Each output cell is a left fold of its source cells in increasing
    source-index order -- a plain sequential sum, never a pairwise or
    compensated one -- so results keep their exact bits.
    """
    if not t <= a.domain:
        raise DomainError(f"cannot project {a.domain} to non-subset {t}")
    if t == a.domain:
        return a
    cat, sr = a.catalog, a.semiring
    runs = [(kept, math.prod(map(cat.size, names)))
            for kept, names in groupby(a.domain.names, t.__contains__)]
    last = max(i for i, (kept, _) in enumerate(runs) if not kept)
    # move the dropped variables seen so far behind each kept run that
    # precedes a later dropped one: then the cells are outer x rows x inner
    # with the dropped variables, in their order, as the rows
    cells, outer, rows, inner = a.table, 1, 1, len(a.table)
    for kept, size in runs[:last + 1]:
        inner //= size
        if not kept:
            rows *= size
        elif rows == 1:
            outer *= size
        else:
            cells = _swap(cells, outer, rows, size, inner)
            outer *= size
    # fold the rows left to right, each cell's increasing source-index order:
    # one map pass per row, or one reduce per output cell when the rows are
    # many and short, which costs fewer Python steps
    add = sr.add
    if (inner == 1 and rows > 16) or rows > outer * inner:
        if inner > 1:
            cells = _swap(cells, outer, rows, inner, 1)
        table = tuple(map(reduce, repeat(add), zip(*[iter(cells)] * rows)))
    else:
        table = reduce(lambda acc, row: tuple(map(add, acc, row)), _rows(cells, rows, inner))
    return Valuation(cat, sr, t, table)


def _swap(cells: tuple, outer: int, rows: int, cols: int, inner: int) -> tuple:
    """``outer x rows x cols x inner`` row-major cells as ``outer x cols x rows x inner``."""
    units = zip(*[iter(cells)] * inner) if inner > 1 else cells
    blocks = zip(*[zip(*[iter(units)] * cols)] * rows)  # per outer index: rows x cols units
    moved = chain.from_iterable(chain.from_iterable(starmap(zip, blocks)))
    return tuple(chain.from_iterable(moved) if inner > 1 else moved)


def _rows(cells: tuple, rows: int, inner: int) -> list:
    """Each row of ``outer x rows x inner`` cells, in ``outer x inner`` order."""
    if inner == 1:
        return [cells[r::rows] for r in range(rows)]
    chunks = tuple(zip(*[iter(cells)] * inner))
    return [chain.from_iterable(chunks[r::rows]) for r in range(rows)]


def vacuous_extend(a: Valuation, t: Domain,
                   cap: int | None = dm.DEFAULT_CONFIG_CAP) -> Valuation:
    """Pad to a superdomain; equal to combining with the unit on ``t``."""
    if not a.domain <= t:
        raise DomainError(f"cannot extend {a.domain} to non-superset {t}")
    if t == a.domain:
        return a
    a.catalog.config_count(t, cap=cap)
    return Valuation(a.catalog, a.semiring, t, _gather(a, t))


def transport(a: Valuation, t: Domain,
              cap: int | None = dm.DEFAULT_CONFIG_CAP) -> Valuation:
    """Project to ``d(a) & t`` and extend vacuously to ``t``.

    Requires idempotent addition; for other semirings the stepwise
    transport identity fails, so only project/vacuous_extend are offered.
    """
    if not a.semiring.idempotent_add:
        raise CapabilityError(
            f"transport needs idempotent addition; semiring {a.semiring.name} "
            "only supports project/vacuous_extend"
        )
    return vacuous_extend(project(a, a.domain & t), t, cap=cap)


def is_null(a: Valuation) -> bool:
    if a.semiring.zero is None:
        raise CapabilityError(f"semiring {a.semiring.name} has no zero element")
    eq, zero = a.semiring.eq, a.semiring.zero
    return all(eq(v, zero) for v in a.table)


def normalize(a: Valuation) -> Valuation:
    """Scale an arithmetic table to total mass one."""
    if a.semiring.name != "arithmetic":
        raise CapabilityError("normalize is defined for the arithmetic semiring only")
    total = math.fsum(a.table)
    if a.semiring.eq(total, 0.0):
        raise MassError("cannot normalize a zero-mass table")
    return Valuation(a.catalog, a.semiring, a.domain,
                     tuple(v / total for v in a.table))


def invert_regular(p: Valuation, t: Domain) -> Valuation:
    """Pointwise inverse of the marginal on ``t``, with 0 where it vanishes.

    The defining identity ``p == p * project(p, t) * invert_regular(p, t)``
    holds within comparator tolerance (zero marginal rows stay zero).
    """
    if p.semiring.name != "arithmetic":
        raise CapabilityError("regular inversion is defined for the arithmetic semiring only")
    marg = project(p, t)
    eq = p.semiring.eq
    table = tuple(0.0 if eq(v, 0.0) else 1.0 / v for v in marg.table)
    return Valuation(p.catalog, p.semiring, t, table)


# --- randomized axiom suite ------------------------------------------------

AXIOM_MAX_VARS = 4  # variables per random catalog of the axiom suite
AXIOM_MAX_FRAME = 3  # values per variable


def _random_catalog(rng: random.Random) -> VariableCatalog:
    n = rng.randint(1, AXIOM_MAX_VARS)
    spec = {}
    for i in range(n):
        size = rng.randint(1, AXIOM_MAX_FRAME)
        spec[f"v{i}"] = tuple(str(j) for j in range(size))
    return VariableCatalog.of(spec)


def _random_domain(rng: random.Random, cat: VariableCatalog) -> Domain:
    names = [v.name for v in cat.variables]
    k = rng.randint(0, len(names))
    return Domain(tuple(rng.sample(names, k)))


def _random_valuation(rng: random.Random, cat: VariableCatalog, sr: Semiring,
                      d: Domain) -> Valuation:
    n = cat.config_count(d, cap=None)
    return Valuation(cat, sr, d, tuple(sr.sample(rng) for _ in range(n)))


def _trial_witness(k: int, trial: tuple) -> str:
    _, s, t, r, _, _ = trial
    return f"trial {k}: s={s} t={t} r={r}"


def check_valuation_axioms(sr: Semiring, samples: int = 200,
                           seed: int = 0) -> CheckReport:
    """Randomized law suite for the valuation operations over ``sr``.

    Laws gated on missing capabilities are reported as not applicable
    rather than silently skipped.
    """
    import random

    from .reports import CheckReport, run_law
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = random.Random(seed)
    idem = sr.idempotent_add
    fully_idem = idem and sr.idempotent_mul

    trials = []
    for _ in range(samples):
        cat = _random_catalog(rng)
        s = _random_domain(rng, cat)
        t = _random_domain(rng, cat)
        r = (s & t) | _random_domain(rng, cat)
        phi = _random_valuation(rng, cat, sr, s)
        psi = _random_valuation(rng, cat, sr, t)
        trials.append((cat, s, t, r, phi, psi))

    def assoc(cat, s, t, r, phi, psi):
        chi = _random_valuation(rng, cat, sr, r)
        return valuations_equal(combine(combine(phi, psi), chi),
                                combine(phi, combine(psi, chi)))

    def stepwise(cat, s, t, r, phi, psi):
        # x <= y <= d(phi): two nested random subdomains
        y = Domain(tuple(rng.sample(s.names, rng.randint(0, len(s)))))
        x = Domain(tuple(rng.sample(y.names, rng.randint(0, len(y)))))
        return valuations_equal(project(phi, x), project(project(phi, y), x))

    def nullity(cat, s, t, r, phi, psi):
        y = s & t
        if is_null(phi):
            return is_null(project(phi, y))
        # positive semirings cannot lose all information by projection
        return not is_null(project(phi, y))

    # laws run in order: assoc and stepwise draw from rng as they go
    law = partial(run_law, trials=trials, witness=_trial_witness)
    laws = (
        law("combine-commutative",
            lambda cat, s, t, r, phi, psi: valuations_equal(combine(phi, psi),
                                                            combine(psi, phi))),
        law("combine-associative", assoc),
        law("labeling",
            lambda cat, s, t, r, phi, psi: combine(phi, psi).domain == (s | t)
            and project(phi, s & r).domain == (s & r)),
        law("projection-stepwise", stepwise),
        law("combination-projection",
            lambda cat, s, t, r, phi, psi: valuations_equal(
                project(combine(phi, psi), s), combine(phi, project(psi, s & t)))),
        law("combine-via-extension",
            lambda cat, s, t, r, phi, psi: valuations_equal(
                combine(phi, psi),
                combine(vacuous_extend(phi, s | t), vacuous_extend(psi, s | t)))),
        law("projection-nullity", nullity,
            applicable=sr.positive and sr.zero is not None),
        law("transport-composition", lambda cat, s, t, r, phi, psi: valuations_equal(
            transport(transport(phi, r), t), transport(phi, t)), applicable=idem),
        law("transport-combination", lambda cat, s, t, r, phi, psi: valuations_equal(
            transport(combine(phi, psi), r),
            combine(transport(phi, r), transport(psi, r))), applicable=idem),
        law("stability", lambda cat, s, t, r, phi, psi: valuations_equal(
            project(unit(cat, sr, s), s & t), unit(cat, sr, s & t)), applicable=idem),
        law("idempotency", lambda cat, s, t, r, phi, psi: valuations_equal(
            combine(phi, transport(phi, t)), transport(phi, s | t)),
            applicable=fully_idem),
    )
    return CheckReport(
        subject=f"valuation algebra over {sr.name}",
        seed=seed,
        samples=samples,
        laws=laws,
    )
