"""Semiring-valued tables over multivariate domains.

A :class:`Valuation` stores one semiring value per configuration of its
domain, in row-major enumeration order.  Combination multiplies
pointwise on the joined domain, projection sums configurations out, and
transport (projection to the meet followed by vacuous extension) is
available exactly when the semiring has idempotent addition -- for other
semirings transport would silently break the algebra, so it raises
:class:`CapabilityError` instead.

Tables are tuples, and the kernels run at C level: an operand is
extended to a larger domain by repeating blocks of its own table, with
no index map built or applied; :func:`combine` and :func:`vacuous_extend`
build that extension.  Projection block-swaps the summed-out variables
in front of or behind the kept ones and folds them with ``map`` and
``reduce``; :func:`project` and :func:`combine_project` read their
operands' extensions as they go, so the latter folds two tables'
products as they are made and builds no table on the union.  Every
output cell of a projection is a left fold in increasing source-index
order, so results keep their exact bits, and overflow to ``inf`` and
``nan`` passes silently, as on Python floats.

Valuations are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import chain, groupby, islice, repeat, starmap
from typing import TYPE_CHECKING, Sequence

from . import domains as dm
from .domains import Domain, VariableCatalog
from .errors import CapabilityError, DomainError, Frozen, MismatchError
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
    return dm.restriction_index_map(a.catalog, t, a.domain, a.table)


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
    return Valuation(a.catalog, a.semiring, t, _sum_out((a,), a.domain, t))


def combine_project(a: Valuation, b: Valuation, t: Domain,
                    cap: int | None = dm.DEFAULT_CONFIG_CAP) -> Valuation:
    """``project(combine(a, b), t)``, bit for bit, with no product table built."""
    _check_operands(a, b)
    u = a.domain | b.domain
    a.catalog.config_count(u, cap=cap)
    if not t <= u:
        raise DomainError(f"cannot project {u} to non-subset {t}")
    return Valuation(a.catalog, a.semiring, t, _sum_out((a, b), u, t))


def _sum_out(operands: tuple, u: Domain, t: Domain) -> tuple:
    """The product of ``operands`` on ``u`` summed out to ``t <= u``, each
    operand arranged, and read extended to ``u`` as the fold goes, with the
    summed variables first when their configurations (rows) are fewer than
    the output cells, or as many and ``u``'s last variable is kept."""
    cat, sr = operands[0].catalog, operands[0].semiring
    out = cat.config_count(t, cap=None)
    rows = cat.config_count(u, cap=None) // out
    kept_first = rows > out or (rows == out and u.names[-1:] != t.names[-1:])
    names = sorted(u.names, key=t.names.__contains__, reverse=kept_first)  # stable
    tables = [dm._insert_runs(cat, names, v.domain, _arrange(v, t, kept_first))
              for v in operands]
    cells = map(sr.mul, *tables) if len(tables) > 1 else iter(tables[0])
    if kept_first:
        return tuple(map(reduce, repeat(sr.add), zip(*[cells] * rows)))
    acc = tuple(islice(cells, out))
    for _ in range(rows - 1):
        acc = tuple(map(sr.add, acc, islice(cells, out)))
    return acc


def _arrange(a: Valuation, t: Domain, kept_first: bool) -> tuple:
    """``a``'s cells with its variables in ``t`` moved in front of the others
    (``kept_first``) or behind them, each group in its own order: the cells
    are outer x rows x inner, the front group seen so far in outer."""
    cells, outer, rows = a.table, 1, 1
    if len(a.domain) < 2:
        return cells
    for kept, names in groupby(a.domain.names, t.names.__contains__):
        size = math.prod(map(a.catalog.size, names))
        if kept != kept_first:
            rows *= size
        elif rows == 1:
            outer *= size
        else:
            cells = _swap(cells, outer, rows, size, len(cells) // (outer * rows * size))
            outer *= size
    return cells


def _swap(cells: tuple, outer: int, rows: int, cols: int, inner: int) -> tuple:
    """``outer x rows x cols x inner`` row-major cells as ``outer x cols x rows x inner``."""
    units = zip(*[iter(cells)] * inner) if inner > 1 else cells
    blocks = zip(*[zip(*[iter(units)] * cols)] * rows)  # per outer index: rows x cols units
    moved = chain.from_iterable(chain.from_iterable(starmap(zip, blocks)))
    return tuple(chain.from_iterable(moved) if inner > 1 else moved)


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
