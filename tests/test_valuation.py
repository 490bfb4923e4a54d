import random

import pytest

import semival as sv
from semival.domains import restriction_index_map
from semival.errors import CapabilityError, DomainError, MassError, MismatchError

import helpers
import oracles

NEG_INF = float("-inf")


@pytest.fixture
def xy():
    cat = sv.VariableCatalog.of({"x": ("0", "1"), "y": ("0", "1")})
    return cat, cat.domain("x"), cat.domain("y"), cat.domain("x", "y")


def test_combine_arithmetic_example(xy):
    cat, X, Y, XY = xy
    ar = sv.get_instance("arithmetic")
    p = sv.Valuation(cat, ar, X, (0.3, 0.7))
    q = sv.Valuation(cat, ar, Y, (0.5, 0.5))
    assert sv.combine(p, q).table == (0.15, 0.15, 0.35, 0.35)


def test_combine_boolean_indicators(xy):
    cat, X, Y, XY = xy
    bo = sv.get_instance("boolean")
    ix = sv.Valuation(cat, bo, X, (0, 1))
    iy = sv.Valuation(cat, bo, Y, (1, 0))
    assert sv.combine(ix, iy).table == (0, 0, 1, 0)


def test_combine_matches_dict_oracle():
    rng = random.Random(5)
    for name in ("boolean", "arithmetic", "tropical", "bottleneck"):
        sr = sv.get_instance(name)
        for _ in range(25):
            cat = helpers.random_catalog(rng, max_vars=4, max_frame=3)
            a = helpers.random_valuation(rng, cat, sr, helpers.random_domain(rng, cat))
            b = helpers.random_valuation(rng, cat, sr, helpers.random_domain(rng, cat))
            got = sv.combine(a, b)
            du, table = oracles.dict_combine(
                cat, sr, a.domain, oracles.as_dict(a), b.domain, oracles.as_dict(b)
            )
            assert got.domain == du
            assert all(sr.eq(v, table[k]) for k, v in oracles.as_dict(got).items())


def test_project_matches_dict_oracle():
    rng = random.Random(6)
    for name in ("arithmetic", "tropical"):
        sr = sv.get_instance(name)
        for _ in range(25):
            cat = helpers.random_catalog(rng, max_vars=4, max_frame=3)
            a = helpers.random_valuation(rng, cat, sr, helpers.random_domain(rng, cat))
            names = list(a.domain.names)
            t = sv.Domain(tuple(rng.sample(names, rng.randint(0, len(names)))))
            got = sv.project(a, t)
            _, table = oracles.dict_project(cat, sr, a.domain, oracles.as_dict(a), t)
            assert all(sr.eq(v, table[k]) for k, v in oracles.as_dict(got).items())


def test_project_examples(xy):
    cat, X, Y, XY = xy
    ar = sv.get_instance("arithmetic")
    joint = sv.Valuation(cat, ar, XY, (0.15, 0.15, 0.35, 0.35))
    assert sv.project(joint, X).table == (0.3, 0.7)
    assert sv.project(joint, XY) is joint
    tr = sv.get_instance("tropical")
    t = sv.Valuation(cat, tr, X, (2, 5))
    assert sv.project(t, sv.EMPTY_DOMAIN).table == (5,)
    with pytest.raises(DomainError):
        sv.project(t, Y)


def test_vacuous_extension_and_stability_failure(xy):
    cat, X, Y, XY = xy
    ar = sv.get_instance("arithmetic")
    p = sv.Valuation(cat, ar, X, (0.3, 0.7))
    up = sv.vacuous_extend(p, XY)
    assert up.table == (0.3, 0.3, 0.7, 0.7)
    assert sv.vacuous_extend(p, X) is p
    # padding then re-projecting inflates non-idempotent sums
    assert sv.project(up, X).table == (0.6, 1.4)
    bo = sv.get_instance("boolean")
    ind = sv.Valuation(cat, bo, X, (0, 1))
    assert sv.vacuous_extend(ind, XY).table == (0, 0, 1, 1)
    with pytest.raises(DomainError):
        sv.vacuous_extend(p, Y)


def test_vacuous_extension_equals_combining_with_unit():
    rng = random.Random(7)
    for name in ("boolean", "arithmetic", "tropical"):
        sr = sv.get_instance(name)
        for _ in range(20):
            cat = helpers.random_catalog(rng, max_vars=4, max_frame=3)
            a = helpers.random_valuation(rng, cat, sr, helpers.random_domain(rng, cat))
            t = a.domain | helpers.random_domain(rng, cat)
            ext = sv.vacuous_extend(a, t)
            via_unit = sv.combine(a, sv.unit(cat, sr, t))
            assert sv.valuations_equal(ext, via_unit)


def test_transport_examples(xy):
    cat, X, Y, XY = xy
    bo = sv.get_instance("boolean")
    joint = sv.Valuation(cat, bo, XY, (0, 0, 1, 0))
    assert sv.transport(joint, Y).table == (1, 0)
    assert sv.transport(joint, XY) is joint
    tr = sv.get_instance("tropical")
    t = sv.Valuation(cat, tr, X, (2, 5))
    assert sv.transport(t, Y).table == (5, 5)


def test_transport_rejected_without_idempotent_addition(xy):
    cat, X, Y, XY = xy
    ar = sv.get_instance("arithmetic")
    p = sv.Valuation(cat, ar, X, (0.3, 0.7))
    with pytest.raises(CapabilityError):
        sv.transport(p, Y)


def test_unit_and_null_laws(xy):
    cat, X, Y, XY = xy
    for name in ("boolean", "arithmetic", "tropical", "bottleneck"):
        sr = sv.get_instance(name)
        phi = helpers.random_valuation(random.Random(1), cat, sr, X)
        assert sv.valuations_equal(sv.combine(phi, sv.unit(cat, sr, X)), phi)
        assert sv.valuations_equal(
            sv.combine(phi, sv.null(cat, sr, X)), sv.null(cat, sr, X)
        )
        assert sv.valuations_equal(
            sv.combine(sv.unit(cat, sr, X), sv.unit(cat, sr, Y)),
            sv.unit(cat, sr, XY),
        )
        # combining with a null on another domain annihilates on the union
        assert sv.valuations_equal(
            sv.combine(phi, sv.null(cat, sr, Y)), sv.null(cat, sr, XY)
        )


def test_is_null(xy):
    cat, X, Y, XY = xy
    ar = sv.get_instance("arithmetic")
    assert sv.is_null(sv.null(cat, ar, X))
    assert not sv.is_null(sv.unit(cat, ar, X))
    assert sv.is_null(sv.Valuation(cat, ar, X, (0.0, 1e-15)))
    assert not sv.is_null(sv.Valuation(cat, ar, X, (0.0, 1e-9)))


def test_normalize(xy):
    cat, X, _, _ = xy
    ar = sv.get_instance("arithmetic")
    assert sv.normalize(sv.Valuation(cat, ar, X, (0.3, 0.7))).table == (0.3, 0.7)
    assert sv.normalize(sv.Valuation(cat, ar, X, (1.0, 3.0))).table == (0.25, 0.75)
    with pytest.raises(MassError):
        sv.normalize(sv.Valuation(cat, ar, X, (0.0, 0.0)))
    with pytest.raises(CapabilityError):
        sv.normalize(sv.Valuation(cat, sv.get_instance("boolean"), X, (0, 1)))


def test_invert_regular_identity(xy):
    cat, X, Y, XY = xy
    ar = sv.get_instance("arithmetic")
    p = sv.Valuation(cat, ar, XY, (0.2, 0.4, 0.0, 0.4))
    q = sv.invert_regular(p, X)
    assert all(ar.eq(a, b) for a, b in zip(q.table, (1 / 0.6, 1 / 0.4)))
    back = sv.combine(sv.combine(p, sv.project(p, X)), q)
    assert sv.valuations_equal(back, p)

    # a zero marginal row maps to 0 and the identity still holds
    p2 = sv.Valuation(cat, ar, XY, (0.5, 0.5, 0.0, 0.0))
    q2 = sv.invert_regular(p2, X)
    assert q2.table == (1.0, 0.0)
    assert sv.valuations_equal(sv.combine(sv.combine(p2, sv.project(p2, X)), q2), p2)

    # the whole domain: pointwise inverse on the support
    q3 = sv.invert_regular(p, XY)
    assert sv.valuations_equal(sv.combine(sv.combine(p, p), q3), p)
    with pytest.raises(DomainError):
        sv.invert_regular(sv.project(p, X), XY)


def test_invert_regular_random_identity():
    rng = random.Random(8)
    ar = sv.get_instance("arithmetic")
    for _ in range(30):
        cat = helpers.random_catalog(rng, max_vars=4, max_frame=3)
        d = helpers.random_domain(rng, cat)
        p = helpers.random_valuation(rng, cat, ar, d)
        names = list(d.names)
        t = sv.Domain(tuple(rng.sample(names, rng.randint(0, len(names)))))
        q = sv.invert_regular(p, t)
        assert sv.valuations_equal(sv.combine(sv.combine(p, sv.project(p, t)), q), p)


def test_mismatch_errors(xy):
    cat, X, Y, _ = xy
    other = sv.VariableCatalog.of({"x": ("0", "1")})
    ar, bo = sv.get_instance("arithmetic"), sv.get_instance("boolean")
    a = sv.Valuation(cat, ar, X, (0.5, 0.5))
    with pytest.raises(MismatchError):
        sv.combine(a, sv.Valuation(other, ar, other.domain("x"), (1.0, 0.0)))
    with pytest.raises(MismatchError):
        sv.combine(a, sv.Valuation(cat, bo, Y, (1, 0)))


def test_axiom_suite_boolean_all_pass():
    report = sv.check_valuation_axioms(sv.get_instance("boolean"), samples=80, seed=0)
    assert report.passed
    by_law = {r.law: r.status for r in report.laws}
    for law in ("transport-composition", "transport-combination", "stability",
                "idempotency", "projection-nullity"):
        assert by_law[law] == "pass"


def test_axiom_suite_arithmetic_gates_transport():
    report = sv.check_valuation_axioms(sv.get_instance("arithmetic"), samples=80, seed=0)
    assert report.passed
    by_law = {r.law: r.status for r in report.laws}
    assert by_law["combination-projection"] == "pass"
    assert by_law["projection-nullity"] == "pass"
    for law in ("transport-composition", "transport-combination", "stability",
                "idempotency"):
        assert by_law[law] == "n/a"


def test_axiom_suite_tropical_nullity_not_applicable():
    report = sv.check_valuation_axioms(sv.get_instance("tropical"), samples=80, seed=0)
    assert report.passed
    by_law = {r.law: r.status for r in report.laws}
    assert by_law["projection-nullity"] == "n/a"
    assert by_law["transport-composition"] == "pass"
    assert by_law["transport-combination"] == "pass"
    assert by_law["idempotency"] == "n/a"


def test_axiom_suite_catches_corrupted_semiring():
    from semival.semiring import corrupted

    bad = corrupted(sv.get_instance("arithmetic"), idempotent_add=True)
    report = sv.check_valuation_axioms(bad, samples=60, seed=0)
    assert not report.passed
    failing = [r for r in report.laws if r.status == "fail"]
    assert failing and all(r.witness for r in failing)


def test_combination_semigroup_thousand_triples():
    rng = random.Random(31)
    for name in ("boolean", "arithmetic", "tropical", "bottleneck",
                 "fuzzy-product"):
        sr = sv.get_instance(name)
        for _ in range(200):
            cat = helpers.random_catalog(rng, max_vars=4, max_frame=3)
            a, b, c = (
                helpers.random_valuation(rng, cat, sr, helpers.random_domain(rng, cat))
                for _ in range(3)
            )
            assert sv.valuations_equal(sv.combine(a, b), sv.combine(b, a))
            assert sv.valuations_equal(
                sv.combine(sv.combine(a, b), c), sv.combine(a, sv.combine(b, c))
            )


def test_extension_retracts_for_idempotent_addition():
    rng = random.Random(32)
    for name in ("boolean", "tropical", "bottleneck", "fuzzy-product"):
        sr = sv.get_instance(name)
        for _ in range(40):
            cat = helpers.random_catalog(rng, max_vars=4, max_frame=3)
            a = helpers.random_valuation(rng, cat, sr, helpers.random_domain(rng, cat))
            t = a.domain | helpers.random_domain(rng, cat)
            assert sv.valuations_equal(sv.project(sv.vacuous_extend(a, t), a.domain), a)


KERNEL_SEMIRINGS = ("boolean", "arithmetic", "tropical", "bottleneck",
                    "fuzzy-product", "chain(3)")


def _kernel_table(rng, sr, n):
    if sr.name == "arithmetic":
        r = rng.random()
        if r < 0.3:
            return tuple(rng.randint(0, 4) for _ in range(n))  # integer cells stay int
        if r < 0.7:
            # mixed magnitudes: a sum's last bits depend on the fold order
            return tuple(rng.choice((1e16, 1.0, 0.1)) * rng.uniform(1, 2) for _ in range(n))
    if sr.name == "tropical" and rng.random() < 0.5:
        return tuple(sr.sample(rng) for _ in range(n))  # reals and -inf
    return helpers.random_table(rng, sr, n)


def _same(got, want) -> bool:
    """Equal with ``==`` and, cell for cell, of the same type."""
    return got == want and list(map(type, got)) == list(map(type, want))


def test_dense_kernels_match_cellwise_reference():
    """combine/project/vacuous_extend and the index map against the per-cell
    reference kernels, on names where string and numeric order differ."""
    rng = random.Random(2024)
    pool = [f"v{i}" for i in range(12)]  # "v10" < "v2"
    for case in range(600):
        sr = sv.get_instance(KERNEL_SEMIRINGS[case % len(KERNEL_SEMIRINGS)])
        names = rng.sample(pool, rng.randint(2, 6))
        cat = sv.VariableCatalog.of({n: "abc"[:rng.randint(1, 3)] for n in names})
        s, t = helpers.random_domain(rng, cat, 6), helpers.random_domain(rng, cat, 4)
        a = sv.Valuation(cat, sr, s, _kernel_table(rng, sr, cat.config_count(s)))
        b = sv.Valuation(cat, sr, t, _kernel_table(rng, sr, cat.config_count(t)))

        u, want = oracles.cellwise_combine(a, b)
        got = sv.combine(a, b)
        assert got.domain == u and _same(got.table, want), case
        assert restriction_index_map(cat, u, t) == oracles.odometer_index_map(cat, u, t)
        assert _same(sv.vacuous_extend(a, u).table, oracles.cellwise_extend(a, u)), case
        kept = sv.Domain(tuple(rng.sample(s.names, rng.randint(0, len(s)))))
        assert _same(sv.project(a, kept).table, oracles.cellwise_project(a, kept)), case
        empty = sv.project(a, sv.Domain())
        assert _same(empty.table, oracles.cellwise_project(a, sv.Domain())), case
