import random

import pytest

import semival as sv
from semival import valuation
from semival.domains import restriction_index_map
from semival.semiring import format_value
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


ARRAY_SEMIRINGS = [sv.get_instance(name) for name in KERNEL_SEMIRINGS]


def _array_table(rng, sr, n):
    """Cells that tell the array kernels from the tuple ones: signed zeros,
    ``-inf``, mixed magnitudes, and int or mixed int/float tables."""
    r = rng.random()
    if r < 0.15:
        return helpers.random_table(rng, sr, n)  # int-valued for several semirings
    if sr.name in ("boolean",) or sr.name.startswith("chain"):
        return helpers.random_table(rng, sr, n)
    if sr.name == "arithmetic":
        pool = (0.0, -0.0, 1e16, 1.0, 0.1, 3.0)
        cells = [rng.choice(pool) * (rng.uniform(1, 2) if rng.random() < 0.7 else 1)
                 for _ in range(n)]
    elif sr.name == "tropical":
        cells = [rng.choice((NEG_INF, 0.0, -0.0, 2.5, float(rng.randint(-6, 6)),
                             rng.uniform(-6, 6))) for _ in range(n)]
    else:  # bottleneck, fuzzy-product: [0, 1]
        cells = [rng.choice((0.0, -0.0, 1.0, rng.random(), rng.random()))
                 for _ in range(n)]
    if r < 0.25 and n > 1:
        cells[rng.randrange(n)] = 1  # one int cell keeps the whole table a tuple
    return tuple(cells)


def _check_layout(v):
    """A table is an array exactly when it is large, all-float and
    arithmetic; arrays are read-only."""
    values = v.values
    want = (len(values) >= valuation.ARRAY_MIN_CELLS
            and v.semiring.name == "arithmetic"
            and all(type(x) is float for x in values))
    assert valuation._is_array(v.table) == want
    if want:
        assert not v.table.flags.writeable
    else:
        assert type(v.table) is tuple


def _same_cells(got, want) -> bool:
    """Per cell: ``==``, the printed text and the ``int``/``float`` type.

    Together these pin every bit: ``==`` alone misses only ``0.0`` against
    ``-0.0``, which print as ``0`` and ``-0``."""
    _check_layout(got)
    values = tuple(got.values)
    return (values == want and list(map(type, values)) == list(map(type, want))
            and list(map(format_value, values)) == list(map(format_value, want)))


def _array_cases(rng, cases, frames, max_vars):
    pool = [f"v{i}" for i in range(12)]  # "v10" < "v2"
    for case in range(cases):
        sr = ARRAY_SEMIRINGS[case % len(ARRAY_SEMIRINGS)]
        names = rng.sample(pool, rng.randint(2, max_vars))
        cat = sv.VariableCatalog.of({n: "abc"[:rng.choice(frames)] for n in names})
        s = helpers.random_domain(rng, cat, max_vars)
        t = helpers.random_domain(rng, cat, max_vars)
        a = sv.Valuation(cat, sr, s, _array_table(rng, sr, cat.config_count(s)))
        b = sv.Valuation(cat, sr, t, _array_table(rng, sr, cat.config_count(t)))
        yield case, sr, cat, a, b


def _check_array_case(rng, case, sr, cat, a, b):
    for v in (a, b):
        _check_layout(v)
    u, want = oracles.cellwise_combine(a, b)
    got = sv.combine(a, b)
    assert got.domain == u and _same_cells(got, want), case
    assert _same_cells(sv.vacuous_extend(a, u), oracles.cellwise_extend(a, u)), case
    s = a.domain
    kept = sv.Domain(tuple(rng.sample(s.names, rng.randint(0, len(s)))))
    for t in (kept, sv.Domain()):
        assert _same_cells(sv.project(a, t), oracles.cellwise_project(a, t)), case
    assert _same_cells(sv.project(got, b.domain), oracles.cellwise_project(got, b.domain)), case
    n = cat.config_count(u)
    assert _same_cells(sv.unit(cat, sr, u), (sr.one,) * n), case
    assert _same_cells(sv.null(cat, sr, u), (sr.zero,) * n), case


def test_array_kernels_match_cellwise_reference(monkeypatch):
    """Both layouts against the per-cell reference kernels.  The threshold is
    lowered so that small tables fall on both sides of it."""
    monkeypatch.setattr(valuation, "ARRAY_MIN_CELLS", 12)
    rng = random.Random(606)
    for case in _array_cases(rng, 660, frames=(1, 2, 3, 3), max_vars=6):
        _check_array_case(rng, *case)


def _kernel_results(a, b, kept):
    u = a.domain | b.domain
    got = sv.combine(a, b)
    return [got, sv.vacuous_extend(a, u), sv.project(a, kept), sv.project(a, sv.Domain()),
            sv.project(got, b.domain), sv.unit(a.catalog, a.semiring, u)]


def test_array_kernels_at_the_real_threshold(monkeypatch):
    """At the shipped threshold, against the tuple layout (whose kernels the
    tests above pin to the cellwise reference)."""
    rng = random.Random(61)
    T = valuation.ARRAY_MIN_CELLS
    assert T == 3**10
    names = [f"v{i}" for i in range(10)]  # "v10" < "v2"
    cat = sv.VariableCatalog.of({n: "abc" for n in names})
    for case, sr in enumerate(ARRAY_SEMIRINGS):
        # a table at the threshold, or one variable short of it, times a
        # 9-cell table whose variables reach or do not reach the threshold
        big = sv.Domain(tuple(names[case % 2:]))
        small = sv.Domain(tuple(rng.sample(names, 2)))
        cells = (_array_table(rng, sr, cat.config_count(big)), _array_table(rng, sr, 9))
        kept = sv.Domain(tuple(rng.sample(big.names, rng.randint(0, len(big)))))
        runs = []
        for threshold in (T, 10**12):
            monkeypatch.setattr(valuation, "ARRAY_MIN_CELLS", threshold)
            a, b = sv.Valuation(cat, sr, big, cells[0]), sv.Valuation(cat, sr, small, cells[1])
            runs.append(_kernel_results(a, b, kept))
        monkeypatch.setattr(valuation, "ARRAY_MIN_CELLS", T)
        for got, want in zip(*runs):
            assert got.domain == want.domain and _same_cells(got, tuple(want.values)), case


def test_array_and_tuple_layouts_give_identical_collect_results(monkeypatch):
    """Message passing with every table above 8 cells as an array gives the
    tuple layout's results bit for bit."""
    rng = random.Random(607)
    for k in range(140):
        sr = ARRAY_SEMIRINGS[k % len(ARRAY_SEMIRINGS)]
        cat = helpers.random_catalog(rng, max_vars=6, max_frame=3)
        factors = [sv.Valuation(cat, sr, d, _array_table(rng, sr, cat.config_count(d)))
                   for d in (helpers.random_domain(rng, cat, 4)
                             for _ in range(rng.randint(1, 5)))]
        tree = sv.build_covering_join_tree([f.domain for f in factors])
        ops = sv.ValuationOps(cat, sr)
        runs = []
        for threshold in (valuation.ARRAY_MIN_CELLS, 8):
            monkeypatch.setattr(valuation, "ARRAY_MIN_CELLS", threshold)
            fs = [sv.Valuation(cat, sr, f.domain, tuple(f.values)) for f in factors]
            result, store = sv.collect(tree, fs, 0, ops)
            runs.append([result] + sv.distribute(tree, fs, store, ops))
        for got, want in zip(*runs):
            assert got.domain == want.domain and _same_cells(got, tuple(want.values)), k


def _overflowing_model() -> str:
    """A 3^10-cell arithmetic factor whose products overflow to ``inf``,
    and a message of zeros that turns some of them into ``nan``."""
    names = [f"w{i}" for i in range(10)]
    lines = (["catalog"] + [f"  var {n} : 0 1 2" for n in names + ["z"]]
             + ["end", "semiring arithmetic",
                f"factor f on {' '.join(names)}", "  table " + " ".join(["1e200"] * 3**10),
                "end", "factor g on w0 w1", "  table " + " ".join(["1e200"] * 9), "end",
                "factor h on w0 z", "  table " + " ".join(["0.0"] * 3 + ["1.0"] * 6), "end",
                "query w0", "query w1", "query w0 z"])
    return "\n".join(lines) + "\n"


def test_array_overflow_is_as_silent_as_python_floats(tmp_path, capsys, monkeypatch):
    """Overflow and ``inf * 0`` raise no warning on either layout, even
    with warnings as errors, and both layouts print the same report."""
    import warnings

    from semival import cli

    path = tmp_path / "overflow.sv"
    path.write_text(_overflowing_model())
    outputs = []
    for threshold in (valuation.ARRAY_MIN_CELLS, 3**11 + 1):
        monkeypatch.setattr(valuation, "ARRAY_MIN_CELLS", threshold)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["solve", str(path)])
        out, err = capsys.readouterr()
        assert code == 0 and err.startswith("elapsed: ") and err.count("\n") == 1, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "inf" in outputs[0] and "nan" in outputs[0], outputs[0]
