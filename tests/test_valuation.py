import functools
import random
import re

import pytest

import semival as sv
from semival.domains import restriction_index_map
from semival.errors import CapabilityError, CapacityError, DomainError, MismatchError

import helpers
import oracles

INF, NEG_INF, NAN = float("inf"), float("-inf"), float("nan")


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


def test_a_list_table_is_copied_so_the_valuation_stays_immutable(xy):
    cat, X, Y, XY = xy
    ar = sv.get_instance("arithmetic")
    cells = [0.25, 0.75]
    v = sv.Valuation(cat, ar, X, cells)
    cells[0] = 9.0
    assert v.table == (0.25, 0.75) and type(v.table) is tuple
    shared = (0.5, 0.5)
    assert sv.Valuation(cat, ar, X, shared).table is shared  # a tuple is not copied


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


def test_mismatch_errors(xy):
    cat, X, Y, _ = xy
    other = sv.VariableCatalog.of({"x": ("0", "1")})
    ar, bo = sv.get_instance("arithmetic"), sv.get_instance("boolean")
    a = sv.Valuation(cat, ar, X, (0.5, 0.5))
    with pytest.raises(MismatchError):
        sv.combine(a, sv.Valuation(other, ar, other.domain("x"), (1.0, 0.0)))
    with pytest.raises(MismatchError):
        sv.combine(a, sv.Valuation(cat, bo, Y, (1, 0)))


def test_combine_project_raises_what_combine_then_project_raises(xy):
    """A semiring mismatch, an over-cap union and a target outside the
    union fail with the error type and text of the two-step path."""
    cat, X, Y, XY = xy
    ar, bo = sv.get_instance("arithmetic"), sv.get_instance("boolean")
    a, b = sv.Valuation(cat, ar, X, (0.5, 0.5)), sv.Valuation(cat, ar, Y, (0.25, 0.75))
    z = sv.VariableCatalog.of({"x": "01", "y": "01", "z": "01"}).domain("z")
    cases = [
        (MismatchError, lambda: sv.combine(a, sv.Valuation(cat, bo, Y, (1, 0))),
         lambda: sv.combine_project(a, sv.Valuation(cat, bo, Y, (1, 0)), X)),
        (CapacityError, lambda: sv.project(sv.combine(a, b, cap=3), X),
         lambda: sv.combine_project(a, b, X, cap=3)),
        (DomainError, lambda: sv.project(sv.combine(a, b), z),
         lambda: sv.combine_project(a, b, z)),
    ]
    for error, two_step, fused in cases:
        with pytest.raises(error) as want:
            two_step()
        with pytest.raises(error, match=f"^{re.escape(str(want.value))}$"):
            fused()


def _fused_and_two_step_peaks(seed, a_vars, b_vars, kept_vars):
    """Traced peaks of ``combine_project(a, b, kept)`` and of
    ``project(combine(a, b), kept)``, after checking that they agree, for
    random arithmetic tables on ternary variables v00..v10 (by index)."""
    rng = random.Random(seed)
    names = [f"v{i:02d}" for i in range(11)]
    cat = sv.VariableCatalog.of({n: "abc" for n in names})
    ar = sv.get_instance("arithmetic")
    def domain(indices):
        return sv.Domain(tuple(names[i] for i in indices))

    a, b = (sv.Valuation(cat, ar, d, [rng.random() for _ in range(cat.config_count(d))])
            for d in (domain(a_vars), domain(b_vars)))
    kept = domain(kept_vars)
    want, two_step = helpers.traced_peak(lambda: sv.project(sv.combine(a, b), kept))
    got, fused = helpers.traced_peak(lambda: sv.combine_project(a, b, kept))
    assert got.domain == kept and got.table == want.table
    return fused, two_step


def test_combine_project_builds_no_product_table():
    """A 3^11-cell union of 3^6- and 3^9-cell operands summed to four
    variables: the fused kernel's traced peak stays under 60% of the
    two-step path's, which holds the product table and its cells."""
    fused, two_step = _fused_and_two_step_peaks(608, range(6), range(2, 11), range(1, 11, 3))
    assert fused < 0.6 * two_step, (fused, two_step)


def test_combine_project_reads_the_operands_extensions():
    """A grid message: 3^10 cells on v00..v09 and 3^3 on v08..v10, summed
    to v01..v10.  Neither operand is built on the 3^11-cell union, so the
    fused kernel's traced peak stays under half the two-step path's."""
    fused, two_step = _fused_and_two_step_peaks(609, range(10), range(8, 11), range(1, 11))
    assert fused < 0.5 * two_step, (fused, two_step)


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
    bad = helpers.corrupted(sv.get_instance("arithmetic"), idempotent_add=True)
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
    """The same cells by ``repr``: it tells ``int`` from ``float``, ``0.0``
    from ``-0.0`` and ``nan`` from everything, and round-trips every float bit."""
    return list(map(repr, got)) == list(map(repr, want))


def _check_kernels(a, b, kept):
    """combine, combine_project, vacuous_extend, project and both index maps
    of ``a`` and ``b`` against the per-cell reference kernels, bit for bit."""
    cat = a.catalog
    u, want = oracles.cellwise_combine(a, b)
    got = sv.combine(a, b)
    assert got.domain == u and _same(got.table, want)
    for d in (a.domain, b.domain):
        indices = tuple(range(cat.config_count(d)))
        assert restriction_index_map(cat, u, d, indices) == oracles.odometer_index_map(cat, u, d)
    assert _same(sv.vacuous_extend(a, u).table, oracles.cellwise_extend(a, u))
    for v, t in ((a, kept), (a, sv.Domain()), (got, b.domain)):
        assert _same(sv.project(v, t).table, oracles.cellwise_project(v, t))
    product = sv.Valuation(cat, a.semiring, u, want)
    for t in (kept, sv.Domain(), u, b.domain):
        fused = sv.combine_project(a, b, t)
        assert fused.domain == t and _same(fused.table, oracles.cellwise_project(product, t))


def test_dense_kernels_match_cellwise_reference():
    """combine/project/vacuous_extend and the index maps against the per-cell
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
        _check_kernels(a, b, sv.Domain(tuple(rng.sample(s.names, rng.randint(0, len(s))))))


def test_restriction_index_map_matches_the_odometer():
    """Frames of one to four values, so that runs of missing variables
    repeat blocks of every length, size-1 variables included; a table of
    distinct sentinels comes out in the order the odometer's map gives it."""
    rng = random.Random(605)
    pool = [f"v{i}" for i in range(12)]  # "v10" < "v2"
    ones = sv.VariableCatalog.of({"a": "x", "b": "abc", "c": "x"})
    cases = [  # sub empty, sub == big, a 1-cell table on 1-value frames
        (ones, ones.domain("a", "b", "c"), sv.Domain()),
        (ones, ones.domain("a", "b", "c"), ones.domain("a", "b", "c")),
        (ones, ones.domain("a", "b", "c"), ones.domain("a", "c")),
    ]
    for _ in range(1500):
        names = rng.sample(pool, rng.randint(0, 7))
        cat = sv.VariableCatalog.of({n: "abcd"[:rng.randint(1, 4)] for n in names})
        big = sv.Domain(tuple(rng.sample(names, rng.randint(0, len(names)))))
        sub = sv.Domain(tuple(rng.sample(big.names, rng.randint(0, len(big)))))
        cases.append((cat, big, sub))
    for case, (cat, big, sub) in enumerate(cases):
        want = oracles.odometer_index_map(cat, big, sub)
        count = cat.config_count(sub)
        assert restriction_index_map(cat, big, sub, tuple(range(count))) == want, case
        cells = tuple(object() for _ in range(count))
        got = restriction_index_map(cat, big, sub, cells)
        assert got == tuple(cells[i] for i in want), case


def _special_table(rng, sr, n):
    """Cells that tell fold orders and cell types apart: signed zeros,
    infinities, ``nan``, mixed magnitudes, and int or mixed int/float tables."""
    r = rng.random()
    if r < 0.15 or sr.name == "boolean" or sr.name.startswith("chain"):
        return helpers.random_table(rng, sr, n)  # int-valued for several semirings
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
    for _ in range(rng.randint(0, 2)):
        cells[rng.randrange(n)] = rng.choice((INF, NEG_INF, NAN))
    if r < 0.25:
        cells[rng.randrange(n)] = 1  # an int cell among floats
    return tuple(cells)


def test_kernels_match_cellwise_reference_on_special_values():
    """Small tables of every kernel semiring whose cells include signed
    zeros, infinities, ``nan`` and ints, on names where string and numeric
    order differ."""
    rng = random.Random(606)
    pool = [f"v{i}" for i in range(12)]  # "v10" < "v2"
    for case in range(660):
        sr = sv.get_instance(KERNEL_SEMIRINGS[case % len(KERNEL_SEMIRINGS)])
        names = rng.sample(pool, rng.randint(2, 6))
        cat = sv.VariableCatalog.of({n: "abc"[:rng.choice((1, 2, 3, 3))] for n in names})
        s, t = helpers.random_domain(rng, cat, 6), helpers.random_domain(rng, cat, 6)
        a = sv.Valuation(cat, sr, s, _special_table(rng, sr, cat.config_count(s)))
        b = sv.Valuation(cat, sr, t, _special_table(rng, sr, cat.config_count(t)))
        _check_kernels(a, b, sv.Domain(tuple(rng.sample(s.names, rng.randint(0, len(s))))))


@pytest.mark.parametrize("name", KERNEL_SEMIRINGS)
def test_kernels_match_cellwise_reference_on_3_10_and_3_11_cells(name):
    """Tables of 3^10 and 3^11 cells, projected to domains whose dropped
    variables form several runs between kept ones."""
    rng = random.Random(f"large:{name}")
    sr = sv.get_instance(name)
    names = [f"v{i}" for i in range(11)]  # "v10" < "v2"
    cat = sv.VariableCatalog.of({n: "abc" for n in names})
    # 3^11 cells for the float semirings whose sums depend on fold order; the
    # others lack v6, so the product's map of them repeats blocks of 27 cells
    big = sv.Domain(tuple(n for n in names if n != "v6" or name in ("arithmetic", "tropical")))
    small = sv.Domain(("v6", rng.choice(names[:6])))
    a = sv.Valuation(cat, sr, big, _special_table(rng, sr, cat.config_count(big)))
    b = sv.Valuation(cat, sr, small, _special_table(rng, sr, 9))
    # every other variable kept: one dropped run between each two kept ones
    kept = sv.Domain(big.names[rng.randrange(2)::2])
    _check_kernels(a, b, kept)


class _CellwiseOps(sv.ValuationOps):
    """The solver's dense adapter on the per-cell reference kernels."""

    def combine(self, a, b):
        u, table = oracles.cellwise_combine(a, b)
        return sv.Valuation(a.catalog, a.semiring, u, table)

    def message(self, operands, target):
        a = functools.reduce(self.combine, operands)
        t = a.domain & target
        return sv.Valuation(a.catalog, a.semiring, t, oracles.cellwise_project(a, t))


def test_collect_and_distribute_match_the_cellwise_kernels():
    """Message passing on the package's kernels gives, bit for bit, the
    results of the same passes on the per-cell reference kernels."""
    rng = random.Random(607)
    for k in range(140):
        sr = sv.get_instance(KERNEL_SEMIRINGS[k % len(KERNEL_SEMIRINGS)])
        cat = helpers.random_catalog(rng, max_vars=6, max_frame=3)
        factors = [sv.Valuation(cat, sr, d, _special_table(rng, sr, cat.config_count(d)))
                   for d in (helpers.random_domain(rng, cat, 4)
                             for _ in range(rng.randint(1, 5)))]
        tree = sv.build_covering_join_tree([f.domain for f in factors])
        runs = []
        for ops in (sv.ValuationOps(cat, sr), _CellwiseOps(cat, sr)):
            result, store = sv.collect(tree, factors, 0, ops)
            runs.append([result] + sv.distribute(tree, store, ops))
        for got, want in zip(*runs):
            assert got.domain == want.domain and _same(got.table, want.table), k


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


def test_overflow_is_as_silent_as_python_floats(tmp_path, capsys):
    """Overflow to ``inf`` and ``inf * 0`` raise no warning, even with
    warnings as errors, and print as ``inf`` and ``nan``."""
    import warnings

    from semival import cli

    path = tmp_path / "overflow.sv"
    path.write_text(_overflowing_model())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["solve", str(path)])
    out, err = capsys.readouterr()
    assert code == 0 and err.startswith("elapsed: ") and err.count("\n") == 1, err
    assert [line for line in out.splitlines() if line.startswith("result ")] == [
        "result {w0}: nan inf inf",
        "result {w1}: nan nan nan",
        "result {w0 z}: nan nan nan inf inf inf inf inf inf",
    ], out
