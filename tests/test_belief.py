import itertools
import math
import random

import pytest

import semival as sv
from semival import treecomp as tc
from semival.errors import CapacityError, DomainError, MassError, TotalConflictError
from semival.semiring import format_value

import helpers
import oracles
from helpers import all_focal_sets
from oracles import config_values


@pytest.fixture
def ab(ab_catalog):
    cat = ab_catalog
    U = cat.domain("u")

    def fs(*labels):
        frame = cat.frame("u")
        return sv.FocalSet.of(cat, U, [(frame.index(l),) for l in labels])

    return cat, U, fs


@pytest.fixture
def worked_pair(ab):
    cat, U, fs = ab
    m1 = sv.set_potential(cat, U, [(fs("a"), 0.6), (fs("a", "b"), 0.4)], "bpa")
    m2 = sv.set_potential(cat, U, [(fs("b"), 0.5), (fs("a", "b"), 0.5)], "bpa")
    return cat, U, fs, m1, m2


def test_focal_set_canonicalization(ab):
    cat, U, fs = ab
    f = sv.FocalSet.of(cat, U, [(1,), (0,), (1,)])
    assert f.configs == ((0,), (1,))
    assert len(sv.FocalSet.empty(cat, U)) == 0
    assert fs("a", "b").complement().configs == ()
    assert fs("a").complement() == fs("b")
    with pytest.raises(DomainError):
        sv.FocalSet.of(cat, U, [(7,)])


def test_set_potential_canonical_form(ab):
    cat, U, fs = ab
    pot = sv.set_potential(cat, U, [(fs("b"), 0.25), (fs("b"), 0.25), (fs("a"), 0.5)])
    assert pot.focal == ((fs("a"), 0.5), (fs("b"), 0.5))
    dropped = sv.set_potential(cat, U, [(fs("a"), 1.0), (fs("b"), 0.0)])
    assert len(dropped.focal) == 1
    with pytest.raises(MassError):
        sv.set_potential(cat, U, [(fs("a"), -0.2)])
    with pytest.raises(MassError):
        sv.SetPotential(cat, U, ((fs("a"), math.nan),))
    with pytest.raises(MassError):
        sv.set_potential(cat, U, [(fs("a"), 0.7)], "bpa")


def test_combine_worked_example(worked_pair):
    cat, U, fs, m1, m2 = worked_pair
    raw = sv.combine_potentials(m1, m2)
    assert raw.kind == "raw"
    expect = {
        sv.FocalSet.empty(cat, U): 0.30,
        fs("a"): 0.30,
        fs("b"): 0.20,
        fs("a", "b"): 0.20,
    }
    assert set(raw.by_set) == set(expect)
    for k, v in expect.items():
        assert abs(raw.mass(k) - v) < 1e-12


def test_combine_with_vacuous_cylindrifies(ab):
    cat, U, fs = ab
    cat2 = sv.VariableCatalog.of({"u": ("a", "b"), "v": ("0", "1")})
    UU, VV = cat2.domain("u"), cat2.domain("v")
    m = sv.set_potential(cat2, UU, [(sv.FocalSet.of(cat2, UU, [(0,)]), 0.7),
                                    (sv.FocalSet.of(cat2, UU, [(0,), (1,)]), 0.3)], "bpa")
    out = sv.combine_potentials(m, sv.vacuous(cat2, VV))
    assert out.domain == cat2.domain("u", "v")
    moved = sv.transport_potential(m, cat2.domain("u", "v"))
    keys = set(out.by_set) | set(moved.by_set)
    assert all(abs(out.mass(k) - moved.mass(k)) < 1e-12 for k in keys)


def test_combine_against_brute_force():
    """Independent oracle: explicit cylinder sets built from raw products."""
    rng = random.Random(4)
    for _ in range(25):
        cat = helpers.random_catalog(rng, max_vars=3, max_frame=3)
        d1 = helpers.random_domain(rng, cat, max_size=2)
        d2 = helpers.random_domain(rng, cat, max_size=2)
        if cat.config_count(d1 | d2) > 9:
            continue
        m1 = helpers.random_mass_function(rng, cat, d1)
        m2 = helpers.random_mass_function(rng, cat, d2)
        got = sv.combine_potentials(m1, m2)

        u = d1 | d2
        union_configs = [
            (c, dict(zip(u.names, c)))
            for c in itertools.product(*(range(cat.size(n)) for n in u.names))
        ]
        expect: dict = {}
        for f1, mass1 in m1.focal:
            for f2, mass2 in m2.focal:
                cyl = frozenset(
                    c for c, value in union_configs
                    if tuple(map(value.get, d1.names)) in f1.configs
                    and tuple(map(value.get, d2.names)) in f2.configs
                )
                expect[cyl] = expect.get(cyl, 0.0) + mass1 * mass2
        for fset, mass in expect.items():
            assert abs(got.mass(sv.FocalSet.of(cat, u, fset)) - mass) < 1e-9


def _domain_pair(rng, cat, shape):
    """Two domains of ``cat`` related as ``shape`` says; the catalog has five
    variables, so every shape fits."""
    names = [v.name for v in cat.variables]
    rng.shuffle(names)
    only1, shared, only2 = {
        "empty": (0, 0, rng.randint(0, 3)),
        "nested": (0, rng.randint(1, 2), rng.randint(1, 2)),
        "overlapping": (rng.randint(1, 2), 1, rng.randint(1, 2)),
        "disjoint": (rng.randint(1, 2), 0, rng.randint(1, 3)),
    }[shape]
    d1 = sv.Domain(tuple(names[:only1 + shared]))
    d2 = sv.Domain(tuple(names[only1:only1 + shared + only2]))
    return (d1, d2) if rng.random() < 0.5 else (d2, d1)


def _random_potential(rng, cat, domain):
    """A bpa, or raw masses on 1-5 subsets of the frame that often include the
    empty set (now and then as the only focal set)."""
    if rng.random() < 0.25:
        return helpers.random_bpa(rng, cat, domain)
    frame = sv.FocalSet.full(cat, domain).configs
    items = [(sv.FocalSet.of(cat, domain, rng.sample(frame, 0 if rng.random() < 0.3
                                                     else rng.randint(1, len(frame)))),
              rng.random() + 0.05)
             for _ in range(rng.randint(1, 5))]
    return sv.set_potential(cat, domain, items)


def _bits(p):
    return p.domain, p.kind, p.conflict, [(fs, mass.hex()) for fs, mass in p.focal]


def test_cylinder_forms_match_the_index_map_forms():
    """Combination and transport give the focal tuples of the index-map forms
    in ``oracles``, bit for bit, on every shape of domain pair: one domain
    empty, nested either way, overlapping but incomparable, and disjoint."""
    rng = random.Random(21)
    shapes = ("empty", "nested", "overlapping", "disjoint")
    with_empty = 0
    for k in range(400):
        cat = sv.VariableCatalog.of(
            {f"x{i}": tuple("abc"[:rng.randint(1, 3)]) for i in range(5)})
        d1, d2 = _domain_pair(rng, cat, shapes[k % 4])
        m1, m2 = _random_potential(rng, cat, d1), _random_potential(rng, cat, d2)
        with_empty += m1.empty_mass() > 0 or m2.empty_mass() > 0
        got = sv.combine_potentials(m1, m2)
        assert _bits(got) == _bits(oracles.index_map_combine_potentials(m1, m2))
        for m, t in ((m1, d2), (m2, d1), (got, d1), (got, d2), (m1, d1 & d2),
                     (m1, d1 | d2), (m1, sv.EMPTY_DOMAIN)):
            assert (_bits(sv.transport_potential(m, t))
                    == _bits(oracles.index_map_transport_potential(m, t)))
    assert with_empty > 100


def test_combine_and_transport_honour_cap():
    """The cap bounds the union domain, whichever domain the result lives on."""
    cat = sv.VariableCatalog.of({f"x{i}": ("0", "1") for i in range(7)})
    left, right = cat.domain("x0", "x1", "x2", "x3"), cat.domain("x3", "x4", "x5", "x6")
    m1, m2 = sv.vacuous(cat, left), sv.vacuous(cat, right)
    message = "domain {x0 x1 x2 x3 x4 x5 x6} has more than 100 configurations"
    with pytest.raises(CapacityError, match=message):
        sv.combine_potentials(m1, m2, cap=100)
    with pytest.raises(CapacityError, match=message):
        sv.transport_potential(m1, right, cap=100)
    assert sv.combine_potentials(m1, m2, cap=128).domain == left | right
    assert sv.transport_potential(m1, right, cap=128).focal == sv.vacuous(cat, right).focal


def test_out_of_range_value_is_a_domain_error():
    """A value past its variable's frame is named where the focal set is
    built, so no such set reaches combination or transport."""
    cat = sv.VariableCatalog.of({"u": ("a", "b"), "v": ("a", "b")})
    U, UV = cat.domain("u"), cat.domain("u", "v")
    for domain, configs, bad in ((U, [(0,), (7,)], (7,)), (UV, [(1, 1), (-1, 0)], (-1, 0)),
                                 (UV, [(0,)], (0,)), (UV, [(0, 0, 0)], (0, 0, 0))):
        with pytest.raises(DomainError) as exc:
            sv.FocalSet.of(cat, domain, configs)
        assert str(exc.value) == f"configuration {bad} is outside the frame of {domain}"


def test_focal_sets_past_the_frame_are_refused():
    """The focal set ``((0, 7),)`` on binary ``{u v}`` cannot be built, from
    tuples or as a mask: neither a mask with a bit at or past the frame's
    configuration count nor a negative one."""
    cat = sv.VariableCatalog.of({"u": ("a", "b"), "v": ("a", "b")})
    UV = cat.domain("u", "v")
    with pytest.raises(DomainError, match=r"configuration \(0, 7\) is outside the frame"):
        sv.FocalSet.of(cat, UV, [(0, 7)])
    for mask in (1 << 4, 0b11111, 1 << 64, -1):
        with pytest.raises(DomainError, match=r"mask does not fit the 4 configurations of \{u"):
            sv.FocalSet(cat, UV, mask)
    assert sv.FocalSet(cat, UV, 0b1111) == sv.FocalSet.full(cat, UV)
    with pytest.raises(DomainError, match="unknown variable 'w'"):
        sv.FocalSet(cat, sv.Domain.of("w"), 0)


def test_transport_examples():
    cat = sv.VariableCatalog.of({"x": ("0", "1"), "y": ("0", "1")})
    XY, X = cat.domain("x", "y"), cat.domain("x")
    m = sv.set_potential(cat, XY, [(sv.FocalSet.of(cat, XY, [(0, 0), (0, 1)]), 1.0)], "bpa")
    assert sv.transport_potential(m, XY) is m
    down = sv.transport_potential(m, X)
    assert down.focal == ((sv.FocalSet.of(cat, X, [(0,)]), 1.0),)
    # two distinct focal sets with the same projection merge
    m2 = sv.set_potential(cat, XY, [
        (sv.FocalSet.of(cat, XY, [(0, 0)]), 0.5),
        (sv.FocalSet.of(cat, XY, [(0, 1)]), 0.5),
    ], "bpa")
    merged = sv.transport_potential(m2, X)
    assert merged.focal == ((sv.FocalSet.of(cat, X, [(0,)]), 1.0),)


def test_dempster_worked_example(worked_pair):
    cat, U, fs, m1, m2 = worked_pair
    out = sv.dempster_combine(m1, m2)
    assert out.kind == "bpa"
    assert abs(out.conflict - 0.3) < 1e-12
    assert abs(out.mass(fs("a")) - 3 / 7) < 1e-12
    assert abs(out.mass(fs("b")) - 2 / 7) < 1e-12
    assert abs(out.mass(fs("a", "b")) - 2 / 7) < 1e-12
    assert out.empty_mass() == 0.0


def test_dempster_neutral_and_total_conflict(worked_pair):
    cat, U, fs, m1, _ = worked_pair
    out = sv.dempster_combine(m1, sv.vacuous(cat, U))
    assert out.conflict == 0.0
    assert all(abs(out.mass(k) - m1.mass(k)) < 1e-12 for k in m1.by_set)
    certain_a = sv.set_potential(cat, U, [(fs("a"), 1.0)], "bpa")
    certain_b = sv.set_potential(cat, U, [(fs("b"), 1.0)], "bpa")
    with pytest.raises(TotalConflictError):
        sv.dempster_combine(certain_a, certain_b)


def test_dempster_commutative_associative():
    rng = random.Random(9)
    for _ in range(20):
        cat = helpers.random_catalog(rng, max_vars=2, max_frame=3)
        doms = [helpers.random_domain(rng, cat, max_size=2) for _ in range(3)]
        a, b, c = (helpers.random_bpa(rng, cat, d) for d in doms)
        try:
            ab_ = sv.dempster_combine(a, b)
            ba_ = sv.dempster_combine(b, a)
            abc1 = sv.dempster_combine(ab_, c)
            abc2 = sv.dempster_combine(a, sv.dempster_combine(b, c))
            abc3 = sv.dempster_combine(a, b, c)
        except TotalConflictError:
            continue
        keys = set(ab_.by_set) | set(ba_.by_set)
        assert all(abs(ab_.mass(k) - ba_.mass(k)) < 1e-9 for k in keys)
        for abc in (abc2, abc3):
            keys = set(abc1.by_set) | set(abc.by_set)
            assert all(abs(abc1.mass(k) - abc.mass(k)) < 1e-9 for k in keys)


def _near_certain_bpa(rng, cat, domain, eps):
    """Mass ``1 - eps`` on one random configuration, ``eps`` on the frame."""
    full = sv.FocalSet.full(cat, domain)
    fs = sv.FocalSet.of(cat, domain, [rng.choice(full.configs)])
    return sv.set_potential(cat, domain, [(fs, 1.0 - eps), (full, eps)], "bpa")


def test_one_conditioning_matches_the_sequential_fold():
    """The n-ary rule gives the raw product conditioned once in exact
    rationals, and the binary rule folded left (``oracles``): a conflict K
    with ``1 - K`` the product of the fold's ``1 - K_step``, and total
    conflict raised on both sides alike, only where the exact K is within
    the comparator of one.  A quarter of the draws are near-certain bpa's
    (``eps`` on the frame), whose meets shrink below the comparator's zero
    before a later step conditions them back up: there the fold, which drops
    them at every step, loses mass.  Elsewhere it prints alike."""
    rng = random.Random(22)
    cmp = sv.DEFAULT_COMPARATOR
    conditioned = total = deep = lossy = 0
    for draw in range(800):
        cat = helpers.random_catalog(rng, max_vars=2, max_frame=3)
        names = [v.name for v in cat.variables]
        eps = rng.choice((1e-3, 1e-4)) if draw % 4 == 3 else None
        pots = []
        for _ in range(rng.randint(2, 5)):
            d = sv.Domain(tuple(rng.sample(names, rng.randint(1, len(names)))))
            pots.append(helpers.random_bpa(rng, cat, d) if eps is None
                        else _near_certain_bpa(rng, cat, d, eps))
        exact, k = oracles.exact_dempster_combine(pots)
        try:
            want, steps = oracles.sequential_dempster_combine(pots)
        except TotalConflictError:
            with pytest.raises(TotalConflictError):
                sv.dempster_combine(*pots)
            assert cmp.eq(float(k), 1.0)
            total += 1
            continue
        got = sv.dempster_combine(*pots)
        masses = {frozenset(fs.configs): m for fs, m in got.focal}
        assert masses.keys() <= exact.keys()
        # what the result dropped is the comparator's zero, up to its own rounding
        assert all(cmp.eq(masses[s], float(m)) if s in masses else m < 1.001 * cmp.abs
                   for s, m in exact.items())
        assert cmp.eq(got.conflict, float(k))
        assert cmp.eq(got.conflict, 1.0 - math.prod(1.0 - k for k in steps))
        if eps is None:
            assert ([(fs, format_value(m)) for fs, m in got.focal]
                    == [(fs, format_value(m)) for fs, m in want.focal])
        keys = set(got.by_set) | set(want.by_set)
        lossy += not all(cmp.eq(got.mass(fs), want.mass(fs)) for fs in keys)
        conditioned += any(k > 0 for k in steps[:-1])
        deep += 1.0 - got.conflict < 1e-6
    assert conditioned > 100 and total > 10 and deep > 20 and lossy > 0


def test_belief_commonality_examples(ab):
    cat, U, fs = ab
    m = sv.set_potential(cat, U, [(fs("a"), 0.3), (fs("a", "b"), 0.7)], "bpa")
    assert abs(sv.mass_to_belief(m, fs("a")) - 0.3) < 1e-12
    assert abs(sv.mass_to_belief(m, fs("a", "b")) - 1.0) < 1e-12
    assert abs(sv.mass_to_commonality(m, fs("a")) - 1.0) < 1e-12
    assert abs(sv.mass_to_commonality(m, fs("b")) - 0.7) < 1e-12
    vac = sv.vacuous(cat, U)
    assert sv.mass_to_belief(vac, fs("a", "b")) == 1.0
    assert sv.mass_to_belief(vac, fs("a")) == 0.0
    assert sv.mass_to_commonality(vac, fs("a")) == 1.0
    assert sv.mass_to_belief(m, fs("a", "b")) == m.total_mass()


def test_moebius_inversion_examples(ab):
    cat, U, fs = ab
    m = sv.set_potential(cat, U, [(fs("a"), 0.3), (fs("a", "b"), 0.7)], "bpa")
    btable = [sv.mass_to_belief(m, s) for s in all_focal_sets(cat, U)]
    back = sv.belief_to_mass(cat, U, btable)
    assert abs(back.mass(fs("a")) - 0.3) < 1e-12
    assert abs(back.mass(fs("a", "b")) - 0.7) < 1e-12
    assert len(back.focal) == 2

    vac = sv.vacuous(cat, U)
    for table_of, invert in (
        (sv.mass_to_belief, sv.belief_to_mass),
        (sv.mass_to_commonality, sv.commonality_to_mass),
    ):
        table = [table_of(vac, s) for s in all_focal_sets(cat, U)]
        back = invert(cat, U, table)
        assert back.focal == ((fs("a", "b"), 1.0),)


def test_moebius_round_trips_random():
    rng = random.Random(10)
    count = 0
    while count < 100:
        cat = helpers.random_catalog(rng, max_vars=2, max_frame=2)
        d = helpers.random_domain(rng, cat, max_size=2)
        if cat.config_count(d) > 4:
            continue
        m = helpers.random_mass_function(rng, cat, d)
        subsets = all_focal_sets(cat, d)
        btable = [sv.mass_to_belief(m, s) for s in subsets]
        qtable = [sv.mass_to_commonality(m, s) for s in subsets]
        back_b = sv.belief_to_mass(cat, d, btable)
        back_q = sv.commonality_to_mass(cat, d, qtable)
        for back in (back_b, back_q):
            keys = set(m.by_set) | set(back.by_set)
            assert all(abs(m.mass(k) - back.mass(k)) < 1e-9 for k in keys)
        count += 1


def test_moebius_cap_and_completeness(ab):
    cat, U, fs = ab
    m = sv.vacuous(cat, U)
    table = [sv.mass_to_belief(m, s) for s in all_focal_sets(cat, U)]
    with pytest.raises(CapacityError):
        sv.belief_to_mass(cat, U, table, cap=1)
    incomplete = table[:-1]
    with pytest.raises(MassError):
        sv.belief_to_mass(cat, U, incomplete)


FRAME_SHAPES = ((), (1,), (2,), (3,), (2, 2), (1, 3), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2),
                (3, 4), (4, 3))


def _random_potentials(rng, count):
    """Random bpa and raw potentials on frames of 1-12 configurations; the
    raw ones put mass on the empty set in about half the draws."""
    for made in range(count):
        shape = FRAME_SHAPES[made % len(FRAME_SHAPES)]
        cat = sv.VariableCatalog.of({f"v{i}": tuple("abcd"[:n]) for i, n in enumerate(shape)})
        d = cat.domain(*(v.name for v in cat.variables))
        configs = sv.FocalSet.full(cat, d).configs
        if (made + made // len(FRAME_SHAPES)) % 2:  # each shape gets both kinds
            yield cat, d, helpers.random_bpa(rng, cat, d, max_focal=6)
            continue
        sets = [sv.FocalSet.of(cat, d, rng.sample(configs, rng.randint(1, len(configs))))
                for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.5:
            sets.append(sv.FocalSet.empty(cat, d))
        yield cat, d, sv.set_potential(cat, d, [(fs, rng.random() + 0.01) for fs in sets])


def _subset_of(configs, mask):
    return tuple(values for i, values in enumerate(configs) if mask >> i & 1)


def test_masks_decode_and_build_back():
    """On random masks over frames of 1-12 configurations, the decoded
    configurations are the members in tuple order, they build the same set
    back with the same hash, and ``len`` is the popcount."""
    rng = random.Random(19)
    for shape in FRAME_SHAPES:
        cat = sv.VariableCatalog.of({f"v{i}": tuple("abcd"[:n]) for i, n in enumerate(shape)})
        d = cat.domain(*(v.name for v in cat.variables))
        frame = config_values(cat, d)
        for mask in {0, (1 << len(frame)) - 1, *(rng.getrandbits(len(frame)) for _ in range(40))}:
            fs = sv.FocalSet(cat, d, mask)
            assert fs.configs == _subset_of(frame, mask)
            back = sv.FocalSet.of(cat, d, fs.configs)
            assert back == fs and hash(back) == hash(fs) and back.mask == mask
            assert len(fs) == bin(mask).count("1") == len(fs.configs)


def test_focal_order_is_the_member_tuple_order():
    """All 512 subsets of a 9-configuration frame, given in a shuffled order,
    come out of ``set_potential`` in the order of their member tuples."""
    cat = sv.VariableCatalog.of({"p": ("a", "b", "c"), "q": ("a", "b", "c")})
    d = cat.domain("p", "q")
    sets = all_focal_sets(cat, d)
    random.Random(20).shuffle(sets)
    pot = sv.set_potential(cat, d, [(fs, 1.0) for fs in sets])
    got = [fs.configs for fs, _ in pot.focal]
    assert len(got) == 512 and got == sorted(fs.configs for fs in sets)


def test_subset_tables_match_the_per_subset_queries():
    rng = random.Random(16)
    sizes, empty = set(), 0
    for cat, d, m in _random_potentials(rng, 60):
        btable, qtable = sv.subset_tables(m)
        subsets = all_focal_sets(cat, d)
        assert len(btable) == len(qtable) == len(subsets) == 1 << cat.config_count(d)
        assert btable == [sv.mass_to_belief(m, s) for s in subsets]
        assert qtable == [sv.mass_to_commonality(m, s) for s in subsets]
        sizes.add(cat.config_count(d))
        empty += m.empty_mass() > 0
    assert sizes == {1, 2, 3, 4, 6, 8, 12} and empty > 5


def test_subset_tables_cap_bounds_the_frame(ab):
    cat, U, fs = ab
    m = sv.vacuous(cat, U)
    assert sv.subset_tables(m, cap=2) == ([0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(CapacityError, match="2 > 1 configurations"):
        sv.subset_tables(m, cap=1)


def test_slice_inversion_matches_the_per_mask_loop():
    """The masses each inversion keeps are the per-mask loop's, bit for bit."""
    rng = random.Random(17)
    for cat, d, m in _random_potentials(rng, 60):
        configs = sv.FocalSet.full(cat, d).configs
        k = len(configs)
        for table, invert, superset in zip(sv.subset_tables(m),
                                           (sv.belief_to_mass, sv.commonality_to_mass),
                                           (False, True)):
            want = oracles.per_mask_moebius_invert(table, k, superset)
            kept = [(sv.FocalSet.of(cat, d, _subset_of(configs, mask)), v)
                    for mask, v in enumerate(want) if not sv.DEFAULT_COMPARATOR.is_zero(v)]
            got = invert(cat, d, table)
            assert got.focal == sv.set_potential(cat, d, kept).focal
            assert got.focal == invert(cat, d, tuple(table)).focal


def test_tables_of_the_wrong_length_are_refused():
    rng = random.Random(18)
    for cat, d, m in _random_potentials(rng, 30):
        for table, invert in zip(sv.subset_tables(m),
                                 (sv.belief_to_mass, sv.commonality_to_mass)):
            for wrong in (table[:-1], table + [0.0]):
                with pytest.raises(MassError, match=f"table has {len(wrong)} entries"):
                    invert(cat, d, wrong)


def test_support_and_plausibility_examples(ab):
    cat, U, fs = ab
    m = sv.set_potential(cat, U, [(fs("a"), 0.3), (fs("a", "b"), 0.7)], "bpa")
    qsp, sp = sv.degree_of_support(m, fs("a"))
    assert abs(qsp - 0.3) < 1e-12 and abs(sp - 0.3) < 1e-12
    _, sp_full = sv.degree_of_support(m, fs("a", "b"))
    assert abs(sp_full - 1.0) < 1e-12
    assert abs(sv.degree_of_plausibility(m, fs("a")) - 1.0) < 1e-12
    assert abs(sv.degree_of_plausibility(m, fs("b")) - 0.7) < 1e-12
    assert sv.degree_of_plausibility(m, sv.FocalSet.empty(cat, U)) == 0.0
    # duality against the complement
    _, sp_a = sv.degree_of_support(m, fs("a"))
    assert abs(sv.degree_of_plausibility(m, fs("b")) - (1 - sp_a)) < 1e-12


def test_support_of_conflicted_raw_potential(worked_pair):
    cat, U, fs, m1, m2 = worked_pair
    raw = sv.combine_potentials(m1, m2)  # carries conflict 0.3
    qsp, sp = sv.degree_of_support(raw, fs("a"))
    assert abs(qsp - 0.6) < 1e-12
    assert abs(sp - 3 / 7) < 1e-12
    # matches normalizing first and asking afterwards
    dem = sv.dempster_combine(m1, m2)
    _, sp_dem = sv.degree_of_support(dem, fs("a"))
    assert abs(sp - sp_dem) < 1e-12


def test_fully_contradictory_potential_errors(ab):
    cat, U, fs = ab
    dead = sv.set_potential(cat, U, [(sv.FocalSet.empty(cat, U), 1.0)])
    with pytest.raises(TotalConflictError):
        sv.degree_of_support(dead, fs("a"))
    with pytest.raises(TotalConflictError):
        sv.degree_of_plausibility(dead, fs("a"))


def _three_frame():
    cat = sv.VariableCatalog.of({"w": ("p", "q", "r")})
    return cat, cat.domain("w")


def test_duality_exhaustive_on_three_element_frame():
    rng = random.Random(11)
    cat, W = _three_frame()
    for _ in range(40):
        m = helpers.random_mass_function(rng, cat, W)
        for h in all_focal_sets(cat, W):
            pl = sv.degree_of_plausibility(m, h)
            _, sp_c = sv.degree_of_support(m, h.complement())
            assert abs(pl - (1 - sp_c)) < 1e-9


def test_support_monotone():
    rng = random.Random(12)
    cat, W = _three_frame()
    for _ in range(30):
        m = helpers.random_mass_function(rng, cat, W)
        subsets = all_focal_sets(cat, W)
        for h1, h2 in itertools.product(subsets, repeat=2):
            if h1.mask | h2.mask == h2.mask:
                assert sv.degree_of_support(m, h1)[1] <= \
                    sv.degree_of_support(m, h2)[1] + 1e-12


def test_support_monotone_of_order_infinity():
    """Inclusion-exclusion lower bound for up to three inner hypotheses."""
    rng = random.Random(13)
    cat, W = _three_frame()
    subsets = all_focal_sets(cat, W)
    for _ in range(10):
        m = helpers.random_mass_function(rng, cat, W)
        sp = {h: sv.degree_of_support(m, h)[1] for h in subsets}
        for h in subsets:
            inner = [g for g in subsets if g.mask | h.mask == h.mask]
            for k in (1, 2, 3):
                for hs in itertools.combinations(inner, k):
                    bound = 0.0
                    for r in range(1, k + 1):
                        for picked in itertools.combinations(hs, r):
                            meet = picked[0].mask
                            for g in picked[1:]:
                                meet = meet & g.mask
                            bound += (-1) ** (r + 1) * sp[sv.FocalSet(cat, W, meet)]
                    assert sp[h] >= bound - 1e-9


def test_quasi_support_of_meet_counts_common_refinements(ab):
    cat, U, fs = ab
    rng = random.Random(14)
    for _ in range(20):
        m = helpers.random_mass_function(rng, cat, cat.domain("u"))
        for h1 in all_focal_sets(cat, cat.domain("u")):
            for h2 in all_focal_sets(cat, cat.domain("u")):
                meet = sv.FocalSet(cat, cat.domain("u"), h1.mask & h2.mask)
                direct = sv.mass_to_belief(m, meet)
                both = sum(
                    mass for f, mass in m.focal
                    if f.mask | h1.mask == h1.mask
                    and f.mask | h2.mask == h2.mask
                )
                assert abs(direct - both) < 1e-12


def test_raw_combination_commutative_associative():
    rng = random.Random(15)
    done = 0
    while done < 25:
        cat = helpers.random_catalog(rng, max_vars=3, max_frame=3)
        doms = [helpers.random_domain(rng, cat, max_size=2) for _ in range(3)]
        if cat.config_count(doms[0] | doms[1] | doms[2]) > 9:
            continue
        a, b, c = (helpers.random_mass_function(rng, cat, d) for d in doms)
        ab_ = sv.combine_potentials(a, b)
        ba_ = sv.combine_potentials(b, a)
        keys = set(ab_.by_set) | set(ba_.by_set)
        assert all(abs(ab_.mass(k) - ba_.mass(k)) < 1e-9 for k in keys)
        left = sv.combine_potentials(ab_, c)
        right = sv.combine_potentials(a, sv.combine_potentials(b, c))
        keys = set(left.by_set) | set(right.by_set)
        assert all(abs(left.mass(k) - right.mass(k)) < 1e-9 for k in keys)
        done += 1


def test_single_singleton_operand_bounds_output(ab):
    cat, U, fs = ab
    cat2 = sv.VariableCatalog.of({"u": ("a", "b"), "v": ("0", "1")})
    UU, VV = cat2.domain("u"), cat2.domain("v")
    point = sv.set_potential(cat2, UU, [(sv.FocalSet.of(cat2, UU, [(0,)]), 1.0)], "bpa")
    other = sv.set_potential(cat2, VV, [
        (sv.FocalSet.of(cat2, VV, [(0,)]), 0.4),
        (sv.FocalSet.of(cat2, VV, [(0,), (1,)]), 0.6),
    ], "bpa")
    out = sv.combine_potentials(point, other)
    cylinder = sv.transport_potential(point, cat2.domain("u", "v"))
    cyl_mask = cylinder.focal[0][0].mask
    assert all(f.mask | cyl_mask == cyl_mask for f, _ in out.focal)


def _random_relations(rng):
    """2-7 variables of 1-3 values, 1-5 boolean factors whose cells are 1
    with probability 0.7, and a query of 0-2 variables."""
    cat = sv.VariableCatalog.of({f"x{i}": "012"[:rng.randint(1, 3)]
                                 for i in range(rng.randint(2, 7))})
    bo = sv.get_instance("boolean")
    factors = []
    for _ in range(rng.randint(1, 5)):
        d = helpers.random_domain(rng, cat)
        table = tuple(int(rng.random() < 0.7) for _ in range(cat.config_count(d)))
        factors.append(sv.Valuation(cat, bo, d, table))
    return cat, factors, helpers.random_domain(rng, cat, max_size=2)


def test_categorical_potentials_are_the_relational_algebra():
    # a boolean table and the potential with mass 1 on its support are one
    # relation: local computation on either gives the same relations
    rng = random.Random(19)
    bo = sv.get_instance("boolean")
    for _ in range(400):
        cat, factors, query = _random_relations(rng)
        tree = sv.build_covering_join_tree([f.domain for f in factors], cover=[query])
        root = rng.randrange(len(tree))
        at = (tree.labels[root], *tree.labels, query)
        results = []
        for ops, fs, equal in (
                (sv.ValuationOps(cat, bo), factors, helpers.exact_equal),
                (sv.SetPotentialOps(cat), [helpers.categorical(f) for f in factors],
                 helpers.potentials_equal)):
            collected, store = sv.collect(tree, fs, root, ops)
            nodes = sv.distribute(tree, store, ops)
            found = [collected, *nodes, nodes[tc.default_root(tree, query)]]
            answers = [ops.solve_to(r, d) for r, d in zip(found, at)]
            for got, d in zip(answers, at):
                assert equal(got, sv.naive_solve(fs, d, ops)), d
            results.append(answers)
        for table, pot in zip(*results):
            want = helpers.categorical(table)
            assert pot.domain == want.domain and pot.focal == want.focal
            assert len(pot.focal) == 1 and pot.focal[0][1] == 1.0


def test_categorical_potentials_are_idempotent():
    # phi * phi->t == phi->(d(phi) | t)
    rng = random.Random(1976)
    for _ in range(400):
        cat, factors, t = _random_relations(rng)
        phi = helpers.categorical(rng.choice(factors))
        lhs = sv.combine_potentials(phi, sv.transport_potential(phi, t))
        rhs = sv.transport_potential(phi, phi.domain | t)
        assert lhs.domain == rhs.domain and lhs.focal == rhs.focal
        assert len(lhs.focal) == 1 and lhs.focal[0][1] == 1.0
