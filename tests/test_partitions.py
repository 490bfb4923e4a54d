import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import semival as sv
from semival.errors import DomainError, MismatchError
from semival.partitions import lattice_cond_indep, partition_by


U4 = sv.Universe(("1", "2", "3", "4"))
U3 = sv.Universe(("1", "2", "3"))


def P(universe, *blocks):
    return sv.Partition.of(universe, blocks)


def test_canonical_form_and_validation():
    p = P(U4, ("3", "4"), ("2", "1"))
    assert p.blocks == (("1", "2"), ("3", "4"))
    assert str(p) == "{1 2} {3 4}"
    with pytest.raises(DomainError):
        P(U4, ("1", "2"))  # not covering
    with pytest.raises(DomainError):
        P(U4, ("1", "2"), ("2", "3", "4"))  # overlap
    with pytest.raises(DomainError):
        P(U4, ("1", "2"), (), ("3", "4"))  # empty block


def test_leq_examples():
    p = P(U3, ("1", "2"), ("3",))
    q = P(U3, ("1",), ("2", "3"))
    assert sv.partition_leq(sv.Partition.trivial(U3), p)
    assert sv.partition_leq(p, p)
    assert not sv.partition_leq(p, q)  # block {2 3} straddles {1 2} and {3}


def test_join_examples():
    p = P(U4, ("1", "2"), ("3", "4"))
    assert sv.partition_join(p, sv.Partition.trivial(U4)) == p
    assert sv.partition_join(p, p) == p
    q = P(U4, ("1", "3"), ("2", "4"))
    assert sv.partition_join(p, q) == sv.Partition.singletons(U4)


def test_saturate_examples():
    p = P(U3, ("1", "2"), ("3",))
    assert sv.saturate(p, []) == frozenset()
    assert sv.saturate(p, ["1"]) == {"1", "2"}
    assert sv.saturate(p, U3.elements) == set(U3.elements)
    with pytest.raises(DomainError):
        sv.saturate(p, ["9"])


def test_meet_examples():
    p = P(U4, ("1", "2"), ("3", "4"))
    assert sv.partition_meet(p, sv.Partition.singletons(U4)) == p
    assert sv.partition_meet(p, p) == p
    q = P(U4, ("1",), ("2", "3"), ("4",))
    assert sv.partition_meet(p, q) == sv.Partition.trivial(U4)


def test_commute_examples():
    # coordinate partitions of a 2x2 product universe commute
    prod = sv.Universe(("00", "01", "10", "11"))
    first = partition_by(prod, lambda e: e[0])
    second = partition_by(prod, lambda e: e[1])
    assert sv.partitions_commute(first, second)
    p = P(U3, ("1", "2"), ("3",))
    assert sv.partitions_commute(p, p)
    q = P(U3, ("1",), ("2", "3"))
    assert not sv.partitions_commute(p, q)


def test_cond_indep_examples():
    p1 = P(U4, ("1", "2"), ("3", "4"))
    p2 = P(U4, ("1", "3"), ("2", "4"))
    assert sv.cond_indep_partitions(p1, p2, p2)
    assert sv.cond_indep_partitions(p1, p2, sv.Partition.trivial(U4))
    assert not sv.cond_indep_partitions(p1, p1, sv.Partition.trivial(U4))
    with pytest.raises(MismatchError):
        sv.cond_indep_partitions(p1, p2, sv.Partition.trivial(U3))


def _random_partition(rng, universe):
    blocks = {}
    nb = rng.randint(1, len(universe))
    for e in universe.elements:
        blocks.setdefault(rng.randrange(nb), []).append(e)
    return sv.Partition.of(universe, blocks.values())


def _random_subset(rng, universe):
    return frozenset(e for e in universe.elements if rng.random() < 0.5)


def test_saturation_lemma_quantified():
    rng = random.Random(0)
    for _ in range(1000):
        size = rng.randint(1, 8)
        uni = sv.Universe(tuple(str(i) for i in range(size)))
        p = _random_partition(rng, uni)
        xs, ys = _random_subset(rng, uni), _random_subset(rng, uni)
        sx, sy = sv.saturate(p, xs), sv.saturate(p, ys)
        assert sv.saturate(p, []) == frozenset()
        assert xs <= sx
        if xs <= ys:
            assert sx <= sy
        assert sv.saturate(p, sx & ys) == sx & sy


def test_join_is_lattice_operation():
    rng = random.Random(1)
    for _ in range(200):
        size = rng.randint(1, 6)
        uni = sv.Universe(tuple(str(i) for i in range(size)))
        a, b, c = (_random_partition(rng, uni) for _ in range(3))
        assert sv.partition_join(a, b) == sv.partition_join(b, a)
        assert sv.partition_join(a, a) == a
        assert sv.partition_join(sv.partition_join(a, b), c) == \
            sv.partition_join(a, sv.partition_join(b, c))
        j = sv.partition_join(a, b)
        assert sv.partition_leq(a, j) and sv.partition_leq(b, j)
        # least upper bound: any common upper bound dominates the join
        if sv.partition_leq(a, c) and sv.partition_leq(b, c):
            assert sv.partition_leq(j, c)
        # antisymmetry
        if sv.partition_leq(a, b) and sv.partition_leq(b, a):
            assert a == b


def _coordinate_family(sizes):
    """All coordinate partitions P_s of a product universe, keyed by index set."""
    elements = tuple("".join(str(v) for v in combo)
                     for combo in itertools.product(*[range(s) for s in sizes]))
    uni = sv.Universe(elements)
    family = {}
    for r in range(len(sizes) + 1):
        for s in itertools.combinations(range(len(sizes)), r):
            family[s] = partition_by(uni, lambda e, s=s: tuple(e[i] for i in s))
    return uni, family


def test_coordinate_partitions_match_subset_independence():
    _, family = _coordinate_family((2, 2, 2))
    doms = {s: sv.Domain(tuple(f"X{i}" for i in s)) for s in family}
    for s, t, r in itertools.product(family, repeat=3):
        assert sv.partitions_commute(family[s], family[t])
        assert sv.partition_leq(family[s], family[t]) == (doms[s] <= doms[t])
        expected = sv.cond_indep_subsets(doms[s], doms[t], doms[r])
        assert sv.cond_indep_partitions(family[s], family[t], family[r]) == expected


def test_lattice_equivalence_on_commuting_family():
    """On a commuting join/meet-closed family the two relations coincide."""
    _, family = _coordinate_family((2, 2, 2))
    parts = list(family.values())
    for p1, p2, p in itertools.product(parts, repeat=3):
        assert sv.cond_indep_partitions(p1, p2, p) == lattice_cond_indep(p1, p2, p)


def test_lattice_equivalence_fails_on_non_commuting_pair():
    p1 = P(U3, ("1", "2"), ("3",))
    p2 = P(U3, ("1",), ("2", "3"))
    assert not sv.partitions_commute(p1, p2)
    witness = (p1, p2, sv.Partition.trivial(U3))
    assert lattice_cond_indep(*witness)
    assert not sv.cond_indep_partitions(*witness)


def test_all_partitions_enumeration():
    assert len(sv.all_partitions(U3)) == 5
    assert len(sv.all_partitions(U4)) == 15


def test_qseparoid_full_lattices():
    for uni in (U3, U4):
        report = sv.check_qseparoid(sv.all_partitions(uni))
        assert report.passed, str(report)
        assert {r.law for r in report.laws} == {
            "C1-self-conditioning", "C2-symmetry", "C3-coarsening",
            "C4-join-absorption", "basic",
        }


def test_qseparoid_trivial_family_passes():
    report = sv.check_qseparoid([sv.Partition.trivial(U3)])
    assert report.passed


def test_qseparoid_requires_join_closure():
    p1 = P(U4, ("1", "2"), ("3", "4"))
    p2 = P(U4, ("1", "3"), ("2", "4"))
    with pytest.raises(DomainError):
        sv.check_qseparoid([p1, p2])


def test_qseparoid_broken_relation_fails_with_witness():
    # a relation that refuses coarse second arguments violates C3
    def broken(p1, p2, p):
        return sv.cond_indep_partitions(p1, p2, p) and len(p2.blocks) >= 2

    report = sv.check_qseparoid(sv.all_partitions(U3), indep=broken)
    row = {r.law: r for r in report.laws}["C3-coarsening"]
    assert row.status == "fail" and row.witness


def test_qseparoid_sampling_mode():
    parts = sv.all_partitions(U4)
    report = sv.check_qseparoid(parts, exhaustive_limit=100, seed=3)
    assert report.passed
    assert "sampled" in report.details[0]
    again = sv.check_qseparoid(parts, exhaustive_limit=100, seed=3)
    assert str(report) == str(again)


# --- the table-driven checker against the per-call reference -----------------

def _refuses_coarse(p1, p2, p):
    return sv.cond_indep_partitions(p1, p2, p) and len(p2.blocks) >= 2


def _refuses_fine_first(p1, p2, p):
    """Asymmetric in its first two arguments, so C2 fails as well."""
    return sv.cond_indep_partitions(p1, p2, p) and len(p1.blocks) <= len(p2.blocks)


def _always(p1, p2, p):
    """Calls everything independent, so only the basic law fails."""
    return True


def _refuses_refined(p1, p2, p):
    """Refuses a second argument that already refines the condition: C4 fails."""
    return sv.cond_indep_partitions(p1, p2, p) and sv.partition_join(p2, p) != p2


HOOKS = [None, _refuses_coarse, _refuses_fine_first, _always, _refuses_refined]


def _universe(size):
    return sv.Universe(tuple(str(i) for i in range(size)))


def _join_closure(parts):
    family = set(parts)
    while True:
        joins = {sv.partition_join(a, b) for a in family for b in family}
        if joins <= family:
            return sorted(family, key=str)
        family |= joins


def _same_report(parts, **kw):
    want = oracles.per_call_check_qseparoid(parts, **kw)
    got = sv.check_qseparoid(parts, **kw)
    assert str(got) == str(want)


@pytest.mark.parametrize("indep", HOOKS)
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_qseparoid_matches_reference_on_full_lattices(size, indep):
    _same_report(sv.all_partitions(_universe(size)), indep=indep)


def test_qseparoid_full_five_element_lattice():
    # the per-call reference makes about 960 000 relation calls here, too many
    # for the suite, so its report is recorded
    report = sv.check_qseparoid(sv.all_partitions(_universe(5)))
    assert str(report) == "\n".join([
        "check partition q-separoid (samples=140608 seed=0)",
        "family size 52, exhaustive triples",
        "law C1-self-conditioning: pass", "law C2-symmetry: pass",
        "law C3-coarsening: pass", "law C4-join-absorption: pass", "law basic: pass",
        "result: pass",
    ])


@pytest.mark.parametrize("indep", HOOKS)
def test_qseparoid_matches_reference_on_random_join_closed_families(indep):
    rng = random.Random(5)
    for _ in range(12):
        uni = _universe(rng.randint(3, 5))
        gens = [_random_partition(rng, uni) for _ in range(rng.randint(1, 3))]
        family = _join_closure(gens)
        rng.shuffle(family)
        _same_report(family, indep=indep)


@pytest.mark.parametrize("indep", HOOKS)
@pytest.mark.parametrize("size", [4, 5])
def test_qseparoid_matches_reference_when_sampled(size, indep):
    parts = sv.all_partitions(_universe(size))
    for limit in (1, 10, 300):
        for seed in (0, 1, 2):
            _same_report(parts, exhaustive_limit=limit, seed=seed, indep=indep)


def test_qseparoid_join_closure_error_matches_reference():
    rng = random.Random(9)
    for _ in range(20):
        uni = _universe(4)
        family = [_random_partition(rng, uni) for _ in range(3)]
        try:
            want = str(oracles.per_call_check_qseparoid(family))
        except DomainError as exc:
            want = f"DomainError: {exc}"
        try:
            got = str(sv.check_qseparoid(family))
        except DomainError as exc:
            got = f"DomainError: {exc}"
        assert got == want


@pytest.mark.parametrize("limit", [200_000, 300])
def test_qseparoid_calls_indep_once_per_triple(limit):
    seen = []

    def counting(p1, p2, p):
        seen.append((p1, p2, p))
        return _refuses_fine_first(p1, p2, p)

    sv.check_qseparoid(sv.all_partitions(U4), exhaustive_limit=limit, indep=counting)
    assert seen and len(seen) == len(set(seen))


@settings(max_examples=60)
@given(st.data())
def test_meet_is_greatest_lower_bound(data):
    size = data.draw(st.integers(2, 5))
    uni = sv.Universe(tuple(str(i) for i in range(size)))
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    a, b = _random_partition(rng, uni), _random_partition(rng, uni)
    m = sv.partition_meet(a, b)
    assert sv.partition_leq(m, a) and sv.partition_leq(m, b)
    c = _random_partition(rng, uni)
    if sv.partition_leq(c, a) and sv.partition_leq(c, b):
        assert sv.partition_leq(c, m)


def test_commute_matches_block_pair_formulation():
    """Saturations commute exactly when, inside every block of the meet,
    every block pair of the two partitions intersects."""
    rng = random.Random(21)
    for _ in range(300):
        size = rng.randint(1, 7)
        uni = sv.Universe(tuple(str(i) for i in range(size)))
        p1, p2 = _random_partition(rng, uni), _random_partition(rng, uni)
        meet = sv.partition_meet(p1, p2)
        blockwise = all(
            set(b1) & set(b2)
            for c in meet.blocks
            for b1 in p1.blocks if set(b1) <= set(c)
            for b2 in p2.blocks if set(b2) <= set(c)
        )
        assert sv.partitions_commute(p1, p2) == blockwise


# --- the block-index operations against the block-set oracles ----------------

def _agree_with_oracles(parts, rng):
    for a in parts:
        xs = _random_subset(rng, a.universe)
        assert sv.saturate(a, xs) == oracles.blockwise_saturate(a, xs)
    for a, b in itertools.product(parts, repeat=2):
        assert sv.partition_leq(a, b) == oracles.blockwise_partition_leq(a, b)
        assert sv.partition_join(a, b) == oracles.blockwise_partition_join(a, b)
        assert sv.partition_meet(a, b) == oracles.saturation_partition_meet(a, b)
        assert sv.partitions_commute(a, b) == oracles.singleton_partitions_commute(a, b)
    for a, b, c in itertools.product(parts, repeat=3):
        assert (sv.cond_indep_partitions(a, b, c)
                == oracles.blockwise_cond_indep_partitions(a, b, c))


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_lattice_matches_block_set_oracles_on_full_lattices(size):
    _agree_with_oracles(sv.all_partitions(_universe(size)), random.Random(size))


def test_lattice_matches_block_set_oracles_on_random_partitions():
    rng = random.Random(15)
    for _ in range(40):
        uni = _universe(rng.randint(5, 7))
        _agree_with_oracles([_random_partition(rng, uni) for _ in range(6)], rng)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
def test_all_partitions_order_matches_grown_enumeration(size):
    uni = _universe(size)
    assert sv.all_partitions(uni) == oracles.grown_all_partitions(uni)
