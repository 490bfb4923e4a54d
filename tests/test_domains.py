import math
import random

import pytest
from hypothesis import given, strategies as st

import semival as sv
from semival.domains import config_values, restriction_index_map, restrictor
from semival.errors import CapacityError, DomainError

import helpers
import oracles


def test_catalog_rejects_duplicates_and_empty_frames():
    with pytest.raises(DomainError):
        sv.VariableCatalog((sv.Variable("x", ("0",)), sv.Variable("x", ("0", "1"))))
    with pytest.raises(DomainError):
        sv.Variable("x", ())


def test_domain_is_sorted_and_deduplicated():
    d = sv.Domain(("b", "a", "b"))
    assert d.names == ("a", "b")
    assert (d | sv.Domain.of("c")).names == ("a", "b", "c")
    assert (d & sv.Domain.of("b", "c")).names == ("b",)
    assert (d - sv.Domain.of("a")).names == ("b",)
    assert sv.Domain.of("a") <= d
    assert not d <= sv.Domain.of("a")


def test_domain_meet_difference_and_order_match_set_references():
    rng = random.Random(5)
    names = [f"v{i}" for i in range(12)] + ["a", "B", "v1_"]
    for _ in range(2000):
        a = sv.Domain(tuple(rng.sample(names, rng.randint(0, 6))))
        b = sv.Domain(tuple(rng.sample(names, rng.randint(0, 6))))
        sa, sb = set(a.names), set(b.names)
        for got, want in ((a & b, sa & sb), (a - b, sa - sb)):
            # built without re-sorting, yet equal and hash-equal to a fresh domain
            assert got.names == tuple(sorted(want))
            assert got == sv.Domain(tuple(want)) and hash(got) == hash(sv.Domain(tuple(want)))
        assert (a <= b) is (sa <= sb)
        assert (a & a) == a and (a - a) == sv.EMPTY_DOMAIN and a <= a


def test_config_count_and_size_match_frame_lengths():
    rng = random.Random(6)
    for _ in range(1000):
        cat = helpers.random_catalog(rng, max_vars=6, max_frame=5)
        d = helpers.random_domain(rng, cat, max_size=6)
        count = math.prod(len(cat.frame(n)) for n in d.names)
        assert cat.config_count(d, cap=None) == count
        assert all(cat.size(n) == len(cat.frame(n)) for n in d.names)
        cap = rng.randint(1, 60)
        if count > cap:
            with pytest.raises(CapacityError) as exc:
                cat.config_count(d, cap=cap)
            assert str(exc.value) == f"domain {d} has more than {cap} configurations"
        else:
            assert cat.config_count(d, cap=cap) == count
    cat = sv.VariableCatalog.of({"x": ("0", "1"), "y": ("0", "1", "2")})
    for call in (lambda: cat.size("zz"), lambda: cat.frame("zz"),
                 lambda: cat.config_count(sv.Domain(("x", "zz")))):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == "unknown variable 'zz'"
    # the cap is checked as the product grows, before a later unknown name
    with pytest.raises(CapacityError):
        cat.config_count(sv.Domain(("x", "y", "zz")), cap=5)


def test_cond_indep_examples():
    s = sv.Domain.of("X1", "X2")
    t = sv.Domain.of("X2", "X3")
    assert sv.cond_indep_subsets(s, t, sv.Domain.of("X2"))
    # conditioning on the second argument itself always holds
    assert sv.cond_indep_subsets(s, t, t)
    assert not sv.cond_indep_subsets(
        sv.Domain.of("X1"), sv.Domain.of("X1"), sv.EMPTY_DOMAIN
    )


def _random_subset(rng, names):
    return sv.Domain(tuple(n for n in names if rng.random() < 0.5))


def test_separoid_conditions_on_random_subsets():
    """C1-C7 for the subset relation, quantified over seeded random triples."""
    rng = random.Random(0)
    names = [f"v{i}" for i in range(8)]
    ci = sv.cond_indep_subsets
    for _ in range(400):
        x, y, z, w = (_random_subset(rng, names) for _ in range(4))
        assert ci(x, y, y)                                        # C1
        if ci(x, y, z):
            assert ci(y, x, z)                                    # C2
            if w <= y:
                assert ci(x, w, z)                                # C3
                assert ci(x, y, z | w)                            # C5
            assert ci(x, y | z, z)                                # C4
            if ci(x, w, y | z):
                assert ci(x, y | w, z)                            # C6
        if z <= y and w <= y and ci(x, y, z) and ci(x, y, w):
            assert ci(x, y, z & w)                                # C7


def test_enumerate_configs_row_major():
    cat = sv.VariableCatalog.of({"A": ("0", "1"), "B": ("0", "1", "2")})
    assert config_values(cat, cat.domain("A")) == [(0,), (1,)]
    assert config_values(cat, sv.EMPTY_DOMAIN) == [()]
    assert config_values(cat, cat.domain("A", "B")) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)
    ]


def _raised(call):
    try:
        return call()
    except (CapacityError, DomainError) as exc:
        return type(exc), str(exc)


def test_config_values_match_the_odometer():
    rng = random.Random(8)
    cases = 0
    for _ in range(1000):
        cat = helpers.random_catalog(rng, max_vars=6, max_frame=4)
        d = helpers.random_domain(rng, cat, max_size=6)
        if rng.random() < 0.1:
            d = sv.Domain(d.names + ("zz",))
        cap = rng.choice([None, sv.DEFAULT_CONFIG_CAP, rng.randint(1, 80)])
        want = _raised(lambda: oracles.odometer_enumerate_configs(cat, d, cap))
        assert _raised(lambda: config_values(cat, d, cap)) == want
        cases += isinstance(want, list)
    assert cases > 500
    cat = sv.VariableCatalog.of({"x": ("0", "1")})
    assert config_values(cat, sv.EMPTY_DOMAIN, cap=1) == [()]
    full = sv.Domain(tuple(v.name for v in cat.variables))
    assert _raised(lambda: config_values(cat, full, cap=1)) == \
        (CapacityError, "domain {x} has more than 1 configurations")


def test_enumeration_cap():
    cat = sv.VariableCatalog.of({f"v{i}": ("0", "1") for i in range(30)})
    full = sv.Domain(tuple(v.name for v in cat.variables))
    with pytest.raises(CapacityError):
        config_values(cat, full)
    with pytest.raises(CapacityError):
        cat.config_count(full, cap=2**20)
    assert cat.config_count(full, cap=None) == 2**30


def test_restrict_examples():
    big = sv.Domain.of("a", "b", "c")
    c = (0, 2, 1)
    for sub, want in [((), ()),                        # no position
                      (("a",), (0,)), (("b",), (2,)),  # one position
                      (("c",), (1,)),
                      (("a", "c"), (0, 1)),            # several
                      (("a", "b", "c"), c)]:           # all
        got = restrictor(big, sv.Domain(sub))(c)
        assert type(got) is tuple and got == want


@given(st.data())
def test_restrict_composes(data):
    names = data.draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6,
                               unique=True))
    dom = sv.Domain(tuple(names))
    c = tuple(data.draw(st.integers(0, 3)) for _ in dom.names)
    t_names = data.draw(st.sets(st.sampled_from(dom.names)))
    t = sv.Domain(tuple(t_names))
    s_names = data.draw(st.sets(st.sampled_from(sorted(t_names)))) if t_names else set()
    s = sv.Domain(tuple(s_names))
    by_name = dict(zip(dom.names, c))
    assert restrictor(dom, s)(c) == tuple(by_name[n] for n in s.names)
    assert restrictor(t, s)(restrictor(dom, t)(c)) == restrictor(dom, s)(c)


def test_restriction_index_map_matches_restrict():
    rng = random.Random(2)
    for _ in range(30):
        cat = sv.VariableCatalog.of(
            {f"v{i}": tuple(str(j) for j in range(rng.randint(1, 3)))
             for i in range(rng.randint(1, 4))}
        )
        big = sv.Domain(tuple(v.name for v in cat.variables))
        names = list(big.names)
        sub = sv.Domain(tuple(rng.sample(names, rng.randint(0, len(names)))))
        rmap = restriction_index_map(cat, big, sub, tuple(range(cat.config_count(sub))))
        restrict, sub_configs = restrictor(big, sub), config_values(cat, sub)
        assert list(rmap) == [sub_configs.index(restrict(c))
                              for c in config_values(cat, big)]
