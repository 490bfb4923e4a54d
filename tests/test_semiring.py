import random

import pytest

import oracles
import semival as sv
from semival.errors import DomainError
from semival.semiring import format_value

from helpers import corrupted

NEG_INF = float("-inf")


def test_builtin_examples():
    table = sv.builtin_instances()
    bo = table["boolean"]
    assert bo.add(1, 1) == 1 and bo.mul(1, 0) == 0
    tr = table["tropical"]
    assert tr.add(2, 5) == 5 and tr.mul(2, 5) == 7 and tr.zero == NEG_INF
    ar = table["arithmetic"]
    assert ar.eq(ar.add(0.3, 0.7), 1.0)
    bn = table["bottleneck"]
    assert bn.add(0.2, 0.9) == 0.9 and bn.mul(0.2, 0.9) == 0.2
    fz = table["fuzzy-product"]
    assert fz.mul(0.5, 0.5) == 0.25 and not fz.idempotent_mul
    ch = sv.chain_instance(4)
    assert ch.one == 3 and ch.add(1, 2) == 2 and ch.mul(1, 2) == 1
    assert ch.idempotent_add and ch.idempotent_mul and ch.positive


def test_tropical_zero_is_exact_annihilator():
    tr = sv.get_instance("tropical")
    assert tr.mul(5, NEG_INF) == NEG_INF
    assert tr.add(NEG_INF, 3) == 3
    assert tr.eq(NEG_INF, NEG_INF)
    assert not tr.eq(NEG_INF, -1e300)


def test_get_instance_names():
    assert sv.get_instance("chain(7)").one == 6
    with pytest.raises(DomainError):
        sv.get_instance("nope")
    with pytest.raises(DomainError):
        sv.get_instance("chain(0)")


def test_all_builtins_pass_axiom_checker():
    for name, sr in sv.builtin_instances().items():
        report = sv.check_semiring_axioms(sr, samples=2000, seed=0)
        assert report.passed, f"{name}: {report}"
    report = sv.check_semiring_axioms(sv.chain_instance(5), samples=2000, seed=0)
    assert report.passed


def test_not_applicable_flags_are_reported():
    ar = sv.get_instance("arithmetic")
    report = sv.check_semiring_axioms(ar, samples=100, seed=0)
    by_law = {r.law: r.status for r in report.laws}
    assert by_law["flag-idempotent-add"] == "n/a"
    assert by_law["flag-positive"] == "pass"
    tr = sv.get_instance("tropical")
    by_law = {r.law: r.status for r in sv.check_semiring_axioms(tr, 100, 0).laws}
    assert by_law["flag-positive"] == "n/a"


def test_corrupted_idempotent_flag_fails_with_witness():
    bad = corrupted(sv.get_instance("arithmetic"), idempotent_add=True)
    report = sv.check_semiring_axioms(bad, samples=500, seed=0)
    assert not report.passed
    row = {r.law: r for r in report.laws}["flag-idempotent-add"]
    assert row.status == "fail" and row.witness


def test_corrupted_positive_tropical_fails_with_witness():
    # force the positivity claim onto a max-plus variant whose declared
    # null is the number 0; finite a < 0 with max(a, 0) = 0 disproves it
    bad = corrupted(sv.get_instance("tropical"), positive=True, zero=0)
    report = sv.check_semiring_axioms(bad, samples=500, seed=0)
    row = {r.law: r for r in report.laws}["flag-positive"]
    assert row.status == "fail" and row.witness


def test_absorption_for_fully_idempotent_instances():
    for name in ("boolean", "bottleneck"):
        report = sv.check_semiring_axioms(sv.get_instance(name), 1000, 0)
        by_law = {r.law: r.status for r in report.laws}
        assert by_law["absorption-add"] == "pass"
        assert by_law["absorption-mul"] == "pass"
    by_law = {r.law: r.status
              for r in sv.check_semiring_axioms(sv.get_instance("tropical"), 100, 0).laws}
    assert by_law["absorption-add"] == "n/a"


def test_parse_and_format():
    tr = sv.get_instance("tropical")
    assert tr.parse("-inf") == NEG_INF
    assert tr.parse("3") == 3 and isinstance(tr.parse("3"), int)
    assert tr.parse("2.5") == 2.5
    assert format_value(NEG_INF) == "-inf"
    assert format_value(0.3333333333333333) == "0.333333333333"
    assert format_value(7) == "7"
    with pytest.raises(DomainError):
        tr.parse("x")


def test_report_is_deterministic():
    sr = sv.get_instance("arithmetic")
    a = sv.check_semiring_axioms(sr, samples=300, seed=42)
    b = sv.check_semiring_axioms(sr, samples=300, seed=42)
    assert str(a) == str(b)


# --- samplers and the checker against the reference forms -------------------

SAMPLED = ["boolean", "arithmetic", "tropical", "bottleneck", "fuzzy-product",
           "chain(1)", "chain(2)", "chain(5)"]


@pytest.mark.parametrize("name", SAMPLED)
def test_samplers_match_randint_uniform_reference(name):
    """Same values, same types and the same number of bits consumed."""
    sample, want = sv.get_instance(name).sample, oracles.reference_sampler(name)
    rng, ref = random.Random(name), random.Random(name)
    got = [sample(rng) for _ in range(100_000)]
    expected = [want(ref) for _ in range(100_000)]
    assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in expected]
    assert rng.getstate() == ref.getstate()


def _checked_instances():
    out = [sv.get_instance(name) for name in SAMPLED]
    out.append(corrupted(sv.get_instance("arithmetic"), idempotent_add=True))
    out.append(corrupted(sv.get_instance("tropical"), positive=True, zero=0))
    return out


@pytest.mark.parametrize("sr", _checked_instances(), ids=lambda sr: sr.name)
def test_checker_matches_every_draw_reference(sr):
    for seed in range(20):
        for samples in (1, 7, 100, 500):
            want = oracles.every_draw_check_semiring_axioms(sr, samples, seed)
            assert str(sv.check_semiring_axioms(sr, samples, seed)) == str(want)
