"""Value semantics of the package's value types.

Immutable value types compare and hash by their fields and refuse
attribute assignment.  ``Semiring``, ``Valuation`` and ``SetPotential``
compare and hash by identity.  ``Model``, ``NamedTree`` and
``MessageStore`` compare by their fields, are unhashable, stay mutable and
get fresh defaults per instance.
"""

import pytest

import semival as sv
from semival.model import Model, NamedTree
from semival.reports import CheckReport, LawResult

from helpers import corrupted

CAT = sv.VariableCatalog.of({"x": ("0", "1"), "y": ("0", "1", "2")})
DX, DXY = sv.Domain.of("x"), sv.Domain.of("x", "y")
U = sv.Universe((1, 2, 3))
PASSED = LawResult("l", "pass")

# name -> (two builders of one value in different ways, a different value)
VALUES = {
    "Comparator": (lambda: sv.Comparator(1e-6, 1e-9),
                   lambda: sv.Comparator(rel=1e-6, abs=1e-9), sv.Comparator()),
    "Domain": (lambda: sv.Domain(("y", "x")), lambda: sv.Domain.of("x", "y", "x"), DX),
    "Variable": (lambda: sv.Variable("x", ("0", "1")),
                 lambda: sv.Variable(name="x", frame=("0", "1")),
                 sv.Variable("x", ("1", "0"))),
    "VariableCatalog": (lambda: sv.VariableCatalog.of({"x": "01", "y": "012"}),
                        lambda: sv.VariableCatalog.of({"y": "012", "x": "01"}),
                        sv.VariableCatalog.of({"x": "01"})),
    "LabeledTree": (lambda: sv.LabeledTree((DX, DXY), ((0, 1),), (1,)),
                    lambda: sv.LabeledTree((DX, DXY), ((1, 0),), (1,)),
                    sv.LabeledTree((DX, DXY), ((0, 1),), (0,))),
    "EliminationSequence": (lambda: sv.EliminationSequence((DX, DXY), (1,)),
                            lambda: sv.EliminationSequence(domains=(DX, DXY), b=(1,)),
                            sv.EliminationSequence((DXY, DX), (1,))),
    "FocalSet": (lambda: sv.FocalSet.of(CAT, DX, [(1,), (0,)]),
                 lambda: sv.FocalSet(CAT, DX, 0b11), sv.FocalSet.of(CAT, DX, [(0,)])),
    "Universe": (lambda: sv.Universe((1, 2, 3)), lambda: sv.Universe(elements=(1, 2, 3)),
                 sv.Universe((1, 2))),
    "Partition": (lambda: sv.Partition.of(U, [[3], [2, 1]]),
                  lambda: sv.Partition(sv.Universe((1, 2, 3)), ((1, 2), (3,))),
                  sv.Partition.singletons(U)),
    "LawResult": (lambda: LawResult("l", "fail", None), lambda: LawResult("l", "fail"),
                  LawResult("l", "fail", "w")),
    "CheckReport": (lambda: CheckReport("s", 1, 2, (PASSED,)),
                    lambda: CheckReport(subject="s", seed=1, samples=2, laws=(PASSED,),
                                        details=()),
                    CheckReport("s", 1, 2, (PASSED,), ("d",))),
}

# name -> (an instance, one of its fields)
FROZEN = {
    **{name: (make(), field) for (name, (make, _, _)), field in zip(VALUES.items(), (
        "rel", "names", "frame", "variables", "edges", "b", "mask",
        "elements", "blocks", "witness", "laws"))},
    "Semiring": (sv.get_instance("boolean"), "add"),
    "Valuation": (sv.Valuation(CAT, sv.get_instance("boolean"), DX, (1, 0)), "table"),
    "SetPotential": (sv.vacuous(CAT, DX), "kind"),
}

SEMIRING_FIELDS = ("name", "carrier", "add", "mul", "zero", "one", "idempotent_add",
                   "positive", "idempotent_mul", "eq", "sample", "member")


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_compare_and_hash_alike(name):
    make, other_way, different = VALUES[name]
    a, b = make(), other_way()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != different and not a == different
    assert a != object() and a != None  # noqa: E711


@pytest.mark.parametrize("name", ["Semiring", "Valuation", "SetPotential"])
def test_identity_types_compare_by_identity(name):
    make = {
        "Semiring": lambda: sv.get_instance("boolean"),
        "Valuation": lambda: sv.Valuation(CAT, FROZEN["Semiring"][0], DX, (1, 0)),
        "SetPotential": lambda: sv.vacuous(CAT, DX),
    }[name]
    a, b = make(), make()
    assert a == a and hash(a) == hash(a) and {a: 1}[a] == 1
    assert a != b and not a == b


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_fields_refuse_assignment(name):
    obj, field = FROZEN[name]
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


def test_mutable_types_compare_by_value_and_are_unhashable():
    pairs = [
        (NamedTree("t", (DX,), (), {"f": 0}), NamedTree("t", (DX,), (), {"f": 0}),
         NamedTree("t", (DX,), ())),
        (Model(CAT, "boolean"), Model(catalog=CAT, semiring_name="boolean"), Model(CAT)),
        (sv.MessageStore(0), sv.MessageStore(root=0, messages={}, node_factors=()),
         sv.MessageStore(1)),
    ]
    for a, b, different in pairs:
        assert a == b and not a != b and a != different
        with pytest.raises(TypeError):
            hash(a)
    model, fresh = pairs[1][0], pairs[1][1]
    model.semiring()
    assert model == fresh  # the semiring cache takes no part in equality


def test_mutable_types_keep_independent_defaults():
    a, b = Model(CAT), Model(CAT)
    for field in ("factors", "potentials", "universes", "partitions", "trees",
                  "sequences", "queries", "hypotheses"):
        assert getattr(a, field) == getattr(b, field)
        assert getattr(a, field) is not getattr(b, field), field
    a.queries.append(DX)
    a.semiring_name = "boolean"
    assert b.queries == [] and b.semiring_name is None
    s, t = sv.MessageStore(0), sv.MessageStore(0)
    s.messages[(1, 0)] = "m"
    s.root = 2
    assert t.messages == {} and t.root == 0 and t.node_factors == ()
    n, m = NamedTree("t", (DX,), ()), NamedTree("t", (DX,), ())
    n.assigned["f"] = 0
    assert m.assigned == {}


def test_corrupted_changes_only_the_named_fields():
    sr = sv.get_instance("arithmetic")
    bad = corrupted(sr, mul=max, one=0.0)
    assert bad is not sr and bad.mul is max and bad.one == 0.0 and sr.mul is not max
    for field in SEMIRING_FIELDS:
        if field not in ("mul", "one"):
            assert getattr(bad, field) is getattr(sr, field), field
    assert corrupted(sr) is not sr
    with pytest.raises(TypeError):
        corrupted(sr, nosuch=1)
