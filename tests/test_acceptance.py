"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
on a green run).
"""

import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import semival as sv
from semival import treecomp as tc
from semival.errors import CapabilityError, TotalConflictError
from semival.partitions import lattice_cond_indep, partition_by

import helpers
import oracles
from helpers import all_focal_sets, corrupted

HERE = Path(__file__).parent

TREE_SEMIRINGS = ("boolean", "arithmetic", "tropical", "bottleneck")
EXACT = {"boolean", "tropical", "bottleneck"}
REL_TOL = 1e-9


def _line(num: int, ok: bool, text: str):
    print(f"[criterion {num}] {'pass' if ok else 'FAIL'}: {text}")


def _close(sr_name, got, expected) -> bool:
    if got.domain != expected.domain:
        return False
    if sr_name in EXACT:
        return all(x == y for x, y in zip(got.table, expected.table))
    return all(
        x == y or abs(x - y) <= REL_TOL * max(abs(x), abs(y))
        for x, y in zip(got.table, expected.table)
    )


def _instances(sr, count=200, seed=20_240_101):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cat, factors = helpers.random_instance(
            rng, sr, max_vars=6, max_frame=4, max_factors=5
        )
        heuristic = rng.choice(("min-degree", "min-fill"))
        tree = sv.build_covering_join_tree(
            [f.domain for f in factors], heuristic=heuristic
        )
        out.append((cat, factors, tree, rng.randrange(len(tree))))
    return out


def test_criterion_1_local_equals_global():
    failures = []
    for name in TREE_SEMIRINGS:
        sr = sv.get_instance(name)
        for idx, (cat, factors, tree, _) in enumerate(_instances(sr)):
            ops = tc.ValuationOps(cat, sr)
            for root in range(len(tree)):
                got, _ = sv.collect(tree, factors, root, ops)
                expected = sv.naive_solve(factors, tree.labels[root], ops)
                if not _close(name, got, expected):
                    failures.append((name, idx, root))
    ok = not failures
    _line(1, ok, "collect equals the naive oracle at every root "
                 f"(200 instances x {len(TREE_SEMIRINGS)} semirings)"
          + (f"; first failures {failures[:3]}" if failures else ""))
    assert ok


def test_criterion_2_distribute_correctness():
    failures = []
    for name in TREE_SEMIRINGS:
        sr = sv.get_instance(name)
        for idx, (cat, factors, tree, root) in enumerate(_instances(sr)):
            ops = tc.ValuationOps(cat, sr)
            _, store = sv.collect(tree, factors, root, ops)
            for v, got in enumerate(sv.distribute(tree, store, ops)):
                expected = sv.naive_solve(factors, tree.labels[v], ops)
                if not _close(name, got, expected):
                    failures.append((name, idx, v))
    ok = not failures
    _line(2, ok, "after collect+distribute every node matches the oracle"
          + (f"; first failures {failures[:3]}" if failures else ""))
    assert ok


def test_criterion_3_hypertree_schemes():
    rng = random.Random(7_031)
    collect_fail = []
    distribute_fail = []
    idempotent = ("boolean", "bottleneck", "chain(3)")
    sequences_checked = 0
    while sequences_checked < 100:
        name = rng.choice(("boolean", "tropical", "bottleneck", "chain(3)"))
        sr = sv.get_instance(name)
        cat, factors = helpers.random_instance(rng, sr, max_vars=6, max_frame=4)
        ops = tc.ValuationOps(cat, sr)
        seq, aligned = helpers.numbered_tables(rng, factors, ops)
        assert sv.first_sequence_violation(seq) is None
        got, store = sv.hypertree_collect(seq, aligned, ops)
        expected = sv.naive_solve(factors, seq.domains[-1], ops)
        if not _close(name, got, expected):
            collect_fail.append((name, sequences_checked))
        if name in idempotent:
            for i, r in enumerate(sv.hypertree_distribute(seq, store, ops)):
                if not _close(name, r, sv.naive_solve(factors, seq.domains[i], ops)):
                    distribute_fail.append((name, sequences_checked, i))
        sequences_checked += 1

    ar = sv.get_instance("arithmetic")
    cat = sv.VariableCatalog.of({"x": ("0", "1")})
    ops = tc.ValuationOps(cat, ar)
    seq = sv.EliminationSequence((cat.domain("x"),), ())
    f = sv.Valuation(cat, ar, cat.domain("x"), (0.5, 0.5))
    raised = []
    try:
        sv.hypertree_collect(seq, [f], ops)
    except CapabilityError:
        raised.append("collect")
    try:
        sv.hypertree_distribute(seq, [f], ops)
    except CapabilityError:
        raised.append("distribute")
    ok = not collect_fail and not distribute_fail and raised == ["collect", "distribute"]
    _line(3, ok, "hypertree collect matches the oracle on 100 sequences, "
                 "distribute matches for idempotent instances, "
                 "arithmetic raises a capability error")
    assert ok, (collect_fail, distribute_fail, raised)


def test_criterion_4_axiom_suites():
    problems = []
    instances = dict(sv.builtin_instances())
    instances["chain(4)"] = sv.chain_instance(4)
    for name, sr in instances.items():
        report = sv.check_semiring_axioms(sr, samples=10_000, seed=0)
        if not report.passed:
            problems.append(f"semiring {name}")

    for name, sr in instances.items():
        report = sv.check_valuation_axioms(sr, samples=150, seed=0)
        status = {r.law: r.status for r in report.laws}
        core = ("combine-commutative", "combine-associative", "labeling",
                "projection-stepwise", "combination-projection",
                "combine-via-extension")
        gated = ("transport-composition", "transport-combination", "stability")
        if any(status[l] != "pass" for l in core):
            problems.append(f"core laws {name}")
        want = "pass" if sr.idempotent_add else "n/a"
        if any(status[l] != want for l in gated):
            problems.append(f"gated laws {name}")
        want_idem = "pass" if sr.idempotent_add and sr.idempotent_mul else "n/a"
        if status["idempotency"] != want_idem:
            problems.append(f"idempotency {name}")

    # deliberately corrupted instances must fail with witnesses
    bad_flag = corrupted(sv.get_instance("arithmetic"), idempotent_add=True)
    rep = sv.check_semiring_axioms(bad_flag, samples=10_000, seed=0)
    if rep.passed or not any(r.status == "fail" and r.witness for r in rep.laws):
        problems.append("corrupted arithmetic slipped through")
    bad_pos = corrupted(sv.get_instance("tropical"), positive=True, zero=0)
    rep = sv.check_semiring_axioms(bad_pos, samples=10_000, seed=0)
    rows = {r.law: r for r in rep.laws}
    if rows["flag-positive"].status != "fail" or not rows["flag-positive"].witness:
        problems.append("corrupted tropical slipped through")
    rep = sv.check_valuation_axioms(bad_flag, samples=60, seed=0)
    if rep.passed or not any(r.status == "fail" and r.witness for r in rep.laws):
        problems.append("corrupted valuation algebra slipped through")

    ok = not problems
    _line(4, ok, "semiring and valuation law suites pass; corrupted instances "
                 "fail with witnesses" + (f"; {problems}" if problems else ""))
    assert ok


def test_criterion_5_partition_theory():
    problems = []
    for size in (1, 2, 3, 4):
        uni = sv.Universe(tuple(str(i) for i in range(size)))
        report = sv.check_qseparoid(sv.all_partitions(uni))
        if not report.passed:
            problems.append(f"lattice size {size}")

    # commuting family: coordinate partitions of {0,1}^3
    elements = tuple("".join(str(b) for b in bits)
                     for bits in itertools.product((0, 1), repeat=3))
    uni = sv.Universe(elements)
    family = [
        partition_by(uni, lambda e, s=s: tuple(e[i] for i in s))
        for r in range(4) for s in itertools.combinations(range(3), r)
    ]
    for p1, p2 in itertools.combinations(family, 2):
        if not sv.partitions_commute(p1, p2):
            problems.append("coordinate partitions fail to commute")
            break
    for p1, p2, p in itertools.product(family, repeat=3):
        if sv.cond_indep_partitions(p1, p2, p) != lattice_cond_indep(p1, p2, p):
            problems.append(f"equivalence fails: [{p1}] [{p2}] [{p}]")
            break

    # documented non-commuting pair: a witness triple must break one direction
    u3 = sv.Universe(("1", "2", "3"))
    q1 = sv.Partition.of(u3, [("1", "2"), ("3",)])
    q2 = sv.Partition.of(u3, [("1",), ("2", "3")])
    witness = (q1, q2, sv.Partition.trivial(u3))
    if sv.partitions_commute(q1, q2):
        problems.append("pair unexpectedly commutes")
    if not (lattice_cond_indep(*witness) and not sv.cond_indep_partitions(*witness)):
        problems.append("no witness violation on the non-commuting pair")

    rng = random.Random(5_005)
    for _ in range(1000):
        size = rng.randint(1, 8)
        u = sv.Universe(tuple(str(i) for i in range(size)))
        blocks: dict = {}
        nb = rng.randint(1, size)
        for e in u.elements:
            blocks.setdefault(rng.randrange(nb), []).append(e)
        p = sv.Partition.of(u, blocks.values())
        xs = frozenset(e for e in u.elements if rng.random() < 0.5)
        ys = frozenset(e for e in u.elements if rng.random() < 0.5)
        if sv.saturate(p, sv.saturate(p, xs) & ys) != \
                sv.saturate(p, xs) & sv.saturate(p, ys):
            problems.append("saturation identity failed")
            break

    ok = not problems
    _line(5, ok, "q-separoid laws, lattice equivalence and saturation identity"
          + (f"; {problems}" if problems else ""))
    assert ok


def test_criterion_6_belief_functions():
    problems = []
    rng = random.Random(99)

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
        for back in (sv.belief_to_mass(cat, d, btable),
                     sv.commonality_to_mass(cat, d, qtable)):
            keys = set(m.by_set) | set(back.by_set)
            if any(abs(m.mass(k) - back.mass(k)) > 1e-9 for k in keys):
                problems.append(f"roundtrip {count}")
        count += 1

    cat = sv.VariableCatalog.of({"u": ("a", "b")})
    U = cat.domain("u")

    def fs(*labels):
        frame = cat.frame("u")
        return sv.FocalSet.of(cat, U, [(frame.index(l),) for l in labels])

    m1 = sv.set_potential(cat, U, [(fs("a"), 0.6), (fs("a", "b"), 0.4)], "bpa")
    m2 = sv.set_potential(cat, U, [(fs("b"), 0.5), (fs("a", "b"), 0.5)], "bpa")
    out = sv.dempster_combine(m1, m2)
    worked = (
        abs(out.mass(fs("a")) - 3 / 7) <= 1e-9
        and abs(out.mass(fs("b")) - 2 / 7) <= 1e-9
        and abs(out.mass(fs("a", "b")) - 2 / 7) <= 1e-9
        and abs(out.conflict - 0.3) <= 1e-9
    )
    if not worked:
        problems.append("worked combination example")

    for _ in range(30):
        cat2 = helpers.random_catalog(rng, max_vars=2, max_frame=3)
        doms = [helpers.random_domain(rng, cat2, max_size=1) for _ in range(3)]
        a, b, c = (helpers.random_bpa(rng, cat2, d) for d in doms)
        try:
            ab_ = sv.dempster_combine(a, b)
            ba_ = sv.dempster_combine(b, a)
            left = sv.dempster_combine(ab_, c)
            right = sv.dempster_combine(a, sv.dempster_combine(b, c))
            n_ary = sv.dempster_combine(a, b, c)
        except TotalConflictError:
            continue
        keys = set(ab_.by_set) | set(ba_.by_set)
        if any(abs(ab_.mass(k) - ba_.mass(k)) > 1e-9 for k in keys):
            problems.append("commutativity")
        for other in (right, n_ary):
            keys = set(left.by_set) | set(other.by_set)
            if any(abs(left.mass(k) - other.mass(k)) > 1e-9 for k in keys):
                problems.append("associativity")

    cat3 = sv.VariableCatalog.of({"w": ("p", "q", "r")})
    W = cat3.domain("w")
    subsets = all_focal_sets(cat3, W)
    for _ in range(25):
        m = helpers.random_mass_function(rng, cat3, W)
        sp = {}
        for h in subsets:
            _, sp[h] = sv.degree_of_support(m, h)
        for h in subsets:
            pl = sv.degree_of_plausibility(m, h)
            if abs(pl - (1 - sp[h.complement()])) > 1e-9:
                problems.append("duality")
        for h in subsets:
            inner = [g for g in subsets if g.mask | h.mask == h.mask]
            for k in (1, 2, 3):
                for combo in itertools.combinations(inner, k):
                    bound = 0.0
                    for r in range(1, k + 1):
                        for picked in itertools.combinations(combo, r):
                            meet = picked[0].mask
                            for g in picked[1:]:
                                meet &= g.mask
                            bound += (-1) ** (r + 1) * sp[sv.FocalSet(cat3, W, meet)]
                    if sp[h] < bound - 1e-9:
                        problems.append("inclusion-exclusion")

    ok = not problems
    _line(6, ok, "inversion round trips, the combination rule, duality and "
                 "monotonicity" + (f"; {sorted(set(problems))}" if problems else ""))
    assert ok


def test_criterion_7_tree_structure():
    problems = []
    rng = random.Random(404)
    names = ["a", "b", "c", "d", "e"]
    shapes = {
        1: [()],
        2: [((0, 1),)],
        3: [((0, 1), (1, 2)), ((0, 1), (0, 2))],
        4: [((0, 1), (1, 2), (2, 3)), ((0, 1), (0, 2), (0, 3)),
            ((0, 1), (1, 2), (1, 3))],
        5: [((0, 1), (1, 2), (2, 3), (3, 4)), ((0, 1), (0, 2), (0, 3), (0, 4)),
            ((0, 1), (1, 2), (1, 3), (3, 4))],
    }
    cases = 0
    for n, edge_sets in shapes.items():
        for edges in edge_sets:
            for _ in range(110):
                labels = tuple(
                    sv.Domain(tuple(x for x in names if rng.random() < 0.45))
                    for _ in range(n)
                )
                tree = sv.LabeledTree(labels, edges)
                if oracles.markov_check_direct(tree) != sv.is_join_tree(tree):
                    problems.append(f"disagreement on {labels}")
                cases += 1
    if cases < 1000:
        problems.append("too few cases")

    for _ in range(150):
        cat, factors = helpers.random_instance(rng, sv.get_instance("boolean"))
        doms = [f.domain for f in factors]
        tree = sv.build_covering_join_tree(
            doms, heuristic=rng.choice(("min-degree", "min-fill"))
        )
        if not sv.is_join_tree(tree):
            problems.append("covering tree not a join tree")
        if any(not d <= tree.labels[tree.assignment[k]] for k, d in enumerate(doms)):
            problems.append("factor not covered")
        for root in range(len(tree)):
            seq, _ = sv.tree_to_sequence(tree, root)
            if sv.first_sequence_violation(seq) is not None:
                problems.append("tree numbering is not a construction sequence")
            if not sv.is_join_tree(sv.sequence_to_join_tree(seq)):
                problems.append("sequence tree not a join tree")

    ok = not problems
    _line(7, ok, f"join/Markov agreement on {cases} labeled trees; built trees "
                 "cover factors and renumber into valid sequences"
          + (f"; {sorted(set(problems))[:2]}" if problems else ""))
    assert ok


def test_criterion_8_cli_determinism():
    from semival import cli

    cases = {
        "solve_chain": ["solve", "models/chain.sv", "--oracle"],
        "check_semiring": ["check", "models/laws.sv", "--what", "semiring"],
        "check_tree": ["check", "models/laws.sv", "--what", "tree"],
        "check_sequence": ["check", "models/laws.sv", "--what", "sequence"],
        "check_qseparoid": ["check", "models/laws.sv", "--what", "qseparoid"],
        "evidence_combine": ["evidence", "models/evidence.sv", "--op", "combine"],
        "evidence_support": ["evidence", "models/evidence.sv", "--op", "support"],
        "evidence_moebius": ["evidence", "models/evidence.sv", "--op", "moebius"],
    }
    problems = []
    for name, argv in cases.items():
        argv = [str(HERE / a) if a.startswith("models/") else a for a in argv]
        outputs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                problems.append(f"{name} exit {code}")
            outputs.append(out.getvalue().encode())
        if outputs[0] != outputs[1]:
            problems.append(f"{name} differs across runs")
        golden = (HERE / "golden" / f"{name}.txt").read_bytes()
        if outputs[0] != golden:
            problems.append(f"{name} differs from golden file")
    ok = not problems
    _line(8, ok, "three fixture models produce byte-identical reports"
          + (f"; {problems}" if problems else ""))
    assert ok
