import itertools
import random

import pytest

import semival as sv
from semival import treecomp as tc
from semival.errors import CapabilityError, DomainError

import helpers
import oracles


def D(*names):
    return sv.Domain(tuple(names))


def test_tree_validation():
    with pytest.raises(DomainError):
        sv.LabeledTree((D("x"), D("y")), ())  # disconnected
    with pytest.raises(DomainError):
        sv.LabeledTree((D("x"), D("y")), ((0, 1), (1, 0)))  # duplicate edge
    with pytest.raises(DomainError):
        sv.LabeledTree((D("x"),), ((0, 0),))
    tree = sv.LabeledTree((D("x"), D("x", "y"), D("y")), ((0, 1), (1, 2)))
    assert tree.neighbors == ((1,), (0, 2), (1,))
    assert tree.subtree_nodes(1, 0) == [0]


def test_is_join_tree_examples():
    single = sv.LabeledTree((D("x", "y"),), ())
    assert sv.is_join_tree(single)
    chain = sv.LabeledTree(
        (D("X", "Y"), D("Y", "Z"), D("Z", "W")), ((0, 1), (1, 2))
    )
    assert sv.is_join_tree(chain)
    broken = sv.LabeledTree(
        (D("X", "Y"), D("Z"), D("X", "W")), ((0, 1), (1, 2))
    )
    assert not sv.is_join_tree(broken)


def test_is_markov_tree_agrees_with_direct_check():
    chain = sv.LabeledTree(
        (D("X", "Y"), D("Y", "Z"), D("Z", "W")), ((0, 1), (1, 2))
    )
    assert sv.is_markov_tree(chain)
    broken = sv.LabeledTree(
        (D("X", "Y"), D("Z"), D("X", "W")), ((0, 1), (1, 2))
    )
    assert not sv.is_markov_tree(broken)
    star = sv.LabeledTree(
        (D("X", "Y"), D("Y", "Z", "W"), D("Z", "A"), D("W", "B")),
        ((0, 1), (1, 2), (1, 3)),
    )
    assert tc.markov_check_direct(star) == sv.is_join_tree(star) == True


def test_join_and_direct_markov_agree_exhaustively():
    """Every labeled tree with <= 5 nodes over <= 5 variables."""
    rng = random.Random(0)
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
                assert tc.markov_check_direct(tree) == sv.is_join_tree(tree)
                cases += 1
    assert cases >= 1000


def _random_labeled_tree(rng, n, shape):
    """A tree of ``n`` nodes, renumbered at random, with labels that are
    either grown along the edges (a join tree) plus maybe one stray
    variable, or drawn independently from a small pool."""
    if shape == "chain":
        edges = [(i - 1, i) for i in range(1, n)]
    elif shape == "star":
        edges = [(0, i) for i in range(1, n)]
    else:
        edges = [(rng.randrange(i), i) for i in range(1, n)]
    if rng.random() < 0.5:
        fresh = itertools.count()
        labels = [{f"v{next(fresh)}"}]
        for a, b in edges:
            kept = {x for x in labels[a] if rng.random() < 0.6}
            labels.append(kept | {f"v{next(fresh)}" for _ in range(rng.randint(0, 2))})
        if rng.random() < 0.5:
            every = sorted(set().union(*labels))
            labels[rng.randrange(n)].add(rng.choice(every))
    else:
        pool = [f"v{i}" for i in range(rng.randint(1, 8))]
        labels = [{x for x in pool if rng.random() < 0.3} for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    out = [None] * n
    for old, new in enumerate(perm):
        out[new] = sv.Domain(tuple(labels[old]))
    return sv.LabeledTree(tuple(out), tuple((perm[a], perm[b]) for a, b in edges))


def test_join_tree_count_test_matches_pairwise_paths():
    """The per-variable count agrees with the pairwise-path definition."""
    rng = random.Random(4)
    verdicts = []
    for k in range(2100):
        shape = ("chain", "star", "random")[k % 3]
        tree = _random_labeled_tree(rng, rng.randint(1, 40), shape)
        verdict = sv.is_join_tree(tree)
        assert verdict == oracles.pairwise_join_tree(tree)
        verdicts.append(verdict)
    assert 500 < sum(verdicts) < 1600
    for _ in range(60):
        cat, factors = helpers.random_instance(rng, sv.get_instance("boolean"),
                                               max_vars=6, max_factors=5)
        tree = sv.build_covering_join_tree([f.domain for f in factors])
        assert sv.is_join_tree(tree) and oracles.pairwise_join_tree(tree)


def test_family_independence_closure():
    """Permutation, subset, shrink, merge and conditioning-join closure."""
    rng = random.Random(1)
    names = [f"v{i}" for i in range(6)]
    hits = 0
    for _ in range(4000):
        k = rng.randint(2, 4)
        doms = [sv.Domain(tuple(rng.sample(names, rng.randint(0, 2))))
                for _ in range(k)]
        z = sv.Domain(tuple(rng.sample(names, rng.randint(0, 3))))
        if not tc.ci_family(doms, z):
            continue
        hits += 1
        shuffled = doms[:]
        rng.shuffle(shuffled)
        assert tc.ci_family(shuffled, z)
        assert tc.ci_family(doms[1:], z)
        smaller = [sv.Domain(doms[0].names[1:])] + doms[1:]
        assert tc.ci_family(smaller, z)
        merged = [doms[0] | doms[1]] + doms[2:]
        assert tc.ci_family(merged, z)
        lifted = [doms[0] | z] + doms[1:]
        assert tc.ci_family(lifted, z)
    assert hits >= 200


def test_conditioning_splits_products():
    """Moving a conditionally independent family onto the conditioning domain
    factors through the pieces."""
    rng = random.Random(2)
    for name in ("boolean", "tropical", "bottleneck"):
        sr = sv.get_instance(name)
        done = 0
        while done < 30:
            cat = helpers.random_catalog(rng, max_vars=5, max_frame=3)
            names = [v.name for v in cat.variables]
            z = sv.Domain(tuple(rng.sample(names, rng.randint(0, len(names)))))
            doms = [
                sv.Domain(tuple(rng.sample(names, rng.randint(0, min(2, len(names))))))
                for _ in range(rng.randint(2, 3))
            ]
            if not tc.ci_family(doms, z):
                continue
            ops = tc.ValuationOps(cat, sr)
            vals = [helpers.random_valuation(rng, cat, sr, d) for d in doms]
            total = vals[0]
            for v in vals[1:]:
                total = sv.combine(total, v)
            lhs = sv.transport(total, z)
            rhs = sv.transport(vals[0], z)
            for v in vals[1:]:
                rhs = sv.combine(rhs, sv.transport(v, z))
            assert sv.valuations_equal(lhs, rhs)
            done += 1


def test_leaf_deletion_keeps_markov():
    rng = random.Random(3)
    for _ in range(40):
        cat, factors = helpers.random_instance(rng, sv.get_instance("boolean"),
                                               max_vars=5, max_factors=4)
        tree = sv.build_covering_join_tree([f.domain for f in factors])
        assert sv.is_markov_tree(tree)
        if len(tree) < 2:
            continue
        leaves = [v for v in range(len(tree)) if len(tree.neighbors[v]) == 1]
        for leaf in leaves:
            keep = [v for v in range(len(tree)) if v != leaf]
            renum = {v: i for i, v in enumerate(keep)}
            sub = sv.LabeledTree(
                tuple(tree.labels[v] for v in keep),
                tuple((renum[a], renum[b]) for a, b in tree.edges
                      if a != leaf and b != leaf),
            )
            assert sv.is_markov_tree(sub)


def test_sequence_examples():
    single = sv.EliminationSequence((D("x"),), ())
    assert sv.verify_hypertree_sequence(single)
    good = sv.EliminationSequence((D("X", "Y"), D("Y", "Z"), D("Z")), (1, 2))
    assert sv.verify_hypertree_sequence(good)
    bad = sv.EliminationSequence((D("X", "Y"), D("Z"), D("X", "Z")), (1, 2))
    assert not sv.verify_hypertree_sequence(bad)
    with pytest.raises(DomainError):
        sv.EliminationSequence((D("X"), D("Y")), (0,))  # pointer not forward


def test_sequence_to_join_tree():
    two = sv.EliminationSequence((D("X"), D("X", "Y")), (1,))
    tree = sv.sequence_to_join_tree(two)
    assert len(tree) == 2 and tree.edges == ((0, 1),)
    good = sv.EliminationSequence((D("X", "Y"), D("Y", "Z"), D("Z")), (1, 2))
    tree = sv.sequence_to_join_tree(good)
    assert sv.is_join_tree(tree)
    assert tree.edges == ((0, 1), (1, 2))
    bad = sv.EliminationSequence((D("X", "Y"), D("Z"), D("X", "Z")), (1, 2))
    with pytest.raises(DomainError):
        sv.sequence_to_join_tree(bad)


def test_build_covering_examples():
    tree = sv.build_covering_join_tree([D("X", "Y"), D("Y", "Z")])
    assert sv.is_join_tree(tree)
    for k, d in enumerate([D("X", "Y"), D("Y", "Z")]):
        assert d <= tree.labels[tree.assignment[k]]

    single = sv.build_covering_join_tree([D("a", "b")])
    assert len(single) == 1 and single.labels[0] == D("a", "b")

    disconnected = sv.build_covering_join_tree([D("X"), D("Y")])
    assert sv.is_join_tree(disconnected)
    assert D("X") <= disconnected.labels[disconnected.assignment[0]]
    assert D("Y") <= disconnected.labels[disconnected.assignment[1]]

    empty = sv.build_covering_join_tree([])
    assert len(empty) == 1 and empty.labels[0] == sv.EMPTY_DOMAIN


def test_build_covering_randomized_properties():
    rng = random.Random(4)
    for heuristic in ("min-degree", "min-fill"):
        for _ in range(60):
            cat, factors = helpers.random_instance(rng, sv.get_instance("boolean"))
            doms = [f.domain for f in factors]
            tree = sv.build_covering_join_tree(doms, heuristic=heuristic)
            assert sv.is_join_tree(tree)
            for k, d in enumerate(doms):
                assert d <= tree.labels[tree.assignment[k]]
            # every rooting numbers the tree into a hypertree sequence
            for root in range(len(tree)):
                seq, _ = sv.tree_to_sequence(tree, root)
                assert sv.verify_hypertree_sequence(seq)


def test_build_covering_deterministic():
    doms = [D("a", "b"), D("b", "c"), D("c", "d"), D("a", "d")]
    t1 = sv.build_covering_join_tree(doms, heuristic="min-fill")
    t2 = sv.build_covering_join_tree(doms, heuristic="min-fill")
    assert t1 == t2


def _random_hypergraph(rng, shape):
    """Factor and cover domains over ``v0``..``v{n-1}`` (``v10`` < ``v2``)."""
    names = [f"v{i}" for i in range(rng.randint(1, 30))]
    rng.shuffle(names)
    if shape == "components":
        cut = sorted(rng.sample(range(1, len(names) + 1), min(3, len(names))))
        groups = [names[a:b] for a, b in zip([0] + cut, cut) if a < b]
    else:
        groups = [names]
    doms = []
    for group in groups:
        if shape == "ring":  # every variable has the same degree and fill cost
            doms += [D(group[i - 1], group[i]) for i in range(len(group))]
        elif shape == "cliques":
            for _ in range(rng.randint(1, 4)):
                doms.append(D(*rng.sample(group, rng.randint(1, min(8, len(group))))))
        for _ in range(rng.randint(1, len(group) + 1)):
            doms.append(D(*rng.sample(group, rng.randint(1, min(3, len(group))))))
    doms += [D() for _ in range(rng.randint(0, 2))]
    rng.shuffle(doms)
    cover = [D(*rng.sample(names, rng.randint(0, min(4, len(names)))))
             for _ in range(rng.randint(0, 2))]
    return doms, cover


def test_incremental_elimination_matches_full_rescan():
    """Rescoring only the variables near each pick gives the same tree as
    rescoring every remaining variable at every step."""
    rng = random.Random(5)
    for k in range(1200):
        shape = ("random", "components", "cliques", "ring")[k % 4]
        doms, cover = _random_hypergraph(rng, shape)
        for heuristic in ("min-degree", "min-fill"):
            got = sv.build_covering_join_tree(doms, heuristic=heuristic, cover=cover)
            want = oracles.rescan_covering_join_tree(doms, heuristic, cover)
            assert (got.labels, got.edges, got.assignment) == \
                (want.labels, want.edges, want.assignment), (doms, cover, heuristic)


@pytest.fixture
def arithmetic_chain():
    cat = sv.VariableCatalog.of({"x": ("0", "1"), "y": ("0", "1")})
    ar = sv.get_instance("arithmetic")
    prior = sv.Valuation(cat, ar, cat.domain("x"), (0.5, 0.5))
    kernel = sv.Valuation(cat, ar, cat.domain("x", "y"), (0.9, 0.1, 0.2, 0.8))
    return cat, ar, [prior, kernel]


def test_collect_one_node_tree():
    cat = sv.VariableCatalog.of({"x": ("0", "1")})
    bo = sv.get_instance("boolean")
    ops = tc.ValuationOps(cat, bo)
    f = sv.Valuation(cat, bo, cat.domain("x"), (1, 0))
    tree = sv.LabeledTree((cat.domain("x"),), (), (0,))
    result, store = sv.collect(tree, [f], 0, ops)
    assert sv.valuations_equal(result, f)
    assert store.messages == {}
    [only] = sv.distribute(tree, [f], store, ops)
    assert sv.valuations_equal(only, f)


def test_collect_arithmetic_chain_matches_oracle(arithmetic_chain):
    cat, ar, factors = arithmetic_chain
    ops = tc.ValuationOps(cat, ar)
    assert ops.form == tc.PROJECTION
    tree = sv.build_covering_join_tree([f.domain for f in factors])
    root = tc.default_root(tree, cat.domain("x", "y"))
    result, store = sv.collect(tree, factors, root, ops)
    assert result.table == (0.45, 0.05, 0.1, 0.4)
    expected = sv.naive_solve(factors, tree.labels[root], ops)
    assert sv.valuations_equal(result, expected)
    for v, r in enumerate(sv.distribute(tree, factors, store, ops)):
        assert sv.valuations_equal(r, sv.naive_solve(factors, tree.labels[v], ops))


def test_collect_boolean_chain_matches_oracle():
    cat = sv.VariableCatalog.of({"X": ("0", "1"), "Y": ("0", "1"), "Z": ("0", "1")})
    bo = sv.get_instance("boolean")
    ops = tc.ValuationOps(cat, bo)
    assert ops.form == tc.TRANSPORT
    f1 = sv.Valuation(cat, bo, cat.domain("X", "Y"), (1, 1, 1, 0))
    f2 = sv.Valuation(cat, bo, cat.domain("Y", "Z"), (0, 1, 1, 1))
    tree = sv.LabeledTree(
        (cat.domain("X", "Y"), cat.domain("Y", "Z")), ((0, 1),), (0, 1)
    )
    for root in (0, 1):
        result, store = sv.collect(tree, [f1, f2], root, ops)
        assert sv.valuations_equal(
            result, sv.naive_solve([f1, f2], tree.labels[root], ops)
        )
        for v, r in enumerate(sv.distribute(tree, [f1, f2], store, ops)):
            assert sv.valuations_equal(
                r, sv.naive_solve([f1, f2], tree.labels[v], ops)
            )


def test_collect_rejects_uncovered_factor():
    cat = sv.VariableCatalog.of({"x": ("0", "1"), "y": ("0", "1")})
    bo = sv.get_instance("boolean")
    ops = tc.ValuationOps(cat, bo)
    f = sv.Valuation(cat, bo, cat.domain("x", "y"), (1, 0, 0, 1))
    tree = sv.LabeledTree((cat.domain("x"),), (), (0,))
    with pytest.raises(DomainError):
        sv.collect(tree, [f], 0, ops)


def test_distribute_requires_cache():
    cat = sv.VariableCatalog.of({"x": ("0", "1"), "y": ("0", "1")})
    bo = sv.get_instance("boolean")
    ops = tc.ValuationOps(cat, bo)
    f1 = sv.Valuation(cat, bo, cat.domain("x"), (1, 1))
    f2 = sv.Valuation(cat, bo, cat.domain("y"), (1, 0))
    tree = sv.LabeledTree((cat.domain("x"), cat.domain("y")), ((0, 1),), (0, 1))
    _, store = sv.collect(tree, [f1, f2], 0, ops)
    store.messages.clear()
    with pytest.raises(DomainError):
        sv.distribute(tree, [f1, f2], store, ops)


def test_distribute_to_one_node_builds_only_its_path():
    """``nodes=[v]`` answers bitwise like the full pass and stores only the
    inward messages plus the outward ones on the root-to-``v`` path."""
    rng = random.Random(12)
    checked = 0
    while checked < 150:
        shape = ("chain", "star", "random")[checked % 3]
        shaped = _random_labeled_tree(rng, rng.randint(1, 25), shape)
        if not sv.is_join_tree(shaped):
            continue
        names = sorted(set().union(*(label.names for label in shaped.labels)))
        cat = sv.VariableCatalog.of({n: "abc"[:rng.randint(1, 3)] for n in names})
        tree = sv.LabeledTree(shaped.labels, shaped.edges, tuple(range(len(shaped))))
        sr = sv.get_instance(("arithmetic", "boolean", "tropical")[checked % 3])
        ops = tc.ValuationOps(cat, sr)
        factors = [helpers.random_valuation(rng, cat, sr, label) for label in tree.labels]
        root, v = rng.randrange(len(tree)), rng.randrange(len(tree))

        _, full = sv.collect(tree, factors, root, ops)
        want = sv.distribute(tree, factors, full, ops)[v]
        _, store = sv.collect(tree, factors, root, ops)
        [got] = sv.distribute(tree, factors, store, ops, nodes=[v])
        assert got.domain == want.domain and got.table == want.table
        assert list(map(type, got.table)) == list(map(type, want.table))

        _, parent = tree.rooted_order(root)
        inward = {(w, parent[w]) for w in range(len(tree)) if w != root}
        path, w = set(), v
        while w != root:
            path.add((parent[w], w))
            w = parent[w]
        assert set(store.messages) == inward | path
        checked += 1


def test_local_equals_global_randomized():
    rng = random.Random(5)
    for name in ("boolean", "arithmetic", "tropical", "bottleneck"):
        sr = sv.get_instance(name)
        for _ in range(30):
            cat, factors = helpers.random_instance(rng, sr, max_vars=5)
            ops = tc.ValuationOps(cat, sr)
            tree = sv.build_covering_join_tree([f.domain for f in factors])
            for root in range(len(tree)):
                result, _ = sv.collect(tree, factors, root, ops)
                expected = sv.naive_solve(factors, tree.labels[root], ops)
                assert sv.valuations_equal(result, expected)


def test_naive_solve_edge_cases():
    cat = sv.VariableCatalog.of({"x": ("0", "1")})
    ar = sv.get_instance("arithmetic")
    ops = tc.ValuationOps(cat, ar)
    scalar = sv.naive_solve([], sv.EMPTY_DOMAIN, ops)
    assert scalar.table == (1.0,)
    f = sv.Valuation(cat, ar, cat.domain("x"), (0.3, 0.7))
    assert sv.naive_solve([f], cat.domain("x"), ops) is f
    with pytest.raises(CapabilityError):
        sv.naive_solve([], cat.domain("x"), ops)  # needs transport
    bops = tc.ValuationOps(cat, sv.get_instance("boolean"))
    assert sv.naive_solve([], cat.domain("x"), bops).table == (1, 1)


def test_hypertree_collect_small_instances():
    rng = random.Random(6)
    for name in ("boolean", "tropical", "bottleneck"):
        sr = sv.get_instance(name)
        for _ in range(20):
            cat, factors = helpers.random_instance(rng, sr, max_vars=5)
            ops = tc.ValuationOps(cat, sr)
            tree = sv.build_covering_join_tree([f.domain for f in factors])
            seq, order = sv.tree_to_sequence(tree)
            node_factors = tc._node_factors(tree, factors, ops)
            aligned = [node_factors[v] for v in order]
            result, psis = sv.hypertree_collect(seq, aligned, ops)
            expected = sv.naive_solve(factors, seq.domains[-1], ops)
            assert sv.valuations_equal(result, expected)
            if ops.supports_idempotent_distribute:
                for i, r in enumerate(sv.hypertree_distribute(seq, psis, ops)):
                    assert sv.valuations_equal(
                        r, sv.naive_solve(factors, seq.domains[i], ops)
                    )


def test_hypertree_singleton_sequence():
    cat = sv.VariableCatalog.of({"x": ("0", "1")})
    bo = sv.get_instance("boolean")
    ops = tc.ValuationOps(cat, bo)
    f = sv.Valuation(cat, bo, cat.domain("x"), (1, 0))
    seq = sv.EliminationSequence((cat.domain("x"),), ())
    result, psis = sv.hypertree_collect(seq, [f], ops)
    assert sv.valuations_equal(result, f)
    [r] = sv.hypertree_distribute(seq, psis, ops)
    assert sv.valuations_equal(r, f)


def test_hypertree_tropical_global_maximum():
    rng = random.Random(7)
    tr = sv.get_instance("tropical")
    for _ in range(20):
        cat, factors = helpers.random_instance(rng, tr, max_vars=4, max_frame=3)
        ops = tc.ValuationOps(cat, tr)
        tree = sv.build_covering_join_tree([f.domain for f in factors])
        base, order = sv.tree_to_sequence(tree)
        # extend the sequence down to the empty domain to read off the optimum
        seq = sv.EliminationSequence(base.domains + (sv.EMPTY_DOMAIN,),
                                     base.b + (len(base),))
        assert sv.verify_hypertree_sequence(seq)
        node_factors = tc._node_factors(tree, factors, ops)
        aligned = [node_factors[v] for v in order] + [ops.unit(sv.EMPTY_DOMAIN)]
        result, _ = sv.hypertree_collect(seq, aligned, ops)
        # brute force over the full joint table
        total = sv.combine_all(factors, cat, tr)
        best = max(total.table)
        assert result.table == (best,)


def test_hypertree_invariant_under_pointer_choice():
    doms = (D("A", "B"), D("B", "C"), D("B", "C"), D("C"))
    cat = sv.VariableCatalog.of(
        {"A": ("0", "1"), "B": ("0", "1"), "C": ("0", "1")}
    )
    bo = sv.get_instance("boolean")
    ops = tc.ValuationOps(cat, bo)
    rng = random.Random(8)
    factors = [helpers.random_valuation(rng, cat, bo, d) for d in doms]
    n = len(doms)
    suffix = [sv.EMPTY_DOMAIN] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = doms[i] | suffix[i + 1]
    choices = [
        [j for j in range(i + 1, n) if (doms[i] & suffix[i + 1]) <= doms[j]]
        for i in range(n - 1)
    ]
    assert all(choices)
    results = []
    for combo in itertools.product(*choices):
        seq = sv.EliminationSequence(doms, tuple(combo))
        assert sv.verify_hypertree_sequence(seq)
        result, _ = sv.hypertree_collect(seq, factors, ops)
        results.append(result)
    assert len(results) >= 2
    assert all(sv.valuations_equal(r, results[0]) for r in results)


def test_hypertree_capability_errors():
    cat = sv.VariableCatalog.of({"x": ("0", "1")})
    ar = sv.get_instance("arithmetic")
    ops = tc.ValuationOps(cat, ar)
    f = sv.Valuation(cat, ar, cat.domain("x"), (0.5, 0.5))
    seq = sv.EliminationSequence((cat.domain("x"),), ())
    with pytest.raises(CapabilityError):
        sv.hypertree_collect(seq, [f], ops)
    with pytest.raises(CapabilityError):
        sv.hypertree_distribute(seq, [f], ops)
    # tropical collects but its multiplication is not idempotent
    tr = sv.get_instance("tropical")
    tops = tc.ValuationOps(cat, tr)
    g = sv.Valuation(cat, tr, cat.domain("x"), (1, 2))
    _, psis = sv.hypertree_collect(seq, [g], tops)
    with pytest.raises(CapabilityError):
        sv.hypertree_distribute(seq, psis, tops)


def test_set_potentials_through_trees():
    rng = random.Random(9)
    for _ in range(15):
        cat = helpers.random_catalog(rng, max_vars=3, max_frame=3)
        ops = tc.SetPotentialOps(cat)
        pots = []
        for _ in range(rng.randint(1, 3)):
            d = helpers.random_domain(rng, cat, max_size=2)
            pots.append(helpers.random_bpa(rng, cat, d))
        tree = sv.build_covering_join_tree([p.domain for p in pots])
        for root in range(len(tree)):
            result, store = sv.collect(tree, pots, root, ops)
            assert ops.equal(result, sv.naive_solve(pots, tree.labels[root], ops))
        result, store = sv.collect(tree, pots, 0, ops)
        for v, r in enumerate(sv.distribute(tree, pots, store, ops)):
            assert ops.equal(r, sv.naive_solve(pots, tree.labels[v], ops))
    # set potentials offer transport but not idempotent distribute
    cat = sv.VariableCatalog.of({"x": ("0", "1")})
    ops = tc.SetPotentialOps(cat)
    seq = sv.EliminationSequence((cat.domain("x"),), ())
    vac = sv.vacuous(cat, cat.domain("x"))
    result, psis = sv.hypertree_collect(seq, [vac], ops)
    assert ops.equal(result, vac)
    with pytest.raises(CapabilityError):
        sv.hypertree_distribute(seq, psis, ops)


def test_transport_form_messages_live_on_receiving_labels():
    rng = random.Random(10)
    bo = sv.get_instance("boolean")
    cat, factors = helpers.random_instance(rng, bo, max_vars=5)
    ops = tc.ValuationOps(cat, bo)
    tree = sv.build_covering_join_tree([f.domain for f in factors])
    root = len(tree) - 1
    _, store = sv.collect(tree, factors, root, ops)
    sv.distribute(tree, factors, store, ops)
    for (src, dst), message in store.messages.items():
        assert message.domain == tree.labels[dst]


def test_projection_form_messages_live_on_separators():
    rng = random.Random(10)
    ar = sv.get_instance("arithmetic")
    cat, factors = helpers.random_instance(rng, ar, max_vars=5)
    ops = tc.ValuationOps(cat, ar)
    tree = sv.build_covering_join_tree([f.domain for f in factors])
    _, store = sv.collect(tree, factors, 0, ops)
    for (src, dst), message in store.messages.items():
        assert message.domain <= (tree.labels[src] & tree.labels[dst])


def test_family_independence_closure_exhaustive_small():
    """Same closure laws, exhaustive over a three-variable universe."""
    import itertools as it

    names = ("p", "q", "r")
    subsets = [sv.Domain(c) for k in range(3)
               for c in it.combinations(names, k)] + [sv.Domain(names)]
    checked = 0
    for z in subsets:
        for doms in it.product(subsets, repeat=3):
            if not tc.ci_family(list(doms), z):
                continue
            checked += 1
            for perm in it.permutations(doms):
                assert tc.ci_family(list(perm), z)
            assert tc.ci_family(list(doms[:2]), z)
            assert tc.ci_family([doms[0] | doms[1], doms[2]], z)
            assert tc.ci_family([doms[0] | z, doms[1], doms[2]], z)
            if doms[0]:
                assert tc.ci_family([sv.Domain(doms[0].names[1:]), *doms[1:]], z)
    assert checked > 100
