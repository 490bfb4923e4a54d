"""Seeded random generators and test aids shared by the suites."""

import random

import semival as sv
from semival.belief import DEFAULT_SUBSET_CAP, FocalSet, _frame_size
from semival.semiring import Semiring

NEG_INF = float("-inf")


def random_catalog(rng: random.Random, max_vars=6, max_frame=4):
    n = rng.randint(1, max_vars)
    spec = {
        f"x{i}": tuple(str(j) for j in range(rng.randint(1, max_frame)))
        for i in range(n)
    }
    return sv.VariableCatalog.of(spec)


def random_domain(rng: random.Random, cat, max_size=3):
    names = [v.name for v in cat.variables]
    k = rng.randint(0, min(max_size, len(names)))
    return sv.Domain(tuple(rng.sample(names, k)))


def random_table(rng: random.Random, sr, n):
    if sr.name == "tropical":
        # integer levels keep tropical arithmetic exact end to end
        return tuple(rng.choice([NEG_INF] + list(range(-5, 6))) for _ in range(n))
    return tuple(sr.sample(rng) for _ in range(n))


def random_valuation(rng: random.Random, cat, sr, domain):
    return sv.Valuation(cat, sr, domain, random_table(rng, sr, cat.config_count(domain)))


def random_instance(rng: random.Random, sr, max_vars=6, max_frame=4, max_factors=5):
    """A catalog plus a list of random factors over small subdomains."""
    cat = random_catalog(rng, max_vars, max_frame)
    factors = [
        random_valuation(rng, cat, sr, random_domain(rng, cat))
        for _ in range(rng.randint(1, max_factors))
    ]
    return cat, factors


def numbered_tables(rng: random.Random, factors, ops):
    """A covering join tree of ``factors`` numbered into a construction
    sequence at a random root, and one table per sequence domain: the
    node's factors combined into the unit on its label."""
    import oracles

    tree = sv.build_covering_join_tree([f.domain for f in factors])
    seq, order = sv.tree_to_sequence(tree, rng.randrange(len(tree)))
    tables = oracles.label_unit_tables(tree, factors, ops)
    return seq, [tables[v] for v in order]


def repointed(rng: random.Random, seq):
    """``seq`` with every pointer redrawn among the targets that keep it valid."""
    n = len(seq)
    later = [sv.EMPTY_DOMAIN] * (n + 1)
    for i in range(n - 1, -1, -1):
        later[i] = seq.domains[i] | later[i + 1]
    b = tuple(rng.choice([j for j in range(i + 1, n)
                          if seq.domains[i] & later[i + 1] <= seq.domains[j]])
              for i in range(n - 1))
    return sv.EliminationSequence(seq.domains, b)


def random_bpa(rng: random.Random, cat, domain, max_focal=4):
    full = sv.FocalSet.full(cat, domain).configs
    masses = [rng.random() for _ in range(rng.randint(1, max_focal))]
    total = sum(masses)
    items = {}
    for m in masses:
        size = rng.randint(1, len(full))
        fs = sv.FocalSet.of(cat, domain, rng.sample(list(full), size))
        items[fs] = items.get(fs, 0.0) + m / total
    return sv.set_potential(cat, domain, list(items.items()), "bpa")


def all_focal_sets(cat, domain, cap=DEFAULT_SUBSET_CAP) -> list:
    """All ``2^k`` subsets of the frame, ordered by bitmask."""
    k = _frame_size(cat, domain, cap)
    return [FocalSet(cat, domain, mask) for mask in range(1 << k)]


def random_mass_function(rng: random.Random, cat, domain, allow_empty=True):
    """Random raw potential over a small frame, possibly with conflict mass."""
    subsets = all_focal_sets(cat, domain)
    if not allow_empty:
        subsets = [s for s in subsets if s.mask]
    chosen = rng.sample(subsets, rng.randint(1, min(5, len(subsets))))
    if not any(s.mask for s in chosen):
        chosen.append(rng.choice([s for s in subsets if s.mask]))
    masses = [rng.random() + 0.05 for _ in chosen]
    total = sum(masses)
    return sv.set_potential(cat, domain, [(s, m / total) for s, m in zip(chosen, masses)])


def exact_equal(a, b) -> bool:
    """Value-level exact table equality (2 == 2.0 counts as equal)."""
    return a.domain == b.domain and all(x == y for x, y in zip(a.table, b.table))


def potentials_equal(a, b) -> bool:
    """Same domain, and every focal set's mass equal up to the default comparator."""
    if a.domain != b.domain:
        return False
    keys = set(a.by_set) | set(b.by_set)
    return all(sv.DEFAULT_COMPARATOR.eq(a.mass(k), b.mass(k)) for k in keys)


def corrupted(sr, **overrides):
    """A copy of ``sr`` with fields forced; used to exercise the checker."""
    fields = {field: getattr(sr, field) for field in Semiring.__slots__}
    return Semiring(**{**fields, **overrides})
