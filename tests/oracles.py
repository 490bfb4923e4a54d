"""Independent brute-force oracles used to freeze expected values.

These work on explicit {configuration-tuple: value} dictionaries and
itertools.product loops, sharing no indexing machinery with the package,
so they can referee the dense-table implementations.
"""

import itertools
import operator
from fractions import Fraction

from semival import domains as dm
from semival import treecomp
from semival.belief import RAW, FocalSet, dempster_combine, set_potential
from semival.compare import DEFAULT_COMPARATOR
from semival.domains import EMPTY_DOMAIN, Domain
from semival.errors import DomainError, MismatchError
from semival.treecomp import join_of


def configs_of(cat, domain):
    frames = [range(cat.size(n)) for n in domain.names]
    return [dict(zip(domain.names, combo)) for combo in itertools.product(*frames)]


def as_dict(val):
    """Valuation -> {(name: value index ...) assignment dict tuple: value}."""
    frames = [range(val.catalog.size(n)) for n in val.domain.names]
    return dict(zip(itertools.product(*frames), val.table))


def dict_combine(cat, sr, da, ta, db, tb):
    """(domain, table-dict) x 2 -> combined (domain, table-dict)."""
    du = da | db
    out = {}
    for assign in configs_of(cat, du):
        ka = tuple(assign[n] for n in da.names)
        kb = tuple(assign[n] for n in db.names)
        ku = tuple(assign[n] for n in du.names)
        out[ku] = sr.mul(ta[ka], tb[kb])
    return du, out


def dict_project(cat, sr, da, ta, dt):
    out = {}
    for assign in configs_of(cat, da):
        key = tuple(assign[n] for n in dt.names)
        v = ta[tuple(assign[n] for n in da.names)]
        out[key] = v if key not in out else sr.add(out[key], v)
    return dt, out


def dict_solve(cat, sr, factors, x: Domain):
    """Combine explicit factor dicts, then project (x must be covered)."""
    du, tu = Domain(), {(): sr.one}
    for d, t in factors:
        du, tu = dict_combine(cat, sr, du, tu, d, t)
    return dict_project(cat, sr, du, tu, x)


def tree_path(tree, u, v):
    """Nodes on the unique path from ``u`` to ``v``, both ends included."""
    parent = {u: u}
    frontier = [u]
    while frontier:
        w = frontier.pop()
        if w == v:
            break
        for x in tree.neighbors[w]:
            if x not in parent:
                parent[x] = w
                frontier.append(x)
    out = [v]
    while out[-1] != u:
        out.append(parent[out[-1]])
    return out[::-1]


def pairwise_join_tree(tree):
    """Running intersection by definition: every pair's shared variables
    lie in every label on the path between them."""
    n = len(tree.labels)
    for u in range(n):
        for v in range(u + 1, n):
            shared = set(tree.labels[u].names) & set(tree.labels[v].names)
            for w in tree_path(tree, u, v):
                if not shared <= set(tree.labels[w].names):
                    return False
    return True


def rescan_covering_join_tree(factor_domains, heuristic="min-fill", cover=()):
    """The covering-join-tree builder as first written: every elimination
    step rescores every remaining variable and takes the ``(cost, name)``
    minimum, and subsumed clusters are contracted by the restarting
    fixpoint below.  The package's builder must give the same tree."""
    cliques = [set(d.names) for d in factor_domains] + [set(d.names) for d in cover]
    variables = sorted(set().union(*cliques)) if cliques else []
    if not variables:
        return treecomp.LabeledTree((EMPTY_DOMAIN,), (), tuple(0 for _ in factor_domains))

    adj = {v: set() for v in variables}
    for clique in cliques:
        for a, b in itertools.combinations(sorted(clique), 2):
            adj[a].add(b)
            adj[b].add(a)

    def fill_cost(v):
        return sum(1 for a, b in itertools.combinations(sorted(adj[v]), 2)
                   if b not in adj[a])

    order, clusters = [], []
    remaining = set(variables)
    while remaining:
        if heuristic == "min-degree":
            pick = min(remaining, key=lambda v: (len(adj[v]), v))
        else:
            pick = min(remaining, key=lambda v: (fill_cost(v), v))
        order.append(pick)
        clusters.append(Domain(tuple(adj[pick]) + (pick,)))
        for a, b in itertools.combinations(sorted(adj[pick]), 2):
            adj[a].add(b)
            adj[b].add(a)
        for u in adj[pick]:
            adj[u].discard(pick)
        del adj[pick]
        remaining.discard(pick)

    elim_step = {v: i for i, v in enumerate(order)}
    edges = []
    for i in range(len(clusters) - 1):
        later = [elim_step[v] for v in clusters[i].names if elim_step[v] > i]
        edges.append((i, min(later) if later else i + 1))
    assignment = [min(elim_step[v] for v in d.names) if d else 0
                  for d in factor_domains]
    return fixpoint_absorb_subsumed(clusters, edges, assignment)


def fixpoint_absorb_subsumed(labels, edges, assignment):
    """Subsumed clusters contracted as first written: after every merge the
    scan restarts from the first node, until no edge joins two labels one
    of which contains the other.  The package's one-pass absorption must
    give the same tree."""
    labels = list(labels)
    adj: dict[int, set[int]] = {i: set() for i in range(len(labels))}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(adj)
    merged_into = list(range(len(labels)))
    changed = True
    while changed:
        changed = False
        for a in sorted(alive):
            for b in sorted(adj[a]):
                if labels[a] <= labels[b]:
                    gone, keep = a, b
                elif labels[b] <= labels[a]:
                    gone, keep = b, a
                else:
                    continue
                for u in adj[gone] - {keep}:
                    adj[u].discard(gone)
                    adj[u].add(keep)
                    adj[keep].add(u)
                adj[keep].discard(gone)
                del adj[gone]
                alive.discard(gone)
                merged_into[gone] = keep
                changed = True
                break
            if changed:
                break

    def resolve(i: int) -> int:
        while merged_into[i] != i:
            i = merged_into[i]
        return i

    renum = {old: new for new, old in enumerate(sorted(alive))}
    new_labels = tuple(labels[old] for old in sorted(alive))
    new_edges = tuple(
        (renum[a], renum[b]) for a in sorted(alive) for b in sorted(adj[a]) if a < b
    )
    new_assignment = tuple(renum[resolve(v)] for v in assignment)
    return treecomp.LabeledTree(new_labels, new_edges, new_assignment)


# --- per-cell reference kernels ----------------------------------------------
# The dense-table kernels as first written: an odometer sweep builds each
# restriction map and every cell is combined or summed by one Python step.
# The package's C-level kernels must give the same tables, value for value
# and type for type.

def _strides(cat, d):
    out = [1] * len(d)
    for i in range(len(d) - 2, -1, -1):
        out[i] = out[i + 1] * cat.size(d.names[i + 1])
    return out


def odometer_index_map(cat, big, sub):
    n = cat.config_count(big, cap=None)
    sizes = [cat.size(name) for name in big.names]
    sub_strides = dict(zip(sub.names, _strides(cat, sub)))
    contrib = [sub_strides.get(name, 0) for name in big.names]
    out = [0] * n
    digits = [0] * len(big)
    positions = range(len(big) - 1, -1, -1)
    val = 0
    for i in range(n):
        out[i] = val
        for p in positions:
            digits[p] += 1
            val += contrib[p]
            if digits[p] < sizes[p]:
                break
            digits[p] = 0
            val -= contrib[p] * sizes[p]
    return tuple(out)


def cellwise_combine(a, b):
    u = a.domain | b.domain
    ra = odometer_index_map(a.catalog, u, a.domain)
    rb = odometer_index_map(a.catalog, u, b.domain)
    mul, va, vb = a.semiring.mul, a.table, b.table
    return u, tuple(mul(va[i], vb[j]) for i, j in zip(ra, rb))


def cellwise_project(a, t):
    add = a.semiring.add
    out = [None] * a.catalog.config_count(t, cap=None)
    for i, v in zip(odometer_index_map(a.catalog, a.domain, t), a.table):
        out[i] = v if out[i] is None else add(out[i], v)
    return tuple(out)


def cellwise_extend(a, t):
    values = a.table
    return tuple(values[i] for i in odometer_index_map(a.catalog, t, a.domain))


def config_values(cat, d, cap=dm.DEFAULT_CONFIG_CAP):
    """The value-index tuples of all configurations of ``d``, row-major.

    The empty domain yields exactly one empty tuple.
    """
    cat.check_domain(d)
    cat.config_count(d, cap=cap)
    return list(itertools.product(*(range(cat.size(name)) for name in d.names)))


def odometer_enumerate_configs(cat, d, cap=dm.DEFAULT_CONFIG_CAP):
    """All configurations of ``d``, row-major, by a mixed-radix odometer:
    bump the last digit and carry leftward, as first written."""
    cat.check_domain(d)
    n = cat.config_count(d, cap=cap)
    sizes = [cat.size(name) for name in d.names]
    out = []
    digits = [0] * len(d)
    for _ in range(n):
        out.append(tuple(digits))
        for p in range(len(d) - 1, -1, -1):
            digits[p] += 1
            if digits[p] < sizes[p]:
                break
            digits[p] = 0
    return out


# The tuple restriction the restriction index maps are checked against.
def restrictor(big, sub):
    """The map of a configuration of ``big`` to its restriction to ``sub <= big``."""
    pos = [big.names.index(name) for name in sub.names]
    if len(pos) > 1:
        return operator.itemgetter(*pos)
    return operator.itemgetter(slice(pos[0], pos[0] + 1) if pos else slice(0))


def fold_join_of(domains):
    """The join as a left fold of ``|``, re-sorting the growing union each step."""
    out = EMPTY_DOMAIN
    for d in domains:
        out = out | d
    return out


def label_unit_tables(tree, factors, ops) -> list:
    """Each node's factors combined into the unit on its whole label.

    The node tables the solver started from before nodes began at the
    scalar identity: every table spans its label.  The hypertree tests take
    their per-domain inputs from here, and the solver's results are pinned
    against collect/distribute run on these tables.
    """
    if len(tree.assignment) != len(factors):
        raise DomainError(
            f"{len(factors)} factors but {len(tree.assignment)} assignments"
        )
    for k, f in enumerate(factors):
        if not f.domain <= tree.labels[tree.assignment[k]]:
            raise DomainError(
                f"factor {k} on {f.domain} not covered by node "
                f"{tree.assignment[k]} labeled {tree.labels[tree.assignment[k]]}"
            )
    out = [ops.unit(label) for label in tree.labels]
    for k, f in enumerate(factors):
        v = tree.assignment[k]
        out[v] = ops.combine(out[v], f)
    return out


def _transport(ops, a, d: Domain):
    """Move ``a`` to ``d``: project to the shared variables, extend to ``d``."""
    if isinstance(ops, treecomp.ValuationOps):
        from semival.valuation import transport
        return transport(a, d, cap=ops.cap)
    from semival.belief import transport_potential
    return transport_potential(a, d, cap=ops.cap)


def sequential_hypertree_collect(seq, factors, ops):
    """Hypertree elimination as a loop over the sequence: step ``i`` moves
    its intermediate to its pointer target's domain and combines it there.

    Returns the last intermediate and all of them, for
    :func:`sequential_hypertree_distribute`.
    """
    psi = list(factors)
    for i in range(len(seq) - 1):
        j = seq.b[i]
        psi[j] = ops.combine(psi[j], _transport(ops, psi[i], seq.domains[j]))
    return psi[-1], tuple(psi)


def sequential_hypertree_distribute(seq, psis, ops) -> list:
    """The backward loop: each domain's result is its pointer target's
    result moved to it, combined with its own intermediate."""
    n = len(seq)
    results: list = [None] * n
    results[n - 1] = psis[n - 1]
    for i in range(n - 2, -1, -1):
        mu = _transport(ops, results[seq.b[i]], seq.domains[i])
        results[i] = ops.combine(mu, psis[i])
    return results


def suffix_union_sequence_violation(seq):
    """First step whose domain meets the union of the later ones outside
    its pointer target, with that union built as a ``Domain`` per step:
    the sequence validator as first written."""
    n = len(seq)
    suffix = [dm.EMPTY_DOMAIN] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = seq.domains[i] | suffix[i + 1]
    for i in range(n - 1):
        if not (seq.domains[i] & suffix[i + 1]) <= seq.domains[seq.b[i]]:
            return i
    return None


def subtree_nodes(tree, v: int, w: int) -> list[int]:
    """Nodes of the subtree containing ``w`` after removing ``v``."""
    seen = {v, w}
    frontier = [w]
    out = [w]
    while frontier:
        x = frontier.pop()
        for u in tree.neighbors[x]:
            if u not in seen:
                seen.add(u)
                out.append(u)
                frontier.append(u)
    return sorted(out)


def ci_family(domains, z: Domain) -> bool:
    """Family conditional independence: every disjoint split is independent.

    Singleton and empty families are independent by convention.
    """
    n = len(domains)
    if n < 2:
        return True
    unions = [dm.EMPTY_DOMAIN] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        unions[mask] = unions[mask ^ low] | domains[low.bit_length() - 1]
    full = (1 << n) - 1
    for j_mask in range(1, full + 1):
        rest = full ^ j_mask
        k_mask = rest
        while k_mask:
            if not dm.cond_indep_subsets(unions[j_mask], unions[k_mask], z):
                return False
            k_mask = (k_mask - 1) & rest
    return True


def markov_check_direct(tree) -> bool:
    """Quantified neighbor-split check at every node (exponential in degree)."""
    for v in range(len(tree)):
        branches = [
            join_of([tree.labels[u] for u in subtree_nodes(tree, v, w)])
            for w in tree.neighbors[v]
        ]
        if not ci_family(branches, tree.labels[v]):
            return False
    return True


# --- index-map set potentials ------------------------------------------------
# Set-potential combination and transport as first written: focal sets as
# row-major index sets, one scan of the whole union frame per focal pair (per
# focal set in transport) through two restriction maps, and a mask built back
# from each index set.  The package's cylinder forms must give the same focal
# sets, bit for bit.  The maps are the odometer ones above.

def _index_sets(cat, p):
    st = _strides(cat, p.domain)
    out = []
    for fs, mass in p.focal:
        idx = frozenset(sum(v * s for v, s in zip(values, st)) for values in fs.configs)
        out.append((idx, mass))
    return out


def _from_indices(cat, domain, indices):
    """The focal set of ``domain`` holding the configurations at row-major ``indices``."""
    return FocalSet(cat, domain, sum(1 << i for i in indices))


def index_map_combine_potentials(m1, m2, cap=dm.DEFAULT_CONFIG_CAP):
    """Intersect cylindrified focal pairs on the union domain."""
    if m1.catalog != m2.catalog:
        raise MismatchError("potentials use different catalogs")
    cat = m1.catalog
    u = m1.domain | m2.domain
    configs = config_values(cat, u, cap)
    n = len(configs)
    r1 = odometer_index_map(cat, u, m1.domain)
    r2 = odometer_index_map(cat, u, m2.domain)
    out = {}
    right = _index_sets(cat, m2)
    for s1, mass1 in _index_sets(cat, m1):
        for s2, mass2 in right:
            meet = frozenset(
                i for i in range(n) if r1[i] in s1 and r2[i] in s2
            )
            out[meet] = out.get(meet, 0.0) + mass1 * mass2
    items = [(_from_indices(cat, u, idx), mass) for idx, mass in out.items()]
    return set_potential(cat, u, items, RAW)


def index_map_transport_potential(m, t, cap=dm.DEFAULT_CONFIG_CAP):
    """Move every focal set to domain ``t``; colliding images merge."""
    cat = m.catalog
    cat.check_domain(t)
    if t == m.domain:
        return m
    u = m.domain | t
    n = cat.config_count(u, cap=cap)
    rd = odometer_index_map(cat, u, m.domain)
    rt = odometer_index_map(cat, u, t)
    out = {}
    for s, mass in _index_sets(cat, m):
        image = frozenset(rt[i] for i in range(n) if rd[i] in s)
        out[image] = out.get(image, 0.0) + mass
    items = [(_from_indices(cat, t, idx), mass) for idx, mass in out.items()]
    return set_potential(cat, t, items, RAW)


# --- Moebius inversion, one mask at a time ------------------------------------
# The inversion as it first ran: for each frame configuration (bit), every
# mask holding it (for ``superset``, lacking it) subtracts the entry of the
# mask without (with) it, in mask order.  Within one bit no entry that is
# read is also written, so the package's slice passes must give the same
# list, bit for bit.

def per_mask_moebius_invert(table, k: int, superset: bool) -> list[float]:
    f = list(map(float, table))
    for bit in range(k):
        step = 1 << bit
        for mask in range(len(f)):
            if bool(mask & step) != superset:
                f[mask] -= f[mask ^ step]
    return f


# --- Dempster's rule as a fold ------------------------------------------------
# The n-ary rule as the CLI first applied it: a left fold of the binary rule,
# conditioning after every step; and the rule as defined: the raw combination
# of every bpa in exact rationals, conditioned once.  Conditioning commutes
# with combination, so the package's rule must give the masses of both, and
# its conflict K must satisfy 1 - K = prod(1 - K_step) over the fold's steps.

def sequential_dempster_combine(pots, comparator=DEFAULT_COMPARATOR,
                                cap=dm.DEFAULT_CONFIG_CAP):
    """The fold's result and the conflict that each of its steps removed."""
    acc, steps = pots[0], []
    for p in pots[1:]:
        acc = dempster_combine(acc, p, comparator=comparator, cap=cap)
        steps.append(acc.conflict)
    return acc, steps


def exact_dempster_combine(pots):
    """The conditioned masses ({configuration frozenset: Fraction}, empty when
    K is 1) and the share K of the raw mass on the empty set, over the
    operands' union domain."""
    cat, u = pots[0].catalog, pots[0].domain
    for p in pots[1:]:
        u = u | p.domain
    union = list(itertools.product(*(range(cat.size(n)) for n in u.names)))
    raw = {frozenset(union): Fraction(1)}
    for p in pots:
        pos = [u.names.index(n) for n in p.domain.names]
        step = {}
        for fs, mass in p.focal:
            keep = set(fs.configs)
            cyl = frozenset(c for c in union if tuple(c[i] for i in pos) in keep)
            for s, m in raw.items():
                step[s & cyl] = step.get(s & cyl, 0) + m * Fraction(mass)
        raw = step
    k = raw.pop(frozenset(), Fraction(0))
    kept = sum(raw.values())  # not 1 - k: float bpa's sum to 1 only roughly
    return {s: m / kept for s, m in raw.items()}, k / (k + kept)


# --- law checkers as first written -------------------------------------------
# The stock samplers through ``randint``/``uniform``, ``run_law`` as a loop,
# the semiring checker over every draw and the q-separoid checker calling
# the relation and the lattice operations once per use.  The package's
# checkers must print the same reports.

def _randint_boolean(rng):
    return rng.randint(0, 1)


def _randint_arithmetic(rng):
    r = rng.random()
    if r < 0.15:
        return 0.0
    if r < 0.3:
        return float(rng.randint(1, 4))
    return rng.uniform(0.0, 4.0)


def _randint_tropical(rng):
    r = rng.random()
    if r < 0.12:
        return float("-inf")
    if r < 0.6:
        return float(rng.randint(-6, 6))
    return rng.uniform(-6.0, 6.0)


def _random_unit_interval(rng):
    r = rng.random()
    if r < 0.1:
        return 0.0
    if r < 0.2:
        return 1.0
    return rng.random()


def reference_sampler(name: str):
    """The stock sampler of the instance called ``name`` (``chain(k)`` too)."""
    if name.startswith("chain("):
        k = int(name[6:-1])
        return lambda rng: rng.randint(0, k - 1)
    return {
        "boolean": _randint_boolean,
        "arithmetic": _randint_arithmetic,
        "tropical": _randint_tropical,
        "bottleneck": _random_unit_interval,
        "fuzzy-product": _random_unit_interval,
    }[name]


def loop_run_law(name, pred, *, trials, witness, applicable=True):
    from semival.reports import FAIL, NOT_APPLICABLE, PASS, LawResult
    if not applicable:
        return LawResult(name, NOT_APPLICABLE)
    for k, trial in enumerate(trials):
        if not pred(*trial):
            return LawResult(name, FAIL, witness(k, trial))
    return LawResult(name, PASS)


def every_draw_check_semiring_axioms(sr, samples=10_000, seed=0, sample=None):
    """The semiring law check over every draw, with ``sample`` (the stock
    reference sampler of ``sr.name`` by default) drawing the values."""
    import random
    from functools import partial

    from semival.reports import CheckReport
    from semival.semiring import _witness
    sample = sample or reference_sampler(sr.name)
    rng = random.Random(seed)
    draws = [(sample(rng), sample(rng), sample(rng)) for _ in range(samples)]
    add, mul, eq = sr.add, sr.mul, sr.eq
    has_zero = sr.zero is not None
    both = sr.idempotent_add and sr.idempotent_mul
    law = partial(loop_run_law, trials=draws, witness=_witness)
    laws = (
        law("add-commutative", lambda a, b, c: eq(add(a, b), add(b, a))),
        law("add-associative", lambda a, b, c: eq(add(add(a, b), c), add(a, add(b, c)))),
        law("mul-commutative", lambda a, b, c: eq(mul(a, b), mul(b, a))),
        law("mul-associative", lambda a, b, c: eq(mul(mul(a, b), c), mul(a, mul(b, c)))),
        law("distributive",
            lambda a, b, c: eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))),
        law("zero-neutral", lambda a, b, c: eq(add(a, sr.zero), a), applicable=has_zero),
        law("zero-absorbing", lambda a, b, c: eq(mul(a, sr.zero), sr.zero),
            applicable=has_zero),
        law("one-neutral", lambda a, b, c: eq(mul(sr.one, a), a)),
        law("flag-idempotent-add", lambda a, b, c: eq(add(a, a), a),
            applicable=sr.idempotent_add),
        law("flag-idempotent-mul", lambda a, b, c: eq(mul(a, a), a),
            applicable=sr.idempotent_mul),
        law("flag-positive",
            lambda a, b, c: not eq(add(a, b), sr.zero) or (eq(a, sr.zero) and eq(b, sr.zero)),
            applicable=sr.positive and has_zero),
        law("absorption-add", lambda a, b, c: eq(add(a, mul(a, b)), a), applicable=both),
        law("absorption-mul", lambda a, b, c: eq(mul(a, add(a, b)), a), applicable=both),
    )
    return CheckReport(subject=f"semiring {sr.name}", seed=seed, samples=samples,
                       laws=laws)


def per_call_check_qseparoid(parts, exhaustive_limit=200_000, seed=0, indep=None):
    """The q-separoid check calling ``indep``, join and leq at every use."""
    import random
    from functools import partial

    from semival.errors import DomainError, MismatchError
    from semival.partitions import (_same_universe, _triple_witness,
                                    cond_indep_partitions, partition_join,
                                    partition_leq)
    from semival.reports import CheckReport
    parts = list(dict.fromkeys(parts))
    if not parts:
        raise DomainError("empty partition family")
    _same_universe(*parts)
    rel = indep if indep is not None else cond_indep_partitions
    index = set(parts)
    for a, b in itertools.combinations_with_replacement(parts, 2):
        if partition_join(a, b) not in index:
            raise DomainError(
                f"family is not join-closed: join of [{a}] and [{b}] is missing"
            )
    n = len(parts)
    exhaustive = n**3 <= exhaustive_limit
    rng = random.Random(seed)
    if exhaustive:
        triples = list(itertools.product(parts, repeat=3))
    else:
        triples = [(rng.choice(parts), rng.choice(parts), rng.choice(parts))
                   for _ in range(exhaustive_limit)]

    def c3(x, y, z):
        if not rel(x, y, z):
            return True
        coarser = (
            [w for w in parts if partition_leq(w, y)]
            if exhaustive
            else [w for w in rng.sample(parts, min(4, n)) if partition_leq(w, y)]
        )
        return all(rel(x, w, z) for w in coarser)

    law = partial(loop_run_law, trials=triples, witness=_triple_witness)
    laws = (
        law("C1-self-conditioning", lambda x, y, z: rel(x, y, y)),
        law("C2-symmetry", lambda x, y, z: not rel(x, y, z) or rel(y, x, z)),
        law("C3-coarsening", c3),
        law("C4-join-absorption",
            lambda x, y, z: not rel(x, y, z) or rel(x, partition_join(y, z), z)),
        law("basic", lambda x, y, z: not rel(x, x, y) or partition_leq(x, y)),
    )
    return CheckReport(
        subject="partition q-separoid", seed=seed, samples=len(triples), laws=laws,
        details=(f"family size {n}, {'exhaustive' if exhaustive else 'sampled'} triples",),
    )


# --- the partition lattice on block sets -------------------------------------
# The lattice operations as first written: a per-partition element -> block
# lookup, frozenset blocks, meet as a saturation fixpoint and commutation as
# saturations agreeing on every singleton.  The package computes them on
# block-index vectors and must agree with these on every input.

def _block_of(p) -> dict:
    return {e: i for i, block in enumerate(p.blocks) for e in block}


def _block_sets(p) -> tuple:
    return tuple(frozenset(b) for b in p.blocks)


def blockwise_partition_leq(coarse, fine) -> bool:
    """True when every block of ``fine`` lies inside a block of ``coarse``."""
    lookup = _block_of(coarse)
    for block in fine.blocks:
        first = lookup[block[0]]
        if any(lookup[e] != first for e in block[1:]):
            return False
    return True


def blockwise_partition_join(p1, p2):
    """Common refinement: the nonempty pairwise block intersections."""
    from semival.partitions import Partition
    groups: dict = {}
    b1, b2 = _block_of(p1), _block_of(p2)
    for e in p1.universe.elements:
        groups.setdefault((b1[e], b2[e]), []).append(e)
    return Partition.of(p1.universe, groups.values())


def blockwise_saturate(p, xs) -> frozenset:
    """Smallest union of blocks of ``p`` covering ``xs``."""
    lookup = _block_of(p)
    out: set = set()
    for i in {lookup[e] for e in xs}:
        out.update(p.blocks[i])
    return frozenset(out)


def saturation_partition_meet(p1, p2):
    """Finest common coarsening: each singleton closed under both saturations."""
    from semival.partitions import Partition
    blocks: dict[frozenset, None] = {}
    done: set = set()
    for e in p1.universe.elements:
        if e in done:
            continue
        x = frozenset([e])
        while True:
            nxt = blockwise_saturate(p1, blockwise_saturate(p2, x))
            if nxt == x:
                break
            x = nxt
        blocks[x] = None
        done.update(x)
    return Partition.of(p1.universe, blocks.keys())


def singleton_partitions_commute(p1, p2) -> bool:
    """Do the two saturation operators commute on every singleton?"""
    return all(
        blockwise_saturate(p1, blockwise_saturate(p2, [e]))
        == blockwise_saturate(p2, blockwise_saturate(p1, [e]))
        for e in p1.universe.elements
    )


def blockwise_cond_indep_partitions(p1, p2, p) -> bool:
    """Within every block of ``p``, compatible block pairs must intersect."""
    for cond in _block_sets(p):
        touching1 = [b for b in _block_sets(p1) if b & cond]
        touching2 = [b for b in _block_sets(p2) if b & cond]
        for b1 in touching1:
            shared = b1 & cond
            for b2 in touching2:
                if not shared & b2:
                    return False
    return True


def grown_all_partitions(universe) -> list:
    """Every partition, grown one element at a time into each block or a new one."""
    from semival.partitions import Partition
    out: list[list[list]] = [[]]
    for e in universe.elements:
        grown = []
        for blocks in out:
            for i in range(len(blocks)):
                grown.append([b + [e] if j == i else list(b) for j, b in enumerate(blocks)])
            grown.append([list(b) for b in blocks] + [[e]])
        out = grown
    return [Partition.of(universe, blocks) for blocks in out]
