"""Independent brute-force oracles used to freeze expected values.

These work on explicit {configuration-tuple: value} dictionaries and
itertools.product loops, sharing no indexing machinery with the package,
so they can referee the dense-table implementations.
"""

import itertools

from semival import treecomp
from semival.domains import EMPTY_DOMAIN, Domain


def configs_of(cat, domain):
    frames = [range(cat.size(n)) for n in domain.names]
    return [dict(zip(domain.names, combo)) for combo in itertools.product(*frames)]


def as_dict(val):
    """Valuation -> {(name: value index ...) assignment dict tuple: value}."""
    out = {}
    frames = [range(val.catalog.size(n)) for n in val.domain.names]
    for i, combo in enumerate(itertools.product(*frames)):
        out[combo] = val.table[i]
    return out


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
    minimum.  The package's incremental builder must give the same tree."""
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
    return treecomp._absorb_subsumed(clusters, edges, assignment)


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
    val = 0
    for i in range(n):
        out[i] = val
        for p in range(len(big) - 1, -1, -1):
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
    mul = a.semiring.mul
    return u, tuple(mul(a.table[i], b.table[j]) for i, j in zip(ra, rb))


def cellwise_project(a, t):
    add = a.semiring.add
    out = [None] * a.catalog.config_count(t, cap=None)
    for i, v in zip(odometer_index_map(a.catalog, a.domain, t), a.table):
        out[i] = v if out[i] is None else add(out[i], v)
    return tuple(out)


def cellwise_extend(a, t):
    return tuple(a.table[i] for i in odometer_index_map(a.catalog, t, a.domain))
