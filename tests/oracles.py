"""Independent brute-force oracles used to freeze expected values.

These work on explicit {configuration-tuple: value} dictionaries and
itertools.product loops, sharing no indexing machinery with the package,
so they can referee the dense-table implementations.
"""

import itertools

from semival.domains import Domain


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
