"""Local computation on labeled trees and hypertree sequences.

The solvers are generic over the information algebra: an *ops* adapter
for either semiring valuations (:class:`ValuationOps`) or set potentials
(:class:`SetPotentialOps`) provides

* ``catalog`` -- the variable catalog its values live in,
* ``combine(a, b)``, ``unit(d)`` -- combination and its neutral element,
* ``transport(a, d)``, ``message(a, target)`` -- moving information to
  another domain and shaping an edge message for the receiving label,
* ``solve_to(a, x)`` -- the answer on ``x`` (projection when covered),
* ``equal(a, b)``, ``deviation(a, b)`` -- comparison and the largest
  numeric difference, for oracle reports,
* ``supports_transport``, ``supports_idempotent_distribute`` --
  capability flags gating the hypertree schemes.

Every value carries its own ``.domain``.  Two message forms exist for
valuations:

* transport form -- messages live on the receiving node's full label;
  valid when the semiring has idempotent addition,
* projection form -- messages live on the edge separator (label
  intersection); valid for every semiring.

The form is selected automatically from the semiring flags.  Collect
computes the combined information at a chosen root; distribute reuses
the cached inward messages and builds only the outward messages on the
paths from the root to the requested nodes.  Hypertree
elimination is the sequential variant; its backward pass needs a fully
idempotent algebra and refuses to run otherwise.

``naive_solve`` is the deliberately simple combine-then-extract oracle
that every local scheme is tested against.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Sequence

from . import belief as bf
from . import domains as dm
from . import valuation as va
from .compare import DEFAULT_COMPARATOR
from .domains import Domain, VariableCatalog
from .errors import CapabilityError, DomainError
from .semiring import Semiring

TRANSPORT = "transport"
PROJECTION = "projection"


def join_of(domains: Sequence[Domain]) -> Domain:
    out = dm.EMPTY_DOMAIN
    for d in domains:
        out = out | d
    return out


@dataclass(frozen=True)
class LabeledTree:
    """A tree whose nodes carry domains; factors are assigned to nodes.

    ``assignment[k]`` is the node holding factor ``k``; every factor's
    domain must be covered by its node's label.
    """

    labels: tuple[Domain, ...]
    edges: tuple[tuple[int, int], ...]
    assignment: tuple[int, ...] = ()

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise DomainError("tree must have at least one node")
        norm = []
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise DomainError(f"bad edge ({a}, {b})")
            e = (min(a, b), max(a, b))
            if e in seen:
                raise DomainError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if len(self.edges) != n - 1:
            raise DomainError(f"{n} nodes need {n - 1} edges, got {len(self.edges)}")
        if self._component(0) != set(range(n)):
            raise DomainError("tree is not connected")
        for k, v in enumerate(self.assignment):
            if not 0 <= v < n:
                raise DomainError(f"factor {k} assigned to missing node {v}")

    def _component(self, start: int) -> set[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in self.neighbors[v]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return seen

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.labels]
        for a, b in self.edges:
            out[a].append(b)
            out[b].append(a)
        return tuple(tuple(sorted(ns)) for ns in out)

    def __len__(self) -> int:
        return len(self.labels)

    def rooted_order(self, root: int) -> tuple[list[int], list[int]]:
        """(BFS order from root, parent per node; parent[root] == root)."""
        order = [root]
        parent = [-1] * len(self.labels)
        parent[root] = root
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            for u in self.neighbors[v]:
                if parent[u] == -1:
                    parent[u] = v
                    order.append(u)
        return order, parent

    def subtree_nodes(self, v: int, w: int) -> list[int]:
        """Nodes of the subtree containing ``w`` after removing ``v``."""
        seen = {v, w}
        frontier = [w]
        out = [w]
        while frontier:
            x = frontier.pop()
            for u in self.neighbors[x]:
                if u not in seen:
                    seen.add(u)
                    out.append(u)
                    frontier.append(u)
        return sorted(out)


def is_join_tree(tree: LabeledTree) -> bool:
    """Running intersection: the nodes holding each variable form a subtree.

    Nodes of a tree are connected exactly when the edges among them number
    one less than the nodes, so every variable must be held by one more
    node than edge.  Linear in the total label size.
    """
    labels = [set(label.names) for label in tree.labels]
    excess = Counter(name for label in labels for name in label)
    for a, b in tree.edges:
        excess.subtract(labels[a] & labels[b])
    return all(k == 1 for k in excess.values())


def ci_family(domains: Sequence[Domain], z: Domain) -> bool:
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


def markov_check_direct(tree: LabeledTree) -> bool:
    """Quantified neighbor-split check at every node (exponential in degree)."""
    for v in range(len(tree)):
        branches = [
            join_of([tree.labels[u] for u in tree.subtree_nodes(v, w)])
            for w in tree.neighbors[v]
        ]
        if not ci_family(branches, tree.labels[v]):
            return False
    return True


def is_markov_tree(tree: LabeledTree) -> bool:
    """On subset-lattice labels the join-tree test decides the Markov property.

    :func:`markov_check_direct` evaluates the quantified definition and is
    the reference the two are tested against.
    """
    return is_join_tree(tree)


@dataclass(frozen=True)
class EliminationSequence:
    """Domains ``x_0..x_{n-1}`` with a forward pointer ``b`` for each i < n-1."""

    domains: tuple[Domain, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        n = len(self.domains)
        if n == 0:
            raise DomainError("empty elimination sequence")
        if len(self.b) != n - 1:
            raise DomainError(f"{n} domains need {n - 1} pointers, got {len(self.b)}")
        for i, j in enumerate(self.b):
            if not i < j < n:
                raise DomainError(f"pointer b({i}) = {j} must satisfy {i} < b({i}) < {n}")

    def __len__(self) -> int:
        return len(self.domains)


def first_sequence_violation(seq: EliminationSequence) -> int | None:
    """First step whose domain meets the later ones outside its pointer target."""
    n = len(seq)
    suffix = [dm.EMPTY_DOMAIN] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = seq.domains[i] | suffix[i + 1]
    for i in range(n - 1):
        if not (seq.domains[i] & suffix[i + 1]) <= seq.domains[seq.b[i]]:
            return i
    return None


def verify_hypertree_sequence(seq: EliminationSequence) -> bool:
    """Each eliminated domain meets the rest only inside its pointer target."""
    return first_sequence_violation(seq) is None


def sequence_to_join_tree(seq: EliminationSequence) -> LabeledTree:
    if not verify_hypertree_sequence(seq):
        raise DomainError("not a valid hypertree construction sequence")
    edges = tuple((i, j) for i, j in enumerate(seq.b))
    return LabeledTree(seq.domains, edges)


def build_covering_join_tree(
    factor_domains: Sequence[Domain],
    heuristic: str = "min-fill",
    seed: int = 0,
    cover: Sequence[Domain] = (),
) -> LabeledTree:
    """Variable elimination on the interaction graph; clusters chained.

    Produces a join tree whose labels cover every factor domain (and
    every extra ``cover`` domain); elimination picks the min-degree or
    min-fill variable with ties broken by the global name order, so the
    result is deterministic.  The costs sit in a ``(cost, name)`` heap;
    eliminating a variable can change only the costs of the variables
    within two steps of it, so only those are rescored, and the picks
    and ties are those of a full rescan at every step.  The ``seed`` is
    accepted for interface stability and recorded nowhere: no random
    choice remains.
    """
    if heuristic not in ("min-degree", "min-fill"):
        raise DomainError(f"unknown heuristic {heuristic!r}")
    del seed
    cliques = [set(d.names) for d in factor_domains] + [set(d.names) for d in cover]
    variables = sorted(set().union(*cliques)) if cliques else []
    if not variables:
        labels = (dm.EMPTY_DOMAIN,)
        return LabeledTree(labels, (), tuple(0 for _ in factor_domains))

    adj: dict[str, set[str]] = {v: set() for v in variables}
    for clique in cliques:
        for a, b in itertools.combinations(sorted(clique), 2):
            adj[a].add(b)
            adj[b].add(a)

    def cost(v: str) -> int:
        if heuristic == "min-degree":
            return len(adj[v])
        return sum(
            1
            for a, b in itertools.combinations(adj[v], 2)
            if b not in adj[a]
        )

    current = {v: cost(v) for v in variables}
    heap = [(c, v) for v, c in current.items()]
    heapq.heapify(heap)
    order: list[str] = []
    clusters: list[Domain] = []
    while heap:
        c, pick = heapq.heappop(heap)
        if current.get(pick) != c:
            continue  # stale: eliminated, or rescored since this push
        del current[pick]
        cluster = Domain(tuple(adj[pick]) + (pick,))
        order.append(pick)
        clusters.append(cluster)
        # a degree changes only next to the pick; a fill cost also changes
        # when a fill edge joins two of a variable's neighbours
        near = adj[pick].union(*(adj[u] for u in adj[pick]))
        near.discard(pick)
        for a, b in itertools.combinations(sorted(adj[pick]), 2):
            adj[a].add(b)
            adj[b].add(a)
        for u in adj[pick]:
            adj[u].discard(pick)
        del adj[pick]
        for v in near:
            c = cost(v)
            if c != current[v]:
                current[v] = c
                heapq.heappush(heap, (c, v))

    elim_step = {v: i for i, v in enumerate(order)}
    m = len(clusters)
    edges = []
    for i in range(m - 1):
        later = [elim_step[v] for v in clusters[i].names if elim_step[v] > i]
        edges.append((i, min(later) if later else i + 1))

    assignment = []
    for d in factor_domains:
        if not d:
            assignment.append(0)
        else:
            assignment.append(min(elim_step[v] for v in d.names))
    return _absorb_subsumed(clusters, edges, assignment)


def _absorb_subsumed(labels: list[Domain], edges: list[tuple[int, int]],
                     assignment: list[int]) -> LabeledTree:
    """Contract edges whose one label contains the other's.

    Absorbing a subsumed cluster into its neighbour preserves the running
    intersection property and keeps factor coverage; the scan order makes
    the result deterministic.
    """
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
    return LabeledTree(new_labels, new_edges, new_assignment)


def tree_to_sequence(tree: LabeledTree, root: int | None = None
                     ) -> tuple[EliminationSequence, list[int]]:
    """Number a join tree leaves-first into a construction sequence.

    Returns the sequence plus the node order: position ``i`` of the
    sequence holds the label of node ``order[i]``, and the root comes
    last.  Factors aligned per node must be permuted the same way.
    """
    if root is None:
        root = len(tree) - 1
    bfs, parent = tree.rooted_order(root)
    order = list(reversed(bfs))
    pos = {v: i for i, v in enumerate(order)}
    domains = tuple(tree.labels[v] for v in order)
    b = tuple(pos[parent[v]] for v in order[:-1])
    return EliminationSequence(domains, b), order


# --- algebra adapters --------------------------------------------------------

class ValuationOps:
    """Collect/distribute backend for semiring-valued tables."""

    def __init__(self, cat: VariableCatalog, sr: Semiring, *,
                 cap: int | None = dm.DEFAULT_CONFIG_CAP):
        self.catalog = cat
        self.semiring = sr
        self.form = TRANSPORT if sr.idempotent_add else PROJECTION
        self.cap = cap

    def combine(self, a, b):
        return va.combine(a, b, cap=self.cap)

    def unit(self, d: Domain):
        return va.unit(self.catalog, self.semiring, d, cap=self.cap)

    def transport(self, a, d: Domain):
        return va.transport(a, d, cap=self.cap)

    def message(self, a, target: Domain):
        if self.form == TRANSPORT:
            return va.transport(a, target, cap=self.cap)
        return va.project(a, a.domain & target)

    def solve_to(self, a, x: Domain):
        if x <= a.domain:
            return va.project(a, x)
        if self.semiring.idempotent_add:
            return va.transport(a, x, cap=self.cap)
        raise CapabilityError(
            f"cannot move a {self.semiring.name} valuation from {a.domain} "
            f"to non-subset {x}: transport needs idempotent addition"
        )

    def equal(self, a, b) -> bool:
        return va.valuations_equal(a, b)

    def deviation(self, a, b) -> float:
        dev = 0.0
        for x, y in zip(a.table, b.table):
            if not self.semiring.eq(x, y):
                dev = max(dev, abs(float(x) - float(y)))
        return dev

    @property
    def supports_transport(self) -> bool:
        return self.semiring.idempotent_add

    @property
    def supports_idempotent_distribute(self) -> bool:
        return self.semiring.idempotent_add and self.semiring.idempotent_mul


class SetPotentialOps:
    """Collect/distribute backend for sparse set potentials."""

    supports_transport = True
    # combination of set potentials is not idempotent
    supports_idempotent_distribute = False

    def __init__(self, cat: VariableCatalog, cap: int | None = dm.DEFAULT_CONFIG_CAP):
        self.catalog = cat
        self.cap = cap

    def combine(self, a, b):
        return bf.combine_potentials(a, b, cap=self.cap)

    def unit(self, d: Domain):
        return bf.vacuous(self.catalog, d)

    def transport(self, a, d: Domain):
        return bf.transport_potential(a, d, cap=self.cap)

    message = solve_to = transport

    def equal(self, a, b) -> bool:
        if a.domain != b.domain:
            return False
        keys = set(a.by_set) | set(b.by_set)
        return all(DEFAULT_COMPARATOR.eq(a.mass(k), b.mass(k)) for k in keys)

    def deviation(self, a, b) -> float:
        keys = set(a.by_set) | set(b.by_set)
        return max((abs(a.mass(k) - b.mass(k)) for k in keys), default=0.0)


@dataclass
class MessageStore:
    """Inward messages cached by collect, keyed by directed edge (w -> v)."""

    root: int
    messages: dict[tuple[int, int], object] = field(default_factory=dict)
    node_factors: tuple = ()


def _node_factors(tree: LabeledTree, factors: Sequence, ops) -> list:
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


def collect(tree: LabeledTree, factors: Sequence, root: int, ops):
    """Inward pass; returns the root result and the cached messages."""
    if not 0 <= root < len(tree):
        raise DomainError(f"root {root} out of range")
    if not is_join_tree(tree):
        raise DomainError("labels do not form a join tree")
    node_factors = _node_factors(tree, factors, ops)
    order, parent = tree.rooted_order(root)
    store = MessageStore(root=root, node_factors=tuple(node_factors))
    for v in reversed(order):
        if v == root:
            continue
        acc = node_factors[v]
        for u in tree.neighbors[v]:
            if u != parent[v]:
                acc = ops.combine(acc, store.messages[(u, v)])
        store.messages[(v, parent[v])] = ops.message(acc, tree.labels[parent[v]])
    result = node_factors[root]
    for u in tree.neighbors[root]:
        result = ops.combine(result, store.messages[(u, root)])
    return result, store


def distribute(tree: LabeledTree, factors: Sequence, store: MessageStore, ops,
               nodes: Sequence[int] | None = None):
    """Outward pass; returns the local results of ``nodes`` (default: all).

    Only the outward messages on the paths from the root to ``nodes`` are
    built; they are added to the store, so a later call reuses them.
    Requires the message cache produced by :func:`collect` from the same
    root.
    """
    node_factors = store.node_factors or tuple(_node_factors(tree, factors, ops))
    order, parent = tree.rooted_order(store.root)
    for v in order:
        if v != store.root and (v, parent[v]) not in store.messages:
            raise DomainError("message cache incomplete; run collect first")
    if nodes is None:
        nodes = range(len(tree))
    on_path = set()
    for v in nodes:
        if not 0 <= v < len(tree):
            raise DomainError(f"node {v} out of range")
        while v not in on_path and v != store.root:
            on_path.add(v)
            v = parent[v]
    for v in order:
        if v not in on_path or (parent[v], v) in store.messages:
            continue
        p = parent[v]
        acc = node_factors[p]
        for u in tree.neighbors[p]:
            if u != v:
                acc = ops.combine(acc, store.messages[(u, p)])
        store.messages[(p, v)] = ops.message(acc, tree.labels[v])
    results = []
    for v in nodes:
        acc = node_factors[v]
        for u in tree.neighbors[v]:
            acc = ops.combine(acc, store.messages[(u, v)])
        results.append(acc)
    return results


def naive_solve(factors: Sequence, x: Domain, ops):
    """Combine everything in index order, then extract ``x``: the oracle."""
    if factors:
        total = reduce(ops.combine, factors)
    else:
        total = ops.unit(dm.EMPTY_DOMAIN)
    return ops.solve_to(total, x)


def default_root(tree: LabeledTree, query: Domain) -> int:
    for v, label in enumerate(tree.labels):
        if query <= label:
            return v
    raise DomainError(f"no node label covers query {query}")


# --- hypertree schemes -------------------------------------------------------

def hypertree_collect(seq: EliminationSequence, factors: Sequence, ops):
    """Sequential elimination along a construction sequence.

    Returns the last intermediate (the combined information moved to the
    final domain) together with all intermediates for the backward pass.
    """
    if not ops.supports_transport:
        raise CapabilityError(
            "hypertree elimination transports between incomparable domains; "
            "the algebra does not support transport"
        )
    if not verify_hypertree_sequence(seq):
        raise DomainError("not a valid hypertree construction sequence")
    if len(factors) != len(seq):
        raise DomainError(f"{len(seq)} domains but {len(factors)} factors")
    for i, f in enumerate(factors):
        if f.domain != seq.domains[i]:
            raise DomainError(
                f"factor {i} lives on {f.domain}, sequence expects "
                f"{seq.domains[i]}"
            )
    psi = list(factors)
    for i in range(len(seq) - 1):
        j = seq.b[i]
        psi[j] = ops.combine(psi[j], ops.transport(psi[i], seq.domains[j]))
    return psi[-1], tuple(psi)


def hypertree_distribute(seq: EliminationSequence, psis: Sequence, ops):
    """Backward pass recovering every domain's result; needs idempotency."""
    if not ops.supports_idempotent_distribute:
        raise CapabilityError(
            "hypertree distribute needs an idempotent algebra "
            "(idempotent addition and multiplication)"
        )
    n = len(seq)
    if len(psis) != n:
        raise DomainError("intermediate cache does not match the sequence")
    results: list = [None] * n
    results[n - 1] = psis[n - 1]
    for i in range(n - 2, -1, -1):
        mu = ops.transport(results[seq.b[i]], seq.domains[i])
        results[i] = ops.combine(mu, psis[i])
    return results
