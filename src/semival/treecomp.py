"""Local computation on labeled trees and hypertree sequences.

The solvers are generic over the information algebra: an *ops* adapter
for either semiring valuations (:class:`ValuationOps`) or set potentials
(:class:`SetPotentialOps`) provides

* ``catalog``, ``cap`` -- the variable catalog its values live in and
  the configuration cap every node label is checked against,
* ``combine(a, b)``, ``unit(d)`` -- combination and its neutral element,
* ``message(a, target)`` -- shaping an edge message for the receiving
  label,
* ``solve_to(a, x)`` -- the answer on ``x`` (projection when covered),
* ``deviation(a, b)`` -- the largest numeric difference, for oracle
  reports,
* ``supports_transport``, ``supports_idempotent_distribute`` --
  capability flags gating the hypertree schemes.

Every value carries its own ``.domain``.  A valuation message is the
sender's information projected to the variables it shares with the
receiving label, so it lies within the edge separator, whatever the
semiring: extending it to the whole label, as idempotent addition would
allow, only multiplies by ``one``.  A set-potential message is
transported to the receiving label.  Every node starts from the scalar
identity ``unit(EMPTY_DOMAIN)`` and holds only its own factors, combined
on their own domains; this is the adjoined identity of covering join trees
(Schneuwly, Pouly & Kohlas 2004).  A node's result therefore spans the
variables of its label that some factor mentions, and a label variable
no factor mentions is never summed over.  Collect computes the combined
information at a chosen root; distribute reuses the cached inward
messages and builds only the outward messages on the paths from the
root to the requested nodes.  Hypertree elimination is collect and
distribute on a construction sequence's tree, rooted at its last node;
its backward pass needs a fully idempotent algebra and refuses to run
otherwise.

``naive_solve`` is the deliberately simple combine-then-extract oracle
that every local scheme is tested against.
"""

from __future__ import annotations

import heapq
import itertools
from functools import cached_property, reduce
from typing import Sequence

from . import domains as dm
from .domains import Domain, VariableCatalog
from .errors import CapabilityError, DomainError, Frozen
from .semiring import Semiring


def join_of(domains: Sequence[Domain]) -> Domain:
    """The union of the domains: one set union, sorted once."""
    return Domain(tuple(set().union(*(d.names for d in domains))))


class LabeledTree(Frozen):
    """A tree whose nodes carry domains; factors are assigned to nodes.

    ``assignment[k]`` is the node holding factor ``k``; every factor's
    domain must be covered by its node's label.
    """

    def __init__(self, labels: tuple[Domain, ...], edges: tuple[tuple[int, int], ...],
                 assignment: tuple[int, ...] = ()):
        n = len(labels)
        if n == 0:
            raise DomainError("tree must have at least one node")
        norm = []
        seen = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise DomainError(f"bad edge ({a}, {b})")
            e = (min(a, b), max(a, b))
            if e in seen:
                raise DomainError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        if len(norm) != n - 1:
            raise DomainError(f"{n} nodes need {n - 1} edges, got {len(norm)}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        object.__setattr__(self, "assignment", assignment)
        if len(self.rooted_order(0)[0]) != n:
            raise DomainError("tree is not connected")
        for k, v in enumerate(assignment):
            if not 0 <= v < n:
                raise DomainError(f"factor {k} assigned to missing node {v}")

    def _key(self) -> tuple:
        return (self.labels, self.edges, self.assignment)

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


def is_join_tree(tree: LabeledTree) -> bool:
    """Running intersection: the nodes holding each variable form a subtree,
    exactly when the tree's leaves-first numbering is a valid sequence."""
    return first_sequence_violation(tree_to_sequence(tree)[0]) is None


def is_markov_tree(tree: LabeledTree) -> bool:
    """On subset-lattice labels the join-tree test decides the Markov property.

    ``markov_check_direct`` in ``tests/oracles.py`` evaluates the quantified
    definition and is the reference the two are tested against.
    """
    return is_join_tree(tree)


class EliminationSequence(Frozen):
    """Domains ``x_0..x_{n-1}`` with a forward pointer ``b`` for each i < n-1."""

    __slots__ = ("domains", "b")

    def __init__(self, domains: tuple[Domain, ...], b: tuple[int, ...]):
        n = len(domains)
        if n == 0:
            raise DomainError("empty elimination sequence")
        if len(b) != n - 1:
            raise DomainError(f"{n} domains need {n - 1} pointers, got {len(b)}")
        for i, j in enumerate(b):
            if not i < j < n:
                raise DomainError(f"pointer b({i}) = {j} must satisfy {i} < b({i}) < {n}")
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "b", b)

    def _key(self) -> tuple:
        return (self.domains, self.b)

    def __len__(self) -> int:
        return len(self.domains)


def first_sequence_violation(seq: EliminationSequence) -> int | None:
    """First step whose domain meets the later ones outside its pointer target.

    A variable of step ``i`` occurs in a later step exactly when the last
    step holding it comes after ``i``, so step ``i`` violates when such a
    variable is missing from ``x_{b(i)}``.  Linear in the total label size.
    """
    last = {x: i for i, d in enumerate(seq.domains) for x in d.names}
    targets = {j: set(seq.domains[j].names) for j in set(seq.b)}
    for i, (d, j) in enumerate(zip(seq.domains, seq.b)):
        target = targets[j]
        for x in d.names:
            if last[x] > i and x not in target:
                return i
    return None


def verify_hypertree_sequence(seq: EliminationSequence) -> bool:
    """Each eliminated domain meets the rest only inside its pointer target."""
    return first_sequence_violation(seq) is None


def sequence_to_join_tree(seq: EliminationSequence) -> LabeledTree:
    """The sequence's tree: edges ``(i, b(i))``, node ``i`` holding factor ``i``."""
    if not verify_hypertree_sequence(seq):
        raise DomainError("not a valid hypertree construction sequence")
    return LabeledTree(seq.domains, tuple(enumerate(seq.b)), tuple(range(len(seq))))


def build_covering_join_tree(
    factor_domains: Sequence[Domain],
    heuristic: str = "min-fill",
    cover: Sequence[Domain] = (),
) -> LabeledTree:
    """Variable elimination on the interaction graph; clusters chained.

    Produces a join tree whose labels cover every factor domain (and
    every extra ``cover`` domain); elimination picks the min-degree or
    min-fill variable with ties broken by the global name order, so the
    result is deterministic.  The costs sit in a ``(cost, name)`` heap;
    eliminating a variable can change only the costs of the variables
    within two steps of it, so only those are rescored, and the picks
    and ties are those of a full rescan at every step.
    """
    if heuristic not in ("min-degree", "min-fill"):
        raise DomainError(f"unknown heuristic {heuristic!r}")
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
    """Contract every cluster into a neighbouring one whose label contains it.

    Cluster ``i`` holds the variable eliminated at step ``i``, which no
    later cluster holds, so only a later cluster can lie within an earlier
    one.  One pass in elimination order lets each cluster not yet absorbed
    take in, by a walk over the edges, every later connected cluster within
    its label; a cluster that finds none then never will.  Contraction
    keeps the running intersection property and factor coverage.
    """
    adj: list[list[int]] = [[] for _ in labels]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    rep = list(range(len(labels)))
    for a, label in enumerate(labels):
        if rep[a] != a:
            continue
        stack = [a]
        while stack:
            for x in adj[stack.pop()]:
                if x > a and rep[x] == x and labels[x] <= label:
                    rep[x] = a
                    stack.append(x)
    keep = [a for a in range(len(labels)) if rep[a] == a]
    renum = {a: k for k, a in enumerate(keep)}
    return LabeledTree(
        tuple(labels[a] for a in keep),
        tuple((renum[rep[u]], renum[rep[v]]) for u, v in edges if rep[u] != rep[v]),
        tuple(renum[rep[k]] for k in assignment),
    )


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
        from . import valuation  # loaded on first use: set-potential solves never need it
        self._va = valuation
        self.catalog = cat
        self.semiring = sr
        self.cap = cap

    def combine(self, a, b):
        return self._va.combine(a, b, cap=self.cap)

    def unit(self, d: Domain):
        return self._va.unit(self.catalog, self.semiring, d, cap=self.cap)

    def message(self, a, target: Domain):
        return self._va.project(a, a.domain & target)

    def solve_to(self, a, x: Domain):
        if x <= a.domain:
            return self._va.project(a, x)
        if self.semiring.idempotent_add:
            return self._va.transport(a, x, cap=self.cap)
        raise CapabilityError(
            f"cannot move a {self.semiring.name} valuation from {a.domain} "
            f"to non-subset {x}: transport needs idempotent addition"
        )

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
        from . import belief  # loaded on first use: dense solves never need it
        self._bf = belief
        self.catalog = cat
        self.cap = cap

    def combine(self, a, b):
        return self._bf.combine_potentials(a, b, cap=self.cap)

    def unit(self, d: Domain):
        return self._bf.vacuous(self.catalog, d)

    def message(self, a, target: Domain):
        return self._bf.transport_potential(a, target, cap=self.cap)

    solve_to = message

    def deviation(self, a, b) -> float:
        keys = set(a.by_set) | set(b.by_set)
        return max((abs(a.mass(k) - b.mass(k)) for k in keys), default=0.0)


class MessageStore:
    """Inward messages cached by collect, keyed by directed edge (w -> v)."""

    __slots__ = ("root", "messages", "node_factors")

    def __init__(self, root: int, messages: dict[tuple[int, int], object] | None = None,
                 node_factors: tuple = ()):
        self.root = root
        self.messages = {} if messages is None else messages
        self.node_factors = node_factors

    def __eq__(self, other):  # by value, so unhashable
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.root, self.messages, self.node_factors)
                == (other.root, other.messages, other.node_factors))


def _node_factors(tree: LabeledTree, factors: Sequence, ops) -> list:
    """Each node's assigned factors combined in assignment order, starting
    from the scalar identity; a node without factors holds the identity.

    Every label is checked against ``ops.cap`` first: a label over the cap
    fails before any combination, with the error a table on it would raise.
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
    for label in tree.labels:
        ops.catalog.config_count(label, cap=ops.cap)
    out = [ops.unit(dm.EMPTY_DOMAIN)] * len(tree.labels)
    for k, f in enumerate(factors):
        v = tree.assignment[k]
        out[v] = ops.combine(out[v], f)
    return out


def _absorb(tree: LabeledTree, node_factors: Sequence, messages: dict, v: int,
            skip: int, ops):
    """``node_factors[v]`` combined with the messages into ``v`` from every
    neighbour except ``skip``, in neighbour order (``skip=v`` takes all)."""
    acc = node_factors[v]
    for u in tree.neighbors[v]:
        if u != skip:
            acc = ops.combine(acc, messages[(u, v)])
    return acc


def collect(tree: LabeledTree, factors: Sequence, root: int, ops):
    """Inward pass; returns the root result and the cached messages.

    Results (here and in :func:`distribute`) span the label variables
    that some factor mentions, not necessarily the whole label.
    """
    if not 0 <= root < len(tree):
        raise DomainError(f"root {root} out of range")
    # running intersection holds for every rooting or none, so the
    # leaves-first numbering that is checked also schedules the messages
    seq, order = tree_to_sequence(tree, root)
    if first_sequence_violation(seq) is not None:
        raise DomainError("labels do not form a join tree")
    return _inward(tree, factors, order, seq.b, ops)


def _inward(tree: LabeledTree, factors: Sequence, order: Sequence[int],
            b: Sequence[int], ops):
    """The inward pass on a checked leaves-first numbering: node ``order[i]``
    sends to ``order[b[i]]``, and ``order[-1]`` is the root."""
    root = order[-1]
    node_factors = _node_factors(tree, factors, ops)
    store = MessageStore(root=root, node_factors=tuple(node_factors))
    for v, j in zip(order, b):
        p = order[j]
        acc = _absorb(tree, node_factors, store.messages, v, p, ops)
        store.messages[(v, p)] = ops.message(acc, tree.labels[p])
    return _absorb(tree, node_factors, store.messages, root, root, ops), store


def distribute(tree: LabeledTree, store: MessageStore, ops,
               nodes: Sequence[int] | None = None):
    """Outward pass; returns the local results of ``nodes`` (default: all).

    Only the outward messages on the paths from the root to ``nodes`` are
    built; they are added to the store, so a later call reuses them.
    Requires the message cache and node factors produced by
    :func:`collect` from the same root.
    """
    node_factors = store.node_factors
    order, parent = tree.rooted_order(store.root)
    if len(node_factors) != len(tree) or any(
            v != store.root and (v, parent[v]) not in store.messages for v in order):
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
        acc = _absorb(tree, node_factors, store.messages, p, v, ops)
        store.messages[(p, v)] = ops.message(acc, tree.labels[v])
    return [_absorb(tree, node_factors, store.messages, v, v, ops) for v in nodes]


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
    """Collect on the sequence's tree, rooted at its last node.

    The sequence is itself a leaves-first numbering of that tree, so the
    inward pass runs in sequence order after the sequence's one check.
    Returns the combined information on the final domain and the
    :class:`MessageStore` for :func:`hypertree_distribute`.
    """
    if not ops.supports_transport:
        raise CapabilityError(
            "hypertree elimination needs an algebra with transport (idempotent addition)"
        )
    tree = sequence_to_join_tree(seq)
    if len(factors) != len(seq):
        raise DomainError(f"{len(seq)} domains but {len(factors)} factors")
    for i, f in enumerate(factors):
        if f.domain != seq.domains[i]:
            raise DomainError(
                f"factor {i} lives on {f.domain}, sequence expects "
                f"{seq.domains[i]}"
            )
    return _inward(tree, factors, range(len(seq)), seq.b, ops)


def hypertree_distribute(seq: EliminationSequence, store: MessageStore, ops):
    """Every domain's result, distributed from the store of
    :func:`hypertree_collect` on ``seq``; needs idempotency."""
    if not ops.supports_idempotent_distribute:
        raise CapabilityError(
            "hypertree distribute needs an idempotent algebra "
            "(idempotent addition and multiplication)"
        )
    # only a store collected on this very sequence matches it, and that
    # collect checked the sequence, so its tree is not checked again
    if (not isinstance(store, MessageStore) or store.root != len(seq) - 1
            or tuple(f.domain for f in store.node_factors) != seq.domains
            or not store.messages.keys() >= set(enumerate(seq.b))):
        raise DomainError("intermediate cache does not match the sequence")
    return distribute(LabeledTree(seq.domains, tuple(enumerate(seq.b))), store, ops)
