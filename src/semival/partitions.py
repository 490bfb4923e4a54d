"""The partition lattice of a finite universe.

Partitions are ordered the coarse-way-down: ``P <= Q`` holds when every
block of ``Q`` lies inside a block of ``P`` (``Q`` refines ``P``), so the
trivial one-block partition is the bottom and the singleton partition the
top.  Every operation works on ``Partition.ids``, the block index of each
element in universe order: join groups the elements by their pair of ids,
and meet joins the blocks of one partition that a block of the other links.

Conditional independence of two partitions given a third asks that within
every conditioning block, compatible block pairs actually intersect; two
partitions commute when they are independent given their meet.  A seeded
checker tests the quasi-separoid conditions over families of partitions.

All values are immutable and canonically ordered, so equality is
structural and output deterministic.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property, partial
from typing import Callable, Hashable, Iterable, Sequence

from .errors import DomainError, Frozen, MismatchError
from .reports import CheckReport, run_law

Label = Hashable


class Universe(Frozen):
    def __init__(self, elements: tuple[Label, ...]):
        if not elements:
            raise DomainError("universe must be nonempty")
        if len(set(elements)) != len(elements):
            raise DomainError("universe labels must be distinct")
        object.__setattr__(self, "elements", elements)

    def _key(self) -> tuple:
        return (self.elements,)

    @cached_property
    def position(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)


class Partition(Frozen):
    def __init__(self, universe: Universe, blocks: tuple[tuple[Label, ...], ...]):
        pos = universe.position
        seen: set = set()
        canonical = []
        for block in blocks:
            if not block:
                raise DomainError("empty block")
            for e in block:
                if e not in pos:
                    raise DomainError(f"unknown element {e!r}")
                if e in seen:
                    raise DomainError(f"element {e!r} appears in two blocks")
                seen.add(e)
            canonical.append(tuple(sorted(block, key=pos.__getitem__)))
        if len(seen) != len(universe):
            raise DomainError("blocks do not cover the universe")
        canonical.sort(key=lambda b: pos[b[0]])
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "blocks", tuple(canonical))

    def _key(self) -> tuple:
        return (self.universe, self.blocks)

    @classmethod
    def of(cls, universe: Universe, blocks: Iterable[Iterable[Label]]) -> "Partition":
        return cls(universe, tuple(tuple(b) for b in blocks))

    @classmethod
    def trivial(cls, universe: Universe) -> "Partition":
        return cls(universe, (universe.elements,))

    @classmethod
    def singletons(cls, universe: Universe) -> "Partition":
        return cls(universe, tuple((e,) for e in universe.elements))

    @cached_property
    def ids(self) -> tuple[int, ...]:
        """Each element's block index, in universe order (a restricted growth string)."""
        block = {e: i for i, b in enumerate(self.blocks) for e in b}
        return tuple(block[e] for e in self.universe.elements)

    def __str__(self) -> str:
        return " ".join("{" + " ".join(str(e) for e in b) + "}" for b in self.blocks)


def _from_keys(universe: Universe, keys: Iterable[Hashable]) -> Partition:
    """Group the elements of the universe by their keys, given in universe order."""
    groups: dict = {}
    for e, k in zip(universe.elements, keys):
        groups.setdefault(k, []).append(e)
    return Partition.of(universe, groups.values())


def partition_by(universe: Universe, key: Callable[[Label], Hashable]) -> Partition:
    """Group the universe by a key function (e.g. a coordinate projection)."""
    return _from_keys(universe, map(key, universe.elements))


def _same_universe(*parts: Partition):
    u = parts[0].universe
    for p in parts[1:]:
        if p.universe != u:
            raise MismatchError("partitions over different universes")


def partition_leq(coarse: Partition, fine: Partition) -> bool:
    """True when every block of ``fine`` lies inside a block of ``coarse``.

    That is, each id of ``fine`` goes with one id of ``coarse``.
    """
    _same_universe(coarse, fine)
    to_coarse: dict = {}
    return all(to_coarse.setdefault(f, c) == c for f, c in zip(fine.ids, coarse.ids))


def partition_join(p1: Partition, p2: Partition) -> Partition:
    """Common refinement: the nonempty pairwise block intersections."""
    _same_universe(p1, p2)
    return _from_keys(p1.universe, zip(p1.ids, p2.ids))


def saturate(p: Partition, xs: Iterable[Label]) -> frozenset:
    """Smallest union of blocks of ``p`` covering ``xs``."""
    pos = p.universe.position
    ids = set()
    for e in xs:
        if e not in pos:
            raise DomainError(f"unknown element {e!r}")
        ids.add(p.ids[pos[e]])
    return frozenset(e for e, i in zip(p.universe.elements, p.ids) if i in ids)


def partition_meet(p1: Partition, p2: Partition) -> Partition:
    """Finest common coarsening.

    Its blocks are the connected components of the blocks of ``p1``, two
    of them linked when a block of ``p2`` meets both (union-find).
    """
    _same_universe(p1, p2)
    parent = list(range(len(p1.blocks)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    linked: dict = {}  # id in p2 -> the id in p1 of its first element
    for a, b in zip(p1.ids, p2.ids):
        ra, rb = root(a), root(linked.setdefault(b, a))
        parent[max(ra, rb)] = min(ra, rb)
    return _from_keys(p1.universe, map(root, p1.ids))


def partitions_commute(p1: Partition, p2: Partition) -> bool:
    """Do the two saturation operators commute?

    They do exactly when the partitions are conditionally independent
    given their meet: inside every block of the meet, every block of
    ``p1`` meets every block of ``p2``.
    """
    return cond_indep_partitions(p1, p2, partition_meet(p1, p2))


def cond_indep_partitions(p1: Partition, p2: Partition, p: Partition) -> bool:
    """Within every block of ``p``, compatible block pairs must intersect.

    That is, the pairs of ids of ``p1`` and ``p2`` met inside the block are
    every pair of an id of ``p1`` seen there with an id of ``p2`` seen there.
    """
    _same_universe(p1, p2, p)
    met: dict = {}  # id in p -> the (id in p1, id in p2) pairs of its elements
    for c, a, b in zip(p.ids, p1.ids, p2.ids):
        met.setdefault(c, set()).add((a, b))
    return all(
        len(pairs) == len({a for a, _ in pairs}) * len({b for _, b in pairs})
        for pairs in met.values()
    )


def lattice_cond_indep(p1: Partition, p2: Partition, p: Partition) -> bool:
    """The lattice form of the relation: meet(join(p1,p), join(p2,p)) == p."""
    return partition_meet(partition_join(p1, p), partition_join(p2, p)) == p


def all_partitions(universe: Universe) -> list[Partition]:
    """Every partition of the universe (use only for small universes).

    The id vectors come in lexicographic order: each element joins a
    block already opened or opens the next one.
    """
    out: list[tuple[int, ...]] = [()]
    for _ in universe.elements:
        out = [ids + (i,) for ids in out for i in range(max(ids, default=-1) + 2)]
    return [_from_keys(universe, ids) for ids in out]


def _triple_witness(k: int, xyz: tuple) -> str:
    x, y, z = xyz
    return f"x=[{x}] y=[{y}] z=[{z}]"


def check_qseparoid(
    parts: Sequence[Partition],
    exhaustive_limit: int = 200_000,
    seed: int = 0,
    indep: Callable[[Partition, Partition, Partition], bool] | None = None,
) -> CheckReport:
    """Check the conditional-independence conditions over a family.

    The family must be closed under join.  Triples are enumerated
    exhaustively when ``len(parts) ** 3`` stays within
    ``exhaustive_limit``, otherwise a seeded random sample of that many
    triples is drawn; the mode and seed are recorded in the report.
    ``indep`` replaces the independence relation under test (a hook for
    deliberately broken relations); it must be a pure function, as it is
    called at most once per triple of family members and the answer reused.
    The laws run on member indices, over the family's join and order
    tables.
    """
    parts = list(dict.fromkeys(parts))
    if not parts:
        raise DomainError("empty partition family")
    _same_universe(*parts)
    rel = indep if indep is not None else cond_indep_partitions

    n = len(parts)
    members = range(n)
    number = {p: i for i, p in enumerate(parts)}
    join = [[0] * n for _ in members]  # join[i][j]: index of parts[i] v parts[j]
    for i, j in itertools.combinations_with_replacement(members, 2):
        k = number.get(partition_join(parts[i], parts[j]))
        if k is None:
            raise DomainError(
                f"family is not join-closed: join of [{parts[i]}] and [{parts[j]}] "
                "is missing"
            )
        join[i][j] = join[j][i] = k
    leq = [[partition_leq(w, y) for y in parts] for w in parts]  # leq[w][y]: w <= y
    coarser = [[w for w in members if leq[w][y]] for y in members]

    known: dict[tuple[int, int, int], bool] = {}

    def indep_at(x: int, y: int, z: int) -> bool:
        key = (x, y, z)
        answer = known.get(key)
        if answer is None:
            answer = known[key] = bool(rel(parts[x], parts[y], parts[z]))
        return answer

    exhaustive = n**3 <= exhaustive_limit
    rng = random.Random(seed)
    if exhaustive:
        triples = list(itertools.product(members, repeat=3))
    else:
        triples = [
            (rng.choice(members), rng.choice(members), rng.choice(members))
            for _ in range(exhaustive_limit)
        ]

    def c3(x, y, z):
        if not indep_at(x, y, z):
            return True
        ws = (coarser[y] if exhaustive
              else [w for w in rng.sample(members, min(4, n)) if leq[w][y]])
        return all(indep_at(x, w, z) for w in ws)

    def witness(k: int, xyz: tuple) -> str:
        return _triple_witness(k, tuple(parts[i] for i in xyz))

    law = partial(run_law, trials=triples, witness=witness)
    laws = (
        law("C1-self-conditioning", lambda x, y, z: indep_at(x, y, y)),
        law("C2-symmetry", lambda x, y, z: not indep_at(x, y, z) or indep_at(y, x, z)),
        law("C3-coarsening", c3),
        law("C4-join-absorption",
            lambda x, y, z: not indep_at(x, y, z) or indep_at(x, join[y][z], z)),
        law("basic", lambda x, y, z: not indep_at(x, x, y) or leq[x][y]),
    )
    return CheckReport(
        subject="partition q-separoid",
        seed=seed,
        samples=len(triples),
        laws=laws,
        details=(
            f"family size {n}, {'exhaustive' if exhaustive else 'sampled'} triples",
        ),
    )
