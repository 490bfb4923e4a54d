"""The partition lattice of a finite universe.

Partitions are ordered the coarse-way-down: ``P <= Q`` holds when every
block of ``Q`` lies inside a block of ``P`` (``Q`` refines ``P``), so the
trivial one-block partition is the bottom and the singleton partition the
top.  Join is the common refinement by nonempty block intersections; meet
is the finest common coarsening, computed by closing singletons under the
two saturation operators.

Conditional independence of two partitions given a third asks that within
every conditioning block, compatible block pairs actually intersect; a
seeded checker tests the quasi-separoid conditions over families of
partitions.

All values are immutable and canonically ordered, so equality is
structural and output deterministic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Hashable, Iterable, Sequence

from .errors import DomainError, MismatchError
from .reports import CheckReport, run_law

Label = Hashable


@dataclass(frozen=True)
class Universe:
    elements: tuple[Label, ...]

    def __post_init__(self):
        if not self.elements:
            raise DomainError("universe must be nonempty")
        if len(set(self.elements)) != len(self.elements):
            raise DomainError("universe labels must be distinct")

    @cached_property
    def position(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Partition:
    universe: Universe
    blocks: tuple[tuple[Label, ...], ...]

    def __post_init__(self):
        pos = self.universe.position
        seen: set = set()
        canonical = []
        for block in self.blocks:
            if not block:
                raise DomainError("empty block")
            for e in block:
                if e not in pos:
                    raise DomainError(f"unknown element {e!r}")
                if e in seen:
                    raise DomainError(f"element {e!r} appears in two blocks")
                seen.add(e)
            canonical.append(tuple(sorted(block, key=pos.__getitem__)))
        if len(seen) != len(self.universe):
            raise DomainError("blocks do not cover the universe")
        canonical.sort(key=lambda b: pos[b[0]])
        object.__setattr__(self, "blocks", tuple(canonical))

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
    def block_of(self) -> dict:
        out = {}
        for i, block in enumerate(self.blocks):
            for e in block:
                out[e] = i
        return out

    @cached_property
    def block_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(b) for b in self.blocks)

    def __str__(self) -> str:
        return " ".join("{" + " ".join(str(e) for e in b) + "}" for b in self.blocks)


def partition_by(universe: Universe, key: Callable[[Label], Hashable]) -> Partition:
    """Group the universe by a key function (e.g. a coordinate projection)."""
    groups: dict = {}
    for e in universe.elements:
        groups.setdefault(key(e), []).append(e)
    return Partition.of(universe, groups.values())


def _same_universe(*parts: Partition):
    u = parts[0].universe
    for p in parts[1:]:
        if p.universe != u:
            raise MismatchError("partitions over different universes")


def partition_leq(coarse: Partition, fine: Partition) -> bool:
    """True when every block of ``fine`` lies inside a block of ``coarse``."""
    _same_universe(coarse, fine)
    lookup = coarse.block_of
    for block in fine.blocks:
        first = lookup[block[0]]
        if any(lookup[e] != first for e in block[1:]):
            return False
    return True


def partition_join(p1: Partition, p2: Partition) -> Partition:
    """Common refinement: the nonempty pairwise block intersections."""
    _same_universe(p1, p2)
    groups: dict = {}
    b1, b2 = p1.block_of, p2.block_of
    for e in p1.universe.elements:
        groups.setdefault((b1[e], b2[e]), []).append(e)
    return Partition.of(p1.universe, groups.values())


def saturate(p: Partition, xs: Iterable[Label]) -> frozenset:
    """Smallest union of blocks of ``p`` covering ``xs``."""
    lookup = p.block_of
    ids = set()
    for e in xs:
        if e not in lookup:
            raise DomainError(f"unknown element {e!r}")
        ids.add(lookup[e])
    out: set = set()
    for i in ids:
        out.update(p.blocks[i])
    return frozenset(out)


def partition_meet(p1: Partition, p2: Partition) -> Partition:
    """Finest common coarsening via singleton closure.

    Alternating the two saturation operators on a singleton reaches a
    fixed point in at most ``len(universe)`` rounds; the fixed points are
    the meet's blocks.
    """
    _same_universe(p1, p2)
    blocks: dict[frozenset, None] = {}
    done: set = set()
    for e in p1.universe.elements:
        if e in done:
            continue
        x = frozenset([e])
        while True:
            nxt = saturate(p1, saturate(p2, x))
            if nxt == x:
                break
            x = nxt
        blocks[x] = None
        done.update(x)
    return Partition.of(p1.universe, blocks.keys())


def partitions_commute(p1: Partition, p2: Partition) -> bool:
    """Do the two saturation operators commute on every singleton?

    Saturations distribute over unions, so singleton agreement implies
    agreement on all subsets.
    """
    _same_universe(p1, p2)
    for e in p1.universe.elements:
        if saturate(p1, saturate(p2, [e])) != saturate(p2, saturate(p1, [e])):
            return False
    return True


def cond_indep_partitions(p1: Partition, p2: Partition, p: Partition) -> bool:
    """Within every block of ``p``, compatible block pairs must intersect."""
    _same_universe(p1, p2, p)
    for cond in p.block_sets:
        touching1 = [b for b in p1.block_sets if b & cond]
        touching2 = [b for b in p2.block_sets if b & cond]
        for b1 in touching1:
            shared = b1 & cond
            for b2 in touching2:
                if not shared & b2:
                    return False
    return True


def lattice_cond_indep(p1: Partition, p2: Partition, p: Partition) -> bool:
    """The lattice form of the relation: meet(join(p1,p), join(p2,p)) == p."""
    return partition_meet(partition_join(p1, p), partition_join(p2, p)) == p


def all_partitions(universe: Universe) -> list[Partition]:
    """Every partition of the universe (use only for small universes)."""
    elements = universe.elements
    out: list[list[list[Label]]] = [[]]
    for e in elements:
        grown = []
        for blocks in out:
            for i in range(len(blocks)):
                grown.append([b + [e] if j == i else list(b) for j, b in enumerate(blocks)])
            grown.append([list(b) for b in blocks] + [[e]])
        out = grown
    return [Partition.of(universe, blocks) for blocks in out]


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
