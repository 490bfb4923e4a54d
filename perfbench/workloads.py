"""Seeded model generators and the job list of each benchmark workload.

A workload is a fixed list of CLI jobs (one *pass*); the benchmark runs
whole passes.  The seed picks table values, focal sets, hypotheses, tree
shapes, element labels and the job order, never sizes or query positions,
so every seed gives a pass with the same shape and cost profile and runs
of different seeds stay comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("grid", "chain", "evidence", "laws")


@dataclass(frozen=True)
class Job:
    """One ``semival`` invocation; ``argv`` names the model relative to the work dir."""

    name: str
    argv: tuple[str, ...]

    @property
    def model(self) -> str:
        return self.argv[1]


@dataclass(frozen=True)
class Workload:
    files: dict[str, str]            # model file name -> text
    jobs: tuple[Job, ...]            # one pass, in run order
    oracle_jobs: tuple[Job, ...]     # small --oracle instances run at set-up


# -- model text helpers -------------------------------------------------------

def _catalog(variables: dict[str, tuple[str, ...]]) -> list[str]:
    out = ["catalog"]
    out += [f"  var {n} : " + " ".join(frame) for n, frame in variables.items()]
    out.append("end")
    return out


def _factor(name: str, names: list[str], values: list[str]) -> list[str]:
    return [f"factor {name} on " + " ".join(names), "  table " + " ".join(values), "end"]


def _masses(rng: random.Random, k: int) -> list[str]:
    """``k`` positive masses in thousandths that sum to exactly 1."""
    cuts = sorted(rng.sample(range(1, 1000), k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [1000])]
    return [f"{p / 1000:g}" for p in parts]


def _subset(rng: random.Random, configs: list[str], size: int) -> str:
    return " ".join(sorted(rng.sample(configs, size), key=configs.index))


def _frame_configs(frames: list[tuple[str, ...]]) -> list[str]:
    out = [()]
    for frame in frames:
        out = [c + (v,) for c in out for v in frame]
    return ["(" + " ".join(c) + ")" for c in out]


def _potential(rng: random.Random, name: str, names: list[str],
               frames: list[tuple[str, ...]], proper: int) -> list[str]:
    """A bpa with ``proper`` nonempty proper focal sets plus the full frame.

    The focal-set sizes are fixed and distinct (evenly spread over the
    frame), so the seed moves which configurations are chosen but not how
    much work a combination does.  The full frame keeps some mass on every
    potential, so no combination is ever totally conflicting.
    """
    configs = _frame_configs(frames)
    sizes = [(i + 1) * len(configs) // (proper + 1) for i in range(proper)]
    sets = [_subset(rng, configs, k) for k in sizes] + [" ".join(configs)]
    lines = [f"potential {name} on " + " ".join(names), "  kind bpa"]
    lines += [f"  focal {m} : {s}" for m, s in zip(_masses(rng, len(sets)), sets)]
    lines.append("end")
    return lines


# -- generators ---------------------------------------------------------------

TERNARY = ("0", "1", "2")
BINARY = ("0", "1")


def grid_model(side: int, rng: random.Random) -> str:
    """Arithmetic ``side`` x ``side`` grid of ternary variables, pairwise factors.

    The two queries sit on opposite corners of the main diagonal, so a job
    runs collect from one corner and distribute to reach the other.  (The
    other diagonal gives a different tree and about 20% less work, so it
    is not left to the seed.)
    """
    def var(i, j):
        return f"r{i:02d}c{j:02d}"
    lines = _catalog({var(i, j): TERNARY for i in range(side) for j in range(side)})
    lines.append("semiring arithmetic")
    k = 0
    for i in range(side):
        for j in range(side):
            for di, dj in ((0, 1), (1, 0)):
                if i + di < side and j + dj < side:
                    values = [f"{rng.uniform(0.5, 1.5):.4f}" for _ in range(9)]
                    lines += _factor(f"f{k}", [var(i, j), var(i + di, j + dj)], values)
                    k += 1
    lines += [f"query {var(0, 0)}", f"query {var(side - 1, side - 1)}"]
    return "\n".join(lines) + "\n"


def _chain_values(rng: random.Random, semiring: str, n: int) -> list[str]:
    if semiring == "boolean":
        values = ["1"] * n
        values[rng.randrange(n)] = "0"  # at most one forbidden pair: satisfiable
        return values
    if semiring == "tropical":
        return [str(rng.randint(-9, 9)) for _ in range(n)]  # integers add exactly
    return [f"{rng.uniform(0.25, 0.75):.4f}" for _ in range(n)]


def chain_model(length: int, semiring: str, rng: random.Random, queries: int = 8) -> str:
    """A path of ``length`` binary variables with a prior on the first one.

    The queries are evenly spaced; their positions shape the tree and the
    message schedule, so they are not left to the seed.
    """
    names = [f"x{i:03d}" for i in range(length)]
    lines = _catalog({n: BINARY for n in names})
    lines.append(f"semiring {semiring}")
    lines += _factor("prior", [names[0]], _chain_values(rng, semiring, 2))
    for i in range(length - 1):
        lines += _factor(f"f{i}", names[i:i + 2], _chain_values(rng, semiring, 4))
    step = length // queries
    lines += [f"query {names[q * step + step // 2]}" for q in range(queries)]
    return "\n".join(lines) + "\n"


def bpa_chain_model(length: int, rng: random.Random) -> str:
    """``length`` bpa potentials on consecutive pairs of binary variables."""
    names = [f"y{i:02d}" for i in range(length + 1)]
    lines = _catalog({n: BINARY for n in names})
    for i in range(length):
        lines += _potential(rng, f"w{i}", names[i:i + 2], [BINARY, BINARY], 2)
    lines += [f"query {names[i]}" for i in (0, length // 2, length)]
    return "\n".join(lines) + "\n"


def dempster_model(variables: int, proper: int, rng: random.Random) -> str:
    """Overlapping bpa potentials whose union frame is 2^``variables``.

    Each potential covers a window of four variables; consecutive windows
    share one variable.  Three hypotheses sit on one or two variables.
    """
    names = [f"z{i}" for i in range(variables)]
    lines = _catalog({n: BINARY for n in names})
    starts = list(range(0, variables - 1, 3))
    for k, s in enumerate(starts):
        window = names[s:s + 4]
        lines += _potential(rng, f"e{k}", window, [BINARY] * len(window), proper)
    for k in range(3):
        dom = sorted(rng.sample(names, 1 + k % 2))
        configs = _frame_configs([BINARY] * len(dom))
        cfg = _subset(rng, configs, rng.randint(1, len(configs) - 1))
        lines.append(f"hypothesis h{k} on " + " ".join(dom) + f" : {cfg}")
    return "\n".join(lines) + "\n"


def moebius_model(rng: random.Random) -> str:
    """Potentials on frames of 12 and 8 configurations (2^12 and 2^8 subsets)."""
    four = ("a", "b", "c", "d")
    lines = _catalog({"p": TERNARY, "q": four, "s": BINARY})
    lines += _potential(rng, "m12", ["p", "q"], [TERNARY, four], 5)
    lines += _potential(rng, "m8", ["q", "s"], [four, BINARY], 4)
    return "\n".join(lines) + "\n"


def semiring_model(semiring: str) -> str:
    return "\n".join(_catalog({"v": BINARY}) + [f"semiring {semiring}"]) + "\n"


def _join_tree(nodes: int, rng: random.Random) -> tuple[list[int], list[set[str]]]:
    """Parents and labels of a random join tree rooted at node 0.

    Every edge carries its own variable, held by both ends, and every
    third one also reaches the grandparent, so running intersection is
    exercised along paths longer than one edge.  Parents are at most eight
    numbers back, which keeps the depth moderate.
    """
    parent = [-1] + [rng.randrange(max(0, i - 8), i) for i in range(1, nodes)]
    labels = [{f"n{v:03d}"} for v in range(nodes)]
    for v in range(1, nodes):
        e = f"e{v:03d}"
        labels[v].add(e)
        labels[parent[v]].add(e)
        if v % 3 == 0 and parent[v] > 0:
            labels[parent[parent[v]]].add(e)
    return parent, labels


def tree_model(nodes: int, rng: random.Random) -> str:
    parent, labels = _join_tree(nodes, rng)
    lines = _catalog({n: BINARY for n in sorted(set().union(*labels))})
    lines.append("tree t")
    lines += [f"  node {v} : " + " ".join(sorted(labels[v])) for v in range(nodes)]
    lines += [f"  edge {parent[v]} {v}" for v in range(1, nodes)]
    lines.append("end")
    return "\n".join(lines) + "\n"


def sequence_model(steps: int, rng: random.Random) -> str:
    """A join tree numbered leaves-first: a hypertree construction sequence."""
    parent, labels = _join_tree(steps, rng)
    pos = {v: steps - 1 - v for v in range(steps)}  # parents precede their children
    lines = _catalog({n: BINARY for n in sorted(set().union(*labels))})
    lines.append("sequence s")
    for v in range(steps - 1, 0, -1):
        lines.append("  step " + " ".join(sorted(labels[v])) + f" -> {pos[parent[v]] + 1}")
    lines.append("  step " + " ".join(sorted(labels[0])))
    lines.append("end")
    return "\n".join(lines) + "\n"


def partitions_model(size: int, rng: random.Random) -> str:
    """A join-closed partition family on a ``size``-element universe.

    The family is the join-closure (common refinements) of fixed
    generators: for four elements the trivial and all two-block
    partitions, which close to all 15 partitions.  The seed only relabels
    the elements, so every seed gives an isomorphic family of equal size.
    """
    labels = [str(x) for x in rng.sample(range(10, 100), size)]
    gens = PARTITION_GENERATORS[size]
    family = _join_closure([tuple(map(frozenset, g)) for g in gens])
    lines = _catalog({"v": BINARY})
    lines.append("universe u : " + " ".join(labels))
    for k, blocks in enumerate(sorted(family, key=lambda p: sorted(map(sorted, p)))):
        text = " ".join("{" + " ".join(labels[e] for e in sorted(b)) + "}" for b in blocks)
        lines.append(f"partition p{k} of u : {text}")
    return "\n".join(lines) + "\n"


PARTITION_GENERATORS = {
    4: [[[0, 1, 2, 3]], [[0], [1, 2, 3]], [[1], [0, 2, 3]], [[2], [0, 1, 3]],
        [[3], [0, 1, 2]], [[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]],
    5: [[[0, 1, 2, 3, 4]], [[0, 1], [2, 3, 4]], [[0, 2], [1, 3, 4]], [[0, 1, 2], [3, 4]]],
}


def _join_closure(gens: list[tuple[frozenset, ...]]) -> set[tuple[frozenset, ...]]:
    def canon(blocks):
        return tuple(sorted((b for b in blocks if b), key=min))
    family = {canon(g) for g in gens}
    while True:
        joins = {canon([a & b for a in p for b in q]) for p in family for q in family}
        if joins <= family:
            return family
        family |= joins


# -- workloads ----------------------------------------------------------------

def _solve(name: str, model: str, *flags: str) -> Job:
    return Job(name, ("solve", model) + flags)


def build(workload: str, seed: int) -> Workload:
    """Models, the pass's jobs and the set-up oracle jobs of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}
    jobs: list[Job] = []
    oracle: list[Job] = []
    if workload == "grid":
        for side in (6, 7, 8, 8, 8):
            name = f"grid{side}-{len(jobs)}.sv"
            files[name] = grid_model(side, rng)
            jobs.append(_solve(f"grid{side}", name))
        files["grid-small.sv"] = grid_model(3, rng)
        oracle.append(_solve("grid3-oracle", "grid-small.sv", "--oracle"))
    elif workload == "chain":
        # lengths chosen so the three kinds of job take about equally long
        for length, semiring in ((500, "boolean"), (500, "tropical"), (400, "arithmetic")):
            name = f"chain-{semiring}.sv"
            files[name] = chain_model(length, semiring, rng)
            jobs.append(_solve(f"chain{length}-{semiring}", name))
            small = f"chain-{semiring}-small.sv"
            files[small] = chain_model(12, semiring, rng, queries=4)
            oracle.append(_solve(f"chain12-{semiring}-oracle", small, "--oracle"))
    elif workload == "evidence":
        for length in (20, 40):
            name = f"bpa-chain{length}.sv"
            files[name] = bpa_chain_model(length, rng)
            jobs.append(_solve(f"bpa-chain{length}", name))
        files["dempster.sv"] = dempster_model(10, 4, rng)
        for op in ("combine", "support", "plausibility"):
            jobs.append(Job(f"dempster10-{op}", ("evidence", "dempster.sv", "--op", op)))
        files["moebius.sv"] = moebius_model(rng)
        jobs.append(Job("moebius12", ("evidence", "moebius.sv", "--op", "moebius")))
        files["bpa-small.sv"] = bpa_chain_model(4, rng)
        oracle.append(_solve("bpa-chain4-oracle", "bpa-small.sv", "--oracle"))
    elif workload == "laws":
        check_seed = str(rng.randrange(1_000_000))
        for sr in ("boolean", "arithmetic", "tropical"):
            name = f"semiring-{sr}.sv"
            files[name] = semiring_model(sr)
            jobs.append(Job(f"semiring-{sr}", ("check", name, "--what", "semiring",
                                               "--samples", "20000", "--seed", check_seed)))
        for sr in ("boolean", "arithmetic"):
            jobs.append(Job(f"axioms-{sr}", ("check", f"semiring-{sr}.sv", "--what",
                                             "valuation-axioms", "--samples", "200",
                                             "--seed", check_seed)))
        for size in (4, 5):
            name = f"partitions{size}.sv"
            files[name] = partitions_model(size, rng)
            jobs.append(Job(f"qseparoid{size}", ("check", name, "--what", "qseparoid",
                                                 "--seed", check_seed)))
        files["tree.sv"] = tree_model(300, rng)
        jobs.append(Job("tree300", ("check", "tree.sv", "--what", "tree")))
        files["sequence.sv"] = sequence_model(300, rng)
        jobs.append(Job("sequence300", ("check", "sequence.sv", "--what", "sequence")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = list(range(len(jobs)))
    rng.shuffle(order)
    return Workload(files, tuple(jobs[i] for i in order), tuple(oracle))
