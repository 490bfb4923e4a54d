"""Batch command line: solve, check, evidence, render.

One command per invocation; the model comes from a file path or standard
input (``-``).  Reports are written to standard output and are
byte-identical for identical inputs, flags and seed; wall-clock timing
goes to standard error only.  Exit codes: 0 success, 1 check failure,
2 usage or parse error, 3 capability error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from typing import TYPE_CHECKING

from .compare import Comparator, DEFAULT_COMPARATOR
from .domains import DEFAULT_CONFIG_CAP, Domain
from .errors import CapabilityError, DomainError, ParseError, SemivalError
from .model import Model, focal_texts, parse_model, render_model
from .semiring import format_value

if TYPE_CHECKING:  # each command imports the modules it runs
    from .belief import SetPotential

VERSION = "0.1.0"


def _potential_lines(model: Model, pot: SetPotential, prefix: str) -> list[str]:
    texts = focal_texts(model.catalog, [fs for fs, _ in pot.focal])
    return [f"{prefix}{{{text}}}: {format_value(mass)}"
            for text, (_, mass) in zip(texts, pot.focal)]


def _queries(model: Model, args) -> list[Domain]:
    if args.query is None:
        return model.queries
    queries = []
    for q in args.query:
        try:
            queries.append(model.catalog.domain(*q.replace(",", " ").split()))
        except DomainError as exc:
            raise ParseError(f"bad --query {q!r}: {exc}") from None
    return queries


def cmd_solve(model: Model, args, comparator: Comparator) -> tuple[list[str], int]:
    from . import treecomp as tc
    queries = _queries(model, args)
    if not queries:
        raise ParseError("no query: add 'query VAR...' stanzas or pass --query")
    lines = [f"heuristic: {args.heuristic}", f"seed: {args.seed}"]

    if model.factors or not model.potentials:
        sr = model.semiring(comparator)
        ops = tc.ValuationOps(model.catalog, sr, cap=args.cap)
        factors = [v for _, v in model.factors]
        lines.insert(0, f"semiring: {sr.name}")

        def answer_lines(q: Domain, answer) -> list[str]:
            body = " ".join(map(format_value, answer.table))
            return [f"result {q}: {body}"]

        if not sr.idempotent_add:
            covered = tc.join_of([f.domain for f in factors])
            for q in queries:
                if not q <= covered:
                    raise CapabilityError(
                        f"query {q} leaves the factor domain "
                        f"{covered}; {sr.name} has no transport"
                    )
    else:
        ops = tc.SetPotentialOps(model.catalog, cap=args.cap)
        factors = [p for _, p in model.potentials]
        lines.insert(0, "semiring: none (set potentials)")

        def answer_lines(q: Domain, answer) -> list[str]:
            return [f"result {q}:",
                    *_potential_lines(model, answer, "  focal ")]

    if model.trees:
        named = model.trees[0]
        tree = named.structure([n for n, _ in (model.factors or model.potentials)])
        lines.append(f"tree: {named.name} ({len(tree)} nodes, given)")
    else:
        tree = tc.build_covering_join_tree(
            [f.domain for f in factors],
            heuristic=args.heuristic,
            cover=queries,
        )
        lines.append(f"tree: built ({len(tree)} nodes)")
    for i, label in enumerate(tree.labels):
        lines.append(f"node {i}: {label}")
    for a, b in tree.edges:
        lines.append(f"edge {a} {b}")

    root = args.root if args.root is not None else tc.default_root(tree, queries[0])
    if not 0 <= root < len(tree):
        raise ParseError(f"--root {root} out of range")
    lines.append(f"root: {root}")

    result, store = tc.collect(tree, factors, root, ops)
    at = [tc.default_root(tree, q) for q in queries]
    away = list(dict.fromkeys(v for v in at if v != root))
    local = dict(zip(away, tc.distribute(tree, store, ops, nodes=away)))
    local[root] = result
    for q, v in zip(queries, at):
        answer = ops.solve_to(local[v], q)
        lines.extend(answer_lines(q, answer))
        if args.oracle:
            dev = ops.deviation(answer, tc.naive_solve(factors, q, ops))
            lines.append(f"oracle deviation {q}: {format_value(dev)}")
    lines.append("status: ok")
    return lines, 0


def cmd_check(model: Model, args, comparator: Comparator) -> tuple[list[str], int]:
    what = args.what
    lines: list[str] = []
    ok = True
    if what == "semiring":
        from .semiring import check_semiring_axioms
        sr = model.semiring(comparator)
        samples = 10_000 if args.samples is None else args.samples
        report = check_semiring_axioms(sr, samples=samples, seed=args.seed)
        lines.extend(report.lines())
        ok = report.passed
    elif what == "valuation-axioms":
        from .valuation import check_valuation_axioms
        sr = model.semiring(comparator)
        samples = 100 if args.samples is None else args.samples
        report = check_valuation_axioms(sr, samples=samples, seed=args.seed)
        lines.extend(report.lines())
        ok = report.passed
    elif what == "qseparoid":
        if not model.partitions:
            raise ParseError("model has no partition stanzas")
        from .partitions import check_qseparoid
        report = check_qseparoid([p for _, p in model.partitions], seed=args.seed)
        lines.extend(report.lines())
        ok = report.passed
    elif what == "tree":
        if not model.trees:
            raise ParseError("model has no tree stanza")
        from . import treecomp as tc
        named = model.trees[0]
        tree = named.structure()
        # on subset-lattice labels the Markov property is the join-tree property
        jt = tc.is_join_tree(tree)
        lines.append(f"tree {named.name}: {len(tree)} nodes")
        lines.append(f"join-tree: {'yes' if jt else 'no'}")
        lines.append(f"markov-tree: {'yes' if jt else 'no'}")
        lines.append(f"result: {'pass' if jt else 'FAIL'}")
        ok = jt
    elif what == "sequence":
        if not model.sequences:
            raise ParseError("model has no sequence stanza")
        name, seq = model.sequences[0]
        lines.append(f"sequence {name}: {len(seq)} steps")
        from .treecomp import first_sequence_violation
        bad = first_sequence_violation(seq)
        if bad is None:
            lines.append("valid: yes")
            lines.append("result: pass")
        else:
            lines.append(f"valid: no (violated at step {bad + 1})")
            lines.append("result: FAIL")
            ok = False
    return lines, 0 if ok else 1


def _combined_potential(model: Model, comparator: Comparator,
                        cap: int) -> SetPotential:
    from .belief import dempster_combine
    pots = [p for _, p in model.potentials]
    if not pots:
        raise ParseError("model has no potential stanzas")
    if len(pots) == 1:
        return pots[0]
    return dempster_combine(*pots, comparator=comparator, cap=cap)


def cmd_evidence(model: Model, args, comparator: Comparator) -> tuple[list[str], int]:
    from . import belief as bf
    op = args.op
    lines: list[str] = []
    if op == "combine":
        combined = _combined_potential(model, comparator, args.cap)
        names = " * ".join(n for n, _ in model.potentials)
        lines.append(f"combined: {names}")
        lines.append(f"conflict: {format_value(combined.conflict)}")
        lines.extend(_potential_lines(model, combined, "focal "))
    elif op in ("support", "plausibility"):
        if not model.hypotheses:
            raise ParseError("model has no hypothesis stanzas")
        combined = _combined_potential(model, comparator, args.cap)
        texts = focal_texts(model.catalog, [h for _, h in model.hypotheses])
        for (name, h), text in zip(model.hypotheses, texts):
            pot = combined
            if h.domain != combined.domain:
                pot = bf.transport_potential(combined, h.domain, cap=args.cap)
            tag = f"hypothesis {name} {{{text}}}"
            if op == "support":
                qsp, sp = bf.degree_of_support(pot, h, comparator)
                lines.append(
                    f"{tag}: qsp {format_value(qsp)} sp {format_value(sp)} (normalized)"
                )
            else:
                pl = bf.degree_of_plausibility(pot, h, comparator)
                _, sp_c = bf.degree_of_support(pot, h.complement(), comparator)
                lines.append(
                    f"{tag}: pl {format_value(pl)} dual {format_value(1.0 - sp_c)}"
                )
    elif op == "moebius":
        cap = bf.DEFAULT_SUBSET_CAP if args.subset_cap is None else args.subset_cap
        for name, pot in model.potentials:
            btable, qtable = bf.subset_tables(pot, cap)
            lines.append(f"moebius {name} {pot.domain}: {len(btable)} subsets")
            singletons = [bf.FocalSet(pot.catalog, pot.domain, 1 << i)
                          for i in range(pot.catalog.config_count(pot.domain))]
            texts = focal_texts(model.catalog, singletons)
            # depth first over member indices: configurations are numbered
            # in tuple order, so subsets come in the order of their tuples
            stack = [(0, "", 0)]
            while stack:
                mask, text, first = stack.pop()
                lines.append(f"  b {{{text}}}: {format_value(btable[mask])}"
                             f"  q {{{text}}}: {format_value(qtable[mask])}")
                stack.extend((mask | 1 << i, f"{text} {texts[i]}" if text else texts[i], i + 1)
                             for i in reversed(range(first, len(texts))))
            for label, invert, table in (("belief", bf.belief_to_mass, btable),
                                         ("commonality", bf.commonality_to_mass, qtable)):
                back = invert(model.catalog, pot.domain, table, cap=cap, comparator=comparator)
                dev = bf.mass_deviation(pot, back)
                lines.append(f"  roundtrip {label}: max deviation {format_value(dev)}")
    lines.append("status: ok")
    return lines, 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semival",
        description="local computation over semiring valuations and set potentials",
    )
    p.add_argument("--version", action="version", version=f"semival {VERSION}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("model", help="model file path, or - for stdin")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--cap", type=int, default=DEFAULT_CONFIG_CAP,
                        help="configuration-count cap (default 2^24)")
        sp.add_argument("--tolerance", default=None, metavar="REL,ABS",
                        help="comparator tolerances (default 1e-9,1e-12)")

    sp = sub.add_parser("solve", help="combine factors and answer queries")
    common(sp)
    sp.add_argument("--query", action="append", default=None,
                    help="query domain, e.g. 'x y' (repeatable)")
    sp.add_argument("--root", type=int, default=None)
    sp.add_argument("--heuristic", choices=("min-degree", "min-fill"),
                    default="min-fill")
    sp.add_argument("--oracle", action="store_true",
                    help="also run the naive combine-then-extract oracle")

    sp = sub.add_parser("check", help="run law checkers against the model")
    common(sp)
    sp.add_argument("--what", required=True,
                    choices=("semiring", "valuation-axioms", "qseparoid",
                             "tree", "sequence"))
    sp.add_argument("--samples", type=int, default=None)

    sp = sub.add_parser("evidence", help="belief-function operations")
    common(sp)
    sp.add_argument("--op", required=True,
                    choices=("combine", "support", "plausibility", "moebius"))
    sp.add_argument("--subset-cap", type=int, default=None)  # belief.DEFAULT_SUBSET_CAP

    sp = sub.add_parser("render", help="print the canonical model text")
    common(sp)
    return p


def _comparator(text: str) -> Comparator:
    """``REL,ABS``: two finite, nonnegative tolerances."""
    try:
        rel, abs_ = map(float, text.split(","))
    except ValueError:
        raise ParseError(f"bad --tolerance {text!r}") from None
    if not all(math.isfinite(x) and x >= 0 for x in (rel, abs_)):
        raise ParseError(f"bad --tolerance {text!r}: parts must be finite and >= 0")
    return Comparator(rel=rel, abs=abs_)


def _read_model(path: str) -> str:
    """The model text of a file, or of standard input for ``-``; UTF-8 only."""
    try:
        if path == "-":
            text = sys.stdin.read()
            text.encode("utf-8")  # undecodable stdin bytes arrive as lone surrogates
            return text
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc)) from None
    except UnicodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (position {exc.start})") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        comparator = DEFAULT_COMPARATOR
        if args.tolerance:
            comparator = _comparator(args.tolerance)
        # every domain has at least one configuration, and a check at least one draw
        for flag, n in (("--cap", args.cap),
                        ("--subset-cap", getattr(args, "subset_cap", None)),
                        ("--samples", getattr(args, "samples", None))):
            if n is not None and n < 1:
                raise ParseError(f"bad {flag} {n}: must be >= 1")
        text = _read_model(args.model)
        model = parse_model(text, comparator)
        if args.command == "solve":
            lines, code = cmd_solve(model, args, comparator)
        elif args.command == "check":
            lines, code = cmd_check(model, args, comparator)
        elif args.command == "evidence":
            lines, code = cmd_evidence(model, args, comparator)
        else:
            sys.stdout.write(render_model(model))
            return 0
    except ParseError as exc:
        print(f"semival: error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"semival: capability error: {exc}", file=sys.stderr)
        return 3
    except SemivalError as exc:
        print(f"semival: error: {exc}", file=sys.stderr)
        return 1
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    header = [
        f"semival {VERSION}",
        f"command: {args.command}",
        f"input: sha256:{digest}",
    ]
    sys.stdout.write("\n".join(header + lines) + "\n")
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0 if code == 0 else code


if __name__ == "__main__":
    sys.exit(main())
