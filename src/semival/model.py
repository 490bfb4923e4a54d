"""Line-oriented model files.

A model file declares a variable catalog, a semiring, factors (dense
tables) and/or set potentials (sparse focal lists), and optionally
partitions, trees, elimination sequences, queries and hypotheses.
Multi-line stanzas are closed by ``end``; ``#`` starts a comment.  Value
tables are flat lists in configuration-enumeration order; the tropical
null is spelled ``-inf``.  Rendering a parsed model produces a canonical
text that parses back to structurally equal objects.
"""

from __future__ import annotations

import math
from operator import getitem
from typing import TYPE_CHECKING

from .compare import DEFAULT_COMPARATOR, Comparator
from .domains import Domain, VariableCatalog
from .errors import ParseError
from .semiring import Semiring, format_value, get_instance

if TYPE_CHECKING:  # imported where a stanza needs them, so a command loads only its own
    from collections.abc import Sequence

    from .belief import FocalSet, SetPotential
    from .partitions import Partition, Universe
    from .treecomp import EliminationSequence, LabeledTree
    from .valuation import Valuation


class NamedTree:
    __slots__ = ("name", "labels", "edges", "assigned")

    def __init__(self, name: str, labels: tuple[Domain, ...],
                 edges: tuple[tuple[int, int], ...], assigned: dict[str, int] | None = None):
        self.name = name
        self.labels = labels
        self.edges = edges
        self.assigned = {} if assigned is None else assigned  # factor name -> node

    def __eq__(self, other):  # by value, so unhashable
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.labels, self.edges, self.assigned)
                == (other.name, other.labels, other.edges, other.assigned))

    def structure(self, factor_names: Sequence[str] = ()) -> LabeledTree:
        """The labeled tree, holding each named factor at its assigned node."""
        missing = [n for n in factor_names if n not in self.assigned]
        if missing:
            raise ParseError(
                f"tree {self.name!r} does not assign factors: {', '.join(missing)}"
            )
        from .treecomp import LabeledTree
        return LabeledTree(
            self.labels, self.edges, tuple(self.assigned[n] for n in factor_names)
        )


class Model:
    """What a model file declares; compared by value, so unhashable."""

    __slots__ = ("catalog", "semiring_name", "factors", "potentials", "universes",
                 "partitions", "trees", "sequences", "queries", "hypotheses",
                 "_semirings")

    def __init__(self, catalog: VariableCatalog, semiring_name: str | None = None,
                 factors: list[tuple[str, Valuation]] | None = None,
                 potentials: list[tuple[str, SetPotential]] | None = None,
                 universes: dict[str, Universe] | None = None,
                 partitions: list[tuple[str, Partition]] | None = None,
                 trees: list[NamedTree] | None = None,
                 sequences: list[tuple[str, EliminationSequence]] | None = None,
                 queries: list[Domain] | None = None,
                 hypotheses: list[tuple[str, FocalSet]] | None = None):
        self.catalog = catalog
        self.semiring_name = semiring_name
        self.factors = [] if factors is None else factors
        self.potentials = [] if potentials is None else potentials
        self.universes = {} if universes is None else universes
        self.partitions = [] if partitions is None else partitions
        self.trees = [] if trees is None else trees
        self.sequences = [] if sequences is None else sequences
        self.queries = [] if queries is None else queries
        self.hypotheses = [] if hypotheses is None else hypotheses
        self._semirings: dict[tuple[str, Comparator], Semiring] = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__slots__[:-1]  # the semiring cache is not compared
        return ([getattr(self, f) for f in fields]
                == [getattr(other, f) for f in fields])

    def semiring(self, comparator: Comparator = DEFAULT_COMPARATOR) -> Semiring:
        """The declared semiring: one shared instance per comparator.

        The parser builds every factor on the instance for its comparator,
        so a solve with the same comparator combines one ``Semiring`` object.
        """
        if self.semiring_name is None:
            raise ParseError("model declares no semiring")
        key = (self.semiring_name, comparator)
        if key not in self._semirings:
            self._semirings[key] = get_instance(*key)
        return self._semirings[key]


def _index(tok: str, line_no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected an integer index, got {tok!r}", line_no) from None


def _groups(text: str, brackets: str, what: str, line_no: int):
    """The tokens of each bracketed group of ``(a b) (c)`` or ``{a b} {c}``.

    A generator, so a bad group is reported before a later unbalanced one.
    """
    open_, close_ = brackets
    text = text.strip()
    while text:
        if not text.startswith(open_):
            raise ParseError(f"expected '{open_}' in {what}: {text!r}", line_no)
        end = text.find(close_)
        if end < 0:
            raise ParseError(f"unbalanced '{open_}' in {what}", line_no)
        yield text[1:end].split()
        text = text[end + 1:].strip()


def _parse_configs(cat: VariableCatalog, domain: Domain, text: str,
                   line_no: int) -> list[tuple[int, ...]]:
    """Parse ``(a b) (c d)`` into value-index tuples over ``domain``."""
    configs = []
    for labels in _groups(text, "()", "configuration list", line_no):
        if len(labels) != len(domain):
            raise ParseError(
                f"configuration ({' '.join(labels)}) has {len(labels)} values, "
                f"domain {domain} needs {len(domain)}", line_no,
            )
        values = []
        for name, lab in zip(domain.names, labels):
            frame = cat.frame(name)
            if lab not in frame:
                raise ParseError(
                    f"value {lab!r} not in frame of {name!r}", line_no
                )
            values.append(frame.index(lab))
        configs.append(tuple(values))
    return configs


class _Parser:
    def __init__(self, text: str, comparator: Comparator):
        self.lines = text.splitlines()
        self.pos = 0
        self.comparator = comparator
        self.catalog: VariableCatalog | None = None
        self.model: Model | None = None
        self.semiring_line: int | None = None
        self.declared: dict[str, int] = {}  # factor or potential name -> its line
        self.named_lines: dict[tuple[str, str], int] = {}  # (stanza, name) -> its line
        self.assign_lines: list[tuple[int, str, int, Domain]] = []  # (line, factor, node, label)

    def next_line(self) -> tuple[int, list[str]] | None:
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            body = raw.split("#", 1)[0].strip()
            if body:
                return self.pos, body.split()
        return None

    def block_lines(self):
        while True:
            item = self.next_line()
            if item is None:
                raise ParseError("unterminated stanza (missing 'end')", self.pos)
            if item[1] == ["end"]:
                return
            yield item

    def parse(self) -> Model:
        while True:
            item = self.next_line()
            if item is None:
                break
            line_no, toks = item
            head = toks[0]
            handler = getattr(self, f"_stanza_{head.replace('-', '_')}", None)
            if handler is None:
                raise ParseError(f"unknown stanza {head!r}", line_no)
            if self.model is None and head != "catalog":
                raise ParseError("the catalog stanza must come first", line_no)
            try:
                handler(line_no, toks)
            except Exception as exc:  # what a stanza declares is invalid
                if isinstance(exc, ParseError) and exc.line is not None:
                    raise
                raise ParseError(str(exc), line_no) from None
        if self.model is None:
            raise ParseError("model has no catalog stanza")
        domains = {n: v.domain for n, v in self.model.factors + self.model.potentials}
        for no, factor, node, label in self.assign_lines:
            if factor not in domains:
                raise ParseError(
                    f"assign names {factor!r}, which no factor or potential declares", no)
            if not domains[factor] <= label:
                raise ParseError(f"factor {factor!r} on {domains[factor]} not covered "
                                 f"by node {node} labeled {label}", no)
        return self.model

    # -- stanzas ------------------------------------------------------------

    def _stanza_catalog(self, line_no, toks):
        if self.model is not None:
            raise ParseError("duplicate catalog stanza", line_no)
        spec: dict[str, tuple[str, ...]] = {}
        for no, t in self.block_lines():
            if t[0] != "var" or len(t) < 4 or t[2] != ":":
                raise ParseError("expected 'var NAME : VALUE...'", no)
            if t[1] in spec:
                raise ParseError(f"duplicate variable {t[1]!r}", no)
            if len(set(t[3:])) != len(t) - 3:
                raise ParseError(f"variable {t[1]!r} has duplicate frame values", no)
            spec[t[1]] = tuple(t[3:])
        self.catalog = VariableCatalog.of(spec)
        self.model = Model(catalog=self.catalog)

    def _stanza_semiring(self, line_no, toks):
        if len(toks) != 2:
            raise ParseError("expected 'semiring NAME'", line_no)
        if self.semiring_line is not None:
            raise ParseError(
                f"duplicate semiring stanza (first at line {self.semiring_line})", line_no)
        self.semiring_line = line_no
        self.model.semiring_name = toks[1]
        self.model.semiring(self.comparator)  # validate early

    def _first_named(self, kind: str, name: str, line_no: int):
        """Record a named partition, tree, sequence or hypothesis stanza; a
        second one of that kind and name is an error at its line."""
        first = self.named_lines.setdefault((kind, name), line_no)
        if first != line_no:
            raise ParseError(f"duplicate {kind} {name!r} (first at line {first})", line_no)

    def _domain_from(self, names, line_no) -> Domain:
        try:
            return self.catalog.domain(*names)
        except Exception as exc:
            raise ParseError(str(exc), line_no) from None

    def _named_domain(self, toks, line_no) -> tuple[str, Domain]:
        """The ``NAME on VAR...`` head of a factor or potential stanza."""
        if len(toks) < 2 or (len(toks) > 2 and toks[2] != "on"):
            raise ParseError(f"expected '{toks[0]} NAME on VAR...'", line_no)
        name = toks[1]
        if name in self.declared:
            raise ParseError(
                f"name {name!r} is declared twice (first at line {self.declared[name]})",
                line_no)
        self.declared[name] = line_no
        return name, self._domain_from(toks[3:], line_no)

    def _stanza_factor(self, line_no, toks):
        model = self.model
        name, domain = self._named_domain(toks, line_no)
        sr = model.semiring(self.comparator)
        values = []
        for no, t in self.block_lines():
            if t[0] != "table":
                raise ParseError("expected 'table VALUE...'", no)
            for tok in t[1:]:
                try:
                    values.append(sr.parse(tok))
                except Exception as exc:
                    raise ParseError(str(exc), no) from None
        expected = self.catalog.config_count(domain, cap=None)  # the table bounds the work
        if len(values) != expected:
            raise ParseError(
                f"factor {name!r} table has {len(values)} values, "
                f"domain {domain} needs {expected}", line_no,
            )
        from .valuation import Valuation
        model.factors.append((name, Valuation(self.catalog, sr, domain, tuple(values))))

    def _stanza_potential(self, line_no, toks):
        name, domain = self._named_domain(toks, line_no)
        from . import belief as bf
        kind = bf.RAW
        items: list[tuple[bf.FocalSet, float]] = []
        for no, t in self.block_lines():
            if t[0] == "kind":
                if len(t) != 2 or t[1] not in (bf.RAW, bf.BPA):
                    raise ParseError("expected 'kind raw' or 'kind bpa'", no)
                kind = t[1]
            elif t[0] == "focal":
                rest = " ".join(t[1:])
                if ":" not in rest:
                    raise ParseError("expected 'focal MASS : (cfg) ...'", no)
                mass_text, cfg_text = rest.split(":", 1)
                try:
                    mass = float(mass_text)
                except ValueError:
                    raise ParseError(f"bad mass {mass_text.strip()!r}", no) from None
                if not math.isfinite(mass):
                    raise ParseError(
                        f"mass {mass_text.strip()!r} is not a finite number", no)
                configs = _parse_configs(self.catalog, domain, cfg_text, no)
                items.append((bf.FocalSet.of(self.catalog, domain, configs), mass))
            else:
                raise ParseError(f"unknown potential line {t[0]!r}", no)
        pot = bf.set_potential(self.catalog, domain, items, kind,
                               comparator=self.comparator)
        self.model.potentials.append((name, pot))

    def _stanza_universe(self, line_no, toks):
        model = self.model
        if len(toks) < 4 or toks[2] != ":":
            raise ParseError("expected 'universe NAME : ELEMENT...'", line_no)
        name = toks[1]
        if name in model.universes:
            raise ParseError(f"duplicate universe {name!r}", line_no)
        from .partitions import Universe
        model.universes[name] = Universe(tuple(toks[3:]))

    def _stanza_partition(self, line_no, toks):
        model = self.model
        if len(toks) < 5 or toks[2] != "of" or toks[4] != ":":
            raise ParseError(
                "expected 'partition NAME of UNIVERSE : {a b} {c}'", line_no
            )
        name = toks[1]
        self._first_named("partition", name, line_no)
        uni = model.universes.get(toks[3])
        if uni is None:
            raise ParseError(f"unknown universe {toks[3]!r}", line_no)
        rest = " ".join(toks[5:])
        blocks = [tuple(b) for b in _groups(rest, "{}", "block list", line_no)]
        from .partitions import Partition
        model.partitions.append((name, Partition.of(uni, blocks)))

    def _stanza_tree(self, line_no, toks):
        if len(toks) != 2:
            raise ParseError("expected 'tree NAME'", line_no)
        name = toks[1]
        self._first_named("tree", name, line_no)
        labels: dict[int, Domain] = {}
        edges: list[tuple[int, int]] = []
        assigns: list[tuple[int, str, int]] = []  # (line, factor, node)
        for no, t in self.block_lines():
            if t[0] == "node":
                if len(t) < 3 or t[2] != ":":
                    raise ParseError("expected 'node INDEX : VAR...'", no)
                idx = _index(t[1], no)
                if idx in labels:
                    raise ParseError(f"duplicate node {idx}", no)
                labels[idx] = self._domain_from(t[3:], no)
            elif t[0] == "edge":
                if len(t) != 3:
                    raise ParseError("expected 'edge A B'", no)
                edges.append((_index(t[1], no), _index(t[2], no)))
            elif t[0] == "assign":
                if len(t) != 3:
                    raise ParseError("expected 'assign FACTOR NODE'", no)
                assigns.append((no, t[1], _index(t[2], no)))
            else:
                raise ParseError(f"unknown tree line {t[0]!r}", no)
        if sorted(labels) != list(range(len(labels))):
            raise ParseError(f"tree {name!r} nodes must be 0..n-1", line_no)
        ordered = tuple(labels[i] for i in range(len(labels)))
        tree = NamedTree(name, ordered, tuple(edges), {f: n for _, f, n in assigns})
        tree.structure()  # validate shape now
        first: dict[str, int] = {}
        for no, factor, node in assigns:
            if not 0 <= node < len(labels):
                raise ParseError(f"factor {factor!r} assigned to missing node {node}", no)
            if factor in first:
                raise ParseError(
                    f"factor {factor!r} is assigned twice (first at line {first[factor]})", no)
            first[factor] = no
        self.assign_lines.extend((no, factor, node, ordered[node])
                                 for no, factor, node in assigns)
        self.model.trees.append(tree)

    def _stanza_sequence(self, line_no, toks):
        if len(toks) != 2:
            raise ParseError("expected 'sequence NAME'", line_no)
        name = toks[1]
        self._first_named("sequence", name, line_no)
        domains: list[Domain] = []
        pointers: list[int | None] = []  # None: no '-> K'
        for no, t in self.block_lines():
            if t[0] != "step":
                raise ParseError("expected 'step VAR... [-> K]'", no)
            if "->" in t:
                arrow = t.index("->")
                if arrow != len(t) - 2:
                    raise ParseError("pointer must end the step line", no)
                domains.append(self._domain_from(t[1:arrow], no))
                pointers.append(_index(t[-1], no) - 1)  # file is 1-based
            else:
                domains.append(self._domain_from(t[1:], no))
                pointers.append(None)
        if not domains:
            raise ParseError(f"sequence {name!r} is empty", line_no)
        if pointers[-1] is not None:
            raise ParseError("the last step takes no pointer", line_no)
        if None in pointers[:-1]:
            raise ParseError("every step but the last needs '-> K'", line_no)
        from .treecomp import EliminationSequence
        seq = EliminationSequence(tuple(domains), tuple(pointers[:-1]))
        self.model.sequences.append((name, seq))

    def _stanza_query(self, line_no, toks):
        self.model.queries.append(self._domain_from(toks[1:], line_no))

    def _stanza_hypothesis(self, line_no, toks):
        if len(toks) < 4 or toks[2] != "on":
            raise ParseError(
                "expected 'hypothesis NAME on VAR... : (cfg) ...'", line_no
            )
        self._first_named("hypothesis", toks[1], line_no)
        rest = " ".join(toks[3:])
        if ":" not in rest:
            raise ParseError("expected ':' before configurations", line_no)
        dom_text, cfg_text = rest.split(":", 1)
        domain = self._domain_from(dom_text.split(), line_no)
        configs = _parse_configs(self.catalog, domain, cfg_text, line_no)
        from .belief import FocalSet
        self.model.hypotheses.append((toks[1], FocalSet.of(self.catalog, domain, configs)))


def parse_model(text: str, comparator: Comparator = DEFAULT_COMPARATOR) -> Model:
    return _Parser(text, comparator).parse()


def focal_texts(cat: VariableCatalog, sets: Sequence[FocalSet]) -> list[str]:
    """Each focal set's configurations as ``(label ...) (label ...)``.

    The text of each distinct configuration is built once per call, and
    only for configurations that ``sets`` hold; a report makes one call for
    all the sets it prints.  Nothing is cached between calls.
    """
    if not sets:
        return []
    from .belief import FocalSet  # loaded already: ``sets`` are its instances
    held: dict[Domain, int] = {}
    for fs in sets:
        held[fs.domain] = held.get(fs.domain, 0) | fs.mask
    texts = {}
    for domain, mask in held.items():
        frames = [cat.frame(n) for n in domain.names]
        union = FocalSet(cat, domain, mask)
        texts[domain] = {i: "(" + " ".join(map(getitem, frames, values)) + ")"
                         for i, values in zip(union.indices, union.configs)}
    return [" ".join(map(texts[fs.domain].__getitem__, fs.indices)) for fs in sets]


def render_model(model: Model) -> str:
    """Canonical text form; parses back to structurally equal objects."""
    cat = model.catalog
    out = ["catalog"]
    for v in cat.variables:
        out.append(f"  var {v.name} : " + " ".join(v.frame))
    out.append("end")
    if model.semiring_name:
        out.append(f"semiring {model.semiring_name}")

    def head(kind: str, name: str, domain: Domain) -> str:
        return f"{kind} {name}" + (" on " + " ".join(domain.names) if domain else "")

    sets = [fs for _, pot in model.potentials for fs, _ in pot.focal]
    sets += [h for _, h in model.hypotheses]
    text_of = dict(zip(sets, focal_texts(cat, sets)))

    def after_colon(fs: FocalSet) -> str:
        return " :" + (" " + text_of[fs] if fs.mask else "")

    for name, val in model.factors:
        out.append(head("factor", name, val.domain))
        out.append("  table " + " ".join(map(format_value, val.table)))
        out.append("end")
    for name, pot in model.potentials:
        out.append(head("potential", name, pot.domain))
        out.append(f"  kind {pot.kind}")
        for fs, mass in pot.focal:
            out.append(f"  focal {format_value(mass)}" + after_colon(fs))
        out.append("end")
    for name, uni in model.universes.items():
        out.append(f"universe {name} : " + " ".join(str(e) for e in uni.elements))
    for name, part in model.partitions:
        out.append(f"partition {name} of "
                   f"{_universe_name(model, part.universe)} : {part}")
    for tree in model.trees:
        out.append(f"tree {tree.name}")
        for i, label in enumerate(tree.labels):
            out.append(f"  node {i} : " + " ".join(label.names))
        for a, b in tree.edges:
            out.append(f"  edge {a} {b}")
        for fname in sorted(tree.assigned):
            out.append(f"  assign {fname} {tree.assigned[fname]}")
        out.append("end")
    for name, seq in model.sequences:
        out.append(f"sequence {name}")
        for i, d in enumerate(seq.domains):
            line = "  step " + " ".join(d.names)
            if i < len(seq.b):
                line += f" -> {seq.b[i] + 1}"
            out.append(line)
        out.append("end")
    for q in model.queries:
        out.append(("query " + " ".join(q.names)).rstrip())
    for name, h in model.hypotheses:
        out.append(f"hypothesis {name} on " + " ".join(h.domain.names) + after_colon(h))
    return "\n".join(out) + "\n"


def _universe_name(model: Model, uni: Universe) -> str:
    """The universe that a partition's stanza named."""
    for name, u in model.universes.items():
        if u is uni:
            return name
    raise ParseError("partition references an undeclared universe")
