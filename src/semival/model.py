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

from dataclasses import dataclass, field

from . import belief as bf
from .compare import DEFAULT_COMPARATOR, Comparator
from .domains import Domain, VariableCatalog
from .errors import ParseError
from .partitions import Partition, Universe
from .semiring import Semiring, format_value, get_instance
from .treecomp import EliminationSequence, LabeledTree
from .valuation import Valuation


@dataclass
class NamedTree:
    name: str
    labels: tuple[Domain, ...]
    edges: tuple[tuple[int, int], ...]
    assigned: dict[str, int] = field(default_factory=dict)  # factor name -> node

    def structure(self) -> LabeledTree:
        return LabeledTree(self.labels, self.edges)

    def with_factors(self, factor_names: list[str]) -> LabeledTree:
        missing = [n for n in factor_names if n not in self.assigned]
        if missing:
            raise ParseError(
                f"tree {self.name!r} does not assign factors: {', '.join(missing)}"
            )
        return LabeledTree(
            self.labels, self.edges, tuple(self.assigned[n] for n in factor_names)
        )


@dataclass
class Model:
    catalog: VariableCatalog
    semiring_name: str | None = None
    factors: list[tuple[str, Valuation]] = field(default_factory=list)
    potentials: list[tuple[str, bf.SetPotential]] = field(default_factory=list)
    universes: dict[str, Universe] = field(default_factory=dict)
    partitions: list[tuple[str, Partition]] = field(default_factory=list)
    trees: list[NamedTree] = field(default_factory=list)
    sequences: list[tuple[str, EliminationSequence]] = field(default_factory=list)
    queries: list[Domain] = field(default_factory=list)
    hypotheses: list[tuple[str, bf.FocalSet]] = field(default_factory=list)

    def semiring(self, comparator: Comparator = DEFAULT_COMPARATOR) -> Semiring:
        if self.semiring_name is None:
            raise ParseError("model declares no semiring")
        return get_instance(self.semiring_name, comparator)

    def factor_values(self) -> list[Valuation]:
        return [v for _, v in self.factors]


def _tokens(line: str) -> list[str]:
    return line.split()


def _index(tok: str, line_no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected an integer index, got {tok!r}", line_no) from None


def _parse_configs(cat: VariableCatalog, domain: Domain, text: str,
                   line_no: int) -> list[tuple[int, ...]]:
    """Parse ``(a b) (c d)`` into value-index tuples over ``domain``."""
    text = text.strip()
    configs = []
    while text:
        if not text.startswith("("):
            raise ParseError(f"expected '(' in configuration list: {text!r}", line_no)
        close = text.find(")")
        if close < 0:
            raise ParseError("unbalanced '(' in configuration list", line_no)
        labels = text[1:close].split()
        text = text[close + 1:].strip()
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

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.pos)

    def next_line(self) -> tuple[int, list[str]] | None:
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            body = raw.split("#", 1)[0].strip()
            if body:
                return self.pos, _tokens(body)
        return None

    def block_lines(self):
        while True:
            item = self.next_line()
            if item is None:
                raise self.error("unterminated stanza (missing 'end')")
            if item[1] == ["end"]:
                return
            yield item

    def need_model(self) -> Model:
        if self.model is None:
            raise self.error("the catalog stanza must come first")
        return self.model

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
            handler(line_no, toks)
        if self.model is None:
            raise ParseError("model has no catalog stanza")
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
        model = self.need_model()
        if len(toks) != 2:
            raise ParseError("expected 'semiring NAME'", line_no)
        try:
            get_instance(toks[1])  # validate early
        except Exception as exc:
            raise ParseError(str(exc), line_no) from None
        model.semiring_name = toks[1]

    def _domain_from(self, names, line_no) -> Domain:
        try:
            return self.catalog.domain(*names)
        except Exception as exc:
            raise ParseError(str(exc), line_no) from None

    def _stanza_factor(self, line_no, toks):
        model = self.need_model()
        if len(toks) < 2 or (len(toks) > 2 and toks[2] != "on"):
            raise ParseError("expected 'factor NAME on VAR...'", line_no)
        name = toks[1]
        domain = self._domain_from(toks[3:] if len(toks) > 2 else [], line_no)
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
        expected = self.catalog.config_count(domain)
        if len(values) != expected:
            raise ParseError(
                f"factor {name!r} table has {len(values)} values, "
                f"domain {domain} needs {expected}", line_no,
            )
        model.factors.append((name, Valuation(self.catalog, sr, domain, tuple(values))))

    def _stanza_potential(self, line_no, toks):
        model = self.need_model()
        if len(toks) < 2 or (len(toks) > 2 and toks[2] != "on"):
            raise ParseError("expected 'potential NAME on VAR...'", line_no)
        name = toks[1]
        domain = self._domain_from(toks[3:] if len(toks) > 2 else [], line_no)
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
                configs = _parse_configs(self.catalog, domain, cfg_text, no)
                items.append((bf.FocalSet.of(self.catalog, domain, configs), mass))
            else:
                raise ParseError(f"unknown potential line {t[0]!r}", no)
        try:
            pot = bf.set_potential(self.catalog, domain, items, kind,
                                   comparator=self.comparator)
        except Exception as exc:
            raise ParseError(str(exc), line_no) from None
        model.potentials.append((name, pot))

    def _stanza_universe(self, line_no, toks):
        model = self.need_model()
        if len(toks) < 4 or toks[2] != ":":
            raise ParseError("expected 'universe NAME : ELEMENT...'", line_no)
        name = toks[1]
        if name in model.universes:
            raise ParseError(f"duplicate universe {name!r}", line_no)
        try:
            model.universes[name] = Universe(tuple(toks[3:]))
        except Exception as exc:
            raise ParseError(str(exc), line_no) from None

    def _stanza_partition(self, line_no, toks):
        model = self.need_model()
        if len(toks) < 5 or toks[2] != "of" or ":" not in toks:
            raise ParseError(
                "expected 'partition NAME of UNIVERSE : {a b} {c}'", line_no
            )
        name = toks[1]
        uni = model.universes.get(toks[3])
        if uni is None:
            raise ParseError(f"unknown universe {toks[3]!r}", line_no)
        rest = " ".join(toks[toks.index(":") + 1:])
        blocks = []
        text = rest.strip()
        while text:
            if not text.startswith("{"):
                raise ParseError(f"expected '{{' in block list: {text!r}", line_no)
            close = text.find("}")
            if close < 0:
                raise ParseError("unbalanced '{' in block list", line_no)
            blocks.append(tuple(text[1:close].split()))
            text = text[close + 1:].strip()
        try:
            part = Partition.of(uni, blocks)
        except Exception as exc:
            raise ParseError(str(exc), line_no) from None
        model.partitions.append((name, part))

    def _stanza_tree(self, line_no, toks):
        model = self.need_model()
        if len(toks) != 2:
            raise ParseError("expected 'tree NAME'", line_no)
        name = toks[1]
        labels: dict[int, Domain] = {}
        edges: list[tuple[int, int]] = []
        assigned: dict[str, int] = {}
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
                assigned[t[1]] = _index(t[2], no)
            else:
                raise ParseError(f"unknown tree line {t[0]!r}", no)
        if sorted(labels) != list(range(len(labels))):
            raise ParseError(f"tree {name!r} nodes must be 0..n-1", line_no)
        ordered = tuple(labels[i] for i in range(len(labels)))
        tree = NamedTree(name, ordered, tuple(edges), assigned)
        try:
            tree.structure()  # validate shape now
        except Exception as exc:
            raise ParseError(str(exc), line_no) from None
        model.trees.append(tree)

    def _stanza_sequence(self, line_no, toks):
        model = self.need_model()
        if len(toks) != 2:
            raise ParseError("expected 'sequence NAME'", line_no)
        name = toks[1]
        domains: list[Domain] = []
        pointers: list[int] = []
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
                pointers.append(-1)
        if not domains:
            raise ParseError(f"sequence {name!r} is empty", line_no)
        if pointers[-1] != -1:
            raise ParseError("the last step takes no pointer", line_no)
        if any(p == -1 for p in pointers[:-1]):
            raise ParseError("every step but the last needs '-> K'", line_no)
        try:
            seq = EliminationSequence(tuple(domains), tuple(pointers[:-1]))
        except Exception as exc:
            raise ParseError(str(exc), line_no) from None
        model.sequences.append((name, seq))

    def _stanza_query(self, line_no, toks):
        model = self.need_model()
        model.queries.append(self._domain_from(toks[1:], line_no))

    def _stanza_hypothesis(self, line_no, toks):
        model = self.need_model()
        if len(toks) < 4 or toks[2] != "on":
            raise ParseError(
                "expected 'hypothesis NAME on VAR... : (cfg) ...'", line_no
            )
        rest = " ".join(toks[3:])
        if ":" not in rest:
            raise ParseError("expected ':' before configurations", line_no)
        dom_text, cfg_text = rest.split(":", 1)
        domain = self._domain_from(dom_text.split(), line_no)
        configs = _parse_configs(self.catalog, domain, cfg_text, line_no)
        model.hypotheses.append(
            (toks[1], bf.FocalSet.of(self.catalog, domain, configs))
        )


def parse_model(text: str, comparator: Comparator = DEFAULT_COMPARATOR) -> Model:
    return _Parser(text, comparator).parse()


def config_text(cat: VariableCatalog, domain: Domain,
                values: tuple[int, ...]) -> str:
    """One configuration of ``domain`` as ``(label ...)``, from value indices."""
    labels = (cat.frame(n)[v] for n, v in zip(domain.names, values))
    return "(" + " ".join(labels) + ")"


def render_model(model: Model) -> str:
    """Canonical text form; parses back to structurally equal objects."""
    cat = model.catalog
    out = ["catalog"]
    for v in cat.variables:
        out.append(f"  var {v.name} : " + " ".join(v.frame))
    out.append("end")
    if model.semiring_name:
        out.append(f"semiring {model.semiring_name}")
    for name, val in model.factors:
        head = f"factor {name}"
        if val.domain:
            head += " on " + " ".join(val.domain.names)
        out.append(head)
        out.append("  table " + " ".join(val.semiring.fmt(x) for x in val.table))
        out.append("end")
    for name, pot in model.potentials:
        head = f"potential {name}"
        if pot.domain:
            head += " on " + " ".join(pot.domain.names)
        out.append(head)
        out.append(f"  kind {pot.kind}")
        for fs, mass in pot.focal:
            cfgs = " ".join(config_text(cat, pot.domain, v) for v in fs.configs)
            out.append(f"  focal {format_value(mass)} :" + (" " + cfgs if cfgs else ""))
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
        cfgs = " ".join(config_text(cat, h.domain, v) for v in h.configs)
        out.append(f"hypothesis {name} on " + " ".join(h.domain.names)
                   + " :" + (" " + cfgs if cfgs else ""))
    return "\n".join(out) + "\n"


def _universe_name(model: Model, uni: Universe) -> str:
    for name, u in model.universes.items():
        if u == uni:
            return name
    raise ParseError("partition references an undeclared universe")
