import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import semival as sv
from semival import cli
from semival.errors import ParseError
from semival.model import parse_model, render_model

HERE = Path(__file__).parent
MODELS = HERE / "models"
GOLDEN = HERE / "golden"

GOLDEN_CASES = {
    "solve_chain": ["solve", "models/chain.sv", "--oracle"],
    "check_semiring": ["check", "models/laws.sv", "--what", "semiring"],
    "check_valuation": ["check", "models/laws.sv", "--what", "valuation-axioms",
                        "--samples", "60"],
    "check_tree": ["check", "models/laws.sv", "--what", "tree"],
    "check_sequence": ["check", "models/laws.sv", "--what", "sequence"],
    "check_qseparoid": ["check", "models/laws.sv", "--what", "qseparoid"],
    "evidence_combine": ["evidence", "models/evidence.sv", "--op", "combine"],
    "evidence_support": ["evidence", "models/evidence.sv", "--op", "support"],
    "evidence_plausibility": ["evidence", "models/evidence.sv", "--op",
                              "plausibility"],
    "evidence_moebius": ["evidence", "models/evidence.sv", "--op", "moebius"],
    "solve_laws": ["solve", "models/laws.sv", "--oracle", "--heuristic",
                   "min-degree"],
    "render_chain": ["render", "models/chain.sv"],
    "render_evidence": ["render", "models/evidence.sv"],
    "render_laws": ["render", "models/laws.sv"],
}


def run_cli(argv):
    argv = [str(HERE / a) if a.startswith("models/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_reports_match_golden_files(name):
    code, out, _ = run_cli(GOLDEN_CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_reports_are_byte_identical_across_runs(name):
    _, first, _ = run_cli(GOLDEN_CASES[name])
    _, second, _ = run_cli(GOLDEN_CASES[name])
    assert first.encode() == second.encode()


def test_solve_chain_values():
    code, out, _ = run_cli(["solve", "models/chain.sv", "--oracle"])
    assert code == 0
    assert "result {x}: 0.3 0.7" in out
    assert "result {y}: 0.41 0.59" in out
    assert "oracle deviation {y}: 0" in out


def _run_stdin(argv, text):
    import sys

    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def test_solve_empty_model_scalar_unit():
    text = "catalog\n  var x : 0 1\nend\nsemiring arithmetic\nquery\n"
    code, out, _ = _run_stdin(["solve", "-"], text)
    assert code == 0
    assert "result {}: 1" in out


def test_solve_tropical_empty_query_is_global_max():
    text = (
        "catalog\n  var x : 0 1\n  var y : 0 1\nend\n"
        "semiring tropical\n"
        "factor f on x y\n  table 1 5 -2 3\nend\n"
        "factor g on y\n  table 0 -1\nend\n"
        "query\n"
    )
    code, out, _ = _run_stdin(["solve", "-", "--oracle"], text)
    assert code == 0
    # max over configurations of f(x,y) + g(y): max(1, 4, -2, 2) = 4
    assert "result {}: 4" in out
    assert "oracle deviation {}: 0" in out


def test_exit_code_parse_error():
    code, out, err = _run_stdin(["solve", "-"], "factor f on x\nend\n")
    assert code == 2 and out == "" and "error" in err


def test_exit_code_capability_error():
    # an arithmetic query outside the combined factor domain needs transport
    text = (
        "catalog\n  var x : 0 1\n  var y : 0 1\nend\n"
        "semiring arithmetic\n"
        "factor f on x\n  table 0.5 0.5\nend\n"
        "query y\n"
    )
    code, out, err = _run_stdin(["solve", "-"], text)
    assert code == 3 and "capability" in err


def test_exit_code_check_failure():
    text = (
        "catalog\n  var x : 0 1\n  var y : 0 1\n  var z : 0 1\nend\n"
        "semiring boolean\n"
        "sequence s\n  step x y -> 2\n  step z -> 3\n  step x z\nend\n"
    )
    code, out, _ = _run_stdin(["check", "-", "--what", "sequence"], text)
    assert code == 1
    assert "valid: no (violated at step 1)" in out


def test_missing_stanza_errors():
    text = "catalog\n  var x : 0 1\nend\nsemiring boolean\n"
    code, _, err = _run_stdin(["check", "-", "--what", "tree"], text)
    assert code == 2 and "no tree stanza" in err


def test_parse_error_carries_line_number():
    text = "catalog\n  var x : 0 1\nend\nsemiring nope\n"
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert "line 4" in str(exc.value)


@pytest.mark.parametrize("stanza, line", [
    ("tree t\n  node a : x\nend\n", 6),
    ("tree t\n  node 0 : x\n  node 1 : x\n  edge 0 b\nend\n", 8),
    ("tree t\n  node 0 : x\n  assign f one\nend\n", 7),
    ("sequence s\n  step x -> two\n  step x\nend\n", 6),
])
def test_bad_integer_index_is_a_parse_error(stanza, line):
    text = "catalog\n  var x : 0 1\nend\nsemiring boolean\n" + stanza
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert f"line {line}" in str(exc.value)
    code, out, err = _run_stdin(["render", "-"], text)
    assert code == 2 and out == "" and "Traceback" not in err


def test_duplicate_frame_values_are_a_parse_error():
    text = "catalog\n  var x : 0 1\n  var y : 0 0\nend\n"
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert "line 3" in str(exc.value) and "duplicate frame values" in str(exc.value)
    code, out, err = _run_stdin(["render", "-"], text)
    assert code == 2 and out == "" and "Traceback" not in err


@pytest.mark.parametrize("semiring, value", [
    ("arithmetic", "-1"), ("arithmetic", "inf"), ("arithmetic", "nan"),
    ("arithmetic", "-inf"),
    ("boolean", "nan"), ("boolean", "2"), ("boolean", "0.5"),
    ("tropical", "inf"), ("tropical", "nan"),
    ("bottleneck", "1.5"), ("bottleneck", "-0.1"), ("bottleneck", "nan"),
    ("fuzzy-product", "2"), ("fuzzy-product", "-inf"),
    ("chain(3)", "3"), ("chain(3)", "-1"), ("chain(3)", "1.5"),
])
def test_out_of_carrier_table_value_is_a_parse_error(semiring, value):
    text = (
        f"catalog\n  var x : 0 1\nend\nsemiring {semiring}\n"
        f"factor f on x\n  table 0 {value}\nend\nquery x\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert "line 6" in str(exc.value) and "carrier" in str(exc.value)
    code, out, err = _run_stdin(["solve", "-"], text)
    assert code == 2 and out == "" and "Traceback" not in err


@pytest.mark.parametrize("semiring, values", [
    ("arithmetic", "0 1e300"), ("boolean", "0 1"), ("tropical", "-inf -7.5"),
    ("bottleneck", "0 1"), ("fuzzy-product", "0.0 1.0"), ("chain(3)", "0 2"),
])
def test_carrier_boundary_values_parse(semiring, values):
    text = (
        f"catalog\n  var x : 0 1\nend\nsemiring {semiring}\n"
        f"factor f on x\n  table {values}\nend\n"
    )
    sr = sv.get_instance(semiring)
    assert parse_model(text).factors[0][1].table == \
        tuple(sr.parse(tok) for tok in values.split())


def test_table_length_validation():
    text = (
        "catalog\n  var x : 0 1\nend\nsemiring boolean\n"
        "factor f on x\n  table 1 0 1\nend\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert "needs 2" in str(exc.value)


@pytest.mark.parametrize("flags", [[], ["--cap", "1073741824"]])
def test_table_length_is_checked_past_the_default_cap(flags):
    # 2^25 configurations: a short table is a parse error, not a capacity error
    names = [f"b{i:02d}" for i in range(25)]
    text = ("catalog\n" + "".join(f"  var {n} : 0 1\n" for n in names) + "end\n"
            "semiring boolean\n"
            f"factor f on {' '.join(names)}\n  table 1\nend\nquery b00\n")
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert str(exc.value).startswith("line 29: factor 'f' table has 1 values")
    assert str(exc.value).endswith("needs 33554432")
    code, out, err = _run_stdin(["solve", "-", *flags], text)
    assert code == 2 and out == "" and "line 29:" in err and "needs 33554432" in err


@pytest.mark.parametrize("node", ["5", "1", "-1"])
@pytest.mark.parametrize("command", [["solve"], ["render"]])
def test_assign_to_a_missing_node_is_a_parse_error(node, command):
    text = (
        "catalog\n  var x : 0 1\nend\nsemiring boolean\n"
        "factor f1 on x\n  table 1 0\nend\n"
        f"tree t\n  node 0 : x\n  assign f1 {node}\nend\nquery x\n"
    )
    message = f"line 10: factor 'f1' assigned to missing node {node}"
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert str(exc.value) == message
    code, out, err = _run_stdin([*command, "-"], text)
    assert (code, out, err) == (2, "", f"semival: error: {message}\n")



@pytest.mark.parametrize("assigns, message", [
    ("  assign f1 0\n  assign nosuch 0\n",
     "line 11: assign names 'nosuch', which no factor or potential declares"),
    ("  assign f1 0\n  assign f1 0\n",
     "line 11: factor 'f1' is assigned twice (first at line 10)"),
], ids=["undeclared", "twice"])
@pytest.mark.parametrize("command", [["solve"], ["render"]])
def test_unchecked_assign_lines_are_parse_errors(assigns, message, command):
    text = (
        "catalog\n  var x : 0 1\nend\nsemiring boolean\n"
        "factor f1 on x\n  table 1 0\nend\n"
        f"tree t\n  node 0 : x\n{assigns}end\nquery x\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert str(exc.value) == message
    code, out, err = _run_stdin([*command, "-"], text)
    assert (code, out, err) == (2, "", f"semival: error: {message}\n")


@pytest.mark.parametrize("command", [["solve"], ["render"]])
def test_second_semiring_stanza_is_a_parse_error(command):
    text = (
        "catalog\n  var x : 0 1\nend\nsemiring boolean\n"
        "factor f1 on x\n  table 1 0\nend\nsemiring arithmetic\nquery x\n"
    )
    message = "line 8: duplicate semiring stanza (first at line 4)"
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert str(exc.value) == message
    code, out, err = _run_stdin([*command, "-"], text)
    assert (code, out, err) == (2, "", f"semival: error: {message}\n")


@pytest.mark.parametrize("stanza, first, second", [
    ("tree t\n  node 0 : x\n  assign f 0\nend\n", 9, 13),
    ("sequence s\n  step x\nend\n", 9, 12),
    ("hypothesis h on x : (0)\n", 9, 10),
], ids=["tree", "sequence", "hypothesis"])
@pytest.mark.parametrize("command", [["solve"], ["check", "--what", "sequence"], ["render"]])
def test_repeated_tree_sequence_or_hypothesis_name_is_a_parse_error(
        stanza, first, second, command):
    text = _TWO_VARS + "semiring boolean\nfactor f on x\n  table 1 0\nend\n" + stanza * 2
    kind, name = stanza.split()[:2]
    message = f"line {second}: duplicate {kind} {name!r} (first at line {first})"
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert str(exc.value) == message
    code, out, err = _run_stdin([*command, "-"], text)
    assert (code, out, err) == (2, "", f"semival: error: {message}\n")


_FACTOR_F = "factor f on x\n  table 1 0\nend\n"
_POTENTIAL_F = "potential f on x\n  focal 1 : (0)\nend\n"


@pytest.mark.parametrize("first, second", [
    (_FACTOR_F, _FACTOR_F), (_POTENTIAL_F, _POTENTIAL_F),
    (_FACTOR_F, _POTENTIAL_F), (_POTENTIAL_F, _FACTOR_F),
], ids=["factor-factor", "potential-potential", "factor-potential", "potential-factor"])
@pytest.mark.parametrize("command", [["solve"], ["render"]])
def test_repeated_factor_or_potential_name_is_a_parse_error(first, second, command):
    text = (
        "catalog\n  var x : 0 1\nend\nsemiring boolean\n"
        f"{first}{second}tree t\n  node 0 : x\n  assign f 0\nend\nquery x\n"
    )
    message = "line 8: name 'f' is declared twice (first at line 5)"
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert str(exc.value) == message
    code, out, err = _run_stdin([*command, "-"], text)
    assert (code, out, err) == (2, "", f"semival: error: {message}\n")


@pytest.mark.parametrize("stanza", [
    "factor f1 on x y\n  table 1 0 0 1\nend\n",
    "potential f1 on x y\n  focal 1 : (0 1)\nend\n",
], ids=["factor", "potential"])
@pytest.mark.parametrize("command", [["solve"], ["render"]])
def test_tree_not_covering_its_assignment_is_a_parse_error(stanza, command):
    text = (
        "catalog\n  var x : 0 1\n  var y : 0 1\nend\nsemiring boolean\n"
        "tree t\n  node 0 : x\n  node 1 : x y\n  edge 0 1\n  assign f1 0\nend\n"
        f"{stanza}query x\n"
    )
    message = "line 10: factor 'f1' on {x y} not covered by node 0 labeled {x}"
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert str(exc.value) == message
    code, out, err = _run_stdin([*command, "-"], text)
    assert (code, out, err) == (2, "", f"semival: error: {message}\n")


def test_assign_may_precede_its_factor():
    text = (
        "catalog\n  var x : 0 1\nend\nsemiring boolean\n"
        "tree t\n  node 0 : x\n  assign f1 0\nend\n"
        "potential p on x\n  focal 1 : (0)\nend\n"
        "factor f1 on x\n  table 1 0\nend\nquery x\n"
    )
    assert parse_model(text).trees[0].assigned == {"f1": 0}
    code, out, _ = _run_stdin(["solve", "-"], text)
    assert code == 0 and "status: ok" in out


def test_factor_before_semiring_names_the_factor_line():
    text = ("catalog\n  var x : 0 1\nend\n"
            "factor f on x\n  table 1 0\nend\nsemiring boolean\n")
    message = "line 4: model declares no semiring"
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert str(exc.value) == message
    code, out, err = _run_stdin(["render", "-"], text)
    assert (code, out, err) == (2, "", f"semival: error: {message}\n")


_TWO_VARS = "catalog\n  var x : 0 1\n  var y : 0 1\nend\n"


@pytest.mark.parametrize("stanza, message", [
    ("semiring nope\n",
     "line 5: unknown semiring 'nope' (known: arithmetic, boolean, bottleneck, "
     "fuzzy-product, tropical, chain(k))"),
    ("potential p on x\n  kind bpa\n  focal 0.5 : (0)\nend\n",
     "line 5: bpa masses sum to 0.5, not 1"),
    ("universe u : 1 2 2\n", "line 5: universe labels must be distinct"),
    ("universe u : 1 2 3\npartition p of u : {1 2}\n",
     "line 6: blocks do not cover the universe"),
    ("tree t\n  node 0 : x\n  node 1 : y\n  node 2 : x\n  node 3 : y\n"
     "  edge 0 1\n  edge 1 2\n  edge 2 0\nend\n",
     "line 5: tree is not connected"),
    ("sequence s\n  step x -> 5\n  step y\nend\n",
     "line 5: pointer b(0) = 4 must satisfy 0 < b(0) < 2"),
    ("hypothesis h on x : (0) (1\n",
     "line 5: unbalanced '(' in configuration list"),
    ("potential p on x\n  focal 1 : (0\nend\n",
     "line 6: unbalanced '(' in configuration list"),
    ("universe u : 1 2 3\npartition p of u : {1 2} {3\n",
     "line 6: unbalanced '{' in block list"),
    ("universe u : 1 2 3\npartition p of u junk : {1 2} {3}\n",
     "line 6: expected 'partition NAME of UNIVERSE : {a b} {c}'"),
    ("universe u : 1 2 3\npartition p of u : {1 2} {3}\npartition p of u : {1} {2 3}\n",
     "line 7: duplicate partition 'p' (first at line 6)"),
    ("potential p on x\n  kind raw\n  focal 0.5 : (1)\n  focal nan : (0)\nend\n",
     "line 8: mass 'nan' is not a finite number"),
    ("potential p on x\n  kind raw\n  focal inf : (0)\nend\n",
     "line 7: mass 'inf' is not a finite number"),
    ("potential p on x\n  kind raw\n  focal 1e400 : (0)\nend\n",
     "line 7: mass '1e400' is not a finite number"),
], ids=["semiring", "potential", "universe", "partition", "tree", "sequence",
        "hypothesis", "focal", "blocks", "partition-junk", "partition-twice",
        "mass-nan", "mass-inf", "mass-overflow"])
def test_rejected_stanza_messages(stanza, message):
    with pytest.raises(ParseError) as exc:
        parse_model(_TWO_VARS + stanza)
    assert str(exc.value) == message
    code, out, err = _run_stdin(["render", "-"], _TWO_VARS + stanza)
    assert (code, out, err) == (2, "", f"semival: error: {message}\n")


@pytest.mark.parametrize("steps, message", [
    ("  step x -> 2\n  step y -> 0\n", "line 5: the last step takes no pointer"),
    ("  step x\n  step y -> 0\n", "line 5: the last step takes no pointer"),
    ("  step x -> 0\n  step y\n", "line 5: pointer b(0) = -1 must satisfy 0 < b(0) < 2"),
], ids=["last", "last-only", "earlier"])
def test_pointer_to_step_zero_is_rejected(steps, message):
    # steps are numbered from 1, so '-> 0' names no step
    text = _TWO_VARS + "sequence s\n" + steps + "end\n"
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert str(exc.value) == message
    code, out, err = _run_stdin(["render", "-"], text)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("stanza, line, var", [
    ("semiring boolean\nfactor f on x x\n  table 1 0\nend\n", 6, "x"),
    ("semiring boolean\nfactor f on x x\n  table 1 0 0 1\nend\n", 6, "x"),
    ("semiring boolean\nfactor f on y x y\n  table 1 0 0 1\nend\n", 6, "y"),
    ("potential p on y y\n  focal 1 : (0 0)\nend\n", 5, "y"),
    ("hypothesis h on y y : (0 0)\n", 5, "y"),
    ("query x y x\n", 5, "x"),
    ("tree t\n  node 0 : x x\nend\n", 6, "x"),
    ("sequence s\n  step y y -> 2\n  step y\nend\n", 6, "y"),
    ("sequence s\n  step x\nend\nsequence r\n  step y x y\nend\n", 9, "y"),
], ids=["factor", "factor-4-values", "factor-3-names", "potential", "hypothesis",
        "query", "tree-node", "sequence-pointer", "sequence-last"])
def test_variable_listed_twice_is_a_parse_error(stanza, line, var):
    message = f"line {line}: variable {var!r} listed twice"
    with pytest.raises(ParseError) as exc:
        parse_model(_TWO_VARS + stanza)
    assert str(exc.value) == message
    code, out, err = _run_stdin(["render", "-"], _TWO_VARS + stanza)
    assert (code, out, err) == (2, "", f"semival: error: {message}\n")


@pytest.mark.parametrize("query", ["x x", "x,x", "y x y"])
def test_query_flag_variable_listed_twice_is_a_parse_error(query):
    code, out, err = run_cli(["solve", "models/chain.sv", "--query", query])
    var = "y" if "y" in query else "x"
    assert (code, out) == (2, "")
    assert err == f"semival: error: bad --query {query!r}: variable {var!r} listed twice\n"


def test_render_writes_the_universe_each_partition_names():
    text = (_TWO_VARS + "universe u : 1 2\nuniverse w : 1 2\n"
            "partition p of u : {1} {2}\npartition q of w : {1 2}\n")
    assert render_model(parse_model(text)).endswith(
        "universe u : 1 2\nuniverse w : 1 2\n"
        "partition p of u : {1} {2}\npartition q of w : {1 2}\n")


@pytest.mark.parametrize("partitions, message", [
    ("universe u : 1 2 3 4\n"
     "partition p of u : {1 2} {3 4}\npartition q of u : {1 3} {2 4}\n",
     "family is not join-closed: join of [{1 2} {3 4}] and [{1 3} {2 4}] is missing"),
    ("universe u : 1 2\nuniverse w : 3 4\n"
     "partition p of u : {1 2}\npartition q of w : {3 4}\n",
     "partitions over different universes"),
], ids=["not-join-closed", "two-universes"])
def test_qseparoid_family_errors(partitions, message):
    code, out, err = _run_stdin(["check", "-", "--what", "qseparoid"],
                                _TWO_VARS + partitions)
    assert (code, out, err) == (1, "", f"semival: error: {message}\n")


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.sv")))
def test_render_round_trip(path):
    model = parse_model(path.read_text())
    text = render_model(model)
    again = parse_model(text)
    assert render_model(again) == text
    # structural equality of the parsed pieces
    assert again.catalog == model.catalog
    assert again.semiring_name == model.semiring_name
    assert [(n, v.domain, v.table) for n, v in again.factors] == \
        [(n, v.domain, v.table) for n, v in model.factors]
    assert [(n, p.domain, p.focal, p.kind) for n, p in again.potentials] == \
        [(n, p.domain, p.focal, p.kind) for n, p in model.potentials]
    assert again.partitions == model.partitions
    assert again.queries == model.queries
    assert again.hypotheses == model.hypotheses
    assert [(t.name, t.labels, t.edges, t.assigned) for t in again.trees] == \
        [(t.name, t.labels, t.edges, t.assigned) for t in model.trees]
    assert again.sequences == model.sequences


FUZZ_TOKENS = ("end", ":", "->", "on", "of", "(", ")", "{", "}", "#", "0", "1", "2",
               "-1", "0.5", "nan", "inf", "-inf", "x", "var", "node", "edge",
               "assign", "step", "table", "focal", "kind", "bpa", "(a)", "{1", "3}")


def _mutate(rng, lines, edits=2, tokens=FUZZ_TOKENS):
    """One to ``edits`` token edits, or lines duplicated or dropped."""
    lines = [line.split() for line in lines]
    for _ in range(rng.randint(1, edits)):
        i = rng.randrange(len(lines))
        toks = lines[i]
        op = rng.randrange(6)
        if op == 0 and toks:
            toks[rng.randrange(len(toks))] = rng.choice(tokens)
        elif op == 1 and toks:
            other = rng.choice([t for line in lines for t in line])
            toks[rng.randrange(len(toks))] = other
        elif op == 2 and toks:
            del toks[rng.randrange(len(toks))]
        elif op == 3:
            toks.insert(rng.randint(0, len(toks)), rng.choice(tokens))
        elif op == 4:
            lines.insert(i, list(toks))
        elif len(lines) > 1:
            del lines[i]
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


LINE_PREFIX = re.compile(r"line [1-9][0-9]*: ")
# the errors that concern the model file as a whole and so name no line
WHOLE_FILE_MESSAGES = {"model has no catalog stanza"}


def test_mutated_models_parse_or_raise_parse_error():
    """Every token-level mutation of a fixture model either raises a
    ``ParseError`` that names a line (or is one of the whole-file errors)
    or parses to a model whose rendering is a fixed point."""
    rng = random.Random(7)
    fixtures = [path.read_text().splitlines() for path in sorted(MODELS.glob("*.sv"))]
    parsed = 0
    for _ in range(3300):
        text = _mutate(rng, rng.choice(fixtures))
        try:
            model = parse_model(text)
        except ParseError as exc:
            message = str(exc)
            assert LINE_PREFIX.match(message) or message in WHOLE_FILE_MESSAGES, text
            continue
        parsed += 1
        canon = render_model(model)
        assert render_model(parse_model(canon)) == canon, text
    assert parsed > 300


def test_render_command_round_trips():
    code, out, _ = run_cli(["render", "models/laws.sv"])
    assert code == 0
    model = parse_model(out)
    assert render_model(model) == out


def test_tropical_minus_inf_round_trip():
    text = (
        "catalog\n  var x : 0 1\nend\nsemiring tropical\n"
        "factor f on x\n  table -inf 3\nend\n"
    )
    model = parse_model(text)
    assert model.factors[0][1].table == (float("-inf"), 3)
    assert "table -inf 3" in render_model(model)


def test_solve_with_declared_tree():
    text = (
        "catalog\n  var a : 0 1\n  var b : 0 1\n  var c : 0 1\nend\n"
        "semiring boolean\n"
        "factor f1 on a b\n  table 1 1 1 0\nend\n"
        "factor f2 on b c\n  table 0 1 1 1\nend\n"
        "tree t\n  node 0 : a b\n  node 1 : b c\n  edge 0 1\n"
        "  assign f1 0\n  assign f2 1\nend\n"
        "query a\n"
    )
    code, out, _ = _run_stdin(["solve", "-", "--oracle"], text)
    assert code == 0
    assert "tree: t (2 nodes, given)" in out
    assert "oracle deviation {a}: 0" in out


_DEAD_VARIABLE = (
    "catalog\n  var A : 0 1\n  var B : 0 1 2\nend\nsemiring arithmetic\n"
    "factor f on A\n  table 0.5 1.5\nend\n"
    "tree t\n  node 0 : A\n  node 1 : A B\n  edge 0 1\n  assign f 0\nend\nquery A\n"
)


@pytest.mark.parametrize("root", [[], ["--root", "0"], ["--root", "1"]])
def test_declared_tree_label_variable_no_factor_mentions(root):
    """``B`` is on a label but in no factor; nodes start from the scalar
    identity, so it is never summed over and the answer is the oracle's."""
    code, out, _ = _run_stdin(["solve", "-", "--oracle", *root], _DEAD_VARIABLE)
    assert code == 0
    assert "result {A}: 0.5 1.5\noracle deviation {A}: 0\n" in out


@pytest.mark.parametrize("text, cap, domain", [
    (_DEAD_VARIABLE, "5", "{A B}"),
    (_DEAD_VARIABLE.replace("query A", "query"), "1", "{A}"),
    (_DEAD_VARIABLE.replace("semiring arithmetic", "semiring boolean")
     .replace("0.5 1.5", "0 1"), "5", "{A B}"),
], ids=["node-without-factors", "first-label", "boolean"])
def test_label_over_cap_fails_before_any_combination(text, cap, domain):
    code, out, err = _run_stdin(["solve", "-", "--cap", cap], text)
    assert (code, out) == (1, "")
    assert err == f"semival: error: domain {domain} has more than {cap} configurations\n"


def test_tolerance_flag():
    code, _, err = run_cli(["solve", "models/chain.sv", "--tolerance", "bogus"])
    assert code == 2 and "tolerance" in err
    code, out, _ = run_cli(
        ["solve", "models/chain.sv", "--oracle", "--tolerance", "1e-6,1e-9"]
    )
    assert code == 0 and "status: ok" in out


def test_moebius_three_value_frame():
    text = (
        "catalog\n  var w : p q r\nend\n"
        "potential m on w\n"
        "  kind bpa\n"
        "  focal 0.2 : (p)\n"
        "  focal 0.5 : (p) (q)\n"
        "  focal 0.3 : (p) (q) (r)\nend\n"
    )
    code, out, _ = _run_stdin(["evidence", "-", "--op", "moebius"], text)
    assert code == 0
    assert "8 subsets" in out
    deviations = [
        float(line.rsplit(" ", 1)[1])
        for line in out.splitlines()
        if "max deviation" in line
    ]
    assert len(deviations) == 2 and all(d <= 1e-9 for d in deviations)


def test_root_flag_changes_schedule_not_answers():
    text = (
        "catalog\n  var a : 0 1\n  var b : 0 1\n  var c : 0 1\nend\n"
        "semiring arithmetic\n"
        "factor f1 on a b\n  table 0.2 0.8 0.5 0.5\nend\n"
        "factor f2 on b c\n  table 0.3 0.7 0.9 0.1\nend\n"
        "query b\n"
    )
    results = []
    for root in (0, 1):
        code, out, _ = _run_stdin(["solve", "-", "--root", str(root)], text)
        assert code == 0
        assert f"root: {root}" in out
        results.append([l for l in out.splitlines() if l.startswith("result")])
    assert results[0] == results[1]


def test_query_flag_overrides_model_queries():
    code, out, _ = run_cli(["solve", "models/chain.sv", "--query", "y"])
    assert code == 0
    assert "result {y}: 0.41 0.59" in out
    assert "result {x}" not in out


@pytest.mark.parametrize("query", ["zz", "x zz", "x,zz"])
def test_unknown_query_flag_variable_is_a_parse_error(query):
    # as it is in a model's query stanza
    code, out, err = run_cli(["solve", "models/chain.sv", "--query", query])
    assert code == 2 and out == ""
    assert err == f"semival: error: bad --query {query!r}: unknown variable 'zz'\n"


def _many_factor_model(factors: int, semiring: str) -> str:
    lines = ["catalog", "  var x : 0 1", "  var y : 0 1", "end", f"semiring {semiring}"]
    for i in range(factors):
        lines += [f"factor f{i} on x y", "  table 1 0 0 1", "end"]
    return "\n".join(lines + ["query x"]) + "\n"


@pytest.mark.parametrize("semiring", ["boolean", "arithmetic", "chain(3)"])
@pytest.mark.parametrize("comparator", [sv.DEFAULT_COMPARATOR, sv.Comparator(rel=0.1, abs=0.0)])
def test_factors_share_one_semiring_per_parse(monkeypatch, semiring, comparator):
    from semival import semiring as sr_module
    calls = []
    real = sr_module.builtin_instances

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sr_module, "builtin_instances", counted)
    model = parse_model(_many_factor_model(40, semiring), comparator)
    # a solve asks the model for its semiring and must get the factors' one
    shared = model.semiring(comparator)
    assert all(v.semiring is shared for _, v in model.factors)
    assert len(calls) <= 2


NON_UTF8_MODELS = {
    "table": b"catalog\n  var x : 0 1\nend\nsemiring arithmetic\n"
             b"factor f on x\n  table 0.5 \xff\nend\nquery x\n",
    "comment": b"catalog\n  var x : 0 1  # \xe9t\xe9\nend\nsemiring boolean\n"
               b"factor f on x\n  table 1 0\nend\nquery x\n",
}


@pytest.mark.parametrize("where", sorted(NON_UTF8_MODELS))
@pytest.mark.parametrize("command", [["render"], ["solve"]])
def test_non_utf8_model_is_a_parse_error(tmp_path, where, command):
    data = NON_UTF8_MODELS[where]
    path = tmp_path / "model.sv"
    path.write_bytes(data)
    code, out, err = run_cli(command + [str(path)])
    assert code == 2 and out == "" and "UTF-8" in err and "Traceback" not in err
    # standard input decodes undecodable bytes to lone surrogates
    code, out, err = _run_stdin(command + ["-"], data.decode("utf-8", "surrogateescape"))
    assert code == 2 and out == "" and "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("what", ["semiring", "valuation-axioms", "qseparoid", "tree",
                                  "sequence"])
@pytest.mark.parametrize("samples", ["0", "-1", "-200"])
def test_nonpositive_samples_are_rejected(what, samples):
    # a usage error, like a cap below one, whatever --what checks
    code, out, err = run_cli(["check", "models/laws.sv", "--what", what,
                              "--samples", samples])
    assert code == 2 and out == "" and f"bad --samples {samples}: must be >= 1" in err


@pytest.mark.parametrize("tolerance", [
    "nan,nan", "nan,1e-12", "1e-9,nan", "-1e-9,1e-12", "1e-9,-1e-12",
    "inf,1e-12", "1e-9,inf", "1e-9,-inf",
])
def test_bad_tolerance_is_a_parse_error(tolerance):
    # the "=" form, because argparse reads a leading "-" as a flag
    code, out, err = run_cli(["solve", "models/chain.sv", f"--tolerance={tolerance}"])
    assert code == 2 and out == "" and "tolerance" in err


def test_zero_tolerance_is_accepted():
    code, out, _ = run_cli(["solve", "models/chain.sv", "--tolerance", "0,0"])
    assert code == 0 and "status: ok" in out


@pytest.mark.parametrize("op", ["combine", "support", "plausibility"])
def test_evidence_honours_cap(op):
    code, out, _ = run_cli(["evidence", "models/evidence.sv", "--op", op])
    assert code == 0 and out.endswith("status: ok\n")
    code, out, err = run_cli(["evidence", "models/evidence.sv", "--op", op, "--cap", "1"])
    assert code == 1 and out == "" and "more than 1 configurations" in err


_SEVEN_BINARY = (
    "catalog\n" + "".join(f"  var x{i} : 0 1\n" for i in range(7)) + "end\n"
    "potential left on x0 x1 x2 x3\n  kind bpa\n  focal 1 : (0 0 0 0) (1 1 1 1)\nend\n"
    "potential right on x3 x4 x5 x6\n  kind bpa\n  focal 1 : (0 0 0 0) (1 1 1 1)\nend\n"
    "hypothesis h on x0 : (0)\n"
)


@pytest.mark.parametrize("op", ["combine", "support", "plausibility"])
def test_evidence_union_over_cap_exits_1(op):
    # the union {x0 .. x6} has 2^7 = 128 configurations
    code, out, err = _run_stdin(["evidence", "-", "--op", op, "--cap", "100"], _SEVEN_BINARY)
    assert (code, out) == (1, "")
    assert err == ("semival: error: domain {x0 x1 x2 x3 x4 x5 x6} "
                   "has more than 100 configurations\n")
    code, out, _ = _run_stdin(["evidence", "-", "--op", op, "--cap", "128"], _SEVEN_BINARY)
    assert code == 0 and out.endswith("status: ok\n")


@pytest.mark.parametrize("focal, conflict", [
    (["focal 0.5 :", "focal 0.5 : (a)"], "0.5"),
    (["focal 0.25 :", "focal 0.5 : (a)", "focal 0.25 : (a) (b)"], "0.25"),
    (["focal 0.5 : (a)"], "0"),
], ids=["half-empty", "quarter-empty", "no-empty"])
def test_combine_of_one_raw_potential_prints_its_empty_mass(focal, conflict):
    text = ("catalog\n  var x : a b\nend\npotential p on x\n  kind raw\n"
            + "".join(f"  {line}\n" for line in focal) + "end\n")
    code, out, _ = _run_stdin(["evidence", "-", "--op", "combine"], text)
    assert code == 0
    assert f"combined: p\nconflict: {conflict}\n" in out


def _bpas_on_u(*focals):
    """One ``kind bpa`` potential on a binary ``u`` per list of focal lines."""
    return "catalog\n  var u : a b\nend\n" + "".join(
        f"potential p{i} on u\n  kind bpa\n" + "".join(f"  {f}\n" for f in lines) + "end\n"
        for i, lines in enumerate(focals))


def test_combine_prints_the_conflict_of_the_whole_combination():
    # raw, the three put 0.375 on the empty set; the binary fold's last step
    # alone removes 1/6 of what the first step left
    text = _bpas_on_u(["focal 0.5 : (a)", "focal 0.5 : (a) (b)"],
                      ["focal 0.5 : (b)", "focal 0.5 : (a) (b)"],
                      ["focal 0.5 : (a)", "focal 0.5 : (a) (b)"])
    code, out, _ = _run_stdin(["evidence", "-", "--op", "combine"], text)
    assert code == 0
    assert out.split("\n")[3:] == [
        "combined: p0 * p1 * p2", "conflict: 0.375", "focal {(a)}: 0.6",
        "focal {(a) (b)}: 0.2", "focal {(b)}: 0.2", "status: ok", ""]


@pytest.mark.parametrize("n, combined, support", [
    (4, ["conflict: 0.9999995", "focal {(a)}: 0.4999999375",
         "focal {(a) (b)}: 1.25000015625e-07", "focal {(b)}: 0.4999999375"],
     "qsp 0.4999999375 sp 0.4999999375"),
    (6, ["conflict: 0.99999999975", "focal {(a)}: 0.499999999969",
         "focal {(a) (b)}: 6.25000000039e-11", "focal {(b)}: 0.499999999969"],
     "qsp 0.499999999969 sp 0.499999999969"),
])
def test_combine_of_near_certain_alternating_bpas(n, combined, support):
    # each step conflicts at about 0.999: the raw product's masses fall below
    # the comparator's zero, and a step rescaled by 1 - K rather than by its
    # exact non-empty mass grows the float drift of the total by 1/(1 - K);
    # the figures are the exact rational ones, rounded
    near = [["focal 0.9995 : (a)", "focal 0.0005 : (a) (b)"],
            ["focal 0.9995 : (b)", "focal 0.0005 : (a) (b)"]]
    text = _bpas_on_u(*(near[i % 2] for i in range(n))) + "hypothesis h on u : (a)\n"
    code, out, _ = _run_stdin(["evidence", "-", "--op", "combine"], text)
    assert code == 0
    assert out.split("\n")[4:-2] == combined
    code, out, _ = _run_stdin(["evidence", "-", "--op", "support"], text)
    assert code == 0
    assert f"hypothesis h {{(a)}}: {support} (normalized)\n" in out


def test_combine_of_an_exactly_conflicting_triple_exits_1():
    text = _bpas_on_u(["focal 1 : (a)"], ["focal 1 : (b)"], ["focal 1 : (a)"])
    for op in ("combine", "support"):
        code, out, err = _run_stdin(["evidence", "-", "--op", op],
                                    text + "hypothesis h on u : (a)\n")
        assert (code, out) == (1, "")
        assert err == "semival: error: operands are fully contradictory (conflict 1)\n"


def test_total_conflict_prints_k_as_a_report_value():
    # the last step removes 0.9/0.94 + 0.04/0.94, which rounds to 1 - 2^-53
    text = ("catalog\n  var u : a b c\nend\n"
            "potential p1 on u\n  kind bpa\n  focal 0.9 : (b)\n"
            "  focal 0.1 : (a) (c)\nend\n"
            "potential p2 on u\n  kind bpa\n  focal 0.6 : (b)\n"
            "  focal 0.4 : (b) (c)\nend\n"
            "potential p3 on u\n  kind bpa\n  focal 1 : (a)\nend\n")
    code, out, err = _run_stdin(["evidence", "-", "--op", "combine"], text)
    assert (code, out) == (1, "")
    assert err == "semival: error: operands are fully contradictory (conflict 1)\n"


@pytest.mark.parametrize("argv", [
    ["solve", "models/chain.sv", "--cap", "0"],
    ["solve", "models/chain.sv", "--cap", "-1"],
    ["evidence", "models/evidence.sv", "--op", "combine", "--cap", "0"],
    ["evidence", "models/evidence.sv", "--op", "moebius", "--subset-cap", "-1"],
    ["evidence", "models/evidence.sv", "--op", "moebius", "--subset-cap", "0"],
])
def test_cap_below_one_is_a_parse_error(argv):
    # every domain has at least one configuration, so such a cap is never met
    code, out, err = run_cli(argv)
    assert code == 2 and out == "" and "cap" in err and "must be >= 1" in err


_FUZZ_COMMANDS = (
    ["render", "-"],
    ["solve", "-", "--oracle"],
    *(["check", "-", "--what", what, "--samples", "3"]
      for what in ("semiring", "valuation-axioms", "qseparoid", "tree", "sequence")),
    *(["evidence", "-", "--op", op]
      for op in ("combine", "support", "plausibility", "moebius")),
)
_DEVIATION = re.compile(r"^oracle deviation .*: (\S+)$", re.M)


def test_mutated_models_fail_cleanly():
    """Seeded mutants of the fixture models, each run through every command
    its unmutated model passes: the CLI exits 0-3 without raising, prints
    no report on a parse or capability error, and keeps the oracle within
    1e-6 whenever it solves.  Every command parses the model the same way,
    so a mutant that ``render`` rejects is not run further."""
    rng = random.Random(26)
    tokens = FUZZ_TOKENS + ("1e400", "-> 0", "\0")
    parsed = deviations = 0
    for path in sorted(MODELS.glob("*.sv")):
        text = path.read_text()
        commands = [c for c in _FUZZ_COMMANDS if _run_stdin(c, text)[0] == 0]
        assert commands[0][0] == "render"
        for _ in range(300):
            mutant = _mutate(rng, text.splitlines(), edits=3, tokens=tokens)
            for command in commands:
                code, out, _ = _run_stdin(command, mutant)
                assert type(code) is int and code in (0, 1, 2, 3), (mutant, command)
                if code in (2, 3):
                    assert out == "", (mutant, command)
                for dev in _DEVIATION.findall(out):
                    assert float(dev) <= 1e-6, (mutant, command)
                    deviations += 1
                if code == 2 and command[0] == "render":
                    break
            else:
                parsed += 1
    assert parsed > 50 and deviations > 50  # the seed reaches the solvers
