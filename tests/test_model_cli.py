import io
import random
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


def _mutate(rng, lines):
    """One or two token edits, or a line duplicated or dropped."""
    lines = [line.split() for line in lines]
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(lines))
        toks = lines[i]
        op = rng.randrange(6)
        if op == 0 and toks:
            toks[rng.randrange(len(toks))] = rng.choice(FUZZ_TOKENS)
        elif op == 1 and toks:
            other = rng.choice([t for line in lines for t in line])
            toks[rng.randrange(len(toks))] = other
        elif op == 2 and toks:
            del toks[rng.randrange(len(toks))]
        elif op == 3:
            toks.insert(rng.randint(0, len(toks)), rng.choice(FUZZ_TOKENS))
        elif op == 4:
            lines.insert(i, list(toks))
        elif len(lines) > 1:
            del lines[i]
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


def test_mutated_models_parse_or_raise_parse_error():
    """Every token-level mutation of a fixture model either raises
    ``ParseError`` or parses to a model whose rendering is a fixed point."""
    rng = random.Random(7)
    fixtures = [path.read_text().splitlines() for path in sorted(MODELS.glob("*.sv"))]
    parsed = 0
    for _ in range(3000):
        text = _mutate(rng, rng.choice(fixtures))
        try:
            model = parse_model(text)
        except ParseError:
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
