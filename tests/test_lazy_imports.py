"""Each command loads only the semival modules it runs.

Every job is a fresh process, so compiling a module it never calls is pure
start-up cost.  Each command runs in a fresh interpreter started with
``-S``, so that ``site`` loads nothing, which then lists the ``semival.*``
modules in ``sys.modules`` and which of the watched standard modules it
loaded.  No command may load ``dataclasses``, ``inspect`` or ``numpy``:
importing the first two and generating a dataclass's methods cost a job
tens of milliseconds, and numpy's import over 100.  Only the law checkers
draw random numbers, so a solve or evidence job must not load ``random``
either.  The model reader loads a stanza's module when it meets the
stanza, so each probe model holds only the stanzas its command reads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent
SRC = HERE.parent / "src"

SLOW = ("dataclasses", "inspect", "numpy")
WATCHED = SLOW + ("random",)

PROBE = (
    "import sys\n"
    "from semival import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print('loaded:', *sorted(m for m in sys.modules if m.startswith('semival.')))\n"
    f"print('watched:', *(m for m in {WATCHED!r} if m in sys.modules))\n"
    "sys.exit(code)\n"
)


def _wide_model(variables: int) -> str:
    """One all-float factor over ``variables`` ternary variables."""
    names = [f"w{i}" for i in range(variables)]
    lines = ["catalog"] + [f"  var {n} : 0 1 2" for n in names] + ["end", "semiring arithmetic"]
    lines += [f"factor f on {' '.join(names)}", "  table " + " ".join(["0.5"] * 3**variables),
              "end", f"query {names[0]}"]
    return "\n".join(lines) + "\n"


MODELS = {
    "semiring.sv": "catalog\n  var v : 0 1\nend\nsemiring tropical\n",
    "partitions.sv": (
        "catalog\n  var v : 0 1\nend\n"
        "universe u : 1 2 3\n"
        "partition left of u : {1 2} {3}\n"
        "partition right of u : {1} {2 3}\n"
        "partition fine of u : {1} {2} {3}\n"
    ),
    "tree.sv": (
        "catalog\n  var a : 0 1\n  var b : 0 1\nend\n"
        "tree t\n  node 0 : a b\n  node 1 : b\n  edge 0 1\nend\n"
    ),
    "sequence.sv": (
        "catalog\n  var a : 0 1\n  var b : 0 1\nend\n"
        "sequence s\n  step a b -> 2\n  step b\nend\n"
    ),
    "wide.sv": _wide_model(10),
    # hypotheses off the union domain, so support and plausibility transport
    "transport.sv": (
        "catalog\n  var u : 0 1\n  var v : 0 1\n  var w : 0 1\nend\n"
        "potential a on u v\n  kind bpa\n  focal 1 : (0 0) (1 1)\nend\n"
        "potential b on v w\n  kind bpa\n  focal 0.5 : (0 0)\n  focal 0.5 : (0 0) (1 1)\nend\n"
        "hypothesis h on u : (0)\n"
    ),
}

# (argv, semival modules and watched modules the command must not load)
CASES = {
    "solve": (["solve", "chain.sv", "--oracle"],
              {"belief", "partitions", "reports", "random"}),
    # 3^10 cells: the size that once switched tables to numpy arrays
    "solve-wide": (["solve", "wide.sv"], {"belief", "partitions", "reports", "random"}),
    "solve-potentials": (["solve", "evidence.sv", "--oracle", "--query", "u"],
                         {"valuation", "partitions", "reports", "random"}),
    "check-semiring": (["check", "semiring.sv", "--what", "semiring", "--samples", "50"],
                       {"treecomp", "valuation", "belief", "partitions"}),
    "check-valuation-axioms": (["check", "semiring.sv", "--what", "valuation-axioms",
                                "--samples", "40"], {"treecomp", "belief", "partitions"}),
    "check-qseparoid": (["check", "partitions.sv", "--what", "qseparoid"],
                        {"treecomp", "valuation", "belief"}),
    "check-tree": (["check", "tree.sv", "--what", "tree"],
                   {"valuation", "belief", "partitions", "reports", "random"}),
    "check-sequence": (["check", "sequence.sv", "--what", "sequence"],
                       {"valuation", "belief", "partitions", "reports", "random"}),
    # set potentials never reach for the dense-table kernels, nor for the tree solver
    **{f"evidence-{op}": (["evidence", "transport.sv", "--op", op],
                          {"treecomp", "valuation", "partitions", "random"})
       for op in ("combine", "support", "plausibility", "moebius")},
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-S", *args], cwd=cwd, env=_env(),
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    for name, text in MODELS.items():
        (d / name).write_text(text)
    for name in ("chain.sv", "evidence.sv"):
        (d / name).write_text((HERE / "models" / name).read_text())
    return d


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_loads_only_what_it_runs(case, workdir):
    argv, absent = CASES[case]
    proc = _run(["-c", PROBE, *argv], workdir)
    assert proc.returncode == 0, proc.stderr
    *report, probe, watched = proc.stdout.splitlines()
    assert report[-1] in ("status: ok", "result: pass"), proc.stdout
    loaded = {m.removeprefix("semival.") for m in probe.split()[1:]}
    loaded |= set(watched.split()[1:])
    unwanted = loaded & (absent | set(SLOW))
    assert not unwanted, sorted(unwanted)


def test_no_submodule_loads_dataclasses_or_inspect(workdir):
    import semival

    code = (
        "import sys\n"
        "import semival\n"
        "for name in semival._SUBMODULES:\n"
        "    getattr(semival, name)\n"
        "print(*sorted(m for m in sys.modules if m.startswith('semival.')))\n"
        f"print(*(m for m in {SLOW!r} if m in sys.modules))\n"
    )
    proc = _run(["-c", code], workdir)
    assert proc.returncode == 0, proc.stderr
    loaded, slow = proc.stdout.splitlines()
    assert loaded.split() == sorted(f"semival.{m}" for m in semival._SUBMODULES)
    assert slow == "", slow


def test_package_import_loads_no_submodule_and_resolves_them_lazily(workdir):
    code = (
        "import sys\n"
        "import semival\n"
        "before = sorted(m for m in sys.modules if m.startswith('semival.'))\n"
        "assert before == [], before\n"
        "tc = semival.treecomp\n"
        "assert tc is sys.modules['semival.treecomp'] and tc.join_of\n"
        "assert semival.LabeledTree is tc.LabeledTree\n"
        "assert 'semival.belief' not in sys.modules\n"
        "try:\n"
        "    semival.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "print('ok')\n"
    )
    proc = _run(["-c", code], workdir)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_every_exported_name_resolves():
    import semival

    assert len(set(semival.__all__)) == len(semival.__all__)
    for name in semival.__all__:
        assert getattr(semival, name) is not None, name
    namespace = {}
    exec("from semival import *", namespace)
    assert set(semival.__all__) <= set(namespace)
    assert namespace["Valuation"] is semival.valuation.Valuation
    assert namespace["SetPotentialOps"] is semival.treecomp.SetPotentialOps


def test_every_public_function_is_exported_or_used():
    """Each public top-level ``def`` or ``class`` of the package is exported
    from ``semival`` or named by some module of it; one that is neither runs
    only under the tests, and belongs in ``tests/``."""
    import semival

    trees = [ast.parse(path.read_text()) for path in sorted((SRC / "semival").glob("*.py"))]
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    public = {node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert sorted(public - set(semival._HOME) - used) == []
