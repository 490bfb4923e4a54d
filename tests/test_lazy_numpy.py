"""No job imports numpy.

Tables are tuples, and numpy is not a dependency; importing it would cost a
job over 100 ms of start-up and about 13 MB of resident memory.  Each command
runs in a fresh interpreter on the full test models (the ``laws`` model and a
400-variable chain), which then reports whether ``numpy`` is in
``sys.modules``.  ``tests/test_lazy_imports.py`` checks the same on minimal
models, together with the ``semival`` modules each command loads and the
3^10-cell table that once switched to numpy arrays.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent
SRC = HERE.parent / "src"

PROBE = (
    "import sys\n"
    "from semival import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print('numpy imported:', 'numpy' in sys.modules)\n"
    "sys.exit(code)\n"
)


def _chain_model(length: int) -> str:
    """A path of binary variables with pairwise arithmetic factors."""
    names = [f"x{i:03d}" for i in range(length)]
    lines = ["catalog"] + [f"  var {n} : 0 1" for n in names] + ["end", "semiring arithmetic"]
    lines += ["factor prior on x000", "  table 0.25 0.75", "end"]
    for i in range(length - 1):
        lines += [f"factor f{i} on {names[i]} {names[i + 1]}", "  table 0.5 0.5 0.25 0.75", "end"]
    lines += [f"query {names[q]}" for q in range(25, length, 50)]
    return "\n".join(lines) + "\n"


def _numpy_imported(argv, cwd) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *report, probe = proc.stdout.splitlines()
    assert report[-1] in ("status: ok", "result: pass"), proc.stdout
    return probe == "numpy imported: True"


COMMANDS = [
    ["solve", "chain.sv"],
    *(["check", "laws.sv", "--what", what, "--samples", "40"]
      for what in ("semiring", "valuation-axioms", "qseparoid", "tree", "sequence")),
    *(["evidence", "evidence.sv", "--op", op]
      for op in ("combine", "support", "plausibility", "moebius")),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    (d / "chain.sv").write_text(_chain_model(400))
    for name in ("laws.sv", "evidence.sv"):
        (d / name).write_text((HERE / "models" / name).read_text())
    return d


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: "-".join([a[0]] + a[3:4]))
def test_small_jobs_do_not_import_numpy(argv, workdir):
    assert not _numpy_imported(argv, workdir)
