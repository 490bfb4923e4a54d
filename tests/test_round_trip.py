"""Every generated and fixture model survives ``render``.

For each model that ``perfbench/workloads.build`` writes at seeds 1-3
(imported read-only) and each model in ``tests/models``, rendering is a
fixed point after one parse, and every ``solve``/``evidence`` job prints
the same report on the rendered model as on the original, apart from the
``input: sha256:`` line that names the model text.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from semival import cli
from semival.model import parse_model, render_model

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
import workloads  # noqa: E402

FIXTURE_JOBS = (
    ("solve", "chain.sv", "--oracle"),
    ("solve", "laws.sv", "--oracle", "--heuristic", "min-degree"),
    *(("evidence", "evidence.sv", "--op", op)
      for op in ("combine", "support", "plausibility", "moebius")),
)


def _report(argv) -> tuple[int, list[str]]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, [line for line in out.getvalue().splitlines()
                  if not line.startswith("input: sha256:")]


def _check(files: dict[str, str], jobs, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        canon = render_model(parse_model(text))
        assert render_model(parse_model(canon)) == canon, name
        (tmp_path / name).write_text(text, encoding="utf-8")
        (tmp_path / f"rendered-{name}").write_text(canon, encoding="utf-8")
    ran = 0
    for argv in jobs:
        if argv[0] not in ("solve", "evidence"):
            continue
        code, lines = _report(argv)
        assert code == 0 and lines[-1] == "status: ok", argv
        assert _report((argv[0], f"rendered-{argv[1]}", *argv[2:])) == (code, lines), argv
        ran += 1
    return ran


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_models_round_trip(workload, seed, tmp_path, monkeypatch):
    wl = workloads.build(workload, seed)
    jobs = [job.argv for job in wl.jobs + wl.oracle_jobs]
    ran = _check(wl.files, jobs, tmp_path, monkeypatch)
    assert ran > 0 or workload == "laws"


def test_fixture_models_round_trip(tmp_path, monkeypatch):
    files = {path.name: path.read_text() for path in sorted((HERE / "models").glob("*.sv"))}
    assert _check(files, FIXTURE_JOBS, tmp_path, monkeypatch) == len(FIXTURE_JOBS)
