"""The ``evidence`` benchmark's Möbius and combination reports.

The ``moebius.sv`` and ``dempster.sv`` models of the ``evidence`` workload
at seeds 1 and 1501 are run through ``cli.main`` in process; the leading
16 hex digits of the sha256 of each report must equal those recorded at
commit 2a64f15, when the Möbius report still built a ``FocalSet`` per
subset and queried each one, and every focal set's text was built
configuration by configuration.
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from semival import belief, cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

RECORDED = {
    (1, "moebius"): "49374baed2b47ddb",
    (1, "combine"): "ba45651d6149ac37",
    (1501, "moebius"): "49064c2c3c77056c",
    (1501, "combine"): "e644fcf5daf68868",
}
MODEL = {"moebius": "moebius.sv", "combine": "dempster.sv"}


def _report(tmp_path, seed: int, op: str) -> str:
    path = tmp_path / MODEL[op]
    path.write_text(workloads.build("evidence", seed).files[MODEL[op]], encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.main(["evidence", str(path), "--op", op]) == 0
    return out.getvalue()


@pytest.mark.parametrize("seed, op", sorted(RECORDED))
def test_evidence_reports_are_unchanged(seed, op, tmp_path):
    digest = hashlib.sha256(_report(tmp_path, seed, op).encode()).hexdigest()
    assert digest[:16] == RECORDED[seed, op]


def test_moebius_report_builds_no_focal_set_per_subset(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Möbius report queried subsets one by one")

    for name in ("all_focal_sets", "mass_to_belief", "mass_to_commonality"):
        monkeypatch.setattr(belief, name, refuse)
    report = _report(tmp_path, 1, "moebius")
    assert report.endswith("status: ok\n")
    assert hashlib.sha256(report.encode()).hexdigest()[:16] == RECORDED[1, "moebius"]
