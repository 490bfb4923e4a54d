"""The ``evidence`` benchmark's reports.

The jobs of the ``evidence`` workload at seeds 1 and 1501 are run through
``cli.main`` in process; the leading 16 hex digits of the sha256 of each
report must equal those recorded before focal sets became bitmasks.  The
Möbius and combination reports were recorded at commit 2a64f15, when the
Möbius report still built a ``FocalSet`` per subset and queried each one,
and every focal set's text was built configuration by configuration; the
support, plausibility and ``bpa-chain`` solve reports at commit 38634c1,
when focal sets were sets of configuration tuples.
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
    (1, "support"): "738226d944b0a546",
    (1, "plausibility"): "864c63a92ffefa05",
    (1, "bpa-chain20"): "7c052873cb2c0e77",
    (1, "bpa-chain40"): "068f71fb34fdcc5b",
    (1501, "moebius"): "49064c2c3c77056c",
    (1501, "combine"): "e644fcf5daf68868",
    (1501, "support"): "4115ff9a4918fa5d",
    (1501, "plausibility"): "367902c33174f6d8",
    (1501, "bpa-chain20"): "b13daf6d03f700bf",
    (1501, "bpa-chain40"): "6cc85e532528f763",
}
ARGV = {  # the model file second
    "moebius": ("evidence", "moebius.sv", "--op", "moebius"),
    **{op: ("evidence", "dempster.sv", "--op", op)
       for op in ("combine", "support", "plausibility")},
    **{chain: ("solve", f"{chain}.sv") for chain in ("bpa-chain20", "bpa-chain40")},
}


def _report(tmp_path, seed: int, job: str) -> str:
    command, model, *flags = ARGV[job]
    path = tmp_path / model
    path.write_text(workloads.build("evidence", seed).files[model], encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.main([command, str(path), *flags]) == 0
    return out.getvalue()


@pytest.mark.parametrize("seed, job", sorted(RECORDED))
def test_evidence_reports_are_unchanged(seed, job, tmp_path):
    digest = hashlib.sha256(_report(tmp_path, seed, job).encode()).hexdigest()
    assert digest[:16] == RECORDED[seed, job]


def test_moebius_report_builds_no_focal_set_per_subset(tmp_path, monkeypatch):
    """The Möbius report calls neither per-subset query, and matches its digest."""
    def refuse(*args, **kwargs):
        raise AssertionError("the Möbius report queried subsets one by one")

    for name in ("mass_to_belief", "mass_to_commonality"):
        monkeypatch.setattr(belief, name, refuse)
    report = _report(tmp_path, 1, "moebius")
    assert report.endswith("status: ok\n")
    assert hashlib.sha256(report.encode()).hexdigest()[:16] == RECORDED[1, "moebius"]
