"""The ``laws`` benchmark reports, and the law scan behind them.

Each job of the ``laws`` workload at seeds 1-3 is run through ``cli.main``
in process; the sha256 of its stdout must equal the digest recorded at
commit 33e52a1, when the checkers still made one call per trial and use,
so the table-driven and deduplicating checkers print the same bytes.
The workload's tree and sequence, each with one violation planted deep
inside, must fail at that place.
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import oracles
from semival import cli
from semival.reports import run_law

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

RECORDED = {
    1: {
        "axioms-arithmetic": "807e3eaa194c1ea7e5ff732c2e91e7c3f92f881cb15568996186b062fe6e4e73",
        "axioms-boolean": "655f418a5d7c00f011aaf9efb8a731294cc4d72de880896ab08e7ed8f7ec6723",
        "qseparoid4": "42f289962e36dcd5de4e2e9dc4da23209c18afbe1f222ccf1ec4c6243d0eb8fe",
        "qseparoid5": "9b8a27e11102dec268a6e203838bc8aebcaf79827172c7e76ccf173e8974ddc0",
        "semiring-arithmetic": "0e53ce8a3d4359c4b5820889d5a5cfb985e41e586046cfd6c14b22a3f6ef3098",
        "semiring-boolean": "140fbe4dd6c10b46db582569582fed6217f4a4f06a17e4131a907e95afaba216",
        "semiring-tropical": "a24a4718fa96c80ebc4811e65f195200f31134024a29fc86d5adcd1b5245fec4",
        "sequence300": "cd5c48b7784c73df0ce1f3348393a07262d021bf8c88bf3376d6a8d539539585",
        "tree300": "95a19a4db7880ba3f80f724efd71634d3e1382bf7d49f5dd12a95bdd5d50339e",
    },
    2: {
        "axioms-arithmetic": "7d55ec227045f22281093b4c84f8214fa8cdfb561edd75401df92e10da271a38",
        "axioms-boolean": "1f1d4ffcffca8ab4ecc5fc6a7c0693a3ac5a5624b0c9086c4ad3681a316bc805",
        "qseparoid4": "cd6e33c94ee441e8b663678edcd616701713aea3b36ac3e2acabea18c02a2f6c",
        "qseparoid5": "d1d3daab61067b8351ffa1a57486cba2b839c8a412539ec993a083fdcd25ca56",
        "semiring-arithmetic": "20b4122bef0155b7832174718eba416a19a095932a7c50f52ee4e413530b8d37",
        "semiring-boolean": "b6c18730a448dee9bd14548f8a77848fc1940605430ef07bb541e98dda3b968d",
        "semiring-tropical": "d6ce08238a0e4ec31148e670bd16548a0e2645b573144d90d5c143334b480feb",
        "sequence300": "687e6ca57d470ce4a6f1aba26aa6ad5b83205bd9fb323aa3d87c4c747d4ab0cc",
        "tree300": "4923bab1458871d035118c4a5f7531c1b2e089af73699adf77523f203c27a69a",
    },
    3: {
        "axioms-arithmetic": "9c8390ee53149c1caf491020cff58727b448c2ebb474cf234e395b29764aa2d0",
        "axioms-boolean": "e940c66b4ee7f97c12bf9ea6884a99715056a405d3c1ca8ca897ce4790627f24",
        "qseparoid4": "335c7197235bfff4756823b0232a9004eb4f8d897ab0fdbf95daee8279631d85",
        "qseparoid5": "bcf80764e9800e57d786850476a7dcaa645a4224a3d2dc267b650351e8d3aaa4",
        "semiring-arithmetic": "c5f9c826da1609be50651ed5f9a82553a3a555caa8879ae6fab8a4987f4c2305",
        "semiring-boolean": "68bd425945ecb88afcd818054e990f6ea8176f58d7e09613846b51bd37891b10",
        "semiring-tropical": "20b4db8584c935d5d4a31acb560f951065a1bd05954ab81331659693ee0e0fd6",
        "sequence300": "54d2fde6a6e51816167dc75cb98e91f1c2ed60de00e4ad1257f50717e0c45d43",
        "tree300": "24ca5a7c24fa971b29f5f2d5697f0449f7f8dff77baa90bbfb669503a126142c",
    },
}


@pytest.mark.parametrize("seed", sorted(RECORDED))
def test_laws_reports_are_unchanged(seed, tmp_path, monkeypatch):
    wl = workloads.build("laws", seed)
    for name, text in wl.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    got = {}
    for job in wl.jobs:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert cli.main(list(job.argv)) == 0, job.name
        got[job.name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == RECORDED[seed]


def _check(path, what):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["check", str(path), "--what", what])
    return code, out.getvalue()


@pytest.mark.parametrize("seed", sorted(RECORDED))
def test_a_violation_planted_deep_in_the_laws_tree_and_sequence_is_found(seed, tmp_path):
    """Node 150 of the 300-node tree and step 150 of the 300-step sequence
    also take ``n000``, which only the root holds; no node on the path
    between them, and not the step's pointer target, holds it."""
    wl = workloads.build("laws", seed)
    tree = wl.files["tree.sv"]
    planted = tree.replace("\n  node 150 : ", "\n  node 150 : n000 ", 1)
    assert planted != tree
    lines = wl.files["sequence.sv"].split("\n")
    k = [i for i, line in enumerate(lines) if line.startswith("  step ")][149]
    assert not lines[k].endswith("-> 300")  # step 300 is the root's, which holds n000
    lines[k] = lines[k].replace("  step ", "  step n000 ", 1)
    for name, text in (("tree.sv", tree), ("planted-tree.sv", planted),
                       ("sequence.sv", wl.files["sequence.sv"]),
                       ("planted-sequence.sv", "\n".join(lines))):
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out = _check(tmp_path / "tree.sv", "tree")
    assert code == 0 and "join-tree: yes\n" in out
    code, out = _check(tmp_path / "planted-tree.sv", "tree")
    assert code == 1 and "join-tree: no\n" in out and out.endswith("result: FAIL\n")
    code, out = _check(tmp_path / "sequence.sv", "sequence")
    assert code == 0 and "valid: yes\n" in out
    code, out = _check(tmp_path / "planted-sequence.sv", "sequence")
    assert code == 1 and "valid: no (violated at step 150)\n" in out


def _trial_witness(k, trial):
    return f"trial {k}: {trial}"


@pytest.mark.parametrize("first_failure", [None, 0, 1, 5, 9])
def test_run_law_stops_at_the_first_failure(first_failure):
    trials = [(i,) for i in range(10)]
    calls = []

    def pred(i):
        calls.append(i)
        return i != first_failure

    law = dict(trials=trials, witness=_trial_witness)
    result = run_law("law", pred, **law)
    assert calls == list(range(10 if first_failure is None else first_failure + 1))
    assert result == oracles.loop_run_law("law", pred, **law)

