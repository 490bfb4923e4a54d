"""Tests of the benchmark itself: generators, report checks, job accounting."""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work(tmp_path):
    return tmp_path


def _write(work: Path, wl: workloads.Workload) -> None:
    for name, text in wl.files.items():
        (work / name).write_text(text, encoding="utf-8")


def _run(work: Path, job: workloads.Job) -> run.Outcome:
    return run.spawn(job, run.cli_cmd(job), work, run.child_env())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    a, b, c = workloads.build(name, 7), workloads.build(name, 7), workloads.build(name, 8)
    assert a == b
    assert a.files != c.files
    # another seed changes values and order, never the shape of a pass
    assert sorted(j.name for j in a.jobs) == sorted(j.name for j in c.jobs)
    assert sorted(a.files) == sorted(c.files)


def test_flipped_marginal_digit_fails(work):
    files = {"grid.sv": workloads.grid_model(3, random.Random(1))}
    _write(work, workloads.Workload(files, (), ()))
    job = workloads.Job("grid3", ("solve", "grid.sv"))
    good = _run(work, job)
    assert run.Checker(work)(good), good.problems

    line = next(i for i, text in enumerate(good.stdout.splitlines())
                if text.startswith("result "))
    lines = good.stdout.splitlines()
    digit = re.search(r": (\d)", lines[line])
    flipped = "1" if digit.group(1) != "1" else "2"
    lines[line] = lines[line][:digit.start(1)] + flipped + lines[line][digit.end(1):]
    good.stdout = "\n".join(lines) + "\n"
    assert not run.Checker(work)(good)
    assert "reduces to" in good.problems[0]


def test_nonzero_exit_fails(work):
    job = workloads.Job("missing", ("solve", "no-such-model.sv"))
    outcome = _run(work, job)
    assert outcome.code == 2
    assert not run.Checker(work)(outcome)
    assert outcome.problems == ["exit code 2"]


def test_changed_report_fails(work):
    wl = workloads.build("evidence", 3)
    _write(work, wl)
    job = next(j for j in wl.jobs if j.name.endswith("-combine"))
    checker = run.Checker(work)
    first = _run(work, job)
    assert checker(first), first.problems
    first.stdout = first.stdout.replace("status: ok", "\nstatus: ok")
    assert not checker(first)


def test_tail_percentile_leaves_ten_beyond():
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (90, 90.0, 10)
    assert run.tail_percentile([float(i) for i in range(1, 21)]) == (50, 10.0, 10)


def test_traced_job_records_spans_where_callers_look_them_up(work):
    files = {"grid.sv": workloads.grid_model(3, random.Random(2))}
    _write(work, workloads.Workload(files, (), ()))
    job = workloads.Job("grid3", ("solve", "grid.sv"))
    spans = work / "spans.json"
    outcome = run.spawn(job, run.traced_cmd(job, spans, 5), work, run.child_env())
    assert run.Checker(work)(outcome), outcome.problems
    assert outcome.stdout == _run(work, job).stdout
    dump = json.loads(spans.read_text())
    names = {s[0] for s in dump["spans"]}
    assert {"cli.main", "model.parse_model", "treecomp.collect", "valuation.combine",
            "domains.restriction_index_map"} <= names
    assert all(s[4] == 5 for s in dump["spans"])
    totals = layers.job_totals(dump)
    assert totals["valuation.combine_calls"] > 0
    assert totals["domains.index_map_calls"] == (dump["index_map_cache"]["hits"]
                                                 + dump["index_map_cache"]["misses"])


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in layers.UNITS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
