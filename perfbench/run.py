"""The semival benchmark: closed-loop CLI jobs, one client, one process per job.

Usage:
    python3 perfbench/run.py --workload grid|chain|evidence|laws --seed N \\
        --seconds S --trace 0|1

Every job is a fresh ``python -m semival.cli`` process on a generated
model, because that is what a CLI user pays for: interpreter start and
imports plus a cold index-map cache.  The run sets up (generates and
writes the models, then runs the small ``--oracle`` jobs, or the first
job where the workload has none) three times and reports the median as
``setup_s``.  It then runs whole passes of the workload's job list, one
job after the other, until ``--seconds`` have passed and at least
``MIN_JOBS`` jobs ran, and checks every report from outside the program
(see ``verify.py``); a report must also be byte-identical to the same
job's report in the first pass.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1``
each job runs twice, untraced and then under ``tracer.py``, and the run
prints the per-layer metrics per pass of the job list, with the tracing
overhead.  The last line of standard output is the JSON result; a results
record with the machine, the seed, the per-job times and the digest of
one pass of reports (every pass must match it) is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import verify
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_JOBS = 25
JOB_LIMIT_S = 60.0
TAIL_BEYOND = 10

END_TO_END = {  # metric -> unit
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Outcome:
    job: workloads.Job
    wall: float
    code: int
    stdout: str
    rss_kb: int
    stderr_tail: str
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(job: workloads.Job, cmd: list[str], cwd: Path, env: dict) -> Outcome:
    """Run one job to completion; wall time is from spawn to reaping."""
    with open(cwd / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(JOB_LIMIT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-2000:].decode("utf-8", "replace")
    return Outcome(job, wall, proc.returncode, out.decode("utf-8", "replace"),
                   usage.ru_maxrss, tail)


def cli_cmd(job: workloads.Job) -> list[str]:
    return [sys.executable, "-m", "semival.cli", *job.argv]


def traced_cmd(job: workloads.Job, spans: Path, job_id: int) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), str(spans), str(job_id), *job.argv]


class Checker:
    """Checks outcomes against ``verify`` and against the first pass's reports."""

    def __init__(self, work: Path):
        self.work = work
        self.models: dict[str, str] = {}
        self.pairs: dict[str, dict] = {}
        self.first: dict[tuple, str] = {}

    def __call__(self, o: Outcome) -> bool:
        if o.job.model not in self.models:
            path = self.work / o.job.model
            self.models[o.job.model] = path.read_text(encoding="utf-8") if path.exists() else ""
        model = self.models[o.job.model]
        o.problems = verify.check_report(o.job.argv, o.code, o.stdout, model,
                                         self.pairs.setdefault(o.job.model, {}))
        if not o.problems and self.first.setdefault(o.job.argv, o.stdout) != o.stdout:
            o.problems.append("report differs from an earlier run of the same job")
        return not o.problems


def set_up(workload: str, seed: int, work: Path, env: dict):
    """Generate and write the models, then run the untimed warm-up jobs."""
    start = time.perf_counter()
    wl = workloads.build(workload, seed)
    for name, text in wl.files.items():
        (work / name).write_text(text, encoding="utf-8")
    warm = [spawn(job, cli_cmd(job), work, env) for job in wl.oracle_jobs or wl.jobs[:1]]
    return time.perf_counter() - start, wl, warm


def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile (nearest rank) with ``TAIL_BEYOND`` values above it."""
    values = sorted(values)
    n = len(values)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, values[rank - 1], n - rank
    return 100, values[-1], 0


def measure(wl: workloads.Workload, work: Path, env: dict, seconds: float
            ) -> tuple[list[Outcome], int, float]:
    """Whole passes of the job list, back to back, until time and job count are met."""
    outcomes: list[Outcome] = []
    passes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(outcomes) < MIN_JOBS:
        outcomes += [spawn(job, cli_cmd(job), work, env) for job in wl.jobs]
        passes += 1
    return outcomes, passes, time.perf_counter() - start


def end_to_end(outcomes: list[Outcome], elapsed: float, setup: list[float]
               ) -> tuple[dict, dict]:
    ok = [o.wall * 1000 for o in outcomes if not o.problems] or [0.0]
    p, tail, beyond = tail_percentile(ok)
    metrics = {
        "jobs_per_s": sum(1 for o in outcomes if not o.problems) / elapsed,
        "job_p50_ms": statistics.median(ok),
        "job_tail_ms": tail,
        "peak_rss_mb": max(o.rss_kb for o in outcomes) / 1024,
        "setup_s": statistics.median(setup),
    }
    tail_info = {"percentile": p, "jobs_beyond": beyond, "jobs": len(outcomes)}
    return metrics, tail_info


def trace(wl: workloads.Workload, work: Path, env: dict, seconds: float
          ) -> tuple[list[Outcome], int, dict, bool]:
    """Each job untraced then traced, in whole passes; per-layer metrics per pass."""
    outcomes: list[Outcome] = []
    totals: list[dict] = []
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for job in wl.jobs:
            plain = spawn(job, cli_cmd(job), work, env)
            spans = work / f"spans-{len(totals)}.json"
            spanned = spawn(job, traced_cmd(job, spans, len(totals)), work, env)
            if spans.exists():  # missing only when the job died; the checker fails it
                with open(spans, encoding="utf-8") as fh:
                    totals.append(layers.job_totals(json.load(fh)))
                spans.unlink()
            outcomes += [plain, spanned]
            untraced += plain.wall
            traced += spanned.wall
        passes += 1
    counts = [{k: t[k] for k in (*layers.CALLS, *layers.WORK)} for t in totals]
    width = len(wl.jobs)
    repeat = all(c == counts[i % width] for i, c in enumerate(counts))
    return outcomes, passes, layers.per_pass(totals, passes, traced, untraced), repeat


def machine() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() if done.returncode == 0 else "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform()}


def per_job(outcomes: list[Outcome]) -> dict:
    by_name: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_name.setdefault(o.job.name, []).append(o)
    return {name: {"runs": len(runs), "median_ms": statistics.median(o.wall for o in runs) * 1000,
                   "peak_rss_mb": max(o.rss_kb for o in runs) / 1024}
            for name, runs in sorted(by_name.items())}


def layer_shares(metrics: dict) -> list[str]:
    """Each layer's self time as a share of ``cli.main_s``."""
    main_s = metrics["cli.main_s"] or 1.0
    selves = {"cli": metrics["cli.self_s"]}
    selves.update({name: metrics[f"layers.{name}_self_s"] for name in layers.LAYERS[1:]})
    return ["self time per pass, share of cli.main_s: " + ", ".join(
        f"{name} {100 * value / main_s:.1f}%" for name, value in selves.items())]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "semival" / "cli.py").is_file():
        print(f"run.py: no semival sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        checker = Checker(work)
        setup, warm = [], []
        for _ in range(SETUP_REPEATS):
            seconds, wl, outcomes = set_up(args.workload, args.seed, work, env)
            setup.append(seconds)
            warm += outcomes
        if args.trace:
            outcomes, passes, metrics, repeat = trace(wl, work, env, args.seconds)
        else:
            outcomes, passes, elapsed = measure(wl, work, env, args.seconds)
        checked = warm + outcomes
        failed = [o for o in checked if not checker(o)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = outcomes[::2] if args.trace else outcomes
    digest = hashlib.sha256()
    for o in plain[:len(wl.jobs)]:
        digest.update(o.stdout.encode("utf-8"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine(), "passes": passes,
              "pass": [job.name for job in wl.jobs], "stdout_sha256": digest.hexdigest(),
              "setup_s_each": setup, "attempted": len(checked), "failed": len(failed),
              "fail_frac": len(failed) / len(checked)}
    if args.trace:
        units = {name: unit for name, (unit, _) in layers.UNITS.items()}
        record["ratio_bases"] = layers.RATIO_BASES
        record["counts_repeat_every_pass"] = repeat
        record["per_job_traced"] = per_job(outcomes[1::2])
        lines = [f"{name:30s} {value:.6g} {units[name]}" for name, value in metrics.items()]
        lines += layer_shares(metrics)
    else:
        metrics, record["tail"] = end_to_end(outcomes, elapsed, setup)
        units = END_TO_END
        lines = [f"{name:12s} {value:.6g} {units[name]}" for name, value in metrics.items()]
        lines.insert(3, f"{'':12s} (p{record['tail']['percentile']} of "
                        f"{record['tail']['jobs']} jobs, {record['tail']['jobs_beyond']} beyond)")
    lines.append(f"fail_frac    {record['fail_frac']:.6g} ratio "
                 f"({len(failed)} of {len(checked)} jobs, set-up included)")
    record["metrics"] = metrics
    record["per_job"] = per_job(plain)
    record["failures"] = [{"job": o.job.name, "argv": o.job.argv, "problems": o.problems,
                           "stderr": o.stderr_tail} for o in failed[:20]]
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {passes} passes of "
          f"{len(wl.jobs)} jobs; record {path.relative_to(ROOT)}")
    for line in lines:
        print(line)
    for o in failed[:5]:
        print(f"FAILED {o.job.name}: {'; '.join(o.problems)}")
    print(json.dumps({"correct": not failed, "attempted": len(checked), "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
