"""Checks on one job's report, made from outside the program.

Each check reads only the report text, the exit code and the model file.
They are invariants every correct report satisfies, so they need no
second solver:

* ``solve`` on semiring tables: every query marginal reduces under the
  semiring's addition to the same scalar (the combined total), exactly
  for the exact carriers and within ``TOL`` relative for arithmetic;
* ``solve`` on set potentials: every marginal's focal masses sum to 1;
* ``--oracle`` deviations stay within the same tolerance;
* ``evidence``: combined masses sum to 1, plausibility equals its dual,
  support never exceeds plausibility, Moebius round trips are exact;
* ``check``: the report ends in ``result: pass``.
"""

from __future__ import annotations

import hashlib
import math
import re

TOL = 1e-9
EXACT = {"boolean", "tropical"}

_RESULT = re.compile(r"result (\{[^}]*\}): ?(.*)")
_MASS = re.compile(r"\s*focal \{.*\}: (\S+)")
_SUPPORT = re.compile(r"hypothesis (\S+) .*: qsp (\S+) sp (\S+) \(normalized\)")
_PLAUS = re.compile(r"hypothesis (\S+) .*: pl (\S+) dual (\S+)")
_DEVIATION = re.compile(r"\s*(?:oracle deviation \{[^}]*\}|roundtrip \w+): (?:max deviation )?(\S+)")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _reduce(semiring: str, values: list[float]) -> float:
    return math.fsum(values) if semiring == "arithmetic" else max(values)


def _check_tables(lines: list[str], semiring: str) -> list[str]:
    scalars, scale = [], 1.0
    for line in lines:
        m = _RESULT.match(line)
        if m:
            values = [float(v) for v in m.group(2).split()]
            scalars.append((m.group(1), _reduce(semiring, values)))
            scale = max([scale] + [abs(v) for v in values if math.isfinite(v)])
    problems = []
    if not scalars:
        problems.append("no query results")
    first = scalars[0][1] if scalars else None
    for q, s in scalars[1:]:
        same = s == first if semiring in EXACT else _close(s, first)
        if not same:
            problems.append(f"marginal {q} reduces to {s!r}, first query to {first!r}")
    limit = 0.0 if semiring in EXACT else TOL * scale
    problems += _deviations(lines, limit)
    return problems


def _check_potentials(lines: list[str]) -> list[str]:
    problems, sums, current = [], [], None
    for line in lines:
        m = _MASS.match(line)
        if m and current is not None:
            sums[-1][1].append(float(m.group(1)))
            continue
        current = None
        r = _RESULT.match(line)
        if r:
            current = r.group(1)
            sums.append((current, []))
    if not sums:
        problems.append("no query results")
    for q, masses in sums:
        if not _close(math.fsum(masses), 1.0):
            problems.append(f"focal masses of {q} sum to {math.fsum(masses)!r}")
    return problems + _deviations(lines, TOL)


def _deviations(lines: list[str], limit: float) -> list[str]:
    out = []
    for line in lines:
        m = _DEVIATION.match(line)
        if m and not float(m.group(1)) <= limit:
            out.append(f"deviation {m.group(1)} above {limit:g}: {line.strip()}")
    return out


def _check_evidence(lines: list[str], op: str, pairs: dict) -> list[str]:
    problems = []
    if op == "combine":
        masses = [float(m.group(1)) for m in map(_MASS.match, lines) if m]
        if not masses or not _close(math.fsum(masses), 1.0):
            problems.append(f"combined masses sum to {math.fsum(masses)!r}")
    elif op in ("support", "plausibility"):
        pattern = _SUPPORT if op == "support" else _PLAUS
        found = [m.groups() for m in map(pattern.match, lines) if m]
        if not found:
            problems.append(f"no {op} lines")
        for name, a, b in found:
            a, b = float(a), float(b)
            if op == "plausibility" and not _close(a, b):
                problems.append(f"hypothesis {name}: pl {a!r} differs from dual {b!r}")
            value = b if op == "support" else a  # sp, or pl
            if not -TOL <= value <= 1 + TOL:
                problems.append(f"hypothesis {name}: {op} {value!r} outside [0, 1]")
            pairs.setdefault(name, {})[op] = value
            seen = pairs[name]
            if len(seen) == 2 and seen["support"] > seen["plausibility"] + TOL:
                problems.append(f"hypothesis {name}: sp {seen['support']!r} > "
                                f"pl {seen['plausibility']!r}")
    elif op == "moebius":
        heads = [line for line in lines if line.startswith("moebius ")]
        rows = sum(1 for line in lines if line.startswith("  b "))
        expected = sum(int(h.rsplit(": ", 1)[1].split()[0]) for h in heads)
        if not heads or rows != expected:
            problems.append(f"{rows} belief rows for {expected} subsets")
        if sum(1 for line in lines if "roundtrip" in line) != 2 * len(heads):
            problems.append("missing round-trip lines")
        problems += _deviations(lines, TOL)
    return problems


def check_report(argv: tuple[str, ...], code: int, stdout: str, model_text: str,
                 pairs: dict) -> list[str]:
    """Problems with one job's outcome; an empty list means it passed.

    ``pairs`` carries support and plausibility values between the two
    reports on the same model, keyed by hypothesis name; pass one dict per
    model file.
    """
    if code != 0:
        return [f"exit code {code}"]
    lines = stdout.splitlines()
    if len(lines) < 4:
        return [f"report has only {len(lines)} lines"]
    command = argv[0]
    digest = hashlib.sha256(model_text.encode("utf-8")).hexdigest()[:16]
    if lines[1:3] != [f"command: {command}", f"input: sha256:{digest}"]:
        return ["report header does not match the command and model"]
    final = "result: pass" if command == "check" else "status: ok"
    if lines[-1] != final:
        return [f"last line {lines[-1]!r}, expected {final!r}"]
    if command == "solve":
        semiring = lines[3].split(": ", 1)[1]
        if semiring.startswith("none"):
            return _check_potentials(lines)
        return _check_tables(lines, semiring)
    if command == "evidence":
        return _check_evidence(lines, argv[argv.index("--op") + 1], pairs)
    return []
