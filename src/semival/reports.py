"""Report containers shared by the law checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count, starmap
from operator import not_
from typing import Callable, Sequence

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "n/a"


@dataclass(frozen=True)
class LawResult:
    law: str
    status: str
    witness: str | None = None

    def line(self) -> str:
        out = f"law {self.law}: {self.status}"
        if self.witness:
            out += f"  [{self.witness}]"
        return out


def run_law(name: str, pred: Callable[..., bool], *, trials: Sequence[tuple],
            witness: Callable[[int, tuple], str],
            applicable: bool = True) -> LawResult:
    """Evaluate ``pred(*trial)`` on the trials in order, stopping at the first
    failure, whose index and trial ``witness`` describes.

    A law predicate must be a pure function of its trial, or draw from a
    shared ``rng`` only in trial order: the scan is lazy, so ``pred`` runs
    on trials ``0..k`` and no further when trial ``k`` is the first to fail.
    """
    if not applicable:
        return LawResult(name, NOT_APPLICABLE)
    k = next(compress(count(), map(not_, starmap(pred, trials))), None)
    if k is None:
        return LawResult(name, PASS)
    return LawResult(name, FAIL, witness(k, trials[k]))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a randomized or exhaustive law check, seed recorded."""

    subject: str
    seed: int
    samples: int
    laws: tuple[LawResult, ...]
    details: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(r.status != FAIL for r in self.laws)

    def lines(self) -> list[str]:
        out = [f"check {self.subject} (samples={self.samples} seed={self.seed})"]
        out.extend(d for d in self.details)
        out.extend(r.line() for r in self.laws)
        out.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())
