"""Report containers shared by the law checkers."""

from __future__ import annotations

from itertools import compress, count, starmap
from operator import not_
from typing import Callable, Sequence

from .errors import Frozen

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "n/a"


class LawResult(Frozen):
    __slots__ = ("law", "status", "witness")

    def __init__(self, law: str, status: str, witness: str | None = None):
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)

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


class CheckReport(Frozen):
    """Outcome of a randomized or exhaustive law check, seed recorded."""

    __slots__ = ("subject", "seed", "samples", "laws", "details")

    def __init__(self, subject: str, seed: int, samples: int,
                 laws: tuple[LawResult, ...], details: tuple[str, ...] = ()):
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "details", details)

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
