"""Report containers shared by the law checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
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
    failure, whose index and trial ``witness`` describes."""
    if not applicable:
        return LawResult(name, NOT_APPLICABLE)
    for k, trial in enumerate(trials):
        if not pred(*trial):
            return LawResult(name, FAIL, witness(k, trial))
    return LawResult(name, PASS)


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
