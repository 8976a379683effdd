"""Bounded-check reports and deterministic sampling parameters.

"Holds" is always "holds up to the recorded (seed, count, size_bound)";
a counterexample carries the witness values so it can be re-verified by
feeding them back through the predicate that produced the report.
"""

from __future__ import annotations

from dataclasses import dataclass

HOLDS = "holds"
COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class SampleSpec:
    """Parameters of a deterministic element stream.

    Identical specs yield identical streams per instance.
    """

    seed: int
    count: int
    size_bound: int


@dataclass(frozen=True)
class LawReport:
    """Outcome of one bounded or sampled law check."""

    law: str
    verdict: str
    bound: SampleSpec | None = None
    witness: tuple = ()
    detail: str = ""
    analytic: bool = False

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def witness_strings(self) -> list[str]:
        return [str(w) for w in self.witness]

    def __str__(self) -> str:
        head = f"{self.law}: {self.verdict}"
        if self.detail:
            head += f" ({self.detail})"
        if self.witness:
            head += " witness " + ", ".join(self.witness_strings())
        if self.bound is not None:
            head += f" [seed={self.bound.seed} samples={self.bound.count} size={self.bound.size_bound}]"
        return head


def law_holds(law: str, bound: SampleSpec | None = None, detail: str = "",
              analytic: bool = False) -> LawReport:
    return LawReport(law, HOLDS, bound, (), detail, analytic)


def law_counterexample(law: str, witness: tuple, bound: SampleSpec | None = None,
                       detail: str = "") -> LawReport:
    return LawReport(law, COUNTEREXAMPLE, bound, tuple(witness), detail)
