"""Post-hoc property verdicts over recorded runs.

Checkers are pure functions of a trace and their parameters; they never
care how the trace was produced.  A failing verdict carries a witness
pinned to the first violating event, and re-checking the trace truncated
at the witness still fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .alpha import AgreementFunction
from .sim import RunTrace, canonical_json


@dataclass(frozen=True)
class Verdict:
    prop: str
    passed: bool
    witness: Optional[dict] = None

    def to_json_obj(self) -> dict:
        return {"property": self.prop, "pass": self.passed, "witness": self.witness}


def check_validity(trace: RunTrace) -> Verdict:
    """Every decided value must be some participant's input."""
    allowed = {canonical_json(trace.inputs[p]) for p in trace.participating if p in trace.inputs}
    for d in trace.decisions:
        if canonical_json(d.value) not in allowed:
            return Verdict(
                "validity", False, {"step": d.step, "process": d.pid, "value": d.value}
            )
    return Verdict("validity", True)


def check_alpha_agreement(trace: RunTrace, fn: AgreementFunction) -> Verdict:
    """At each decision, the distinct decisions so far fit the current participation.

    Time is the trace's step index; the participating set at a decision is
    everyone with an event at or before it.  Raises ValueError when the
    trace and the function have different universe sizes.
    """
    if trace.n != fn.n:
        raise ValueError(f"universe mismatch: trace n={trace.n}, alpha n={fn.n}")
    first = trace.first_steps()
    distinct: set[str] = set()
    for d in trace.decisions:
        distinct.add(canonical_json(d.value))
        bits = 0
        for pid, at in first.items():
            if at <= d.step:
                bits |= 1 << (pid - 1)
        level = fn.of_bits(bits)
        if len(distinct) > level:
            return Verdict(
                "alpha-agreement",
                False,
                {
                    "step": d.step,
                    "process": d.pid,
                    "distinct": len(distinct),
                    "level": level,
                    "participating": [p + 1 for p in range(trace.n) if bits >> p & 1],
                },
            )
    return Verdict("alpha-agreement", True)


def check_termination(trace: RunTrace, among: Optional[Iterable[int]] = None) -> Verdict:
    """Every correct participant decided (optionally restricted to a client set)."""
    scope = set(among) if among is not None else None
    for pid in trace.schedule.correct:
        if pid not in trace.participating:
            continue
        if scope is not None and pid not in scope:
            continue
        if not trace.has_decided(pid):
            return Verdict(
                "termination", False, {"process": pid, "status": trace.statuses.get(pid)}
            )
    return Verdict("termination", True)


def check_k_agreement(trace: RunTrace, k: int) -> Verdict:
    """At most k distinct decisions overall, and every one of them valid."""
    validity = check_validity(trace)
    if not validity.passed:
        return Verdict("k-agreement", False, validity.witness)
    distinct: set[str] = set()
    for d in trace.decisions:
        distinct.add(canonical_json(d.value))
        if len(distinct) > k:
            return Verdict(
                "k-agreement",
                False,
                {"step": d.step, "process": d.pid, "distinct": len(distinct), "k": k},
            )
    return Verdict("k-agreement", True)
