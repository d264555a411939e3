"""Post-hoc property verdicts over recorded runs.

Checkers are pure functions of a trace and their parameters; they never
care how the trace was produced.  A failing verdict carries a witness
pinned to the first violating event, and re-checking the trace truncated
at the witness still fails (the tests cut traces with `truncate_trace`,
which lives in `tests/oracles.py`).  Time is the step index, whatever order
a trace file lists its events and decisions in.

Values compare by their canonical JSON text (`sim.canonical_json`) through
a hashable key, `value_key`: a plain int or str keys as itself, any other
value as its tagged canonical text, so only values that are neither pay
for a `json.dumps`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, NamedTuple, Optional

from .alpha import AgreementFunction
from .sim import RunTrace, canonical_json

_STEP = attrgetter("step")


class Verdict(NamedTuple):
    prop: str
    passed: bool
    witness: Optional[dict] = None

    def to_json_obj(self) -> dict:
        return {"property": self.prop, "pass": self.passed, "witness": self.witness}


def value_key(value: object) -> object:
    """A hashable key equal for two values exactly when their canonical JSON texts are.

    A plain int or str keys as itself: its text is a function of the value,
    and an int never equals a str.  Any other value keys as the tuple
    (None, canonical text), which equals no int or str, so True and 1, 1.0
    and 1, or the list [1, 2] and the str "[1,2]" stay apart while (1, 2)
    and [1, 2] meet.  A value JSON cannot encode raises TypeError.
    """
    if type(value) is int or type(value) is str:
        return value
    return (None, canonical_json(value))


def check_validity(trace: RunTrace) -> Verdict:
    """Every decided value must be some participant's input.

    The witness is the invalid decision with the smallest step, the first
    listed among those at that step.  It is looked for only once some
    decision is invalid, so a passing trace is read once.
    """
    bits = trace.participating.bits
    allowed = {value_key(v) for p, v in trace.inputs.items() if bits >> (p - 1) & 1}
    for d in trace.decisions:
        if value_key(d.value) not in allowed:
            d = min((e for e in trace.decisions if value_key(e.value) not in allowed), key=_STEP)
            return Verdict(
                "validity", False, {"step": d.step, "process": d.pid, "value": d.value}
            )
    return Verdict("validity", True)


def check_alpha_agreement(trace: RunTrace, fn: AgreementFunction) -> Verdict:
    """At each decision, the distinct decisions so far fit the current participation.

    The participating set at a decision is everyone with an event at or
    before its step: one cursor over the processes, by earliest step,
    follows the decisions in step order.  Raises ValueError when the trace
    and the function have different universe sizes.
    """
    if trace.n != fn.n:
        raise ValueError(f"universe mismatch: trace n={trace.n}, alpha n={fn.n}")
    first: dict[int, int] = {}  # each process's earliest step
    for ev in trace.events:
        if first.setdefault(ev.pid, ev.step) > ev.step:
            first[ev.pid] = ev.step
    joins = sorted(zip(first.values(), first))  # (earliest step, pid), ascending
    joined = bits = 0
    distinct: set[object] = set()
    for d in sorted(trace.decisions, key=_STEP):
        while joined < len(joins) and joins[joined][0] <= d.step:
            bits |= 1 << (joins[joined][1] - 1)
            joined += 1
        distinct.add(value_key(d.value))
        level = fn.table[bits]
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
    """Every correct participant decided (optionally restricted to a client set).

    The first undecided one in id order is the witness.
    """
    scope = set(among) if among is not None else None
    decided = {d.pid for d in trace.decisions}
    bits = trace.schedule.correct.bits & trace.participating.bits
    pid = 0
    while bits:
        pid += 1
        if bits & 1 and pid not in decided and (scope is None or pid in scope):
            return Verdict(
                "termination", False, {"process": pid, "status": trace.statuses.get(pid)}
            )
        bits >>= 1
    return Verdict("termination", True)


def check_k_agreement(trace: RunTrace, k: int) -> Verdict:
    """At most k distinct decisions overall, counted in step order; validity is `check_validity`'s question."""
    distinct: set[object] = set()
    for d in sorted(trace.decisions, key=_STEP):
        distinct.add(value_key(d.value))
        if len(distinct) > k:
            return Verdict(
                "k-agreement",
                False,
                {"step": d.step, "process": d.pid, "distinct": len(distinct), "k": k},
            )
    return Verdict("k-agreement", True)
