"""Executable protocol state machines for the snapshot-memory simulator.

Each process runs a generator that yields the value its next update writes
(its whole cell record), receives the view of the snapshot that follows
(`view = yield payload()`), and finishes by returning its decision.  All
protocols here follow the full-information discipline: the first write
carries the process's input, every later write carries the process's whole
current record, and a decided process takes no further actions.

Safe agreement is written once, in `_round_robin_agreement`: each instance
uses the three-level register scheme (a process enters at level 1, then
commits to level 2 unless it saw an earlier commit, level 0, and the
instance resolves once no entered process is still at level 1), and a
process cycles k instances round robin until one resolves.  SafeAgreement
is the one-instance case, RoundRobinSetConsensus sizes k by the agreement
level of the input holders, and EmbeddedAgreement by the level of the
observed participation.  A participant that stops between entering and
resolving its level blocks the instance; a process that finds every
instance blocked reports a "blocked" status while it keeps re-checking.
"""

from __future__ import annotations

from typing import Callable, Optional

from .alpha import AgreementFunction
from .processes import MAX_UNIVERSE
from .sim import Schedule


class Protocol:
    """A protocol instance: arity, per-process inputs, and per-process programs.

    `program(pid)` is a fresh generator per run.  Its contract, which lets a
    campaign read a transition from a `TransitionMemo` instead of resuming
    the program (`run_to_quiescence`): the values it yields and returns and
    the `statuses[pid]` it sets depend only on its pid, the constructor's
    arguments and the views it is sent; it writes no other entry of
    `statuses` and no other state that outlives the run; it never mutates a
    value it yielded, since snapshots and later runs share it; and it
    yields plain data (None, bools, ints, floats, strings, and lists, tuples
    and dicts of them), so that two payloads with one repr are
    interchangeable.
    """

    name = "protocol"

    def __init__(self, n: int, inputs: dict[int, object]):
        if not 1 <= n <= MAX_UNIVERSE:
            raise ValueError(f"arity must be in 1..{MAX_UNIVERSE}, got {n}")
        for pid in inputs:
            if not 1 <= pid <= n:
                raise ValueError(f"input names process {pid} outside 1..{n}")
        self.n = n
        self.inputs = dict(inputs)
        self.statuses: dict[int, str] = {}

    def _input(self, pid: int):
        if pid not in self.inputs:
            raise ValueError(f"process {pid} has no input")
        return self.inputs[pid]

    def program(self, pid: int):
        raise NotImplementedError


def safe_agreement_unsafe_halt(schedule: Schedule) -> bool:
    """True iff some halted process stops inside its unsafe window.

    Under the alternate-op discipline a participant's window spans its first
    and second executed operations; it closes with the third (the level
    write), so halting after one or two own steps is unsafe.
    """
    for pid in schedule.halted_at:
        own = sum(1 for p in schedule.steps if p == pid)
        if 1 <= own <= 2:
            return True
    return False


def _participants(view: tuple) -> int:
    """Bit mask of the processes with a written cell (bit q-1 for process q)."""
    bits = 0
    bit = 1
    for cell in view:
        if cell is not None:
            bits |= bit
        bit <<= 1
    return bits


def _round_robin_agreement(
    proto: Protocol,
    pid: int,
    instances: int,
    proposal,
    entries: dict,
    entries_in: Callable[[object], dict],
    payload: Callable[[], object],
    escape: Optional[Callable[[tuple], bool]] = None,
):
    """Cycle safe-agreement instances 1..instances until one resolves.

    `entries` is the caller's own map from instance number (as a string) to
    [value, level], which `payload` writes out; `entries_in(cell)` reads the
    same map from any written cell.  The caller proposes the same value to
    every instance it enters; an instance whose gate still shows an
    entered-but-unresolved process is skipped until the next pass.  Decides
    the first resolved instance's committed value (smallest committed id).
    With an escape predicate, a true observation ends the cycle and hands
    the proposal back unchanged.
    """
    statuses = proto.statuses
    j = 1
    closed_gates = 0
    while True:
        key = str(j)
        if key not in entries:
            entries[key] = [proposal, 1]
            view = yield payload()
            level = 2
            for c in view:
                if c is not None:
                    e = entries_in(c).get(key)
                    if e is not None and e[1] == 2:
                        level = 0
                        break
            entries[key] = [proposal, level]
            closed_gates = 0
            statuses[pid] = "running"
        view = yield payload()
        committed = None  # the first committed entry in cell order
        for c in view:
            if c is not None:
                e = entries_in(c).get(key)
                if e is not None:
                    if e[1] == 1:
                        break
                    if e[1] == 2 and committed is None:
                        committed = e
        else:  # no entered process is still at level 1: the instance resolved
            statuses[pid] = "running"
            return committed[0]
        if escape is not None and escape(view):
            statuses[pid] = "running"
            return proposal
        closed_gates += 1
        if closed_gates >= instances:
            statuses[pid] = "blocked"
        j = j % instances + 1


class RoundRobinSetConsensus(Protocol):
    """Set consensus from safe agreement: as many instances as the agreement

    level of the designated participant set (the input holders).  Every
    process cycles the instances with its own input and decides the first
    instance that resolves, so at most that many distinct values come out,
    and every correct participant decides whenever at most level-1
    participants halt.  Each written cell is {"sa": {instance: [value, level]}}.
    """

    name = "alpha-setcons"

    def __init__(self, n: int, inputs: dict[int, object], fn: AgreementFunction):
        super().__init__(n, inputs)
        if fn.n != n:
            raise ValueError(f"agreement function universe {fn.n} does not match arity {n}")
        self.instances = fn.table[sum(1 << (pid - 1) for pid in inputs)]
        if self.instances < 1:
            raise ValueError("the designated participant set admits no runs (level 0)")

    def program(self, pid: int):
        v = self._input(pid)
        entries: dict[str, list] = {}
        decision = yield from _round_robin_agreement(
            self, pid, self.instances, v, entries, lambda cell: cell["sa"], lambda: {"sa": dict(entries)}
        )
        return decision


class SafeAgreement(RoundRobinSetConsensus):
    """Single consensus-safe instance over the whole universe: the round
    robin with one instance, so each cell reads {"sa": {"1": [value, level]}}.

    Validity and agreement hold in every run.  Termination holds for each
    correct participant provided no participant halts inside its unsafe
    window (between its level-1 write and its level write).
    """

    name = "safe-agreement"
    instances = 1

    def __init__(self, n: int, inputs: dict[int, object]):
        Protocol.__init__(self, n, inputs)  # one instance whoever holds inputs: no agreement function


def _wait_for_growth(proto: Protocol, pid: int, parts: int, payload):
    """Hold position at a level-0 participation estimate.

    A level-0 estimate admits no run in which it persists, so the process
    keeps observing until participation visibly outgrows the estimate; the
    caller then carries its proposal into the next, larger round.
    """
    while True:
        proto.statuses[pid] = "blocked"
        view = yield payload()
        if _participants(view) != parts:
            proto.statuses[pid] = "running"
            return


class EmbeddedAgreement:
    """Adaptive-agreement subroutine backed by in-memory safe agreement.

    One instance space per distinct participation estimate, living in the
    same cells as the calling protocol; the instance count is the agreement
    level of the estimate.  Do not share one subroutine across executions.
    """

    def __init__(self, fn: AgreementFunction):
        self.fn = fn

    def run(self, proto: Protocol, pid: int, parts: int, level: int, proposal, rec: dict, payload):
        key = str(parts)
        value = yield from _round_robin_agreement(
            proto,
            pid,
            level,
            proposal,
            rec["agr"].setdefault(key, {}),
            lambda cell: cell["agr"].get(key, {}),
            payload,
            escape=lambda view: _participants(view) != parts,
        )
        return value


class AdaptiveSetConsensus(Protocol):
    """Set consensus that adapts to the observed participation.

    Each process writes its input at lock level 0, reads the participation,
    and loops: adopt a value holding the greatest visible lock (smallest
    holder id on ties), run it through the subroutine sized for the current
    participation estimate, re-write it locked at the estimate's size, and
    re-read; once the estimate survives a full iteration unchanged, decide.
    An estimate of agreement level 0 admits no run in which it persists, so
    there the process only waits for participation to grow.  Estimates are
    bit masks; the instance space of an estimate is keyed by str(mask).

    The subroutine must be a fresh EmbeddedAgreement, or another object with
    its `fn` and `run`, per execution; it is given the estimate's level, read
    from its `fn`.
    """

    name = "adaptive"

    def __init__(self, n: int, inputs: dict[int, object], subroutine):
        super().__init__(n, inputs)
        if subroutine.fn.n != n:
            raise ValueError(f"agreement function universe {subroutine.fn.n} does not match arity {n}")
        self.subroutine = subroutine

    def program(self, pid: int):
        v = self._input(pid)
        rec: dict = {"reg": [v, 0], "agr": {}}

        def payload():  # rec["reg"] is only ever replaced, so every write may share it
            return {"reg": rec["reg"], "agr": {k: dict(s) for k, s in rec["agr"].items()}}

        r = yield payload()
        part = _participants(r)
        while True:
            parts = part
            top = -1
            for c in r:  # the value with the greatest lock, the first such cell on ties
                if c is not None:
                    reg = c["reg"]
                    if reg[1] > top:
                        v, top = reg
            level = self.subroutine.fn.table[parts]
            if level < 1:
                yield from _wait_for_growth(self, pid, parts, payload)
            else:
                v = yield from self.subroutine.run(self, pid, parts, level, v, rec, payload)
            rec["reg"] = [v, parts.bit_count()]
            r = yield payload()
            part = _participants(r)
            if parts == part:
                return v


class Cons23(Protocol):
    """Consensus among processes 2 and 3 over a 3-process universe.

    Both wait for process 2's value and decide it; process 1 runs the plain
    full-information loop and never decides.  Useful against adversaries
    where process 3 can only be correct together with process 2.
    """

    name = "cons23"

    def __init__(self, n: int, inputs: dict[int, object]):
        if n != 3:
            raise ValueError("the pairwise protocol is defined over a 3-process universe")
        if not {2, 3} <= set(inputs):
            raise ValueError("processes 2 and 3 both need inputs")
        super().__init__(n, inputs)

    def program(self, pid: int):
        if pid == 1:
            while True:
                yield {"val": None}
        v = self._input(pid)
        while True:
            view = yield {"val": v}
            cell = view[1]
            if cell is not None and cell["val"] is not None:
                return cell["val"]
            self.statuses[pid] = "blocked"


def default_inputs(n: int) -> dict[int, int]:
    """Distinct per-process inputs, the worst case for agreement bounds."""
    return {p: 100 + p for p in range(1, n + 1)}
