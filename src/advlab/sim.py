"""Deterministic atomic-snapshot run simulator.

A run is a sequence of process ids; a process's k-th executed operation is
an update when k is odd and a snapshot when k is even.  A protocol program
is a generator that yields the value its next update writes and receives
the view its following snapshot reads.  The executor is one function,
`run_to_quiescence`: it keeps the shared memory as a list of n cells,
resumes each program once per write-snapshot pair, and runs the given
schedule and then its completion tail in one loop.  Faulty processes are
modeled as halting after a chosen step index; "takes infinitely many steps"
has no other finite encoding.  Schedules come from a seeded generator
constrained by an adversary, from a direct admissibility-driven generator,
or from exhaustive enumeration at small sizes.  A seeded schedule depends
only on `getrandbits`, the Mersenne Twister output, and on `random()`: the
generators draw exactly as `Random._randbelow` draws today, but Python
documents only seeding and `random()` as stable across versions, not
`choice`, `randint`, `sample` or `shuffle`, so the pinned schedules do not
depend on those algorithms.
"""

from __future__ import annotations

import itertools as it
import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, TYPE_CHECKING

from . import alpha as alpha_mod
from .processes import MAX_UNIVERSE, ProcessSet

if TYPE_CHECKING:  # pragma: no cover
    from .protocols import Protocol


class ProtocolFault(Exception):
    """A protocol broke the run model (decided before its first write)."""


@dataclass
class Schedule:
    """A finite activation order plus the halt/correctness bookkeeping.

    halted_at maps a faulty process to the global step index of its last
    activation (-1 when it never steps); processes in correct set are never
    halted.  The schedule is only an activation order: by the parity rule a
    process's odd activations write and its even ones take snapshots.
    """

    n: int
    steps: tuple[int, ...]
    halted_at: dict[int, int] = field(default_factory=dict)
    correct: ProcessSet = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.correct is None:
            faulty = set(self.halted_at)
            self.correct = ProcessSet.of(self.n, [p for p in range(1, self.n + 1) if p not in faulty])
        self.steps = tuple(self.steps)

    def validate(self) -> None:
        last: dict[int, int] = {}
        for idx, pid in enumerate(self.steps):
            if not 1 <= pid <= self.n:
                raise ValueError(f"step {idx} names process {pid} outside 1..{self.n}")
            last[pid] = idx
        for pid, at in self.halted_at.items():
            if not 1 <= pid <= self.n:
                raise ValueError(f"halted process {pid} outside 1..{self.n}")
            if pid in self.correct:
                raise ValueError(f"process {pid} is both correct and halted")
            if at == -1:
                if pid in last:
                    raise ValueError(f"process {pid} halts before stepping but appears in the schedule")
            elif last.get(pid, -1) > at:
                raise ValueError(f"process {pid} appears after its halt index {at}")
        if self.correct.n != self.n:
            raise ValueError("correct-set universe does not match the schedule")


class Event(NamedTuple):
    step: int
    pid: int
    kind: str  # "update" | "snapshot"
    payload: object  # value written, or the view read


class Decision(NamedTuple):
    step: int
    pid: int
    value: object


@dataclass
class RunTrace:
    """Everything one simulated execution produced, in schedule order."""

    schedule: Schedule
    inputs: dict[int, object]
    events: list[Event]
    decisions: list[Decision]
    participating: ProcessSet
    statuses: dict[int, str]  # participant -> "decided" | "blocked" | "running"

    @property
    def n(self) -> int:
        return self.schedule.n


def run_to_quiescence(
    protocol: "Protocol",
    schedule: Schedule,
    max_tail: int = 512,
    required: Optional[set[int]] = None,
) -> RunTrace:
    """Execute the schedule, then keep cycling correct processes fairly.

    Each program yields the value it writes and is sent the view it reads:
    a process's odd activation writes its pending value to its cell (a list
    of n cells; a written value must be treated as immutable, since
    snapshots share it), and its even activation takes the snapshot and
    resumes the program with it.  A program can only return after a
    snapshot, so every decision lands on a snapshot step; activations after
    a decision are no-ops and record nothing.  The tail is the finite
    stand-in for correct processes taking infinitely many steps; it stops
    once every required process decided (default: every correct process) or
    after max_tail extra activations; with max_tail=0 the run is exactly the
    given schedule.  The trace's schedule reflects the steps actually taken.

    Per-process state is three flat lists indexed by pid: the program (None
    before the process's first activation, False once it decided), the
    value its next write stores, and whether that value is written but not
    yet read back by a snapshot.
    """
    if protocol.n != schedule.n:
        raise ValueError(f"protocol arity {protocol.n} does not match schedule n {schedule.n}")
    schedule.validate()
    n = schedule.n
    cells: list[object] = [None] * n
    programs: list = [None] * (n + 1)
    pending: list = [None] * (n + 1)
    wrote = [False] * (n + 1)
    participating = 0
    events: list[Event] = []
    decisions: list[Decision] = []
    record = events.append
    new = tuple.__new__  # a record without the namedtuple constructor's frame
    correct = schedule.correct.bits
    tail_order = [pid for pid in range(1, n + 1) if correct >> (pid - 1) & 1]
    waiting = set(tail_order if required is None else required)
    given = len(schedule.steps)
    steps = list(schedule.steps)
    for idx, pid in enumerate(it.chain(schedule.steps, it.cycle(tail_order))):
        if idx >= given:
            if idx - given >= max_tail or not waiting:
                break
            steps.append(pid)
        program = programs[pid]
        if program is None:
            program = protocol.program(pid)
            try:
                pending[pid] = next(program)
            except StopIteration:
                raise ProtocolFault(f"process {pid} decided without taking a step")
            programs[pid] = program
            participating |= 1 << (pid - 1)
        elif program is False:
            continue
        if not wrote[pid]:
            cells[pid - 1] = value = pending[pid]
            record(new(Event, (idx, pid, "update", value)))
            wrote[pid] = True
            continue
        view = tuple(cells)
        record(new(Event, (idx, pid, "snapshot", view)))
        wrote[pid] = False
        try:
            pending[pid] = program.send(view)
        except StopIteration as stop:
            programs[pid] = False
            decisions.append(new(Decision, (idx, pid, stop.value)))
            waiting.discard(pid)
    extended = Schedule(n, tuple(steps), dict(schedule.halted_at), schedule.correct)
    # A participating process is "decided", else has its protocol status, else is "running".
    statuses = protocol.statuses
    final = {
        pid: "decided" if programs[pid] is False else statuses.get(pid, "running")
        for pid in range(1, n + 1)
        if participating >> (pid - 1) & 1
    }
    return RunTrace(extended, dict(protocol.inputs), events, decisions, ProcessSet(n, participating), final)


def check_schedulable(model, budget: int) -> None:
    """Raise the ValueError that every seed's schedule for (model, budget) would raise.

    model is an adversary (`generate_schedule`) or an agreement function
    (`generate_admissible_schedule`).  Both generators call this first; a
    campaign calls it before it prints or forks anything.
    """
    if isinstance(model, alpha_mod.AgreementFunction):
        if not model.admissible_masks:
            raise ValueError("the agreement function admits no runs at all")
    elif not model.live_sets:
        raise ValueError("cannot schedule against the empty adversary")
    if budget < 2 * model.n:
        raise ValueError(f"budget must be at least 2n = {2 * model.n}")


def generate_schedule(adversary, seed: int, budget: int) -> Schedule:
    """Seeded adversary-compliant schedule: the correct set is a live set.

    Participation is the chosen live set plus a random batch of extra,
    faulty processes; every correct process gets at least
    budget // (2 * |live set|) activations, faulty ones a short random
    prefix, and the whole multiset is shuffled uniformly.  The live set and
    every later draw come from `_draws`; the coin per extra process is
    `random()`.  A seed and its negation give the same schedule, since
    `random.Random` seeds with the seed's absolute value.
    """
    check_schedulable(adversary, budget)
    rng = random.Random(seed)
    below = _draws(rng)
    live = adversary.live_sets[below(len(adversary.live_sets))]
    extras = [p for p in range(1, adversary.n + 1) if not live >> (p - 1) & 1 and rng.random() < 0.5]
    return _fill_slots(below, adversary.n, budget, live, extras)


def generate_admissible_schedule(alpha: alpha_mod.AgreementFunction, seed: int, budget: int) -> Schedule:
    """Seeded schedule admitted by the agreement function.

    Picks a participating set P with alpha(P) >= 1, at most alpha(P) - 1
    faulty participants, and fair quotas for the correct ones.  Processes
    outside P never step and are not marked correct, so completion tails
    keep the participation at P.  Every draw comes from `_draws`.  A seed
    and its negation give the same schedule, since `random.Random` seeds
    with the seed's absolute value.
    """
    check_schedulable(alpha, budget)
    below = _draws(random.Random(seed))
    masks = alpha.admissible_masks
    part = masks[below(len(masks))]
    level = alpha.table[part]
    ids = [p for p in range(1, alpha.n + 1) if part >> (p - 1) & 1]
    faulty = []
    for i in range(below(min(level, len(ids)))):  # a partial Fisher-Yates draw, as rng.sample
        j = below(len(ids) - i)
        faulty.append(ids[j])
        ids[j] = ids[-1 - i]
    for p in faulty:
        part &= ~(1 << (p - 1))
    return _fill_slots(below, alpha.n, budget, part, faulty)


def _draws(rng: random.Random):
    """below(m): a uniform draw from range(m), m >= 1, from rng.getrandbits alone.

    It draws as `Random._randbelow` does, redrawing m.bit_length() bits
    while they are not below m: `rng.choice(seq)` is seq[below(len(seq))],
    `rng.randint(a, b)` is a + below(b - a + 1), and `rng.sample` and
    `rng.shuffle` are the Fisher-Yates loops over below written out here.
    """
    getrandbits = rng.getrandbits

    def below(m: int) -> int:
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        return r

    return below


def _fill_slots(below, n: int, budget: int, correct: int, faulty: list[int]) -> Schedule:
    """Fair quotas for the correct processes (the mask `correct`), a short
    random prefix for each faulty one, random correct activations up to the
    budget, all shuffled; each faulty process halts at its last slot."""
    correct_ids = [p for p in range(1, n + 1) if correct >> (p - 1) & 1]
    count = len(correct_ids)
    quota = budget // (2 * count)
    slots = [p for p in correct_ids for _ in range(quota)]
    prefix = max(1, budget // (4 * n))
    for p in faulty:
        slots.extend([p] * (1 + below(prefix)))
    for _ in range(budget - len(slots)):
        slots.append(correct_ids[below(count)])
    for i in range(len(slots) - 1, 0, -1):  # Fisher-Yates, as rng.shuffle
        j = below(i + 1)
        slots[i], slots[j] = slots[j], slots[i]
    halted_at = {p: _last_index(slots, p) for p in faulty}
    return Schedule(n, tuple(slots), halted_at, ProcessSet(n, correct))


def _last_index(slots: list[int], pid: int) -> int:
    for i in range(len(slots) - 1, -1, -1):
        if slots[i] == pid:
            return i
    return -1


MAX_ENUMERATION_STEPS = 14


def enumerate_schedules(n: int, steps_per_process: int, halts_allowed: int) -> Iterator[Schedule]:
    """Every interleaving of the given per-process step counts and halt choices.

    Non-halted processes take exactly steps_per_process steps; each halted
    process takes some 0 <= k < steps_per_process steps anywhere in the
    order.  Bounded to 14 total steps; the stream is duplicate-free and
    deterministic.
    """
    _check_enumeration(n, steps_per_process, halts_allowed)
    pids = list(range(1, n + 1))
    for fsize in range(min(halts_allowed, n) + 1):
        for faulty in it.combinations(pids, fsize):
            for cuts in it.product(range(steps_per_process), repeat=fsize):
                counts = {p: steps_per_process for p in pids if p not in faulty}
                counts.update(dict(zip(faulty, cuts)))
                correct = ProcessSet.of(n, [p for p in pids if p not in faulty])
                for steps in _interleavings(counts):
                    halted_at = {p: _last_index(steps, p) for p in faulty}
                    yield Schedule(n, tuple(steps), halted_at, correct)


def count_schedules(n: int, steps_per_process: int, halts_allowed: int) -> int:
    """How many schedules enumerate_schedules yields for these sizes, without building them.

    The sum, over faulty sets and their step counts (cuts), of the number of
    interleavings of the per-process step counts, a multinomial coefficient;
    faulty sets of one size all contribute the same.  Raises the same
    ValueErrors as enumerate_schedules.
    """
    _check_enumeration(n, steps_per_process, halts_allowed)
    total = 0
    for fsize in range(min(halts_allowed, n) + 1):
        for cuts in it.product(range(steps_per_process), repeat=fsize):
            interleavings, placed = 1, 0
            for count in [steps_per_process] * (n - fsize) + list(cuts):
                placed += count
                interleavings *= math.comb(placed, count)
            total += math.comb(n, fsize) * interleavings
    return total


def _check_enumeration(n: int, steps_per_process: int, halts_allowed: int) -> None:
    if n * steps_per_process > MAX_ENUMERATION_STEPS:
        raise ValueError(f"total step count {n * steps_per_process} exceeds the bound {MAX_ENUMERATION_STEPS}")
    if steps_per_process < 1:
        raise ValueError("steps_per_process must be at least 1")
    if halts_allowed < 0:
        raise ValueError("halts_allowed must be non-negative")
    if not 1 <= n <= MAX_UNIVERSE:
        raise ValueError(f"universe size must be in 1..{MAX_UNIVERSE}, got {n}")


def _interleavings(counts: dict[int, int]) -> Iterator[list[int]]:
    """All orderings of a step-count multiset, lexicographically by process id.

    Steps from the sorted multiset to each next permutation in place, so
    every distinct ordering comes once.
    """
    order = sorted(p for p, c in counts.items() for _ in range(c))
    while True:
        yield list(order)
        i = len(order) - 2
        while i >= 0 and order[i] >= order[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(order) - 1
        while order[j] <= order[i]:
            j -= 1
        order[i], order[j] = order[j], order[i]
        order[i + 1 :] = reversed(order[i + 1 :])


def canonical_json(obj: object) -> str:
    """Stable text form used for golden traces and reports."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _jsonify(value: object) -> object:
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def trace_to_json_obj(trace: RunTrace) -> dict:
    return {
        "n": trace.n,
        "schedule": {
            "steps": list(trace.schedule.steps),
            "halted_at": {str(p): at for p, at in sorted(trace.schedule.halted_at.items())},
            "correct_set": list(trace.schedule.correct.members()),
        },
        "inputs": {str(p): _jsonify(v) for p, v in sorted(trace.inputs.items())},
        "events": [
            {"step": e.step, "process": e.pid, "kind": e.kind, "payload": _jsonify(e.payload)}
            for e in trace.events
        ],
        "decisions": [{"step": d.step, "process": d.pid, "value": _jsonify(d.value)} for d in trace.decisions],
        "statuses": {str(p): s for p, s in sorted(trace.statuses.items())},
    }


def _require_ints(what: str, values: Iterable[object]) -> None:
    """ValueError unless every value is a plain int (a bool is not one)."""
    for value in values:
        if type(value) is not int:
            raise ValueError(f"{what} {canonical_json(value)} is not an integer")


def _by_pid(what: str, obj: dict) -> dict[int, object]:
    """A process-keyed map from a trace file: ValueError unless each key is
    the canonical decimal text of an id ("1", never "01", " 1" or "+1")."""
    parsed: dict[int, object] = {}
    for key, value in obj.items():
        if not (key.isascii() and key.isdigit() and key[0] != "0"):
            raise ValueError(f"{what} key {canonical_json(key)} is not a process id")
        parsed[int(key)] = value
    return parsed


def trace_from_json_obj(obj: dict) -> RunTrace:
    """Parse a trace file object.

    ValueError on an invalid schedule, a process id outside 1..n, a
    universe size, step, process id, halt index or correct-set entry that
    is not a plain int, or an inputs, statuses or halted_at key that is not
    the canonical decimal text of a process id.
    """
    n = obj["n"]
    sched = obj["schedule"]
    _require_ints("n", [n])
    _require_ints("schedule step", sched["steps"])
    _require_ints("halt index", sched["halted_at"].values())
    _require_ints("correct_set entry", sched["correct_set"])
    for key in ("step", "process"):
        _require_ints(f"event {key}", [e[key] for e in obj["events"]])
        _require_ints(f"decision {key}", [d[key] for d in obj["decisions"]])
    schedule = Schedule(
        n,
        tuple(sched["steps"]),
        _by_pid("halted_at", sched["halted_at"]),
        ProcessSet.of(n, sched["correct_set"]),
    )
    schedule.validate()
    events = [Event(e["step"], e["process"], e["kind"], e["payload"]) for e in obj["events"]]
    decisions = [Decision(d["step"], d["process"], d["value"]) for d in obj["decisions"]]
    participating = ProcessSet.of(n, {e.pid for e in events})
    inputs = _by_pid("inputs", obj["inputs"])
    statuses = _by_pid("statuses", obj["statuses"])
    for pids in ([d.pid for d in decisions], inputs, statuses):
        ProcessSet.of(n, pids)  # raises on an id outside 1..n
    return RunTrace(schedule, inputs, events, decisions, participating, statuses)
