"""Live-set selection layer of the adversarial simulation.

One simulator per agreement level of the full universe repeatedly reads
the global participation, derives its selection window from the registered
choices of higher simulators, re-selects a live set when the current one
stops being valid, and drives one simulated process step per round,
rotating over its live set on success.

The step machinery underneath is a pluggable oracle.  The default
oracle models agreement contention deterministically: a step on a process
is blocked exactly while a higher-id simulator that is still taking rounds
targets the same process, and steps held by stopped simulators never block
anyone (departed blockers get cleaned up).  A scripted oracle can inject
other block patterns, subject to the same "blocked only while another
simulator holds the process" rule.

Activation gate: the loop body verbatim runs when the simulator id is at
least min(|unfinished|, level(participating)).  That direction leaves the
low-id simulators idle, which contradicts how the selection properties are
stated, so the harness also offers the "adaptive" polarity (id at most the
minimum); the history records which one was used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .adversary import Adversary, agreement_function
# Unused here; kept as attributes of this module because the benchmark's
# tracer (perfbench/tracing.py) wraps them under these names.
from .adversary import restrict_intersecting, setcon  # noqa: F401
from .alpha import AgreementFunction
from .checkers import Verdict
from .processes import ProcessSet

SUCCESS = "SUCCESS"
BLOCKED = "BLOCKED"

PM_UNSET = None
PM_ACTIVE = "active"
PM_DONE = "done"

GATE_VERBATIM = "verbatim"
GATE_ADAPTIVE = "adaptive"


class SelectionImpossible(Exception):
    """No live set fits the participating region; the caller must surface this."""


@dataclass
class BGShared:
    """Shared arrays: per-simulator selections and per-process status."""

    n: int
    selections: list[tuple[Optional[int], ProcessSet]]
    pmem: list[object]

    @classmethod
    def fresh(cls, n: int, sim_count: int, pmem: Optional[list] = None) -> "BGShared":
        empty = ProcessSet(n, 0)
        return cls(
            n,
            [(None, empty) for _ in range(sim_count + 1)],  # index 0 unused
            list(pmem) if pmem is not None else [PM_ACTIVE] * n,
        )


@dataclass
class SimulatorLocal:
    sid: int
    s_cur: ProcessSet
    p_cur: Optional[int] = None


def read_participation(shared: BGShared) -> tuple[ProcessSet, ProcessSet]:
    """(initialized processes, initialized-and-unfinished processes)."""
    part = ProcessSet.of(shared.n, [p for p in range(1, shared.n + 1) if shared.pmem[p - 1] is not PM_UNSET])
    active = ProcessSet.of(
        shared.n,
        [p for p in range(1, shared.n + 1) if shared.pmem[p - 1] not in (PM_UNSET, PM_DONE)],
    )
    return part, active


def power_within(adversary: Adversary, region: ProcessSet, active: ProcessSet) -> int:
    """Set-consensus power of the region's live sets that touch the active processes."""
    if region.n != adversary.n or active.n != adversary.n:
        raise ValueError("universe mismatch between adversary and arguments")
    return adversary.region_table(active.bits)[region.bits]


def compute_window(
    sid: int,
    shared: BGShared,
    part: ProcessSet,
    active: ProcessSet,
    adversary: Adversary,
    sim_count: int,
    trail: Optional[list] = None,
) -> ProcessSet:
    """Narrow the participation down the higher simulators' registered choices.

    From the top simulator down to sid+1: a registered (process, live set)
    pair narrows the window to that live set minus its process, provided the
    set sits inside the current window and still carries enough power for
    its owner's id.  Pure in (selections above sid, part, active).
    """
    window = part
    for j in range(sim_count, sid, -1):
        p_tmp, s_tmp = shared.selections[j]
        if p_tmp is not None and s_tmp.issubset(window) and power_within(adversary, s_tmp, active) >= j:
            window = s_tmp.without(p_tmp)
        if trail is not None:
            trail.append((j, window.bits))
    return window


def selection_valid(
    s_cur: ProcessSet, window: ProcessSet, active: ProcessSet, sid: int, adversary: Adversary
) -> bool:
    """A selection stays valid while it fits the window and keeps enough power."""
    return s_cur.issubset(window) and power_within(adversary, s_cur, active) >= sid


def _select(
    window: ProcessSet, active: ProcessSet, sid: int, part: ProcessSet, adversary: Adversary
) -> tuple[ProcessSet, bool]:
    for s in adversary.live_sets:  # ascending mask: deterministic tie-break
        if s.issubset(window) and power_within(adversary, s, active) >= sid:
            return s, False
    for s in adversary.live_sets:
        if s.issubset(part):
            return s, True
    raise SelectionImpossible(f"no live set fits the participating region {part}")


def select_live_set(
    window: ProcessSet, active: ProcessSet, sid: int, part: ProcessSet, adversary: Adversary
) -> ProcessSet:
    """A live set in the window with power at least sid, else any one in the region."""
    return _select(window, active, sid, part, adversary)[0]


def _next_in_cycle(s: ProcessSet, pid: int) -> int:
    members = s.members()
    for q in members:
        if q > pid:
            return q
    return members[0]


class ContentionOracle:
    """Default step oracle: higher-id live simulators win process conflicts."""

    def __init__(self, is_live: Callable[[int], bool], targets: dict[int, SimulatorLocal]):
        self._is_live = is_live
        self._targets = targets

    def simulate_step(self, sid: int, pid: int, round_no: int) -> str:
        for other, loc in self._targets.items():
            if other > sid and loc.p_cur == pid and self._is_live(other):
                return BLOCKED
        return SUCCESS

    def outputted(self, pid: int) -> bool:
        return False


class ScriptedOracle:
    """Test oracle driven by explicit functions for stepping and task outputs."""

    def __init__(self, step_fn: Callable[[int, int, int], str], output_fn: Optional[Callable[[int], bool]] = None):
        self._step_fn = step_fn
        self._output_fn = output_fn

    def simulate_step(self, sid: int, pid: int, round_no: int) -> str:
        return self._step_fn(sid, pid, round_no)

    def outputted(self, pid: int) -> bool:
        return bool(self._output_fn and self._output_fn(pid))


def simulator_round(
    local: SimulatorLocal,
    shared: BGShared,
    oracle,
    adversary: Adversary,
    fn: AgreementFunction,
    gate_mode: str = GATE_VERBATIM,
    round_no: int = 0,
) -> dict:
    """One full loop iteration of a simulator; returns the round record."""
    part, active = read_participation(shared)
    threshold = min(len(active), fn.value_of(part))
    gated_in = local.sid >= threshold if gate_mode == GATE_VERBATIM else local.sid <= threshold
    record = {
        "round": round_no,
        "simulator": local.sid,
        "P": part.bits,
        "A": active.bits,
        "gated": gated_in,
        "W": None,
        "trail": (),
        "s_cur": local.s_cur.bits,
        "p_cur": local.p_cur,
        "reselected": False,
        "fallback": False,
        "stepped": None,
        "result": None,
    }
    if not gated_in:
        return record
    trail: list = []
    window = compute_window(local.sid, shared, part, active, adversary, len(shared.selections) - 1, trail)
    record["W"] = window.bits
    record["trail"] = tuple(trail)
    if not selection_valid(local.s_cur, window, active, local.sid, adversary):
        chosen, fallback = _select(window, active, local.sid, part, adversary)
        local.s_cur = chosen
        local.p_cur = chosen.members()[0]
        shared.selections[local.sid] = (local.p_cur, local.s_cur)
        record["reselected"] = True
        record["fallback"] = fallback
    record["s_cur"] = local.s_cur.bits
    record["stepped"] = local.p_cur
    result = oracle.simulate_step(local.sid, local.p_cur, round_no)
    record["result"] = result
    if result == SUCCESS:
        if oracle.outputted(local.p_cur):
            shared.pmem[local.p_cur - 1] = PM_DONE
        local.p_cur = _next_in_cycle(local.s_cur, local.p_cur)
    record["p_cur"] = local.p_cur
    return record


@dataclass
class SelectionHistory:
    """Round-by-round record of a selection run, plus the configuration header."""

    adversary: Adversary
    fn: AgreementFunction
    gate_mode: str
    sim_count: int
    budget: int
    pattern: dict[int, int]
    records: list[dict] = field(default_factory=list)
    final_selections: list = field(default_factory=list)
    final_pmem: list = field(default_factory=list)

    def live_sims(self) -> list[int]:
        return [s for s in range(1, self.sim_count + 1) if s not in self.pattern]

    def final_participation(self) -> tuple[int, int]:
        part = 0
        active = 0
        for i, st in enumerate(self.final_pmem):
            if st is not PM_UNSET:
                part |= 1 << i
                if st is not PM_DONE:
                    active |= 1 << i
        return part, active

    def quarter_records(self) -> list[dict]:
        cut = 3 * self.budget // 4
        return [r for r in self.records if r["round"] >= cut]

    def to_json_obj(self) -> dict:
        from .adversary import adversary_to_json_obj

        return {
            "adversary": adversary_to_json_obj(self.adversary),
            "gate_mode": self.gate_mode,
            "simulators": self.sim_count,
            "budget": self.budget,
            "halt_pattern": {str(s): r for s, r in sorted(self.pattern.items())},
            "records": [
                {k: (list(v) if isinstance(v, tuple) else v) for k, v in r.items()} for r in self.records
            ],
        }


def run_bgg_selection(
    adversary: Adversary,
    fn: Optional[AgreementFunction] = None,
    initial_pmem: Optional[list] = None,
    pattern: Optional[dict[int, int]] = None,
    budget: int = 0,
    gate_mode: str = GATE_VERBATIM,
    oracle=None,
) -> SelectionHistory:
    """Replay all simulators round-robin for `budget` global rounds.

    The pattern maps a simulator id to the number of rounds it takes before
    halting; absent ids run for the whole budget.  The simulator count is
    the agreement level of the full universe.  `oracle` may be an oracle
    object or a factory called with (is_live, locals) so scripted oracles
    can observe the simulators' current targets.
    """
    if gate_mode not in (GATE_VERBATIM, GATE_ADAPTIVE):
        raise ValueError(f"unknown gate mode {gate_mode!r}")
    if fn is None:
        fn = agreement_function(adversary)
    sim_count = fn.of_bits((1 << adversary.n) - 1)
    if budget <= 0:
        budget = 400 * adversary.n
    pattern = dict(pattern or {})
    history = SelectionHistory(adversary, fn, gate_mode, sim_count, budget, pattern)
    if sim_count == 0:
        return history
    shared = BGShared.fresh(adversary.n, sim_count, initial_pmem)
    locals_ = {sid: SimulatorLocal(sid, ProcessSet(adversary.n, 0)) for sid in range(1, sim_count + 1)}
    taken = {sid: 0 for sid in locals_}

    def is_live(sid: int) -> bool:
        limit = pattern.get(sid)
        return limit is None or taken[sid] < limit

    if oracle is None:
        oracle = ContentionOracle(is_live, locals_)
    elif callable(oracle):
        oracle = oracle(is_live, locals_)
    for round_no in range(budget):
        sid = round_no % sim_count + 1
        if not is_live(sid):
            continue
        record = simulator_round(locals_[sid], shared, oracle, adversary, fn, gate_mode, round_no)
        taken[sid] += 1
        history.records.append(record)
    history.final_selections = list(shared.selections)
    history.final_pmem = list(shared.pmem)
    return history


def _eligible_live(history: SelectionHistory) -> tuple[list[int], Optional[int]]:
    part_bits, active_bits = history.final_participation()
    bound = min(bin(active_bits).count("1"), history.fn.of_bits(part_bits))
    live = [s for s in history.live_sims() if s <= bound]
    return live, (max(live) if live else None)


def check_participation_stability(history: SelectionHistory) -> Verdict:
    """The participation arrays settle: final-quarter rounds all read the same (P, A)."""
    quarter = history.quarter_records()
    seen = {(r["P"], r["A"]) for r in quarter}
    if len(seen) > 1:
        return Verdict("participation-stability", False, {"observed": sorted(seen)})
    return Verdict("participation-stability", True)


def check_window_stability(history: SelectionHistory) -> Verdict:
    """Each eligible live simulator computes one constant window in the final

    quarter, and all of them agree on the narrowing prefix above the top one.
    """
    live, top = _eligible_live(history)
    if top is None:
        return Verdict("window-stability", True, {"note": "no live eligible simulator"})
    quarter = history.quarter_records()
    prefixes = set()
    for sid in live:
        windows = {r["W"] for r in quarter if r["simulator"] == sid and r["gated"]}
        if len(windows) > 1:
            return Verdict("window-stability", False, {"simulator": sid, "windows": sorted(windows)})
        for r in quarter:
            if r["simulator"] == sid and r["gated"]:
                prefixes.add(tuple(step for step in r["trail"] if step[0] > top))
    if len(prefixes) > 1:
        return Verdict("window-stability", False, {"prefixes": sorted(prefixes)})
    return Verdict("window-stability", True)


def check_selection_feasibility(history: SelectionHistory) -> Verdict:
    """Eligible live simulators can always take the powered branch late in the run.

    In every final-quarter round of such a simulator some live set inside
    its window carries power at least its id, and any late re-selection
    actually used that branch.  Meaningful for fair adversaries.
    """
    live, top = _eligible_live(history)
    if top is None:
        return Verdict("selection-feasibility", True, {"note": "no live eligible simulator"})
    adversary = history.adversary
    for r in history.quarter_records():
        sid = r["simulator"]
        if sid not in live or not r["gated"]:
            continue
        window = ProcessSet(adversary.n, r["W"])
        active = ProcessSet(adversary.n, r["A"])
        ok = any(
            s.issubset(window) and power_within(adversary, s, active) >= sid for s in adversary.live_sets
        )
        if not ok:
            return Verdict(
                "selection-feasibility", False, {"round": r["round"], "simulator": sid, "window": r["W"]}
            )
        if r["reselected"] and r["fallback"]:
            return Verdict(
                "selection-feasibility", False, {"round": r["round"], "simulator": sid, "fallback": True}
            )
    return Verdict("selection-feasibility", True)


def check_liveset_coverage(history: SelectionHistory) -> Verdict:
    """The processes stepped successfully late in the run form a live set that

    touches the unfinished processes, unless the top live simulator is pinned
    on one process and every lower live simulator stays away from it.
    """
    live, top = _eligible_live(history)
    if top is None:
        return Verdict("liveset-coverage", True, {"note": "no live eligible simulator"})
    _, active_bits = history.final_participation()
    quarter = history.quarter_records()
    stepped_ok = 0
    for r in quarter:
        if r["result"] == SUCCESS:
            stepped_ok |= 1 << (r["stepped"] - 1)
    family = {s.bits for s in history.adversary.live_sets}
    if stepped_ok in family and stepped_ok & active_bits:
        return Verdict("liveset-coverage", True)
    top_steps = {r["stepped"] for r in quarter if r["simulator"] == top and r["stepped"] is not None}
    if len(top_steps) == 1:
        pinned = next(iter(top_steps))
        lower = {
            r["stepped"]
            for r in quarter
            if r["simulator"] < top and r["simulator"] in live and r["stepped"] is not None
        }
        if pinned not in lower:
            return Verdict("liveset-coverage", True, {"pinned": pinned})
    return Verdict(
        "liveset-coverage",
        False,
        {"stepped": stepped_ok, "top": top, "top_steps": sorted(x for x in top_steps if x is not None)},
    )


def selection_report(history: SelectionHistory) -> list[Verdict]:
    """All bounded-run selection properties in stable order."""
    return [
        check_participation_stability(history),
        check_window_stability(history),
        check_selection_feasibility(history),
        check_liveset_coverage(history),
    ]
