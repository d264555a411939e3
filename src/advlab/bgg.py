"""Live-set selection layer of the adversarial simulation.

One simulator per agreement level of the full universe repeatedly reads
the global participation, derives its selection window from the registered
choices of higher simulators, re-selects a live set when the current one
stops being valid, and drives one simulated process step per round,
rotating over its live set on success.

Every set in the round loop is a bit mask (bit i-1 for process i), the
same form the round records and the history file use.  Every power
question is one lookup in a region table of the adversary: a live set s
is powered for simulator sid when it lies inside the window and
`adversary.region_table(active)[s] >= sid` (`powered`), and the level
α(P) of a participating set P is `adversary.region_table(full)[P]`, the
table the adversary's agreement function wraps.  P, A, the gate threshold
min(|A|, α(P)) and the table of A depend on the status array alone, so
`BGShared.view` reads them once per change of that array, not once per
round.  A simulator's window depends only on that view and on the
selections above it, so each simulator keeps its last window and trail
and recomputes them only when the view or `BGShared.registrations`, the
count of `BGShared.register` calls, has changed.
`SelectionHistory.per_simulator` sums the records per simulator, and
`selection_report`, the only entry point to the four bounded-run
properties, reads the final quarter and the eligible live simulators once
and hands them to each check.

The step machinery underneath is a pluggable oracle, built by a factory
called with (is_live, locals) so it can observe the simulators' current
targets; `ContentionOracle` is the default factory.  It models agreement
contention deterministically: a step on a process is blocked exactly
while a higher-id simulator that is still taking rounds targets the same
process, and steps held by stopped simulators never block anyone
(departed blockers get cleaned up).  It lists each simulator's higher-id
contenders once, when it is built, and a step walks only that list.  A
scripted oracle can inject other block patterns, subject to the same
"blocked only while another simulator holds the process" rule.

Activation gate: the loop body verbatim runs when the simulator id is at
least min(|unfinished|, level(participating)).  That direction leaves the
low-id simulators idle, which contradicts how the selection properties are
stated, so the harness also offers the "adaptive" polarity (id at most the
minimum); the history records which one was used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .adversary import Adversary, adversary_to_json_obj
# The library does not call these here.  The benchmark's tracer
# (perfbench/tracing.py) wraps them as attributes of this module, so they
# stay until the tracer is repointed (ROADMAP item 1).
from .adversary import agreement_function, restrict_intersecting, setcon  # noqa: F401
from .checkers import Verdict
from .processes import ProcessSet

SUCCESS = "SUCCESS"
BLOCKED = "BLOCKED"

PM_UNSET = None
PM_ACTIVE = "active"
PM_DONE = "done"

GATE_VERBATIM = "verbatim"
GATE_ADAPTIVE = "adaptive"


def warm_up_budget(n: int) -> int:
    """Rounds after which the bounded selection properties are meaningful."""
    return 400 * n


class SelectionImpossible(Exception):
    """No live set fits the participating region; the caller must surface this."""


@dataclass
class BGShared:
    """Shared arrays: per-simulator (process, live-set mask) selections and per-process status.

    `view` derives what a round needs from the status array and keeps it
    until the array changes.  `register` is the one writer of a selection
    in a run: it bumps `registrations`, which keys the simulators' window
    memo, so a selection written to the list directly is seen by
    `compute_window` but not by a simulator whose window is memoised.
    """

    # Write through `register` in a run that `simulator_round` reads: a direct
    # write leaves the simulators' memoised windows stale.
    selections: list[tuple[Optional[int], int]]
    pmem: list[object]
    registrations: int = field(default=0, init=False, repr=False, compare=False)
    _view_of: tuple = field(default=(None, None), init=False, repr=False, compare=False)  # (adversary, pmem copy)
    _view: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def fresh(cls, n: int, sim_count: int, pmem: Optional[list] = None) -> "BGShared":
        return cls(
            [(None, 0) for _ in range(sim_count + 1)],  # index 0 unused
            list(pmem) if pmem is not None else [PM_ACTIVE] * n,
        )

    def register(self, sid: int, pid: int, s: int) -> None:
        """Publish simulator sid's selection (process pid, live set s)."""
        self.selections[sid] = (pid, s)
        self.registrations += 1

    def view(self, adversary: Adversary) -> tuple[int, int, int, bytes]:
        """(P, A, gate threshold, region_table(A)) of the current status array.

        Recomputed only when the status array (or the adversary object)
        differs from the one it was derived from, so a write to `pmem` shows
        in the next round.  The same tuple is returned until then, so its
        identity keys the window memo.
        """
        seen_adversary, seen_pmem = self._view_of
        if adversary is not seen_adversary or self.pmem != seen_pmem:
            part, active = participation(self.pmem)
            threshold = gate_threshold(adversary, part, active)
            self._view_of = (adversary, list(self.pmem))
            self._view = (part, active, threshold, adversary.region_table(active))
        return self._view


@dataclass
class SimulatorLocal:
    """A simulator's own state: its selection, and its last window with the key it was computed under."""

    sid: int
    s_cur: int = 0
    p_cur: Optional[int] = None
    # (status view, registration count, window, trail) of the last window computed
    memo: tuple = field(default=(None, -1, 0, ()), init=False, repr=False, compare=False)


def participation(pmem: list) -> tuple[int, int]:
    """(initialized, initialized-and-unfinished) processes of a status array, as masks."""
    part = active = 0
    for i, status in enumerate(pmem):
        if status is not PM_UNSET:
            part |= 1 << i
            if status != PM_DONE:
                active |= 1 << i
    return part, active


def gate_threshold(adversary: Adversary, part: int, active: int) -> int:
    """min(|A|, α(P)): the activation gate's threshold and the eligibility bound."""
    return min(active.bit_count(), adversary.region_table((1 << adversary.n) - 1)[part])


def power_within(adversary: Adversary, region: ProcessSet, active: ProcessSet) -> int:
    """Set-consensus power of the region's live sets that touch the active processes.

    The library does not call this: rounds read the region table through
    `powered`.  It stays because the benchmark's tracer hooks this name,
    and leaves when the tracer is repointed (ROADMAP item 1).
    """
    if region.n != adversary.n or active.n != adversary.n:
        raise ValueError("universe mismatch between adversary and arguments")
    return adversary.region_table(active.bits)[region.bits]


def powered(table: bytes, s: int, window: int, sid: int) -> bool:
    """Live set s fits the window and carries power at least sid.

    `table` is `adversary.region_table(active)`, read once per round.
    """
    return s & ~window == 0 and table[s] >= sid


def compute_window(sid: int, shared: BGShared, part: int, table: bytes, trail: Optional[list] = None) -> int:
    """Narrow the participation down the higher simulators' registered choices.

    From the top simulator down to sid+1: a registered (process, live set)
    pair narrows the window to that live set minus its process, provided the
    set is powered for its owner's id in the current window.  Pure in
    (selections above sid, part, table).
    """
    window = part
    for j in range(len(shared.selections) - 1, sid, -1):
        p_tmp, s_tmp = shared.selections[j]
        if p_tmp is not None and powered(table, s_tmp, window, j):
            window = s_tmp & ~(1 << (p_tmp - 1))
        if trail is not None:
            trail.append((j, window))
    return window


def select_live_set(adversary: Adversary, table: bytes, window: int, part: int, sid: int) -> tuple[int, bool]:
    """(live set, fallback): the first powered one in the window, else the first in the region."""
    for s in adversary.live_sets:  # ascending mask: deterministic tie-break
        if powered(table, s.bits, window, sid):
            return s.bits, False
    for s in adversary.live_sets:
        if s.bits & ~part == 0:
            return s.bits, True
    raise SelectionImpossible(f"no live set fits the participating region {ProcessSet(adversary.n, part)}")


def _lowest(s: int) -> int:
    return (s & -s).bit_length()


def _next_in_cycle(s: int, pid: int) -> int:
    higher = s >> pid  # members above pid
    return pid + _lowest(higher) if higher else _lowest(s)


class ContentionOracle:
    """Default step oracle: higher-id live simulators win process conflicts."""

    def __init__(self, is_live: Callable[[int], bool], targets: dict[int, SimulatorLocal]):
        self._is_live = is_live
        # per sid, the (id, local) pairs of the simulators that can block it
        self._higher = {
            sid: [(other, loc) for other, loc in targets.items() if other > sid] for sid in targets
        }

    def simulate_step(self, sid: int, pid: int, round_no: int) -> str:
        for other, loc in self._higher[sid]:
            if loc.p_cur == pid and self._is_live(other):
                return BLOCKED
        return SUCCESS


class ScriptedOracle:
    """Test oracle driven by an explicit step function."""

    def __init__(self, step_fn: Callable[[int, int, int], str]):
        self._step_fn = step_fn

    def simulate_step(self, sid: int, pid: int, round_no: int) -> str:
        return self._step_fn(sid, pid, round_no)


def simulator_round(
    local: SimulatorLocal,
    shared: BGShared,
    oracle,
    adversary: Adversary,
    gate_mode: str = GATE_VERBATIM,
    round_no: int = 0,
) -> dict:
    """One full loop iteration of a simulator; returns the round record.

    The window and trail are those of `compute_window`, recomputed only when
    the status view or the registration count differs from the simulator's
    last computation.
    """
    view = shared.view(adversary)
    part, active, threshold, table = view
    sid = local.sid
    if not (sid >= threshold if gate_mode == GATE_VERBATIM else sid <= threshold):
        return {
            "round": round_no,
            "simulator": sid,
            "P": part,
            "A": active,
            "gated": False,
            "W": None,
            "trail": (),
            "s_cur": local.s_cur,
            "p_cur": local.p_cur,
            "reselected": False,
            "fallback": False,
            "stepped": None,
            "result": None,
        }
    seen_view, seen_registrations, window, trail = local.memo
    if seen_view is not view or seen_registrations != shared.registrations:
        steps: list = []
        window = compute_window(sid, shared, part, table, steps)
        trail = tuple(steps)
        local.memo = (view, shared.registrations, window, trail)
    s_cur = local.s_cur
    reselected = fallback = False
    if powered(table, s_cur, window, sid):
        stepped = local.p_cur
    else:
        s_cur, fallback = select_live_set(adversary, table, window, part, sid)
        stepped = local.p_cur = _lowest(s_cur)
        local.s_cur = s_cur
        shared.register(sid, stepped, s_cur)
        reselected = True
    result = oracle.simulate_step(sid, stepped, round_no)
    p_cur = local.p_cur = _next_in_cycle(s_cur, stepped) if result == SUCCESS else stepped
    return {
        "round": round_no,
        "simulator": sid,
        "P": part,
        "A": active,
        "gated": True,
        "W": window,
        "trail": trail,
        "s_cur": s_cur,
        "p_cur": p_cur,
        "reselected": reselected,
        "fallback": fallback,
        "stepped": stepped,
        "result": result,
    }


@dataclass
class SelectionHistory:
    """Round-by-round record of a selection run, plus the configuration header."""

    adversary: Adversary
    gate_mode: str
    sim_count: int
    budget: int
    pattern: dict[int, int]
    records: list[dict] = field(default_factory=list)
    final_pmem: list = field(default_factory=list)

    def per_simulator(self) -> dict[int, dict[str, int]]:
        """Rounds, gated rounds, re-selections, fallbacks and BLOCKED steps per simulator id."""
        counts = {
            sid: {"rounds": 0, "gated": 0, "reselections": 0, "fallbacks": 0, "blocked": 0}
            for sid in range(1, self.sim_count + 1)
        }
        for r in self.records:
            c = counts[r["simulator"]]
            c["rounds"] += 1
            c["gated"] += r["gated"]
            c["reselections"] += r["reselected"]
            c["fallbacks"] += r["fallback"]
            c["blocked"] += r["result"] == BLOCKED
        return counts

    def quarter_records(self) -> list[dict]:
        cut = 3 * self.budget // 4
        return [r for r in self.records if r["round"] >= cut]

    def to_json_obj(self) -> dict:
        return {
            "adversary": adversary_to_json_obj(self.adversary),
            "gate_mode": self.gate_mode,
            "simulators": self.sim_count,
            "budget": self.budget,
            "halt_pattern": {str(s): r for s, r in sorted(self.pattern.items())},
            "records": [{**r, "trail": list(r["trail"])} for r in self.records],
        }


def run_bgg_selection(
    adversary: Adversary,
    *,
    budget: int,
    pattern: Optional[dict[int, int]] = None,
    gate_mode: str = GATE_VERBATIM,
    initial_pmem: Optional[list] = None,
    oracle: Callable[[Callable[[int], bool], dict[int, SimulatorLocal]], object] = ContentionOracle,
) -> SelectionHistory:
    """Replay all simulators round-robin for `budget` global rounds.

    The pattern maps a simulator id to the number of rounds it takes before
    halting; absent ids run for the whole budget.  The simulator count is
    the agreement level of the full universe.  `oracle` is a factory called
    with (is_live, locals), so scripted oracles can observe the simulators'
    current targets.
    """
    if gate_mode not in (GATE_VERBATIM, GATE_ADAPTIVE):
        raise ValueError(f"unknown gate mode {gate_mode!r}")
    if budget < 1:
        raise ValueError(f"the budget must be at least 1 round, got {budget}")
    full = (1 << adversary.n) - 1
    sim_count = adversary.region_table(full)[full]
    pattern = dict(pattern or {})
    history = SelectionHistory(adversary, gate_mode, sim_count, budget, pattern)
    if sim_count == 0:
        return history
    shared = BGShared.fresh(adversary.n, sim_count, initial_pmem)
    locals_ = {sid: SimulatorLocal(sid) for sid in range(1, sim_count + 1)}
    taken = {sid: 0 for sid in locals_}

    def is_live(sid: int) -> bool:
        limit = pattern.get(sid)
        return limit is None or taken[sid] < limit

    step_oracle = oracle(is_live, locals_)
    limit_of = pattern.get
    append = history.records.append
    for round_no in range(budget):
        sid = round_no % sim_count + 1
        limit = limit_of(sid)
        if limit is not None and taken[sid] >= limit:
            continue
        # through the module global, once per record: the benchmark's tracer wraps it
        append(simulator_round(locals_[sid], shared, step_oracle, adversary, gate_mode, round_no))
        taken[sid] += 1
    history.final_pmem = list(shared.pmem)
    return history


def _participation_stability(quarter: list[dict]) -> Verdict:
    """The participation arrays settle: final-quarter rounds all read the same (P, A).

    On a history from run_bgg_selection this cannot fail: no oracle writes
    the status array during a run, so every round reads the initial array
    and the check only re-reads it.  It is kept so the report keeps its four
    properties.
    """
    seen = {(r["P"], r["A"]) for r in quarter}
    if len(seen) > 1:
        return Verdict("participation-stability", False, {"observed": sorted(seen)})
    return Verdict("participation-stability", True)


def _window_stability(quarter: list[dict], live: list[int], top: Optional[int]) -> Verdict:
    """Each eligible live simulator computes one constant window in the final quarter.

    All of them also agree on the narrowing prefix above the top one.
    """
    if top is None:
        return Verdict("window-stability", True, {"note": "no live eligible simulator"})
    windows: dict[int, set] = {sid: set() for sid in live}
    prefixes = set()
    for r in quarter:
        seen = windows.get(r["simulator"])
        if seen is not None and r["gated"]:
            seen.add(r["W"])
            prefixes.add(tuple(step for step in r["trail"] if step[0] > top))
    for sid in live:
        if len(windows[sid]) > 1:
            return Verdict("window-stability", False, {"simulator": sid, "windows": sorted(windows[sid])})
    if len(prefixes) > 1:
        return Verdict("window-stability", False, {"prefixes": sorted(prefixes)})
    return Verdict("window-stability", True)


def _selection_feasibility(adversary: Adversary, quarter: list[dict], live: list[int], top: Optional[int]) -> Verdict:
    """Eligible live simulators can always take the powered branch late in the run.

    In every final-quarter round of such a simulator some live set inside
    its window carries power at least its id, and any late re-selection
    actually used that branch.  Meaningful for fair adversaries.
    """
    if top is None:
        return Verdict("selection-feasibility", True, {"note": "no live eligible simulator"})
    feasible: dict[tuple[int, int, int], bool] = {}  # (A, W, sid) -> some powered live set
    for r in quarter:
        sid = r["simulator"]
        if sid not in live or not r["gated"]:
            continue
        key = (r["A"], r["W"], sid)
        ok = feasible.get(key)
        if ok is None:
            table = adversary.region_table(r["A"])
            ok = feasible[key] = any(powered(table, s.bits, r["W"], sid) for s in adversary.live_sets)
        if not ok:
            return Verdict(
                "selection-feasibility", False, {"round": r["round"], "simulator": sid, "window": r["W"]}
            )
        if r["reselected"] and r["fallback"]:
            return Verdict(
                "selection-feasibility", False, {"round": r["round"], "simulator": sid, "fallback": True}
            )
    return Verdict("selection-feasibility", True)


def _liveset_coverage(history: SelectionHistory, quarter: list[dict], live: list[int], top: Optional[int]) -> Verdict:
    """The processes stepped successfully late in the run form a live set touching the unfinished ones.

    The exception: the top live simulator is pinned on one process and
    every lower live simulator stays away from it.
    """
    if top is None:
        return Verdict("liveset-coverage", True, {"note": "no live eligible simulator"})
    _, active_bits = participation(history.final_pmem)
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
    """All bounded-run selection properties in stable order.

    The one route to the four verdicts: participation stability, window
    stability, selection feasibility and live-set coverage.  The final
    quarter and the eligible live simulators (no halt in the pattern, id at
    most the gate threshold of the final status array) are read once and
    passed to each check.
    """
    quarter = history.quarter_records()
    bound = gate_threshold(history.adversary, *participation(history.final_pmem))
    live = [s for s in range(1, history.sim_count + 1) if s not in history.pattern and s <= bound]
    top = max(live) if live else None
    return [
        _participation_stability(quarter),
        _window_stability(quarter, live, top),
        _selection_feasibility(history.adversary, quarter, live, top),
        _liveset_coverage(history, quarter, live, top),
    ]
