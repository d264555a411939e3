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
table the adversary's agreement function wraps.  `powered` stays the
named rule that the window uses; a round makes that test on its own
current set, and the advance to the next process of that set, inline,
because it does both on every gated round.  A re-selection asks the same
rule of every live set at once, through the level planes kept beside the
table: the powered live sets in window W are F AND Sub(W) AND G_sid
(`Adversary.live_inside` and `Adversary.level_plane`), one integer whose
lowest set bit is the smallest mask (`select_live_set`).
P, A, the gate threshold min(|A|, α(P)) and the table of A depend on the
status array alone, and nothing writes that array during a run, so
`run_bgg_selection` reads them once (`status_view`) and hands the same
view to every round.  A simulator's window depends only on that view and
on the selections above it, so each simulator keeps its last window and
trail and recomputes them only when it is handed another view or
`BGShared.registrations`, the count of `BGShared.register` calls, has
changed.  `run_bgg_selection` keeps the simulators in a list in id order
beside one count of rounds left per simulator, which `is_live` reads too.
`SelectionHistory.per_simulator` sums the records per simulator, and
`selection_report`, the only entry point to the four bounded-run
properties, reads the final quarter and the eligible live simulators once
and hands them to each check.  The records are in round order, so the
final quarter is a slice of them, found by bisection on the round, and
selection feasibility reads one region table per status set in it.
Live-set coverage reads `Adversary.membership`.  Feasibility lemma: with
table = region_table(A), some live s inside the window W has table[s] >=
sid exactly when table[W] >= sid.  Monotonicity gives one direction; for
the other, the recursion's maximum at W is reached by a live S inside W
with table[S] = table[W] (the witness lemma's argument in
`advlab.adversary`).  So selection feasibility is one lookup per record.

The step machinery underneath is a step function
`step(sid, pid, round_no) -> SUCCESS | BLOCKED`, built by an oracle
factory called with (is_live, locals) so it can observe the simulators'
current targets; `contention_oracle` is the default factory.  It models
agreement contention deterministically: a step on a process is blocked
exactly while a higher-id simulator that is still taking rounds targets
the same process, and steps held by stopped simulators never block anyone
(departed blockers get cleaned up).  It lists each simulator's higher-id
contenders once, when it is built, and a step walks only that list.
Another factory can inject other block patterns, subject to the same
"blocked only while another simulator holds the process" rule.

Activation gate: the loop body verbatim runs when the simulator id is at
least min(|unfinished|, level(participating)).  That direction leaves the
low-id simulators idle, which contradicts how the selection properties are
stated, so the harness also offers the "adaptive" polarity (id at most the
minimum).  Neither is a default; the history records which one was used.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional

from .adversary import Adversary, adversary_to_json_obj
# The library does not call these here.  The benchmark's tracer
# (perfbench/tracing.py) wraps them as attributes of this module, so they
# stay until the tracer is repointed (ROADMAP item 1).
from .adversary import agreement_function, restrict_intersecting, setcon  # noqa: F401
from .checkers import Verdict
from .processes import ProcessSet, check_mask

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

    `register` is the one writer of a selection in a run: it bumps
    `registrations`, which keys the simulators' window memo, so a selection
    written to the list directly is seen by `compute_window` but not by a
    simulator whose window is memoised.  Nothing writes `pmem` during a run,
    so `run_bgg_selection` reads its `status_view` once and no round polls
    it; a writer of a status would refresh the view where it writes, the
    way `register` bumps `registrations`.
    """

    # Write through `register` in a run that `simulator_round` reads: a direct
    # write leaves the simulators' memoised windows stale.
    selections: list[tuple[Optional[int], int]]
    pmem: list[object]
    registrations: int = field(default=0, init=False, repr=False, compare=False)

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


def status_view(adversary: Adversary, pmem: list) -> tuple[int, int, int, bytes]:
    """(P, A, gate threshold, region_table(A)) of a status array: all a round reads of it."""
    part, active = participation(pmem)
    return part, active, gate_threshold(adversary, part, active), adversary.region_table(active)


def power_within(adversary: Adversary, region: int, active: int) -> int:
    """Set-consensus power of the region mask's live sets that touch the active mask.

    The library does not call this: rounds read the region table through
    `powered`.  It stays because the benchmark's tracer hooks this name,
    and leaves when the tracer is repointed (ROADMAP item 1).
    """
    check_mask(adversary.n, region)  # the table checks the active mask
    return adversary.region_table(active)[region]


def powered(table: bytes, s: int, window: int, sid: int) -> bool:
    """Live set s fits the window and carries power at least sid.

    `table` is `adversary.region_table(active)`, read once per round.
    """
    return s & ~window == 0 and table[s] >= sid


def compute_window(sid: int, shared: BGShared, part: int, table: bytes) -> tuple[int, tuple]:
    """(window, trail): the participation narrowed down the higher simulators' registered choices.

    From the top simulator down to sid+1: a registered (process, live set)
    pair narrows the window to that live set minus its process, provided the
    set is powered for its owner's id in the current window.  The trail
    holds (simulator, window after it) per step.  Pure in (selections above
    sid, part, table).
    """
    window = part
    trail = []
    for j in range(len(shared.selections) - 1, sid, -1):
        p_tmp, s_tmp = shared.selections[j]
        if p_tmp is not None and powered(table, s_tmp, window, j):
            window = s_tmp & ~(1 << (p_tmp - 1))
        trail.append((j, window))
    return window, tuple(trail)


def select_live_set(adversary: Adversary, active: int, window: int, part: int, sid: int) -> tuple[int, bool]:
    """(live set, fallback): the smallest powered one in the window, else the smallest in the region.

    The live sets powered for simulator sid in window W are
    F AND Sub(W) AND G_sid, with G_sid the level plane of
    `region_table(active)`, empty when sid exceeds the plane count.  The
    fallback takes F AND Sub(P).  The lowest set bit is the smallest mask:
    the deterministic tie-break.
    """
    hits = adversary.live_inside(window) & adversary.level_plane(active, sid)
    if hits:
        return (hits & -hits).bit_length() - 1, False
    hits = adversary.live_inside(part)
    if hits:
        return (hits & -hits).bit_length() - 1, True
    raise SelectionImpossible(f"no live set fits the participating region {ProcessSet(adversary.n, part)}")


Step = Callable[[int, int, int], str]  # (sid, pid, round_no) -> SUCCESS or BLOCKED


def contention_oracle(is_live: Callable[[int], bool], targets: dict[int, SimulatorLocal]) -> Step:
    """Default oracle factory: higher-id live simulators win process conflicts."""
    # index sid: the (id, local) pairs of the simulators that can block it
    higher: list[list[tuple[int, SimulatorLocal]]] = [[] for _ in range(max(targets, default=0) + 1)]
    for sid in targets:
        higher[sid] = [(other, loc) for other, loc in targets.items() if other > sid]

    def step(sid: int, pid: int, round_no: int) -> str:
        for other, loc in higher[sid]:
            if loc.p_cur == pid and is_live(other):
                return BLOCKED
        return SUCCESS

    return step


def simulator_round(
    local: SimulatorLocal,
    shared: BGShared,
    view: tuple[int, int, int, bytes],
    step: Step,
    adversary: Adversary,
    gate_mode: str,
    round_no: int,
) -> dict:
    """One full loop iteration of a simulator; returns the round record.

    `view` is the `status_view` of `shared.pmem`.  The gate is tested
    first: a round it holds back returns at once, keeps the simulator's
    selection and records no window, step or result.  A gated round reads
    the window and trail of `compute_window`, recomputed only when the view
    or the registration count differs from the simulator's last
    computation.
    """
    part, active, threshold, table = view
    sid = local.sid
    if (sid < threshold) if gate_mode == GATE_VERBATIM else (sid > threshold):  # held back
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
        window, trail = compute_window(sid, shared, part, table)
        local.memo = (view, shared.registrations, window, trail)
    s_cur = local.s_cur
    if s_cur & ~window == 0 and table[s_cur] >= sid:  # powered(table, s_cur, window, sid)
        stepped = local.p_cur
        reselected = fallback = False
    else:
        s_cur, fallback = select_live_set(adversary, active, window, part, sid)
        stepped = local.p_cur = (s_cur & -s_cur).bit_length()  # the lowest member
        local.s_cur = s_cur
        shared.register(sid, stepped, s_cur)
        reselected = True
    result = step(sid, stepped, round_no)
    if result == SUCCESS:
        # on to the next member of s_cur above the stepped one, cycling round to the lowest
        higher = s_cur >> stepped
        p_cur = stepped + (higher & -higher).bit_length() if higher else (s_cur & -s_cur).bit_length()
    else:
        p_cur = stepped
    local.p_cur = p_cur
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
    """Round-by-round record of a selection run, plus the configuration header.

    `records` holds one record per round taken, in round order: rounds
    strictly increase along the list, which `quarter_records` relies on.
    """

    adversary: Adversary
    gate_mode: str
    sim_count: int
    budget: int
    pattern: dict[int, int]
    final_pmem: list
    records: list[dict] = field(default_factory=list)

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
        """The records of rounds 3·budget // 4 on: a slice, since records are in round order."""
        records = self.records
        return records[bisect_left(records, 3 * self.budget // 4, key=itemgetter("round")):]

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
    gate_mode: str,
    initial_pmem: Optional[list] = None,
    oracle: Callable[[Callable[[int], bool], dict[int, SimulatorLocal]], Step] = contention_oracle,
) -> SelectionHistory:
    """Replay all simulators round-robin for `budget` global rounds.

    `gate_mode` has no default.  The simulator count is the agreement level
    of the full universe.  The pattern maps a simulator id in 1..sim_count
    to the number of rounds (at least 0) it takes before halting; absent ids
    run for the whole budget.  The loop keeps one count of rounds left per
    simulator (None: it never halts) and lowers it after the simulator's
    round, so `is_live` reads a simulator live through its last round, while
    it steps too, and not live from then on.  `oracle`
    is a factory called with (is_live, locals) that returns the step
    function, so it can observe the simulators' current targets.
    `initial_pmem`, when given, holds one status per process: PM_UNSET,
    PM_ACTIVE or PM_DONE.
    """
    if gate_mode not in (GATE_VERBATIM, GATE_ADAPTIVE):
        raise ValueError(f"unknown gate mode {gate_mode!r}")
    if budget < 1:
        raise ValueError(f"the budget must be at least 1 round, got {budget}")
    if initial_pmem is not None:
        if len(initial_pmem) != adversary.n:
            raise ValueError(f"initial_pmem needs {adversary.n} entries, one per process, got {len(initial_pmem)}")
        for pid, status in enumerate(initial_pmem, 1):
            if status is not PM_UNSET and status not in (PM_ACTIVE, PM_DONE):
                raise ValueError(f"initial_pmem gives process {pid} the unknown status {status!r}")
    full = (1 << adversary.n) - 1
    sim_count = adversary.region_table(full)[full]
    pattern = dict(pattern or {})
    for sid, rounds in sorted(pattern.items()):
        if not 1 <= sid <= sim_count:
            raise ValueError(f"halt pattern names simulator {sid}; this adversary has {sim_count} simulators")
        if rounds < 0:
            raise ValueError(f"halt pattern gives simulator {sid} the negative round count {rounds}")
    shared = BGShared.fresh(adversary.n, sim_count, initial_pmem)
    history = SelectionHistory(adversary, gate_mode, sim_count, budget, pattern, final_pmem=list(shared.pmem))
    if sim_count == 0:
        return history
    # index sid - 1 holds simulator sid
    sims = [SimulatorLocal(sid) for sid in range(1, sim_count + 1)]
    left = [pattern.get(sid) for sid in range(1, sim_count + 1)]  # rounds left; None: never halts

    def is_live(sid: int) -> bool:
        rest = left[sid - 1]
        return rest is None or rest > 0

    step = oracle(is_live, {local.sid: local for local in sims})
    view = status_view(adversary, shared.pmem)
    append = history.records.append
    for round_no in range(budget):
        i = round_no % sim_count
        rest = left[i]
        if rest is None or rest > 0:
            # through the module global, once per record: the benchmark's tracer wraps it
            append(simulator_round(sims[i], shared, view, step, adversary, gate_mode, round_no))
            if rest is not None:
                left[i] = rest - 1  # after the round: the simulator reads live while it steps
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


def _window_stability(quarter: list[dict], live: list[int], top: int) -> Verdict:
    """Each eligible live simulator computes one constant window in the final quarter.

    All of them also agree on the narrowing prefix above the top one.
    """
    windows: dict[int, set] = {sid: set() for sid in live}
    trails = set()  # a simulator's records share its memoised trail, so few are distinct
    for r in quarter:
        seen = windows.get(r["simulator"])
        if seen is not None and r["gated"]:
            seen.add(r["W"])
            trails.add(r["trail"])
    prefixes = {tuple(step for step in trail if step[0] > top) for trail in trails}
    for sid in live:
        if len(windows[sid]) > 1:
            return Verdict("window-stability", False, {"simulator": sid, "windows": sorted(windows[sid])})
    if len(prefixes) > 1:
        return Verdict("window-stability", False, {"prefixes": sorted(prefixes)})
    return Verdict("window-stability", True)


def _selection_feasibility(adversary: Adversary, quarter: list[dict], live: list[int]) -> Verdict:
    """Eligible live simulators can always take the powered branch late in the run.

    In every final-quarter round of such a simulator some live set inside
    its window carries power at least its id (the feasibility lemma), and
    any late re-selection actually used that branch.  Meaningful for fair
    adversaries.  A run has one status set, so the region table is read
    once per distinct A in the quarter.
    """
    tables: dict[int, bytes] = {}
    for r in quarter:
        sid = r["simulator"]
        if sid not in live or not r["gated"]:
            continue
        active = r["A"]
        table = tables.get(active)
        if table is None:
            table = tables[active] = adversary.region_table(active)
        if table[r["W"]] < sid:
            return Verdict("selection-feasibility", False, {"round": r["round"], "simulator": sid, "window": r["W"]})
        if r["reselected"] and r["fallback"]:
            return Verdict("selection-feasibility", False, {"round": r["round"], "simulator": sid, "fallback": True})
    return Verdict("selection-feasibility", True)


def _liveset_coverage(adversary: Adversary, quarter: list[dict], live: list[int], top: int, active: int) -> Verdict:
    """The processes stepped successfully late in the run form a live set touching the unfinished ones.

    `active` holds the unfinished processes of the final status array.
    The exception: the top live simulator is pinned on one process and
    every lower live simulator stays away from it.
    """
    stepped_ok = 0
    for r in quarter:
        if r["result"] == SUCCESS:
            stepped_ok |= 1 << (r["stepped"] - 1)
    if adversary.membership[stepped_ok] and stepped_ok & active:
        return Verdict("liveset-coverage", True)
    top_steps = {r["stepped"] for r in quarter if r["simulator"] == top and r["stepped"] is not None}
    if len(top_steps) == 1:
        pinned = next(iter(top_steps))
        lower = {r["stepped"] for r in quarter if r["simulator"] < top and r["simulator"] in live}
        if pinned not in lower:
            return Verdict("liveset-coverage", True, {"pinned": pinned})
    return Verdict("liveset-coverage", False, {"stepped": stepped_ok, "top": top, "top_steps": sorted(top_steps)})


def selection_report(history: SelectionHistory) -> list[Verdict]:
    """All bounded-run selection properties in stable order.

    The one route to the four verdicts: participation stability, window
    stability, selection feasibility and live-set coverage.  The final
    quarter and the eligible live simulators are read once and passed to
    each check.  A simulator is eligible when its id is at most the gate
    threshold of the final status array and the run did not halt it: a
    halt count at or past the rounds the run gives it stops nothing.
    Without an eligible simulator, the last three hold with a note.
    """
    quarter = history.quarter_records()
    part, active = participation(history.final_pmem)
    bound = gate_threshold(history.adversary, part, active)
    pattern, budget, sims = history.pattern, history.budget, history.sim_count
    # simulator s takes the rounds range(s - 1, budget, sims) unless its halt count cuts them short
    live = [s for s in range(1, sims + 1) if s <= bound and pattern.get(s, budget) >= len(range(s - 1, budget, sims))]
    if not live:
        vacuous = ("window-stability", "selection-feasibility", "liveset-coverage")
        return [_participation_stability(quarter)] + [
            Verdict(prop, True, {"note": "no live eligible simulator"}) for prop in vacuous
        ]
    top = max(live)
    return [
        _participation_stability(quarter),
        _window_stability(quarter, live, top),
        _selection_feasibility(history.adversary, quarter, live),
        _liveset_coverage(history.adversary, quarter, live, top, active),
    ]
