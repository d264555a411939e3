"""Live-set selection: windows, validity, selection, rounds, bounded properties."""

import hashlib
import itertools
import random
import re

import pytest

from advlab import (
    Adversary,
    ProcessSet,
    agreement_function,
    all_nonempty,
    bgg,
    is_fair,
    setcon,
    sizes_adversary,
    t_resilient_adversary,
)
from advlab.bgg import (
    BGShared,
    BLOCKED,
    GATE_ADAPTIVE,
    GATE_VERBATIM,
    PM_ACTIVE,
    PM_DONE,
    SelectionImpossible,
    SimulatorLocal,
    SUCCESS,
    compute_window,
    contention_oracle,
    participation,
    power_within,
    powered,
    run_bgg_selection,
    select_live_set,
    selection_report,
    simulator_round,
    status_view,
    warm_up_budget,
)
from advlab.sim import canonical_json

from oracles import (
    all_families,
    brute_restrict_touching,
    cyclic_edge_closure,
    brute_setcon,
    slow_quarter_records,
    slow_select_live_set,
    slow_selection_feasible,
)


def fair_example():
    return Adversary.of(3, [[1], [2], [3], [1, 3], [2, 3], [1, 2, 3]])


def report_by_prop(history):
    """The verdicts of `selection_report`, keyed by property name."""
    return {v.prop: v for v in selection_report(history)}


def assert_round_order(history):
    """Rounds strictly increase along the records: the order `quarter_records` slices."""
    rounds = [r["round"] for r in history.records]
    assert all(a < b for a, b in zip(rounds, rounds[1:])), rounds


def succeed(sid, pid, round_no):
    """A step function under which every step succeeds."""
    return SUCCESS


class TestReadParticipation:
    def test_all_unset(self):
        shared = BGShared.fresh(3, 2, pmem=[None, None, None])
        assert participation(shared.pmem) == (0, 0)

    def test_mixed(self):
        shared = BGShared.fresh(3, 2, pmem=[PM_ACTIVE, PM_DONE, None])
        assert participation(shared.pmem) == (0b011, 0b001)

    def test_all_done(self):
        shared = BGShared.fresh(3, 2, pmem=[PM_DONE] * 3)
        assert participation(shared.pmem) == (0b111, 0)


class TestStatusView:
    def test_view_of_each_status_array(self):
        cases = [
            ([PM_ACTIVE] * 3, 0b111, 0b111),
            ([PM_ACTIVE, PM_DONE, None], 0b011, 0b001),
            ([PM_DONE, PM_ACTIVE, PM_ACTIVE], 0b111, 0b110),
            ([PM_DONE] * 3, 0b111, 0),
            ([None] * 3, 0, 0),
        ]
        for adv in (fair_example(), Adversary.of(3, [[1, 2, 3]]), all_nonempty(3)):
            for pmem, part, active in cases:
                threshold = min(active.bit_count(), agreement_function(adv).table[part])
                assert status_view(adv, pmem) == (part, active, threshold, adv.region_table(active))

    def test_a_round_reads_the_view_it_is_handed(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        local = SimulatorLocal(1)
        first = simulator_round(local, shared, status_view(adv, shared.pmem), succeed, adv, GATE_ADAPTIVE, 0)
        # the view of another status array, not shared.pmem, is what the next round reads
        view = status_view(adv, [PM_DONE, PM_ACTIVE, None])
        second = simulator_round(local, shared, view, succeed, adv, GATE_ADAPTIVE, 1)
        assert shared.pmem == [PM_ACTIVE] * 3
        assert (first["P"], first["A"], first["W"]) == (0b111, 0b111, 0b111)
        assert (second["P"], second["A"]) == (0b011, 0b010)
        assert second["W"] == 0b011 and second["s_cur"] & ~0b011 == 0

    def test_a_run_reads_the_status_view_once(self, monkeypatch):
        calls = []

        def counted(adversary, pmem):
            calls.append(list(pmem))
            return status_view(adversary, pmem)

        monkeypatch.setattr(bgg, "status_view", counted)
        pmem = [PM_DONE, PM_ACTIVE, PM_ACTIVE]
        history = run_bgg_selection(fair_example(), budget=400, gate_mode=GATE_ADAPTIVE, initial_pmem=pmem)
        assert len(history.records) == 400 and calls == [pmem]


class TestComputeWindow:
    def test_empty_registers_leave_full_window(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        part, active = participation(shared.pmem)
        assert compute_window(1, shared, part, adv.region_table(active)) == (part, ((2, part),))

    def test_hand_traced_narrowing(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        shared.selections[2] = (1, 0b111)
        assert compute_window(1, shared, 0b111, adv.region_table(0b111)) == (0b110, ((2, 0b110),))

    def test_hand_traced_narrowing_partial_set(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        full = ProcessSet.full(3)
        shared.selections[2] = (1, 0b101)
        assert power_within(adv, ProcessSet.of(3, [1, 3]), full) == 2
        assert compute_window(1, shared, 0b111, adv.region_table(0b111)) == (0b100, ((2, 0b100),))

    def test_window_only_shrinks_along_the_trail(self):
        adv = all_nonempty(3)
        sim_count = agreement_function(adv).table[7]
        shared = BGShared.fresh(3, sim_count)
        shared.selections[3] = (2, 0b111)
        shared.selections[2] = (3, 0b101)
        window, trail = compute_window(1, shared, 0b111, adv.region_table(0b111))
        assert [j for j, _ in trail] == list(range(sim_count, 1, -1))
        bits = [0b111] + [b for _, b in trail]
        for before, after in zip(bits, bits[1:]):
            assert after & ~before == 0
        assert window == bits[-1]


class TestWindowMemo:
    def test_higher_reselection_narrows_the_lower_window_next_round(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        low, high = SimulatorLocal(1), SimulatorLocal(2)
        view = status_view(adv, shared.pmem)
        first = simulator_round(low, shared, view, succeed, adv, GATE_ADAPTIVE, 0)
        assert first["W"] == 0b111 and first["trail"] == ((2, 0b111),)
        # simulator 2 selects {1, 3} and registers process 1 in it
        top = simulator_round(high, shared, view, succeed, adv, GATE_ADAPTIVE, 1)
        assert top["reselected"] and shared.selections[2] == (1, 0b101)
        second = simulator_round(low, shared, view, succeed, adv, GATE_ADAPTIVE, 2)
        assert second["W"] == 0b100 and second["trail"] == ((2, 0b100),)
        assert second["reselected"] and second["s_cur"] == 0b100

    def test_window_is_kept_while_no_registration_changes(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        shared.register(2, 1, 0b101)
        local = SimulatorLocal(1)
        view = status_view(adv, shared.pmem)
        rounds = [simulator_round(local, shared, view, succeed, adv, GATE_ADAPTIVE, r) for r in range(4)]
        assert rounds[0]["reselected"] and not any(r["reselected"] for r in rounds[1:])
        # recomputed once after the round's own registration, then reused as is
        assert rounds[1]["trail"] == ((2, 0b100),) and rounds[2]["trail"] is rounds[1]["trail"]
        assert rounds[3]["trail"] is rounds[1]["trail"]

    def test_register_counts_every_write(self):
        shared = BGShared.fresh(3, 2)
        shared.register(2, 1, 0b101)
        shared.register(2, 1, 0b101)
        assert shared.selections[2] == (1, 0b101) and shared.registrations == 2

    def test_memo_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            SimulatorLocal(1, memo=(None, 0, 0, ()))


class TestSelection:
    def test_empty_selection_is_invalid(self):
        adv = fair_example()
        assert not powered(adv.region_table(0b111), 0, 0b111, 1)

    def test_valid_pair(self):
        adv = fair_example()
        assert powered(adv.region_table(0b111), 0b110, 0b110, 1)

    def test_outside_window_is_invalid(self):
        adv = fair_example()
        assert not powered(adv.region_table(0b111), 0b111, 0b110, 1)

    def test_smallest_encoding_wins(self):
        adv = fair_example()
        assert select_live_set(adv, 0b111, 0b111, 0b111, 1) == (0b001, False)

    def test_fallback_branch(self):
        adv = Adversary.of(3, [[1], [2]])
        assert setcon(adv) == 1
        # no live set reaches power 2, so any region member is returned
        assert select_live_set(adv, 0b111, 0b111, 0b111, 2) == (0b001, True)

    def test_selection_impossible_surfaces(self):
        adv = fair_example()
        with pytest.raises(SelectionImpossible):
            select_live_set(adv, 0, 0, 0, 1)

    @pytest.mark.parametrize(
        "pmem, message",
        [
            ([PM_ACTIVE, PM_ACTIVE], "initial_pmem needs 3 entries, one per process, got 2"),
            ([PM_ACTIVE] * 4, "initial_pmem needs 3 entries, one per process, got 4"),
            (["busy", PM_ACTIVE, PM_DONE], "initial_pmem gives process 1 the unknown status 'busy'"),
        ],
        ids=["short", "long", "unknown-status"],
    )
    def test_initial_status_array_is_checked(self, pmem, message):
        adv = Adversary.of(3, [[1], [2], [3], [1, 2, 3]])
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_bgg_selection(adv, budget=8, gate_mode=GATE_VERBATIM, initial_pmem=pmem)

    @pytest.mark.parametrize(
        "sets, pattern, message",
        [
            ([[1], [2], [3], [1, 2, 3]], {9: 5}, "halt pattern names simulator 9; this adversary has 2 simulators"),
            ([[1], [2], [3], [1, 2, 3]], {0: 5}, "halt pattern names simulator 0; this adversary has 2 simulators"),
            ([[1], [2], [3], [1, 2, 3]], {1: -3}, "halt pattern gives simulator 1 the negative round count -3"),
            ([[1], [2], [3], [1, 2, 3]], {9: 5, 1: -3}, "halt pattern gives simulator 1 the negative round count -3"),
            ([], {1: 0}, "halt pattern names simulator 1; this adversary has 0 simulators"),
        ],
        ids=["id-above", "id-zero", "negative-count", "both", "no-simulators"],
    )
    def test_halt_pattern_is_checked(self, sets, pattern, message):
        # a pattern that cannot apply is refused, not written into the history
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_bgg_selection(Adversary.of(3, sets), budget=8, pattern=pattern, gate_mode=GATE_ADAPTIVE)

    def test_gate_mode_has_no_default(self):
        with pytest.raises(TypeError, match="gate_mode"):
            run_bgg_selection(fair_example(), budget=8)


class TestSimulatorRound:
    def test_round_robin_cycling(self):
        adv = Adversary.of(3, [[1, 2, 3]])
        history = run_bgg_selection(adv, budget=7, gate_mode=GATE_ADAPTIVE)
        assert [r["stepped"] for r in history.records] == [1, 2, 3, 1, 2, 3, 1]
        assert all(r["result"] == SUCCESS for r in history.records)

    def test_all_done_idles_under_adaptive_gate(self):
        adv = fair_example()
        history = run_bgg_selection(
            adv, initial_pmem=[PM_DONE] * 3, budget=8, gate_mode=GATE_ADAPTIVE
        )
        assert all(not r["gated"] for r in history.records)
        assert all(r["stepped"] is None for r in history.records)

    def test_all_done_verbatim_gate_mismatch_is_observable(self):
        # the verbatim polarity lets every simulator through once nothing is
        # active, which is the documented direction mismatch
        adv = fair_example()
        history = run_bgg_selection(
            adv, initial_pmem=[PM_DONE] * 3, budget=4, gate_mode=GATE_VERBATIM
        )
        assert all(r["gated"] for r in history.records)

    def test_blocked_step_released_by_lower_reselection(self):
        # scripted contention: simulator 2 stays blocked on process 1 while
        # simulator 1 targets it; the narrowing forces simulator 1 away and
        # the step then succeeds
        adv = fair_example()

        def factory(is_live, locals_):
            def step(sid, pid, round_no):
                if sid == 2 and pid == 1 and locals_[1].p_cur == 1:
                    return BLOCKED
                return SUCCESS

            return step

        history = run_bgg_selection(adv, budget=12, gate_mode=GATE_ADAPTIVE, oracle=factory)
        sim2 = [r for r in history.records if r["simulator"] == 2]
        assert sim2[0]["stepped"] == 1 and sim2[0]["result"] == BLOCKED
        later = [r for r in sim2 if r["result"] == SUCCESS and r["stepped"] == 1]
        assert later, "the blocked step should eventually succeed"
        sim1 = [r for r in history.records if r["simulator"] == 1]
        assert any(r["reselected"] and 1 not in ProcessSet(3, r["s_cur"]).members() for r in sim1)


class TestBoundedProperties:
    def test_stability_all_live(self):
        adv = fair_example()
        history = run_bgg_selection(adv, budget=400, gate_mode=GATE_ADAPTIVE)
        for verdict in selection_report(history):
            assert verdict.passed, verdict

    def test_stability_with_top_simulator_halted(self):
        adv = fair_example()
        history = run_bgg_selection(adv, pattern={2: 10}, budget=400, gate_mode=GATE_ADAPTIVE)
        for verdict in selection_report(history):
            assert verdict.passed, verdict

    def test_nonfair_adversary_still_runs(self, unfair_triple):
        history = run_bgg_selection(unfair_triple, budget=200, gate_mode=GATE_ADAPTIVE)
        assert history.records

    @pytest.mark.parametrize("budget", [0, -7])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="at least 1 round"):
            run_bgg_selection(fair_example(), budget=budget, gate_mode=GATE_VERBATIM)

    def test_empty_adversary_trivial_history(self):
        history = run_bgg_selection(Adversary(3, ()), budget=100, gate_mode=GATE_VERBATIM)
        assert history.records == []
        assert history.sim_count == 0

    @pytest.mark.parametrize("gate", [GATE_ADAPTIVE, GATE_VERBATIM])
    def test_empty_adversary_keeps_its_status_array(self, gate):
        # a run with no simulators still records the status array it was
        # handed, as every other run does
        for pmem in GOLDEN_PMEMS:
            history = run_bgg_selection(Adversary(3, ()), budget=10, gate_mode=gate, initial_pmem=pmem)
            assert history.final_pmem == (pmem if pmem is not None else [PM_ACTIVE] * 3)

    def test_power_drop_bound_exhaustive_n3(self):
        # removing one process from a live set costs at most one power level,
        # for every family and every active-set restriction
        for masks in all_families(3):
            adv = Adversary(3, tuple(ProcessSet(3, m) for m in masks))
            for active_bits in range(8):
                active = ProcessSet(3, active_bits)
                for m in adv.live_sets:
                    s = ProcessSet(3, m)
                    whole = power_within(adv, s, s & active)
                    for p in s.members():
                        rest = s.without(p)
                        assert power_within(adv, rest, rest & active) >= whole - 1

    def test_power_within_matches_brute_on_every_region_and_active_set(self):
        rng = random.Random("power-within")
        sampled = [(3, masks) for masks in all_families(3)]
        sampled += [(4, frozenset(rng.sample(range(1, 16), rng.randint(1, 12)))) for _ in range(20)]
        for n, masks in sampled:
            adv = Adversary(n, tuple(ProcessSet(n, m) for m in masks))
            for region in range(1 << n):
                for active in range(1 << n):
                    got = power_within(adv, ProcessSet(n, region), ProcessSet(n, active))
                    assert got == brute_setcon(brute_restrict_touching(masks, region, region & active))

    def test_feasibility_lookup_matches_the_live_set_scan(self):
        # some live s inside W has region_table(A)[s] >= sid exactly when
        # region_table(A)[W] >= sid: the lemma selection feasibility reads
        rng = random.Random("feasibility-lemma")
        families = [Adversary(3, tuple(ProcessSet(3, m) for m in masks)) for masks in all_families(3)]
        for n, count in ((4, 12), (5, 6), (6, 3)):
            for _ in range(count):
                density = rng.uniform(0.1, 0.7)
                families.append(Adversary(n, tuple(ProcessSet(n, m) for m in range(1, 1 << n) if rng.random() < density)))
        for adv in families:
            size = 1 << adv.n
            for active in range(size):
                table = adv.region_table(active)
                for window in range(size):
                    for sid in range(1, adv.n + 1):
                        assert slow_selection_feasible(adv, active, window, sid) == (table[window] >= sid), (
                            adv, active, window, sid
                        )

    def test_power_within_rejects_universe_mismatch(self):
        adv = all_nonempty(3)
        with pytest.raises(ValueError):
            power_within(adv, ProcessSet.full(4), ProcessSet.full(3))
        with pytest.raises(ValueError):
            power_within(adv, ProcessSet.full(3), ProcessSet.full(4))

    def test_window_stability_checker_catches_drift(self):
        adv = fair_example()
        history = run_bgg_selection(adv, budget=400, gate_mode=GATE_ADAPTIVE)
        # corrupt one late window record and expect the checker to flag it
        for r in reversed(history.records):
            if r["gated"] and r["simulator"] == 2:
                r["W"] = r["W"] ^ 0b1
                break
        assert not report_by_prop(history)["window-stability"].passed

    def test_selection_feasibility_checker_catches_an_empty_window(self):
        adv = fair_example()
        history = run_bgg_selection(adv, budget=400, gate_mode=GATE_ADAPTIVE)
        assert report_by_prop(history)["selection-feasibility"].passed
        # the last late round of simulator 1 sees no window: nothing powered fits
        late = [r for r in history.quarter_records() if r["gated"] and r["simulator"] == 1]
        late[-1]["W"] = 0
        verdict = report_by_prop(history)["selection-feasibility"]
        assert not verdict.passed
        assert verdict.witness == {"round": late[-1]["round"], "simulator": 1, "window": 0}

    def test_selection_feasibility_checker_catches_a_late_fallback(self):
        history = run_bgg_selection(fair_example(), budget=400, gate_mode=GATE_ADAPTIVE)
        # the window still holds a powered live set, but the record says the
        # late re-selection took the unpowered branch
        late = [r for r in history.quarter_records() if r["gated"] and r["simulator"] == 1]
        late[-1]["reselected"] = late[-1]["fallback"] = True
        verdict = report_by_prop(history)["selection-feasibility"]
        assert not verdict.passed
        assert verdict.witness == {"round": late[-1]["round"], "simulator": 1, "fallback": True}

    def test_selection_feasibility_reads_each_records_own_table(self):
        # the check reads one region table per status set it meets: a late
        # record whose A is edited to 0, a set no live set meets, is judged
        # by the table of its own A, where its window has power 0
        history = run_bgg_selection(fair_example(), budget=400, gate_mode=GATE_ADAPTIVE)
        assert report_by_prop(history)["selection-feasibility"].passed
        late = [r for r in history.quarter_records() if r["gated"] and r["simulator"] == 1]
        record = late[-1]
        assert history.adversary.region_table(record["A"])[record["W"]] >= 1
        record["A"] = 0
        assert history.adversary.region_table(0)[record["W"]] == 0
        verdict = report_by_prop(history)["selection-feasibility"]
        assert not verdict.passed
        assert verdict.witness == {"round": record["round"], "simulator": 1, "window": record["W"]}

    def test_window_stability_checker_catches_a_prefix_disagreement(self):
        # simulator 3 halts, so the live simulators 1 and 2 must agree on the
        # narrowing by simulator 3; one late record of simulator 1 disagrees
        # while its own window stays constant
        history = run_bgg_selection(all_nonempty(3), pattern={3: 10}, budget=400, gate_mode=GATE_ADAPTIVE)
        assert report_by_prop(history)["window-stability"].passed
        late = [r for r in history.quarter_records() if r["gated"] and r["simulator"] == 1]
        assert {r["trail"] for r in late} == {((3, 0b110), (2, 0b100))}
        late[-1]["trail"] = ((3, 0b101), (2, 0b100))
        verdict = report_by_prop(history)["window-stability"]
        assert not verdict.passed
        assert verdict.witness == {"prefixes": [((3, 0b101),), ((3, 0b110),)]}

    def test_participation_stability_checker_catches_a_changed_array(self):
        # no run of run_bgg_selection writes the status array, so only a
        # crafted record can make this property fail
        history = run_bgg_selection(fair_example(), budget=400, gate_mode=GATE_ADAPTIVE)
        assert report_by_prop(history)["participation-stability"].passed
        history.quarter_records()[-1]["A"] = 0b011
        verdict = report_by_prop(history)["participation-stability"]
        assert not verdict.passed
        assert verdict.witness == {"observed": [(0b111, 0b011), (0b111, 0b111)]}


class TestQuarterRecords:
    @pytest.mark.parametrize("budget", [1, 3, 401])
    @pytest.mark.parametrize("pattern", [{}, {1: 0}, {2: 1}, {1: 2, 3: 30}, {3: 50}, {1: 0, 2: 0, 3: 99}])
    def test_slice_equals_the_filter(self, budget, pattern):
        # at 401 rounds the cut is round 300, and simulator 3 takes its 50th
        # and 99th rounds at 149 and 296: halts before the cut
        history = run_bgg_selection(all_nonempty(3), budget=budget, pattern=pattern, gate_mode=GATE_ADAPTIVE)
        assert_round_order(history)
        quarter, want = history.quarter_records(), slow_quarter_records(history)
        assert quarter == want
        # the slice shares the record dicts: editing one edits the history
        assert all(a is b for a, b in zip(quarter, want))

    def test_a_run_without_simulators_has_an_empty_quarter(self):
        history = run_bgg_selection(Adversary(3, ()), budget=10, gate_mode=GATE_ADAPTIVE)
        assert history.quarter_records() == slow_quarter_records(history) == []


class TestReportHaltCounts:
    """A halt count at or past the rounds a run gives a simulator stops nothing.

    On {{1},{1,2,3},{2},{3}} at 1200 rounds simulator 2 takes the 600 odd
    rounds.  Under a count of 600 or more its records are those of the run
    without a halt, so the report checks it there too; 599 halts it before
    its last round, at 1199, and the report leaves it out.
    """

    ADV = Adversary.of(3, [[1], [1, 2, 3], [2], [3]])

    def run(self, pattern):
        return run_bgg_selection(self.ADV, pattern=pattern, budget=1200, gate_mode=GATE_ADAPTIVE)

    def window_stability_after_corruption(self, history):
        # corrupt the last gated window of simulator 2, inside the final quarter
        assert all(v.passed for v in selection_report(history))
        last = next(r for r in reversed(history.records) if r["gated"] and r["simulator"] == 2)
        assert last["round"] >= 900
        last["W"] ^= 0b1
        return report_by_prop(history)["window-stability"]

    @pytest.mark.parametrize("pattern", [None, {2: 600}, {2: 100000}])
    def test_a_count_past_the_last_round_is_checked(self, pattern):
        history = self.run(pattern)
        assert history.records == self.run(None).records
        verdict = self.window_stability_after_corruption(history)
        assert not verdict.passed
        assert verdict.witness["simulator"] == 2

    def test_a_count_before_the_last_round_halts(self):
        history = self.run({2: 599})
        assert max(r["round"] for r in history.records if r["simulator"] == 2) == 1197
        assert self.window_stability_after_corruption(history).passed


class TestHaltEdges:
    """Halt limits at their edges, and what `is_live` reads around a halt.

    The contention oracle only asks about higher-id simulators, never the
    one stepping, so these pin `is_live` through an oracle that asks about
    every simulator on every step.
    """

    BUDGET = warm_up_budget(3)

    def run(self, gate, pattern, oracle=contention_oracle):
        return run_bgg_selection(fair_example(), pattern=pattern, budget=self.BUDGET, gate_mode=gate, oracle=oracle)

    @pytest.mark.parametrize("gate", [GATE_ADAPTIVE, GATE_VERBATIM])
    @pytest.mark.parametrize("sid", [1, 2])
    def test_limits_zero_k_and_past_the_share(self, gate, sid):
        unhalted = self.run(gate, None).records
        share = self.BUDGET // 2  # rounds a simulator takes in a run without halts
        never = self.run(gate, {sid: 0}).records
        assert all(r["simulator"] != sid for r in never) and len(never) == share
        for limit in (share, self.BUDGET, self.BUDGET + 7):
            assert self.run(gate, {sid: limit}).records == unhalted, limit
        for k in (1, 37):
            records = self.run(gate, {sid: k}).records
            own = [r["round"] for r in records if r["simulator"] == sid]
            assert own == [r["round"] for r in unhalted if r["simulator"] == sid][:k]
            # a halted simulator's slots are skipped, not handed to another one
            assert sum(r["simulator"] != sid for r in records) == share

    @pytest.mark.parametrize("gate", [GATE_ADAPTIVE, GATE_VERBATIM])
    @pytest.mark.parametrize("pattern", [{1: 5}, {2: 5}, {1: 0}, {2: 37}, {1: 0, 2: 9}, {1: 40, 2: 41}])
    def test_is_live_until_after_the_last_round(self, gate, pattern):
        log = []  # (round, stepping simulator, {simulator: is_live})

        def logging_oracle(is_live, locals_):
            step = contention_oracle(is_live, locals_)

            def logged(sid, pid, round_no):
                assert locals_[sid].p_cur == pid  # an oracle sees the stepping simulator's target
                log.append((round_no, sid, {x: is_live(x) for x in locals_}))
                return step(sid, pid, round_no)

            return logged

        history = self.run(gate, pattern, logging_oracle)
        assert history.records == self.run(gate, pattern).records
        assert log, "the oracle was never asked"
        record_rounds = {}  # simulator -> the rounds of its records
        for r in history.records:
            record_rounds.setdefault(r["simulator"], []).append(r["round"])
        for round_no, stepping, live in log:
            assert live[stepping], (round_no, stepping)  # live while it steps, its last round included
            for x, got in live.items():
                taken = sum(1 for q in record_rounds.get(x, []) if q < round_no)
                limit = pattern.get(x)
                assert got == (limit is None or taken < limit), (round_no, x)
        for sid, limit in pattern.items():
            rounds = record_rounds.get(sid, [])
            assert len(rounds) == limit
            last = rounds[-1] if rounds else -1
            after = [live[sid] for round_no, _, live in log if round_no > last]
            assert not any(after), sid  # not live after its last round
            if len(pattern) == 1 and (gate == GATE_ADAPTIVE or sid == 1):
                assert after, "the other simulator steps after the halt"
            if gate == GATE_ADAPTIVE and rounds:
                # it stepped in its own last round and read itself live there
                assert [live[sid] for round_no, _, live in log if round_no == last] == [True]


class TestSelectionPropertySweep:
    def test_every_fair_family_every_halt_pattern(self):
        # compressed version of the acceptance sweep: shorter budget, n=3
        for masks in all_families(3):
            adv = Adversary(3, tuple(ProcessSet(3, m) for m in masks))
            if not is_fair(adv):
                continue
            fn = agreement_function(adv)
            sims = fn.table[7]
            if sims == 0:
                continue
            budget = 240
            for rsize in range(sims + 1):
                for halted in itertools.combinations(range(1, sims + 1), rsize):
                    pattern = {s: budget // 6 + 3 * s for s in halted}
                    history = run_bgg_selection(adv, pattern=pattern, budget=budget, gate_mode=GATE_ADAPTIVE)
                    report = report_by_prop(history)
                    for prop in ("window-stability", "selection-feasibility", "liveset-coverage"):
                        assert report[prop].passed, (adv, pattern, report[prop])


class TestVerbatimGateDeviation:
    """ROADMAP item 8: the verbatim gate polarity breaks live-set coverage.

    On {{1},{2},{3},{1,2,3}} with simulator 2 halted after 206 rounds, the
    gate threshold min(|A|, α(P)) is 2, so the verbatim gate (id at least the
    threshold) lets only simulator 2 through.  Once it halts, the one live
    simulator stays gated out and nothing is stepped in the final quarter.
    """

    ADV = Adversary.of(3, [[1], [2], [3], [1, 2, 3]])

    def run(self, gate_mode):
        return run_bgg_selection(self.ADV, pattern={2: 206}, budget=warm_up_budget(3), gate_mode=gate_mode)

    def test_verbatim_fails_liveset_coverage(self):
        history = self.run(GATE_VERBATIM)
        assert not any(r["gated"] for r in history.records if r["simulator"] == 1)
        verdicts = selection_report(history)
        assert [v.passed for v in verdicts] == [True, True, True, False]
        assert verdicts[3].prop == "liveset-coverage"
        assert verdicts[3].witness == {"stepped": 0, "top": 1, "top_steps": []}

    def test_adaptive_passes(self):
        verdicts = selection_report(self.run(GATE_ADAPTIVE))
        assert all(v.passed for v in verdicts), verdicts


GOLDEN_BUDGET = 240
GOLDEN_PMEMS = (None, [PM_ACTIVE, PM_DONE, None], [PM_DONE, PM_ACTIVE, PM_ACTIVE])
GOLDEN_DIGEST = "6f1c6ab189e30da4eabbaf277894192406f48cb8cb42ba4928a0a8b465e6e81b"
RECORD_KEYS = (
    "round", "simulator", "P", "A", "gated", "W", "trail",
    "s_cur", "p_cur", "reselected", "fallback", "stepped", "result",
)


def golden_line(history) -> str:
    """Canonical text of a history, its final status array and its report.

    Records are written as rows in RECORD_KEYS order (checked per record):
    the same content as `to_json_obj()`, at a fraction of the encoding cost.
    """
    obj = history.to_json_obj()
    records = obj.pop("records")
    assert all(tuple(r) == RECORD_KEYS for r in records)
    obj["rows"] = [list(r.values()) for r in records]
    obj["final_pmem"] = history.final_pmem
    obj["report"] = [[v.prop, v.passed, v.witness] for v in selection_report(history)]
    return canonical_json(obj)


def golden_runs():
    """One history per run, or the SelectionImpossible it raised: every
    3-process family, fair or not, under both gates, three initial status
    arrays and every halt pattern."""
    for masks in all_families(3):
        adv = Adversary(3, tuple(ProcessSet(3, m) for m in sorted(masks)))
        sims = setcon(adv)
        for gate in (GATE_ADAPTIVE, GATE_VERBATIM):
            for pmem in GOLDEN_PMEMS:
                for rsize in range(sims + 1):
                    for halted in itertools.combinations(range(1, sims + 1), rsize):
                        pattern = {s: GOLDEN_BUDGET // 6 + 3 * s for s in halted}
                        try:
                            yield run_bgg_selection(
                                adv, pattern=pattern, budget=GOLDEN_BUDGET, gate_mode=gate, initial_pmem=pmem
                            )
                        except SelectionImpossible as exc:
                            yield exc


def golden_lines():
    """One canonical line per golden run."""
    for run in golden_runs():
        if isinstance(run, SelectionImpossible):
            yield canonical_json({"impossible": str(run)})
        else:
            yield golden_line(run)


class TestGolden:
    """Pins every history, final status array and report byte for byte."""

    def test_history_and_report_digest(self):
        lines = list(golden_lines())
        assert len(lines) == 2322
        assert sum(line.startswith('{"impossible"') for line in lines) == 30
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_DIGEST

    def test_memoised_window_matches_compute_window_on_every_gated_round(self, monkeypatch):
        # compute_window from scratch, on the state the round starts from, is
        # the oracle for the window and trail the round records
        original = bgg.simulator_round
        gated = 0

        def checked_round(local, shared, view, step, adversary, gate_mode, round_no):
            nonlocal gated
            # the view read once per run is still the view of the status array
            assert view == status_view(adversary, shared.pmem)
            expected = compute_window(local.sid, shared, view[0], view[3])
            record = original(local, shared, view, step, adversary, gate_mode, round_no)
            if record["gated"]:
                gated += 1
                assert (record["W"], record["trail"]) == expected, record
            return record

        monkeypatch.setattr(bgg, "simulator_round", checked_round)
        runs = sum(1 for _ in golden_runs())
        assert runs == 2322 and gated > 100_000


LARGER_DIGEST = "69f1ef65324c835061f4f3a690df41f0de64e8741428f40f1baebd37aa01203d"


def larger_families():
    """The bgg benchmark's family shapes at n = 4 and 5: the 2-resilient
    family, two symmetric families of two sizes and two upward closures."""
    for n in (4, 5):
        yield t_resilient_adversary(n, 2)
        yield sizes_adversary(n, (1, n))
        yield sizes_adversary(n, (2, n - 1))
        for generators in ((0b0011, 0b1100), (0b0011, 0b0110, 0b1100)):
            masks = [m for m in range(1, 1 << n) if any(m & g == g for g in generators)]
            yield Adversary(n, tuple(ProcessSet(n, m) for m in masks))


class TestGoldenLarger:
    """Pins 4- and 5-process histories and reports byte for byte, every
    halt pattern of the criterion-09 rule under both gates."""

    def test_history_and_report_digest(self):
        lines = []
        for adv in larger_families():
            sims, budget = setcon(adv), warm_up_budget(adv.n)
            for gate in (GATE_ADAPTIVE, GATE_VERBATIM):
                for rsize in range(sims + 1):
                    for halted in itertools.combinations(range(1, sims + 1), rsize):
                        pattern = {s: budget // 6 + 3 * s for s in halted}
                        history = run_bgg_selection(adv, pattern=pattern, budget=budget, gate_mode=gate)
                        assert_round_order(history)
                        assert history.quarter_records() == slow_quarter_records(history)
                        lines.append(golden_line(history))
        assert len(lines) == 96
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LARGER_DIGEST


def same_selection(adversary, active, window, part, sid):
    """`select_live_set`'s result, checked against `slow_select_live_set`:
    the same live set and branch, or the same SelectionImpossible."""
    args = (adversary, active, window, part, sid)
    try:
        want = slow_select_live_set(*args)
    except SelectionImpossible as exc:
        with pytest.raises(SelectionImpossible, match=f"^{re.escape(str(exc))}$"):
            select_live_set(*args)
        raise
    got = select_live_set(*args)
    assert got == want, args
    return got


def check_selections_against_the_scan(monkeypatch) -> list:
    """Route every `select_live_set` call of a round through `same_selection`;
    returns the list the checked results go to."""
    checked = []

    def compared(*args):
        checked.append(same_selection(*args))
        return checked[-1]

    monkeypatch.setattr(bgg, "select_live_set", compared)
    return checked


class TestSelectionByPlanes:
    """The level-plane selection equals the scan over every live set it replaced."""

    def test_every_argument_on_every_3_process_family(self):
        # every active set, participating region, window inside it and id up
        # to one past the largest plane count: powered picks, fallbacks and
        # SelectionImpossible alike
        outcomes = set()
        for masks in all_families(3):
            adv = Adversary(3, tuple(ProcessSet(3, m) for m in masks))
            for active, part, sid in itertools.product(range(8), range(8), range(1, 5)):
                window = part
                while True:
                    try:
                        outcomes.add(same_selection(adv, active, window, part, sid)[1])
                    except SelectionImpossible:
                        outcomes.add("impossible")
                    if not window:
                        break
                    window = (window - 1) & part
        assert outcomes == {False, True, "impossible"}

    @pytest.mark.parametrize("gate, selections", [(GATE_ADAPTIVE, 304), (GATE_VERBATIM, 128)])
    def test_criterion_09_sweep(self, monkeypatch, gate, selections):
        checked = check_selections_against_the_scan(monkeypatch)
        budget = 400 * 3
        for masks in all_families(3):
            adv = Adversary(3, tuple(ProcessSet(3, m) for m in masks))
            if not is_fair(adv):
                continue
            sims = setcon(adv)
            for rsize in range(sims + 1):
                for halted in itertools.combinations(range(1, sims + 1), rsize):
                    pattern = {s: budget // 6 + 3 * s for s in halted}
                    run_bgg_selection(adv, pattern=pattern, budget=budget, gate_mode=gate)
        assert len(checked) == selections

    @pytest.mark.parametrize("gate, selections", [(GATE_ADAPTIVE, 192), (GATE_VERBATIM, 48)])
    def test_golden_larger_families(self, monkeypatch, gate, selections):
        checked = check_selections_against_the_scan(monkeypatch)
        for adv in larger_families():
            sims, budget = setcon(adv), warm_up_budget(adv.n)
            for rsize in range(sims + 1):
                for halted in itertools.combinations(range(1, sims + 1), rsize):
                    pattern = {s: budget // 6 + 3 * s for s in halted}
                    run_bgg_selection(adv, pattern=pattern, budget=budget, gate_mode=gate)
        assert len(checked) == selections

    def test_structured_families_at_n16(self, monkeypatch):
        checked = check_selections_against_the_scan(monkeypatch)
        for adv in (all_nonempty(16), t_resilient_adversary(16, 8), cyclic_edge_closure(16)):
            for pattern in ({}, {2: 40}):
                history = run_bgg_selection(adv, pattern=pattern, budget=1200, gate_mode=GATE_ADAPTIVE)
                assert history.sim_count == setcon(adv)
        assert len(checked) == 434
