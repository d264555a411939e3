"""Live-set selection: windows, validity, selection, rounds, bounded properties."""

import itertools
import random

import pytest

from advlab import Adversary, ProcessSet, agreement_function, all_nonempty, is_fair, setcon
from advlab.bgg import (
    BGShared,
    BLOCKED,
    GATE_ADAPTIVE,
    GATE_VERBATIM,
    PM_ACTIVE,
    PM_DONE,
    ScriptedOracle,
    SelectionImpossible,
    SUCCESS,
    check_liveset_coverage,
    check_selection_feasibility,
    check_window_stability,
    compute_window,
    selection_report,
    power_within,
    read_participation,
    run_bgg_selection,
    select_live_set,
    selection_valid,
)

from oracles import all_families, brute_restrict_touching, brute_setcon


def fair_example():
    return Adversary.of(3, [[1], [2], [3], [1, 3], [2, 3], [1, 2, 3]])


class TestReadParticipation:
    def test_all_unset(self):
        shared = BGShared.fresh(3, 2, pmem=[None, None, None])
        part, active = read_participation(shared)
        assert part.bits == 0 and active.bits == 0

    def test_mixed(self):
        shared = BGShared.fresh(3, 2, pmem=[PM_ACTIVE, PM_DONE, None])
        part, active = read_participation(shared)
        assert part.members() == (1, 2)
        assert active.members() == (1,)

    def test_all_done(self):
        shared = BGShared.fresh(3, 2, pmem=[PM_DONE] * 3)
        part, active = read_participation(shared)
        assert part.members() == (1, 2, 3)
        assert active.bits == 0


class TestComputeWindow:
    def test_empty_registers_leave_full_window(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        part, active = read_participation(shared)
        assert compute_window(1, shared, part, active, adv, 2) == part

    def test_hand_traced_narrowing(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        full = ProcessSet.full(3)
        shared.selections[2] = (1, full)
        window = compute_window(1, shared, full, full, adv, 2)
        assert window.members() == (2, 3)

    def test_hand_traced_narrowing_partial_set(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        full = ProcessSet.full(3)
        shared.selections[2] = (1, ProcessSet.of(3, [1, 3]))
        assert power_within(adv, ProcessSet.of(3, [1, 3]), full) == 2
        window = compute_window(1, shared, full, full, adv, 2)
        assert window.members() == (3,)

    def test_window_only_shrinks_along_the_trail(self):
        adv = all_nonempty(3)
        sim_count = agreement_function(adv).of_bits(7)
        shared = BGShared.fresh(3, sim_count)
        full = ProcessSet.full(3)
        shared.selections[3] = (2, full)
        shared.selections[2] = (3, ProcessSet.of(3, [1, 3]))
        trail = []
        window = compute_window(1, shared, full, full, adv, sim_count, trail)
        bits = [full.bits] + [b for _, b in trail]
        for before, after in zip(bits, bits[1:]):
            assert after & ~before == 0
        assert window.bits == bits[-1]


class TestSelection:
    def test_empty_selection_is_invalid(self):
        adv = fair_example()
        full = ProcessSet.full(3)
        assert not selection_valid(ProcessSet(3, 0), full, full, 1, adv)

    def test_valid_pair(self):
        adv = fair_example()
        w = ProcessSet.of(3, [2, 3])
        assert selection_valid(w, w, ProcessSet.full(3), 1, adv)

    def test_outside_window_is_invalid(self):
        adv = fair_example()
        assert not selection_valid(ProcessSet.full(3), ProcessSet.of(3, [2, 3]), ProcessSet.full(3), 1, adv)

    def test_smallest_encoding_wins(self):
        adv = fair_example()
        full = ProcessSet.full(3)
        assert select_live_set(full, full, 1, full, adv).members() == (1,)

    def test_fallback_branch(self):
        adv = Adversary.of(3, [[1], [2]])
        full = ProcessSet.full(3)
        assert setcon(adv) == 1
        # no live set reaches power 2, so any region member is returned
        assert select_live_set(full, full, 2, full, adv).members() == (1,)

    def test_selection_impossible_surfaces(self):
        adv = fair_example()
        empty = ProcessSet(3, 0)
        with pytest.raises(SelectionImpossible):
            select_live_set(empty, empty, 1, empty, adv)


class TestSimulatorRound:
    def test_round_robin_cycling(self):
        adv = Adversary.of(3, [[1, 2, 3]])
        fn = agreement_function(adv)
        history = run_bgg_selection(adv, fn, budget=7, gate_mode=GATE_ADAPTIVE)
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

            return ScriptedOracle(step)

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

    def test_empty_adversary_trivial_history(self):
        history = run_bgg_selection(Adversary(3, ()), budget=100)
        assert history.records == []
        assert history.sim_count == 0

    def test_power_drop_bound_exhaustive_n3(self):
        # removing one process from a live set costs at most one power level,
        # for every family and every active-set restriction
        for masks in all_families(3):
            adv = Adversary(3, tuple(ProcessSet(3, m) for m in masks))
            for active_bits in range(8):
                active = ProcessSet(3, active_bits)
                for s in adv.live_sets:
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
        assert not check_window_stability(history).passed


class TestSelectionPropertySweep:
    def test_every_fair_family_every_halt_pattern(self):
        # compressed version of the acceptance sweep: shorter budget, n=3
        for masks in all_families(3):
            adv = Adversary(3, tuple(ProcessSet(3, m) for m in masks))
            if not is_fair(adv):
                continue
            fn = agreement_function(adv)
            sims = fn.of_bits(7)
            if sims == 0:
                continue
            budget = 240
            for rsize in range(sims + 1):
                for halted in itertools.combinations(range(1, sims + 1), rsize):
                    pattern = {s: budget // 6 + 3 * s for s in halted}
                    history = run_bgg_selection(
                        adv, fn, pattern=pattern, budget=budget, gate_mode=GATE_ADAPTIVE
                    )
                    for verdict in (
                        check_window_stability(history),
                        check_selection_feasibility(history),
                        check_liveset_coverage(history),
                    ):
                        assert verdict.passed, (adv, pattern, verdict)
