"""Live-set selection: windows, validity, selection, rounds, bounded properties."""

import hashlib
import itertools
import random

import pytest

from advlab import Adversary, ProcessSet, agreement_function, all_nonempty, bgg, is_fair, setcon
from advlab.bgg import (
    BGShared,
    BLOCKED,
    GATE_ADAPTIVE,
    GATE_VERBATIM,
    PM_ACTIVE,
    PM_DONE,
    ScriptedOracle,
    SelectionImpossible,
    SimulatorLocal,
    SUCCESS,
    compute_window,
    gate_threshold,
    participation,
    power_within,
    powered,
    run_bgg_selection,
    select_live_set,
    selection_report,
    simulator_round,
    warm_up_budget,
)
from advlab.sim import canonical_json

from oracles import all_families, brute_restrict_touching, brute_setcon


def fair_example():
    return Adversary.of(3, [[1], [2], [3], [1, 3], [2, 3], [1, 2, 3]])


def report_by_prop(history):
    """The verdicts of `selection_report`, keyed by property name."""
    return {v.prop: v for v in selection_report(history)}


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
    def expected(self, adv, pmem):
        part, active = participation(pmem)
        return part, active, gate_threshold(adv, part, active), adv.region_table(active)

    def test_view_follows_writes_to_the_status_array(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        assert shared.view(adv) == self.expected(adv, [PM_ACTIVE] * 3)
        for pid, status in ((0, PM_DONE), (2, None), (0, PM_ACTIVE)):
            shared.pmem[pid] = status
            assert shared.view(adv) == self.expected(adv, shared.pmem)
        other = Adversary.of(3, [[1, 2, 3]])
        assert shared.view(other) == self.expected(other, shared.pmem)

    def test_rounds_read_the_status_array_as_it_is_now(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        local = SimulatorLocal(1)
        oracle = ScriptedOracle(lambda sid, pid, round_no: SUCCESS)
        first = simulator_round(local, shared, oracle, adv, GATE_ADAPTIVE, 0)
        shared.pmem[:] = [PM_DONE, PM_ACTIVE, None]
        second = simulator_round(local, shared, oracle, adv, GATE_ADAPTIVE, 1)
        assert (first["P"], first["A"]) == (0b111, 0b111)
        assert (second["P"], second["A"]) == (0b011, 0b010)
        assert second["W"] == 0b011 and second["s_cur"] & ~0b011 == 0


class TestComputeWindow:
    def test_empty_registers_leave_full_window(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        part, active = participation(shared.pmem)
        assert compute_window(1, shared, part, adv.region_table(active)) == part

    def test_hand_traced_narrowing(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        shared.selections[2] = (1, 0b111)
        window = compute_window(1, shared, 0b111, adv.region_table(0b111))
        assert window == 0b110

    def test_hand_traced_narrowing_partial_set(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        full = ProcessSet.full(3)
        shared.selections[2] = (1, 0b101)
        assert power_within(adv, ProcessSet.of(3, [1, 3]), full) == 2
        window = compute_window(1, shared, 0b111, adv.region_table(0b111))
        assert window == 0b100

    def test_window_only_shrinks_along_the_trail(self):
        adv = all_nonempty(3)
        sim_count = agreement_function(adv).of_bits(7)
        shared = BGShared.fresh(3, sim_count)
        shared.selections[3] = (2, 0b111)
        shared.selections[2] = (3, 0b101)
        trail = []
        window = compute_window(1, shared, 0b111, adv.region_table(0b111), trail)
        bits = [0b111] + [b for _, b in trail]
        for before, after in zip(bits, bits[1:]):
            assert after & ~before == 0
        assert window == bits[-1]


class TestWindowMemo:
    def test_higher_reselection_narrows_the_lower_window_next_round(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        low, high = SimulatorLocal(1), SimulatorLocal(2)
        oracle = ScriptedOracle(lambda sid, pid, round_no: SUCCESS)
        first = simulator_round(low, shared, oracle, adv, GATE_ADAPTIVE, 0)
        assert first["W"] == 0b111 and first["trail"] == ((2, 0b111),)
        # simulator 2 selects {1, 3} and registers process 1 in it
        top = simulator_round(high, shared, oracle, adv, GATE_ADAPTIVE, 1)
        assert top["reselected"] and shared.selections[2] == (1, 0b101)
        second = simulator_round(low, shared, oracle, adv, GATE_ADAPTIVE, 2)
        assert second["W"] == 0b100 and second["trail"] == ((2, 0b100),)
        assert second["reselected"] and second["s_cur"] == 0b100

    def test_window_is_kept_while_no_registration_changes(self):
        adv = fair_example()
        shared = BGShared.fresh(3, 2)
        shared.register(2, 1, 0b101)
        local = SimulatorLocal(1)
        oracle = ScriptedOracle(lambda sid, pid, round_no: SUCCESS)
        rounds = [simulator_round(local, shared, oracle, adv, GATE_ADAPTIVE, r) for r in range(4)]
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
        assert select_live_set(adv, adv.region_table(0b111), 0b111, 0b111, 1) == (0b001, False)

    def test_fallback_branch(self):
        adv = Adversary.of(3, [[1], [2]])
        assert setcon(adv) == 1
        # no live set reaches power 2, so any region member is returned
        assert select_live_set(adv, adv.region_table(0b111), 0b111, 0b111, 2) == (0b001, True)

    def test_selection_impossible_surfaces(self):
        adv = fair_example()
        with pytest.raises(SelectionImpossible):
            select_live_set(adv, adv.region_table(0), 0, 0, 1)


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

    @pytest.mark.parametrize("budget", [0, -7])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="at least 1 round"):
            run_bgg_selection(fair_example(), budget=budget)

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
                    history = run_bgg_selection(adv, pattern=pattern, budget=budget, gate_mode=GATE_ADAPTIVE)
                    report = report_by_prop(history)
                    for prop in ("window-stability", "selection-feasibility", "liveset-coverage"):
                        assert report[prop].passed, (adv, pattern, report[prop])


class TestVerbatimGateDeviation:
    """ROADMAP item 5: the verbatim gate polarity breaks live-set coverage.

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
GOLDEN_DIGEST = "cc2c87149f34a94fbd9a409a07228088ed40834468755378dff9f874d9651004"
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

        def checked_round(local, shared, oracle, adversary, gate_mode, round_no):
            nonlocal gated
            part, _, _, table = shared.view(adversary)
            trail = []
            window = compute_window(local.sid, shared, part, table, trail)
            record = original(local, shared, oracle, adversary, gate_mode, round_no)
            if record["gated"]:
                gated += 1
                assert (record["W"], record["trail"]) == (window, tuple(trail)), record
            return record

        monkeypatch.setattr(bgg, "simulator_round", checked_round)
        runs = sum(1 for _ in golden_runs())
        assert runs == 2322 and gated > 100_000
