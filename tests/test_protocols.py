"""Protocol state machines: safe agreement, instance cycling, adaptive, pairwise."""

from collections import defaultdict

import pytest

from advlab import AgreementFunction, agreement_function
from advlab.checkers import check_validity
from advlab.cli import run_campaign
from advlab.protocols import (
    AdaptiveSetConsensus,
    Cons23,
    EmbeddedAgreement,
    IdealSetConsensus,
    OracleAgreement,
    RoundRobinSetConsensus,
    SafeAgreement,
    default_inputs,
    safe_agreement_unsafe_halt,
)
from advlab.sim import (
    RunTrace,
    Schedule,
    enumerate_schedules,
    generate_admissible_schedule,
    generate_schedule,
    run_to_quiescence,
)


def adaptive_lock_analysis(trace: RunTrace) -> tuple[int, set, set]:
    """Pull the lock-level flow out of an adaptive-set-consensus trace.

    Returns (smallest deciding lock level, values ever locked at that level,
    decided values).  Every decided value must appear in the middle set: the
    level at which the first process settles pins what later processes can
    adopt.
    """
    last_lock: dict[int, int] = {}
    locked: dict[int, set] = defaultdict(set)
    for ev in trace.events:
        if ev.kind == "update":
            reg = ev.payload.get("reg") if isinstance(ev.payload, dict) else None
            if reg is not None:
                last_lock[ev.pid] = reg[1]
                locked[reg[1]].add(reg[0])
    if not trace.decisions:
        raise ValueError("trace has no decisions to analyze")
    floor = min(last_lock[d.pid] for d in trace.decisions)
    return floor, locked[floor], {d.value for d in trace.decisions}


def exhaustive_failures(make_protocol, fn, n, steps_per_process, halts, max_tail):
    """Engine failures over every small schedule at each per-process step count."""
    failures = []
    for sp in steps_per_process:
        schedules = enumerate(enumerate_schedules(n, sp, halts))
        failures += run_campaign(make_protocol, schedules, fn, max_tail).failures
    return failures


def admissible_failures(make_protocol, fn, seeds, budget, max_tail):
    """Engine failures over seeded schedules admitted by the agreement function."""
    schedules = ((seed, generate_admissible_schedule(fn, seed, budget)) for seed in seeds)
    return run_campaign(make_protocol, schedules, fn, max_tail).failures


def safe_agreement():
    return SafeAgreement(2, default_inputs(2))


def round_robin(fn):
    return lambda: RoundRobinSetConsensus(fn.n, default_inputs(fn.n), fn)


def adaptive(fn, subroutine=EmbeddedAgreement):
    return lambda: AdaptiveSetConsensus(fn.n, default_inputs(fn.n), subroutine(fn))


class TestSafeAgreement:
    def test_solo_decides_own_input(self):
        trace = run_to_quiescence(SafeAgreement(2, {1: 5}), Schedule(2, (1, 1, 1, 1)), max_tail=0)
        assert trace.decided_value(1) == 5

    def test_equal_inputs_force_that_value(self):
        sched = Schedule(2, (1, 2, 2, 1, 1, 2, 2, 1, 1, 2))
        trace = run_to_quiescence(SafeAgreement(2, {1: 9, 2: 9}), sched)
        assert {d.value for d in trace.decisions} == {9}

    def test_blocked_participant_reports_blocked(self):
        # process 2 halts right after entering: inside the unsafe window
        sched = Schedule(2, (1, 2, 1, 1, 1, 1), {2: 1})
        assert safe_agreement_unsafe_halt(sched)
        trace = run_to_quiescence(SafeAgreement(2, {1: 5, 2: 7}), sched, max_tail=20)
        assert not trace.has_decided(1)
        assert trace.statuses[1] == "blocked"

    def test_unsafe_window_classifier(self):
        assert not safe_agreement_unsafe_halt(Schedule(2, (1, 1), {2: -1}))
        assert safe_agreement_unsafe_halt(Schedule(2, (1, 2, 2), {2: 2}))
        assert not safe_agreement_unsafe_halt(Schedule(2, (1, 2, 2, 2), {2: 3}))

    def test_exhaustive_small_schedules(self):
        assert exhaustive_failures(safe_agreement, None, 2, (1, 2, 3, 4), 1, max_tail=40) == []

    def test_enumeration_reaches_blocked_runs(self):
        # the exhaustive sweep must include genuinely blocking halts, or the
        # conditional-termination clause would be vacuous
        blocked = 0
        for sched in enumerate_schedules(2, 3, 1):
            if not safe_agreement_unsafe_halt(sched):
                continue
            trace = run_to_quiescence(SafeAgreement(2, default_inputs(2)), sched, max_tail=30)
            correct = next(iter(sched.correct))
            if not trace.has_decided(correct):
                assert trace.statuses[correct] == "blocked"
                blocked += 1
        assert blocked > 0


class TestRoundRobinSetConsensus:
    def test_rejects_level_zero_designation(self):
        fn = AgreementFunction.t_resilient(3, 1)
        with pytest.raises(ValueError):
            RoundRobinSetConsensus(3, {1: 5}, fn)  # singleton designated set has level 0

    def test_consensus_when_level_is_one(self):
        fn = AgreementFunction.k_concurrent(2, 1)
        assert exhaustive_failures(round_robin(fn), fn, 2, (2, 3, 4), 0, max_tail=80) == []

    def test_two_instances_bound_two_values(self):
        fn = AgreementFunction.k_concurrent(3, 2)
        assert exhaustive_failures(round_robin(fn), fn, 3, (2, 3), 1, max_tail=80) == []

    def test_bound_under_derived_function(self, unfair_triple):
        # full designated set has level 2 under the derived function
        fn = agreement_function(unfair_triple)
        assert admissible_failures(round_robin(fn), fn, range(400), 60, max_tail=120) == []
        assert exhaustive_failures(round_robin(fn), fn, 3, (2, 3), 1, max_tail=80) == []

    def test_wait_free_everyone_decides(self):
        fn = AgreementFunction.wait_free(2)
        for sp in (3, 4):
            sched = Schedule(2, tuple([1, 2] * sp))
            proto = RoundRobinSetConsensus(2, {1: 4, 2: 6}, fn)
            trace = run_to_quiescence(proto, sched)
            assert trace.has_decided(1) and trace.has_decided(2)
            assert len({d.value for d in trace.decisions}) <= 2


class TestIdealObjects:
    def test_pool_semantics(self):
        obj = IdealSetConsensus(2)
        assert obj.propose("a") == "a"
        assert obj.propose("b") == "b"
        assert obj.propose("c") == "a"
        assert obj.propose("d") == "a"

    def test_oracle_subroutine_bounds_decisions(self):
        fn = AgreementFunction.wait_free(3)
        sched = Schedule(3, (1, 2, 3) * 8)
        proto = AdaptiveSetConsensus(3, default_inputs(3), OracleAgreement(fn))
        trace = run_to_quiescence(proto, sched)
        assert check_validity(trace).passed
        assert all(trace.has_decided(p) for p in (1, 2, 3))


class TestAdaptiveSetConsensus:
    def test_solo_decides_own_input(self):
        fn = AgreementFunction.wait_free(3)
        proto = AdaptiveSetConsensus(3, {1: 7}, EmbeddedAgreement(fn))
        trace = run_to_quiescence(proto, Schedule(3, (1,) * 8), max_tail=0)
        assert trace.decided_value(1) == 7

    def test_equal_inputs(self):
        fn = AgreementFunction.wait_free(2)
        proto = AdaptiveSetConsensus(2, {1: 3, 2: 3}, EmbeddedAgreement(fn))
        trace = run_to_quiescence(proto, Schedule(2, (1, 2) * 6))
        assert {d.value for d in trace.decisions} == {3}

    @pytest.mark.parametrize("subroutine", ["embedded", "oracle"])
    def test_exhaustive_two_process(self, subroutine):
        make = {"embedded": EmbeddedAgreement, "oracle": OracleAgreement}[subroutine]
        for fn in (AgreementFunction.wait_free(2), AgreementFunction.t_resilient(2, 0)):
            assert exhaustive_failures(adaptive(fn, make), fn, 2, (4,), 1, max_tail=120) == []

    def test_seeded_under_derived_function(self, unfair_triple):
        fn = agreement_function(unfair_triple)
        assert admissible_failures(adaptive(fn), fn, range(300), 72, max_tail=400) == []

    def test_zero_level_start_escapes_on_growth(self, unfair_triple):
        # process 2 alone sits at a level-0 estimate until process 3 shows up
        fn = agreement_function(unfair_triple)
        proto = AdaptiveSetConsensus(3, {2: 5, 3: 8}, EmbeddedAgreement(fn))
        sched = Schedule(3, (2, 2, 2, 2, 3, 2, 3, 2), {1: -1})
        trace = run_to_quiescence(proto, sched, max_tail=200)
        assert trace.has_decided(2) and trace.has_decided(3)
        assert {d.value for d in trace.decisions} <= {5, 8}
        assert len({d.value for d in trace.decisions}) == 1  # level is 1 at {2,3}

    def test_lock_level_flow(self):
        fn = AgreementFunction.wait_free(3)
        for seed in range(100):
            sched = generate_admissible_schedule(fn, seed, 60)
            proto = AdaptiveSetConsensus(3, default_inputs(3), EmbeddedAgreement(fn))
            trace = run_to_quiescence(proto, sched, max_tail=300)
            if not trace.decisions:
                continue
            _, locked_at_floor, decided = adaptive_lock_analysis(trace)
            assert decided <= locked_at_floor


class TestCons23:
    def test_both_decide_p2_value(self):
        proto = Cons23(3, {2: 11, 3: 12})
        sched = Schedule(3, (2, 3, 2, 3, 3, 2))
        trace = run_to_quiescence(proto, sched, max_tail=0)
        assert trace.decided_value(2) == 11
        assert trace.decided_value(3) == 11

    def test_requires_three_processes_and_inputs(self):
        with pytest.raises(ValueError):
            Cons23(2, {2: 1})
        with pytest.raises(ValueError):
            Cons23(3, {2: 1})

    def test_process_one_never_decides(self):
        proto = Cons23(3, {2: 11, 3: 12})
        trace = run_to_quiescence(proto, Schedule(3, (1,) * 6), max_tail=0)
        assert not trace.decisions

    def test_seeded_adversary_campaign(self, unfair_triple):
        schedules = ((seed, generate_schedule(unfair_triple, seed, 48)) for seed in range(300))
        assert run_campaign(lambda: Cons23(3, default_inputs(3)), schedules, None, max_tail=60).failures == []

    def test_waiting_p3_blocks_until_p2_writes(self):
        proto = Cons23(3, {2: 11, 3: 12})
        sched = Schedule(3, (3, 3, 3, 3, 2, 3, 3))
        trace = run_to_quiescence(proto, sched, max_tail=0)
        assert trace.decided_value(3) == 11
