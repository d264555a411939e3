"""Trace checkers: validity, adaptive agreement, termination, k-agreement."""

import pytest

from advlab import AgreementFunction, ProcessSet, agreement_function
from advlab.checkers import (
    check_alpha_agreement,
    check_k_agreement,
    check_termination,
    check_validity,
)
from advlab.protocols import EchoProtocol, SafeAgreement, default_inputs
from advlab.sim import Decision, Event, RunTrace, Schedule, run_to_quiescence, truncate_trace


def hand_trace(n, steps, decisions, inputs, halted=None):
    halted = halted or {}
    last = {}
    for i, p in enumerate(steps):
        last[p] = i
    schedule = Schedule(n, tuple(steps), {p: last.get(p, -1) for p in halted})
    events = [Event(i, p, "update" if i % 2 == 0 else "snapshot", None) for i, p in enumerate(steps)]
    participating = ProcessSet.of(n, set(steps))
    statuses = {p: "running" for p in participating}
    for _, p, _v in decisions:
        statuses[p] = "decided"
    return RunTrace(
        schedule,
        inputs,
        events,
        [Decision(*d) for d in decisions],
        participating,
        statuses,
    )


class TestValidity:
    def test_own_inputs_pass(self):
        trace = run_to_quiescence(EchoProtocol(2, {1: 5, 2: 7}), Schedule(2, (1, 2, 1, 2)), max_tail=0)
        assert check_validity(trace).passed

    def test_foreign_value_fails_with_witness(self):
        trace = hand_trace(2, [1, 2], [(1, 1, 999)], {1: 5, 2: 7})
        verdict = check_validity(trace)
        assert not verdict.passed
        assert verdict.witness == {"step": 1, "process": 1, "value": 999}

    def test_nonparticipant_input_does_not_count(self):
        trace = hand_trace(2, [1, 1], [(1, 1, 7)], {1: 5, 2: 7})
        assert not check_validity(trace).passed


class TestAlphaAgreement:
    def test_single_decision_needs_level_one(self, unfair_triple):
        fn = agreement_function(unfair_triple)
        good = hand_trace(3, [1, 1], [(1, 1, 5)], {1: 5})
        assert check_alpha_agreement(good, fn).passed
        bad = hand_trace(3, [2, 2], [(1, 2, 5)], {2: 5})
        assert not check_alpha_agreement(bad, fn).passed

    def test_wait_free_always_passes(self):
        fn = AgreementFunction.wait_free(3)
        trace = hand_trace(3, [1, 2, 3], [(2, 1, 5), (2, 2, 7), (2, 3, 9)], {1: 5, 2: 7, 3: 9})
        assert check_alpha_agreement(trace, fn).passed

    @pytest.mark.parametrize("n", [2, 4])
    def test_universe_mismatch_raises(self, n):
        # the participants {1} fit inside either table, so only the size check can catch it
        trace = hand_trace(3, [1, 1], [(1, 1, 5)], {1: 5})
        with pytest.raises(ValueError, match=f"universe mismatch: trace n=3, alpha n={n}"):
            check_alpha_agreement(trace, AgreementFunction.wait_free(n))

    def test_crafted_violation_at_partial_participation(self, unfair_triple):
        # two distinct values decided while only {1,2} participate: level 1
        fn = agreement_function(unfair_triple)
        trace = hand_trace(3, [1, 2, 1, 2], [(2, 1, 5), (3, 2, 7)], {1: 5, 2: 7})
        verdict = check_alpha_agreement(trace, fn)
        assert not verdict.passed
        assert verdict.witness["distinct"] == 2
        assert verdict.witness["level"] == 1
        assert verdict.witness["participating"] == [1, 2]

    def test_witness_survives_truncation(self, unfair_triple):
        fn = agreement_function(unfair_triple)
        trace = hand_trace(3, [1, 2, 1, 2], [(2, 1, 5), (3, 2, 7)], {1: 5, 2: 7})
        verdict = check_alpha_agreement(trace, fn)
        cut = truncate_trace(trace, verdict.witness["step"])
        assert not check_alpha_agreement(cut, fn).passed


class TestTermination:
    def test_completed_solo_run(self):
        trace = run_to_quiescence(EchoProtocol(1, {1: 3}), Schedule(1, (1, 1)), max_tail=0)
        assert check_termination(trace).passed

    def test_undecided_correct_process_fails(self):
        trace = hand_trace(2, [1, 2], [(1, 2, 7)], {1: 5, 2: 7})
        verdict = check_termination(trace)
        assert not verdict.passed
        assert verdict.witness["process"] == 1

    def test_halted_processes_are_not_required(self):
        trace = hand_trace(2, [1, 2], [(1, 1, 5)], {1: 5, 2: 7}, halted={2: 1})
        assert check_termination(trace).passed

    def test_among_filter(self):
        trace = hand_trace(3, [1, 2, 3], [(2, 2, 7), (2, 3, 7)], {2: 7, 3: 9})
        assert not check_termination(trace).passed  # process 1 undecided
        assert check_termination(trace, among=(2, 3)).passed


class TestKAgreement:
    def test_consensus_trace(self):
        sched = Schedule(2, (1, 2, 1, 2, 1, 2))
        trace = run_to_quiescence(SafeAgreement(2, default_inputs(2)), sched)
        assert check_k_agreement(trace, 1).passed

    def test_two_values_fail_k1_pass_k2(self):
        trace = hand_trace(2, [1, 2], [(0, 1, 5), (1, 2, 7)], {1: 5, 2: 7})
        assert not check_k_agreement(trace, 1).passed
        assert check_k_agreement(trace, 2).passed

    def test_invalid_value_fails_regardless(self):
        trace = hand_trace(2, [1, 2], [(1, 1, 999)], {1: 5, 2: 7})
        assert not check_k_agreement(trace, 5).passed

    def test_wait_free_alpha_agreement_is_implied_by_validity(self):
        # sanity cross-check: with level == |P| everywhere, any trace passing
        # validity with one decision per process passes adaptive agreement
        fn = AgreementFunction.wait_free(2)
        sched = Schedule(2, (1, 2, 1, 2, 1, 2))
        trace = run_to_quiescence(SafeAgreement(2, default_inputs(2)), sched)
        assert check_validity(trace).passed
        assert check_alpha_agreement(trace, fn).passed
