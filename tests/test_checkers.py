"""Trace checkers: validity, adaptive agreement, termination, k-agreement."""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import Adversary, AgreementFunction, ProcessSet, admits_trace, agreement_function
from advlab.checkers import (
    check_alpha_agreement,
    check_k_agreement,
    check_termination,
    check_validity,
    value_key,
)
from advlab.cli import POLICIES, run_campaign
from advlab.protocols import SafeAgreement, default_inputs
from advlab.sim import (
    Decision,
    Event,
    RunTrace,
    Schedule,
    canonical_json,
    enumerate_schedules,
    run_to_quiescence,
    trace_from_json_obj,
)
from oracles import (
    EchoProtocol,
    slow_admits_trace,
    slow_check_alpha_agreement,
    slow_check_k_agreement,
    slow_check_termination,
    slow_check_validity,
    truncate_trace,
)


def hand_trace(n, steps, decisions, inputs, halted=None):
    halted = halted or {}
    last = {}
    for i, p in enumerate(steps):
        last[p] = i
    schedule = Schedule(n, tuple(steps), {p: last.get(p, -1) for p in halted})
    events = [Event(i, p, "update" if i % 2 == 0 else "snapshot", None) for i, p in enumerate(steps)]
    participating = ProcessSet.of(n, set(steps))
    statuses = {p: "running" for p in participating.members()}
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

    def test_witness_is_the_first_invalid_decision_in_time(self):
        # (step 5, process 2, 999) is listed before (step 1, process 1, 998); both are invalid
        trace = hand_trace(2, [1, 1, 2, 2, 1, 2], [(5, 2, 999), (1, 1, 998)], {1: 5, 2: 7})
        for verdict in (check_validity(trace), slow_check_validity(trace)):
            assert verdict.witness == {"step": 1, "process": 1, "value": 998}
        assert not check_validity(truncate_trace(trace, 1)).passed


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

    def test_decisions_are_judged_in_step_order(self):
        # process 2's decision at step 3 is listed before process 1's at step 1
        trace = hand_trace(2, [1, 1, 2, 2], [(3, 2, 102), (1, 1, 101)], {1: 101, 2: 102})
        assert check_alpha_agreement(trace, AgreementFunction.wait_free(2)).passed
        # under level 1 everywhere the second value in time, at step 3, is the witness
        fn = AgreementFunction.k_concurrent(2, 1)
        verdict = check_alpha_agreement(trace, fn)
        assert verdict.witness == {"step": 3, "process": 2, "distinct": 2, "level": 1, "participating": [1, 2]}
        assert not check_alpha_agreement(truncate_trace(trace, 3), fn).passed

    def test_participation_counts_each_process_from_its_earliest_step(self):
        # process 1's step-4 event is listed before its steps 0 and 1
        trace = hand_trace(2, [1, 1, 2, 2, 1], [(1, 1, 101)], {1: 101, 2: 102})
        trace = replace(trace, events=[trace.events[4], *trace.events[:4]])
        assert check_alpha_agreement(trace, AgreementFunction(2, b"\x00\x01\x00\x01")).passed


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

    def test_witness_is_the_first_excess_in_step_order(self):
        # listed first, process 3's value is the second one decided in time
        trace = hand_trace(3, [1, 1, 2, 2, 3, 3], [(5, 3, 103), (1, 1, 101), (3, 2, 101)], {1: 101, 2: 102, 3: 103})
        verdict = check_k_agreement(trace, 1)
        assert verdict.witness == {"step": 5, "process": 3, "distinct": 2, "k": 1}
        assert not check_k_agreement(truncate_trace(trace, 5), 1).passed

    def test_invalid_value_fails_regardless(self):
        # an invalid value fails validity whatever k is; k-agreement counts
        # only distinct decisions, so a campaign records one violation
        trace = hand_trace(2, [1, 2], [(1, 1, 999)], {1: 5, 2: 7})
        assert not check_validity(trace).passed
        assert check_k_agreement(trace, 1).passed

        class InventsValue(EchoProtocol):
            name = "safe-agreement"

            def program(self, pid):
                yield {"val": self._input(pid)}
                return 999

        result = run_campaign(lambda: InventsValue(2, default_inputs(2)), [(1, Schedule(2, (1, 2)))], None, 4)
        assert result.violations == {"validity": 1, "k-agreement": 0, "termination": 0}
        assert [f["property"] for f in result.failures] == ["validity"]

    def test_wait_free_alpha_agreement_is_implied_by_validity(self):
        # sanity cross-check: with level == |P| everywhere, any trace passing
        # validity with one decision per process passes adaptive agreement
        fn = AgreementFunction.wait_free(2)
        sched = Schedule(2, (1, 2, 1, 2, 1, 2))
        trace = run_to_quiescence(SafeAgreement(2, default_inputs(2)), sched)
        assert check_validity(trace).passed
        assert check_alpha_agreement(trace, fn).passed


def assert_same_verdicts(trace, fns, ks):
    """The hash-keyed checkers and the canonical-JSON oracles agree on everything they report."""
    pairs = [(check_validity(trace), slow_check_validity(trace))]
    pairs += [(check_alpha_agreement(trace, fn), slow_check_alpha_agreement(trace, fn)) for fn in fns]
    pairs += [(check_k_agreement(trace, k), slow_check_k_agreement(trace, k)) for k in ks]
    for fast, slow in pairs:
        # == alone would let a witness value True stand for 1
        assert (fast.prop, fast.passed) == (slow.prop, slow.passed)
        assert canonical_json(fast.witness) == canonical_json(slow.witness)
    return pairs


def assert_fails_when_cut(check, trace, *args):
    """A failing verdict still fails on the trace cut at its witness's step."""
    verdict = check(trace, *args)
    if not verdict.passed:
        assert not check(truncate_trace(trace, verdict.witness["step"]), *args).passed


def assert_same_termination_and_admission(trace, fns, amongs):
    """The one-pass termination check and admission test agree with the per-process oracles."""
    outcomes = set()
    for among in amongs:
        fast, slow = check_termination(trace, among=among), slow_check_termination(trace, among=among)
        assert (fast.prop, fast.passed, fast.witness) == (slow.prop, slow.passed, slow.witness)
        outcomes.add(("termination", fast.passed))
    for fn in fns:
        admitted = admits_trace(fn, trace)
        assert admitted is slow_admits_trace(fn, trace)
        outcomes.add(("admits", admitted))
    return outcomes


def file_shaped_trace(rng, n):
    """A random trace as `advlab check` reads one from a file: events and
    decisions in any order, halted processes that may never have stepped,
    and decisions by any process, correct, halted, neither or not
    participating."""
    steps = [rng.randint(1, n) for _ in range(rng.randint(0, 8))]
    last = {p: i for i, p in enumerate(steps)}
    halted = {p: last.get(p, -1) for p in range(1, n + 1) if rng.random() < 0.4}
    correct = [p for p in range(1, n + 1) if p not in halted and rng.random() < 0.8]
    events = [{"step": i, "process": p, "kind": "update", "payload": None} for i, p in enumerate(steps)]
    if rng.random() < 0.5:
        rng.shuffle(events)
    deciders = [p for p in range(1, n + 1) if rng.random() < 0.5]
    decisions = [{"step": rng.randint(0, max(len(steps) - 1, 0)), "process": p, "value": 100 + p} for p in deciders]
    if rng.random() < 0.5:
        rng.shuffle(decisions)
    obj = {
        "n": n,
        "schedule": {"steps": steps, "halted_at": {str(p): at for p, at in halted.items()}, "correct_set": correct},
        "inputs": {str(p): 100 + p for p in range(1, n + 1)},
        "events": events,
        "decisions": decisions,
        "statuses": {str(p): rng.choice(["running", "blocked", "decided"]) for p in set(steps)},
    }
    return trace_from_json_obj(obj)


class TestAgainstSlowOracles:
    FNS = [
        AgreementFunction.wait_free(3),
        AgreementFunction.k_concurrent(3, 2),
        AgreementFunction.k_concurrent(3, 1),
        AgreementFunction.t_resilient(3, 1),
        agreement_function(Adversary.of(3, [[1], [2, 3], [1, 2, 3]])),  # 0 on {2}
    ]
    # values whose canonical texts collide or nearly collide
    VALUES = [
        True, 1, 1.0, False, 0, None, "1", "[1,2]", (1, 2), [1, 2],
        {"a": {"b": [1, (2,)]}}, {"a": {"b": ((1,), [2])}},
    ]

    @pytest.mark.parametrize("protocol, fn", [("adaptive", FNS[0]), ("alpha-setcons", FNS[1])])
    def test_every_enumerated_run(self, protocol, fn):
        for schedule in enumerate_schedules(3, 2, 1):
            trace = run_to_quiescence(POLICIES[protocol].make(3, default_inputs(3), fn), schedule, max_tail=120)
            assert_same_verdicts(trace, self.FNS, (1, 2, 3))

    def test_crafted_mixed_values(self):
        rng = random.Random(9)
        outcomes = set()
        for _ in range(400):
            steps = [rng.randint(1, 3) for _ in range(rng.randint(1, 6))]
            inputs = {p: rng.choice(self.VALUES) for p in (1, 2, 3)}
            decided = sorted(rng.randrange(len(steps)) for _ in range(rng.randint(1, 4)))
            trace = hand_trace(3, steps, [(at, steps[at], rng.choice(self.VALUES)) for at in decided], inputs)
            pairs = assert_same_verdicts(trace, self.FNS, (1, 2, 3, 4))
            outcomes.update((fast.prop, fast.passed) for fast, _ in pairs)
        assert len(outcomes) == 6  # each property both passed and failed

    def test_golden_runs_terminate_and_admit_as_the_oracles_say(self, golden_traces):
        outcomes = set()
        for trace in golden_traces:
            outcomes |= assert_same_termination_and_admission(trace, self.FNS, (None, (2, 3), (1,), ()))
        assert len(outcomes) == 4  # each verdict both ways

    def test_file_shaped_traces_terminate_and_admit_as_the_oracles_say(self):
        rng = random.Random(13)
        outcomes, shapes = set(), set()
        for _ in range(1500):
            n = rng.randint(1, 4)
            trace = file_shaped_trace(rng, n)
            fns = [AgreementFunction.wait_free(n), AgreementFunction.k_concurrent(n, 1)]
            fns.append(AgreementFunction(n, (0,) + tuple(rng.randint(0, b.bit_count()) for b in range(1, 1 << n))))
            amongs = [None, [p for p in range(1, n + 1) if rng.random() < 0.5]]
            outcomes |= assert_same_termination_and_admission(trace, fns, amongs)
            steps = [e.step for e in trace.events]
            shapes.add(("out of step order", steps != sorted(steps)))
            shapes.add(("halted, never stepped", -1 in trace.schedule.halted_at.values()))
            shapes.add(("decided outside correct", any(d.pid not in trace.schedule.correct for d in trace.decisions)))
            shapes.add(("among names a non-participant", any(p not in trace.participating for p in amongs[1])))
        assert len(outcomes) == 4
        assert len(shapes) == 8  # each shape both present and absent

    def test_file_shaped_traces_agree_as_the_oracles_say(self):
        rng = random.Random(17)
        outcomes, shapes = set(), set()
        for _ in range(1500):
            n = rng.randint(1, 4)
            trace = file_shaped_trace(rng, n)
            fns = [AgreementFunction.wait_free(n), AgreementFunction.k_concurrent(n, 1)]
            fns.append(AgreementFunction(n, (0,) + tuple(rng.randint(0, b.bit_count()) for b in range(1, 1 << n))))
            pairs = assert_same_verdicts(trace, fns, (1, 2))
            outcomes.update((fast.prop, fast.passed) for fast, _ in pairs)
            for fn in fns:
                assert_fails_when_cut(check_alpha_agreement, trace, fn)
            for k in (1, 2):
                assert_fails_when_cut(check_k_agreement, trace, k)
            decided = [d.step for d in trace.decisions]
            stepped = [e.step for e in trace.events]
            shapes.add(("decisions out of step order", decided != sorted(decided)))
            shapes.add(("events out of step order", stepped != sorted(stepped)))
        assert len(outcomes) == 6  # each property both passed and failed
        assert len(shapes) == 4  # each shape both present and absent

    @pytest.mark.parametrize(
        "a, b, same",
        [
            ((1, 2), [1, 2], True),
            ({"a": (1,)}, {"a": [1]}, True),
            (1, True, False),
            (1, 1.0, False),
            ("1", 1, False),
            ("[1,2]", [1, 2], False),
        ],
    )
    def test_values_compare_by_canonical_text(self, a, b, same):
        # processes 1 and 2 decide a and b: b is valid only if it matches the input a,
        # and the two count as one decision only if they match each other
        decisions = [(1, 1, a), (1, 2, b)]
        assert check_validity(hand_trace(2, [1, 2], decisions, {1: a, 2: 7})).passed is same
        assert check_k_agreement(hand_trace(2, [1, 2], decisions, {1: a, 2: b}), 1).passed is same

    def test_unencodable_value_raises_type_error(self):
        trace = hand_trace(2, [1, 2], [(1, 1, {1, 2})], {1: 5, 2: 7})
        with pytest.raises(TypeError):
            check_validity(trace)
        with pytest.raises(TypeError):
            check_k_agreement(trace, 1)
        with pytest.raises(TypeError):
            check_alpha_agreement(trace, AgreementFunction.wait_free(2))


scalars = st.none() | st.booleans() | st.integers(-(2**64), 2**64) | st.floats() | st.text(max_size=4)
json_like = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=2), children, max_size=3),
    max_leaves=8,
)


def _swap_sequences(value):
    """value with every list made a tuple and every tuple a list."""
    if isinstance(value, list):
        return tuple(_swap_sequences(v) for v in value)
    if isinstance(value, tuple):
        return [_swap_sequences(v) for v in value]
    if isinstance(value, dict):
        return {k: _swap_sequences(v) for k, v in value.items()}
    return value


def _twins(value):
    """Values whose canonical text equals value's, or nearly does."""
    twins = [value, _swap_sequences(value), json.loads(canonical_json(value)), canonical_json(value)]
    if isinstance(value, (bool, int)):
        twins += [int(value), float(value), bool(value)]
    return twins


class TestValueKey:
    @settings(max_examples=300, deadline=None)
    @given(scalars | json_like, st.data())  # plain ints and strs key as themselves only at the top
    def test_keys_equal_exactly_when_texts_equal(self, a, data):
        b = data.draw(st.sampled_from(_twins(a)) | json_like)
        same_text = canonical_json(a) == canonical_json(b)
        assert (value_key(a) == value_key(b)) is same_text
        if same_text:
            assert hash(value_key(a)) == hash(value_key(b))
