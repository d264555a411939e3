"""Run simulator: schedules, execution, enumeration, generation, traces."""

import hashlib
import itertools
import json
from math import factorial

import pytest

from advlab import Adversary, AgreementFunction, ProcessSet, admits_trace, t_resilient_adversary
from advlab.protocols import Cons23, Protocol, SafeAgreement, default_inputs
from advlab.sim import (
    ProtocolFault,
    Schedule,
    canonical_json,
    count_schedules,
    enumerate_schedules,
    generate_admissible_schedule,
    generate_schedule,
    run_to_quiescence,
    trace_from_json_obj,
    trace_to_json_obj,
    _interleavings,
)

from oracles import EchoProtocol, slow_generate_admissible_schedule, slow_generate_schedule, truncate_trace


class CountingProtocol(Protocol):
    """Writes an incrementing counter forever; never decides."""

    def program(self, pid):
        k = 0
        while True:
            yield {"count": k}
            k += 1


class StepFreeProtocol(Protocol):
    def program(self, pid):
        return 0
        yield  # a generator that returns before its first write


class TestSchedule:
    def test_validation_catches_late_steps(self):
        sched = Schedule(2, (1, 2, 2), {2: 1})
        with pytest.raises(ValueError):
            sched.validate()

    def test_validation_catches_halted_and_correct_overlap(self):
        sched = Schedule(2, (1, 2), {2: 1}, ProcessSet(2, 0b11))
        with pytest.raises(ValueError):
            sched.validate()

    def test_defaults_fill_correct_set(self):
        sched = Schedule(3, (1, 2), {2: 1})
        assert sched.correct.members() == (1, 3)
        sched.validate()

    def test_never_stepped_faulty_process(self):
        sched = Schedule(2, (1, 1), {2: -1})
        sched.validate()
        assert set(sched.steps) == {1}


class TestExecute:
    def test_echo_solo(self):
        trace = run_to_quiescence(EchoProtocol(2, {1: 5}), Schedule(2, (1, 1)), max_tail=0)
        assert [e.kind for e in trace.events] == ["update", "snapshot"]
        assert trace.participating.members() == (1,)
        assert trace.decisions[0].value == 5
        assert trace.decisions[0].step == 1  # the decision lands on the final snapshot
        assert trace.statuses == {1: "decided"}

    def test_determinism(self):
        sched = Schedule(2, (1, 2, 1, 2, 2, 1))
        t1 = run_to_quiescence(EchoProtocol(2, {1: 5, 2: 7}), sched, max_tail=0)
        t2 = run_to_quiescence(EchoProtocol(2, {1: 5, 2: 7}), sched, max_tail=0)
        assert canonical_json(trace_to_json_obj(t1)) == canonical_json(trace_to_json_obj(t2))

    def test_decided_process_noops(self):
        trace = run_to_quiescence(EchoProtocol(2, {1: 5}), Schedule(2, (1, 1, 1, 1)), max_tail=0)
        assert len(trace.events) == 2
        assert len(trace.decisions) == 1

    def test_decision_without_a_step_faults(self):
        with pytest.raises(ProtocolFault, match="process 1 decided without taking a step"):
            run_to_quiescence(StepFreeProtocol(1, {1: 0}), Schedule(1, (1,)), max_tail=0)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            run_to_quiescence(EchoProtocol(2, {1: 5}), Schedule(3, (1,)), max_tail=0)

    def test_snapshot_atomicity(self):
        # every snapshot equals the per-cell value of the latest preceding update
        sched = Schedule(3, (1, 2, 1, 3, 2, 3, 1, 2, 3, 1, 2, 3))
        trace = run_to_quiescence(CountingProtocol(3, {}), sched, max_tail=0)
        cells = [None, None, None]
        for ev in trace.events:
            if ev.kind == "update":
                cells[ev.pid - 1] = ev.payload
            else:
                assert ev.payload == tuple(cells)

    def test_view_containment_per_process(self):
        # successive views of one process never lose writes: per-cell write
        # counts only grow
        sched = Schedule(2, (1, 2, 2, 1, 2, 1, 1, 2, 1, 2))
        trace = run_to_quiescence(CountingProtocol(2, {}), sched, max_tail=0)
        counts = [0, 0]
        last_seen = {}
        for ev in trace.events:
            if ev.kind == "update":
                counts[ev.pid - 1] += 1
            else:
                prev = last_seen.get(ev.pid, (0, 0))
                now = tuple(counts)
                assert all(a <= b for a, b in zip(prev, now))
                last_seen[ev.pid] = now


class TestQuiescence:
    def test_tail_completes_correct_processes(self):
        # one enumerated step each is not enough to decide; the tail is
        trace = run_to_quiescence(SafeAgreement(2, {1: 5, 2: 7}), Schedule(2, (1, 2)))
        assert {d.pid for d in trace.decisions} == {1, 2}

    def test_tail_skips_halted(self):
        sched = Schedule(2, (1, 2), {2: 1})
        trace = run_to_quiescence(SafeAgreement(2, {1: 5, 2: 7}), sched)
        assert set(trace.schedule.steps[2:]) == {1}

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_never_deciding_tail_runs_exactly_max_tail(self, k):
        sched = Schedule(3, (2, 2, 3), {3: 2})
        trace = run_to_quiescence(CountingProtocol(3, {}), sched, max_tail=k)
        assert trace.schedule.steps == (2, 2, 3) + tuple([1, 2][i % 2] for i in range(k))
        assert [e.step for e in trace.events] == list(range(3 + k))
        assert [e.pid for e in trace.events[3:]] == list(trace.schedule.steps[3:])
        assert not trace.decisions

    def test_all_halted_gets_no_tail(self):
        sched = Schedule(2, (1, 2, 1), {1: 2, 2: 1})
        for required in (None, {1, 2}):
            trace = run_to_quiescence(CountingProtocol(2, {}), sched, max_tail=50, required=required)
            assert trace.schedule.steps == (1, 2, 1)
            assert [e.step for e in trace.events] == [0, 1, 2]

    def test_required_filter_stops_early(self):
        sched = Schedule(2, (1, 2))
        trace = run_to_quiescence(SafeAgreement(2, {1: 5, 2: 7}), sched, required={1})
        assert 1 in {d.pid for d in trace.decisions}


class TestEnumerate:
    def test_counts_without_halts(self):
        assert len(list(enumerate_schedules(2, 1, 0))) == 2
        assert len(list(enumerate_schedules(2, 2, 0))) == factorial(4) // (factorial(2) ** 2)
        assert len(list(enumerate_schedules(1, 5, 0))) == 1

    def test_count_with_halts(self):
        # one halted process taking k in 0..sp-1 steps, either of two processes
        sp = 3
        expected = factorial(2 * sp) // factorial(sp) ** 2
        for k in range(sp):
            expected += 2 * factorial(sp + k) // (factorial(sp) * factorial(k))
        assert len(list(enumerate_schedules(2, sp, 1))) == expected

    def test_schedules_are_distinct_and_valid(self):
        seen = set()
        for sched in enumerate_schedules(2, 2, 1):
            sched.validate()
            key = (sched.steps, tuple(sorted(sched.halted_at.items())))
            assert key not in seen
            seen.add(key)

    def test_step_bound(self):
        with pytest.raises(ValueError):
            list(enumerate_schedules(3, 5, 0))

    def test_closed_form_count_matches_the_stream(self):
        # every size of the enumeration bound with at most 10**5 schedules
        sizes = [
            (n, steps, halts)
            for n in range(1, 15)
            for steps in range(1, 14 // n + 1)
            for halts in range(n + 1)
            if count_schedules(n, steps, halts) <= 10**5
        ]
        assert len(sizes) == 96
        for size in sizes:
            assert count_schedules(*size) == sum(1 for _ in enumerate_schedules(*size)), size
        # the benchmark's sizes and one beyond the range above
        assert [count_schedules(3, 3, 1), count_schedules(2, 6, 1), count_schedules(4, 3, 1)] == [3840, 2508, 813_120]
        assert count_schedules(2, 3, 5) == count_schedules(2, 3, 2)

    @pytest.mark.parametrize(
        "size, message",
        [
            ((3, 5, 0), "exceeds the bound"),
            ((2, 0, 0), "steps_per_process must be at least 1"),
            ((2, 2, -1), "halts_allowed must be non-negative"),
            ((0, 1, 0), "universe size must be in 1..16, got 0"),
            ((-1, 1, 0), "universe size must be in 1..16, got -1"),
            # the sizes are checked one by one before the bound on their product
            ((-2, -8, 0), "universe size must be in 1..16, got -2"),
            ((20, 1, 0), "universe size must be in 1..16, got 20"),
            ((3, -8, 0), "steps_per_process must be at least 1"),
            ((3, 5, -1), "halts_allowed must be non-negative"),
        ],
    )
    def test_closed_form_count_rejects_what_the_stream_rejects(self, size, message):
        with pytest.raises(ValueError, match=message):
            count_schedules(*size)
        with pytest.raises(ValueError, match=message):
            next(enumerate_schedules(*size))

    @pytest.mark.parametrize(
        "counts",
        [{}, {1: 0, 2: 0}, {1: 3}, {2: 2, 1: 2}, {1: 1, 2: 0, 3: 2}, {3: 2, 1: 1, 2: 2}, {1: 3, 2: 2, 3: 2}],
    )
    def test_interleavings_are_the_sorted_distinct_permutations(self, counts):
        multiset = [p for p, c in counts.items() for _ in range(c)]
        expected = [list(order) for order in sorted(set(itertools.permutations(multiset)))]
        assert list(_interleavings(counts)) == expected


class TestGenerate:
    def test_correct_set_is_a_live_set(self, unfair_triple):
        for seed in range(50):
            sched = generate_schedule(unfair_triple, seed, 60)
            sched.validate()
            assert sched.correct.bits in unfair_triple.live_sets
            assert all(p not in sched.correct for p in sched.halted_at)

    def test_single_live_set_never_halts(self):
        adv = Adversary.of(3, [[1, 2, 3]])
        sched = generate_schedule(adv, 9, 30)
        assert sched.correct.members() == (1, 2, 3)
        assert not sched.halted_at

    def test_deterministic(self, unfair_triple):
        a = generate_schedule(unfair_triple, 7, 60)
        b = generate_schedule(unfair_triple, 7, 60)
        assert a == b

    def test_fairness_quota(self, unfair_triple):
        for seed in range(30):
            sched = generate_schedule(unfair_triple, seed, 60)
            quota = 60 // (2 * sched.correct.bits.bit_count())
            for p in sched.correct.members():
                assert sched.steps.count(p) >= quota

    def test_rejects_bad_inputs(self, unfair_triple):
        with pytest.raises(ValueError):
            generate_schedule(Adversary(3, ()), 0, 60)
        with pytest.raises(ValueError):
            generate_schedule(unfair_triple, 0, 5)

    def test_admissible_generator_meets_its_own_bar(self):
        fn = AgreementFunction.t_resilient(3, 1)
        for seed in range(60):
            sched = generate_admissible_schedule(fn, seed, 60)
            sched.validate()
            part = ProcessSet.of(3, set(sched.steps))
            level = fn.table[part.bits]
            assert level >= 1
            assert len(sched.halted_at) <= level - 1


# One agreement table per universe size n = 1..16, the three kinds in turn, and two adversaries.
REFERENCE_MODELS = (
    [AgreementFunction.wait_free(n) for n in range(1, 17, 3)]
    + [AgreementFunction.t_resilient(n, (n - 1) // 2) for n in range(2, 17, 3)]
    + [AgreementFunction.k_concurrent(n, (n + 1) // 2) for n in range(3, 17, 3)]
    + [Adversary.of(3, [[1], [2, 3], [1, 2, 3]]), t_resilient_adversary(16, 8)]
)


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda m: f"{type(m).__name__}-n{m.n}")
def test_generators_draw_as_the_stdlib_reference(model):
    """The getrandbits draws give the schedules of the choice/randint/sample/shuffle reference."""
    if isinstance(model, AgreementFunction):
        fast, slow = generate_admissible_schedule, slow_generate_admissible_schedule
    else:
        fast, slow = generate_schedule, slow_generate_schedule
    for budget in sorted({2 * model.n, 16, 96, 400}):
        if budget < 2 * model.n:
            continue
        for seed in range(200):
            got, want = fast(model, seed, budget), slow(model, seed, budget)
            assert (got.steps, got.halted_at, got.correct) == (want.steps, want.halted_at, want.correct), (seed, budget)


class TestTraceFiles:
    def test_roundtrip(self):
        sched = Schedule(2, (1, 2, 1, 2, 1, 2), {})
        trace = run_to_quiescence(SafeAgreement(2, {1: 5, 2: 7}), sched)
        obj = trace_to_json_obj(trace)
        again = trace_from_json_obj(json.loads(json.dumps(obj)))
        assert trace_to_json_obj(again) == obj

    def test_truncation_drops_later_activity(self):
        sched = Schedule(2, (1, 2, 1, 2, 1, 2))
        trace = run_to_quiescence(SafeAgreement(2, {1: 5, 2: 7}), sched)
        cut = truncate_trace(trace, 3)
        assert all(e.step <= 3 for e in cut.events)
        assert all(d.step <= 3 for d in cut.decisions)

    def test_compliance_filter_delegates(self, unfair_triple):
        from advlab import agreement_function

        fn = agreement_function(unfair_triple)
        sched = Schedule(3, (2, 2))
        trace = run_to_quiescence(EchoProtocol(3, {2: 9}), sched, max_tail=0)
        assert not admits_trace(fn, trace)
        full = Schedule(3, (1, 2, 3, 1, 2, 3))
        trace2 = run_to_quiescence(EchoProtocol(3, {1: 1, 2: 2, 3: 3}), full, max_tail=0)
        assert admits_trace(fn, trace2)


# The golden runs (the `golden_traces` fixture in conftest.py): every
# protocol and adaptive subroutine on every 3-process schedule with 2 steps
# per process and at most 1 halt, plus seeded schedules admitted by the
# 1-resilient agreement function.  The digest pins the canonical text of all
# their traces, so a change to the executor or to a protocol that alters any
# event, decision or status shows here.
GOLDEN_DIGEST = "90df1859b3dfbc46747e8405d21024f64e57dc8ae9be1a930d000f0f9efdb4e2"


class TestGolden:
    def test_trace_digest(self, golden_traces):
        text = "\n".join(canonical_json(trace_to_json_obj(trace)) for trace in golden_traces)
        assert len(golden_traces) == 6 * (198 + 12)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGEST

    def test_every_decision_lands_on_a_snapshot_of_its_process(self, golden_traces):
        decided = 0
        for trace in golden_traces:
            snapshots = {(e.step, e.pid) for e in trace.events if e.kind == "snapshot"}
            for d in trace.decisions:
                assert (d.step, d.pid) in snapshots
                decided += 1
        assert decided > 0


# Seeded schedule streams: the admissible generator under four agreement
# functions and the adversary-driven one under the unfair triple, seeds
# 0..499 at budgets 16 and 96.  The digest pins every schedule (steps, halt
# indices, correct set), so a generator change that moves a random draw
# shows here.
STREAM_FNS = (
    AgreementFunction.wait_free(3),
    AgreementFunction.t_resilient(3, 1),
    AgreementFunction.k_concurrent(3, 2),
    AgreementFunction.wait_free(4),
)
STREAM_DIGEST = "2b68ba0b776f4c2787caf917af319a7c90b81bfaafa1e17633bdaf911196e95d"

# Runs on the paths the golden runs above skip, each with its truncations at
# every fifth step: cons23 under adversary schedules with the `required` set
# run_campaign gives it ({2, 3} within the correct set, possibly empty), and
# a never-deciding protocol whose tail is cut off at max_tail = 7.
TAIL_DIGEST = "42924524b239decc5b80e9248fe060f5b403580a771ab09826a27901563db2c5"


def _schedule_text(schedule):
    return canonical_json([list(schedule.steps), sorted(schedule.halted_at.items()), schedule.correct.members()])


def _trace_text(trace):
    return canonical_json([trace_to_json_obj(trace), trace.participating.members()])


class TestGoldenPaths:
    def test_schedule_stream_digest(self, unfair_triple):
        texts = []
        for budget in (16, 96):
            for fn in STREAM_FNS:
                texts += [_schedule_text(generate_admissible_schedule(fn, seed, budget)) for seed in range(500)]
            texts += [_schedule_text(generate_schedule(unfair_triple, seed, budget)) for seed in range(500)]
        assert len(texts) == 5000
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == STREAM_DIGEST

    def test_required_and_cut_tail_digest(self, unfair_triple):
        runs = []  # (given schedule, trace)
        for budget in (6, 16):
            for seed in range(150):
                schedule = generate_schedule(unfair_triple, seed, budget)
                required = {p for p in (2, 3) if p in schedule.correct}
                trace = run_to_quiescence(Cons23(3, default_inputs(3)), schedule, max_tail=400, required=required)
                runs.append((schedule, trace))
        for schedule in enumerate_schedules(3, 2, 1):
            runs.append((schedule, run_to_quiescence(CountingProtocol(3, {}), schedule, max_tail=7)))
        tails = {len(trace.schedule.steps) - len(schedule.steps) for schedule, trace in runs}
        assert {0, 7} < tails  # no tail, tails cut off at max_tail and cons23 tails stopped by `required`
        texts = []
        for _, trace in runs:
            texts.append(_trace_text(trace))
            texts += [_trace_text(truncate_trace(trace, step)) for step in range(0, len(trace.schedule.steps), 5)]
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == TAIL_DIGEST
