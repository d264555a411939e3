"""Agreement-function values, constructors, ordering, and run admission."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import Adversary, AgreementFunction, Comparison, ProcessSet, admits_trace, agreement_function, compare_pointwise
from advlab.sim import Decision, Event, RunTrace, Schedule

from oracles import all_families, brute_alpha_table


def make_trace(n, participants, halted, decided, correct=None):
    """Minimal hand-built trace: one update per participant, then decisions."""
    steps = tuple(participants)
    halted_at = {p: steps.index(p) for p in halted}
    if correct is None:
        correct = ProcessSet.of(n, [p for p in range(1, n + 1) if p not in halted])
    schedule = Schedule(n, steps, halted_at, correct)
    events = [Event(i, p, "update", {"val": p}) for i, p in enumerate(steps)]
    decisions = [Decision(len(steps) - 1, p, p) for p in decided]
    statuses = {p: "decided" if p in decided else "running" for p in participants}
    return RunTrace(
        schedule,
        {p: p for p in participants},
        events,
        decisions,
        ProcessSet.of(n, participants),
        statuses,
    )


class TestConstructors:
    def test_wait_free(self):
        fn = AgreementFunction.wait_free(3)
        assert fn.table[ProcessSet.of(3, [1, 3]).bits] == 2
        assert fn.table[0] == 0
        assert fn.table[0b111] == 3

    def test_t_resilient(self):
        fn = AgreementFunction.t_resilient(3, 1)
        assert fn.table[0b111] == 2
        assert fn.table[ProcessSet.of(3, [2]).bits] == 0
        assert AgreementFunction.t_resilient(3, 2).table[ProcessSet.of(3, [2]).bits] == 1
        with pytest.raises(ValueError):
            AgreementFunction.t_resilient(3, 3)
        with pytest.raises(ValueError):
            AgreementFunction.t_resilient(3, -1)

    def test_k_concurrent(self):
        fn = AgreementFunction.k_concurrent(4, 2)
        assert fn.table[ProcessSet.of(4, [1, 2, 3]).bits] == 2
        assert fn.table[ProcessSet.of(4, [3]).bits] == 1
        assert AgreementFunction.k_concurrent(3, 3).table == AgreementFunction.wait_free(3).table
        with pytest.raises(ValueError):
            AgreementFunction.k_concurrent(3, 0)
        with pytest.raises(ValueError):
            AgreementFunction.k_concurrent(3, 4)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AgreementFunction(2, (0, 1, 1))
        with pytest.raises(ValueError):
            AgreementFunction(2, (1, 1, 1, 2))
        with pytest.raises(ValueError):
            AgreementFunction(2, (0, 1, 1, 3))

    @pytest.mark.parametrize(
        "table, message",
        [
            ((0, 1, True, 2), "level True at mask 2 is not an integer"),
            ((0, 1, 1.0, 2), "level 1.0 at mask 2 is not an integer"),
            ((0, 1, -1, 2), "level -1 at mask 2 outside 0..2"),
            ((0, 1, 1, 3), "level 3 at mask 3 outside 0..2"),
            ((0, 3, 1, "2"), "level 3 at mask 1 outside 0..2"),  # the first bad entry is named
            ((0, 1, 1, None), "level None at mask 3 is not an integer"),
            ((1, 1, 1, 2), "the empty set must map to level 0"),
            (b"\x00\x01\x01\x03", "level 3 at mask 3 outside 0..2"),
            (b"\x00\x03\x01\x02", "level 3 at mask 1 outside 0..2"),
            (b"\x01\x01\x01\x02", "the empty set must map to level 0"),
        ],
    )
    def test_level_errors_name_the_first_bad_entry(self, table, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AgreementFunction(2, table)

    def test_every_input_form_gives_a_bytes_table(self):
        fns = [AgreementFunction(2, table) for table in ((0, 1, 1, 2), [0, 1, 1, 2], b"\x00\x01\x01\x02")]
        assert fns[0] == fns[1] == fns[2] == AgreementFunction.wait_free(2)
        assert all(type(fn.table) is bytes for fn in fns)

    def test_derived_function_wraps_the_region_table(self):
        for masks in ([], [1, 6, 7], range(1, 8)):
            adv = Adversary(3, tuple(masks))
            assert agreement_function(adv).table is adv.region_table(7)

    def test_json_roundtrip_and_strict_loading(self):
        fn = AgreementFunction.t_resilient(3, 1)
        again = AgreementFunction.from_json_obj(fn.to_json_obj())
        assert again == fn
        bad = {"n": 2, "table": [0, 1, 1, 0]}  # drops on a superset
        assert AgreementFunction.from_json_obj(bad).is_monotonic() is False
        with pytest.raises(ValueError):
            AgreementFunction.from_json_obj(bad, strict=True)


    def test_admissible_masks_are_the_levels_of_at_least_one(self):
        for fn in (AgreementFunction.t_resilient(4, 1), AgreementFunction(2, (0, 0, 2, 1))):
            masks = fn.admissible_masks
            assert masks == tuple(b for b in range(1, 1 << fn.n) if fn.table[b] >= 1)
            assert fn.admissible_masks is masks  # kept on the instance
            assert fn == AgreementFunction(fn.n, fn.table) and "admissible" not in repr(fn)


class TestMonotonicity:
    def test_derived_tables_are_monotonic(self):
        for masks in all_families(3):
            adv_table = brute_alpha_table(masks, 3)
            assert AgreementFunction(3, adv_table).is_monotonic()

    def test_explicit_violation(self):
        fn = AgreementFunction(2, (0, 1, 0, 0))  # {1} -> 1 but {1,2} -> 0
        assert not fn.is_monotonic()

    def test_zero_function(self):
        assert AgreementFunction(3, (0,) * 8).is_monotonic()

    def test_cardinality_bound_violation(self):
        fn = AgreementFunction(2, (0, 1, 1, 1))
        assert fn.is_monotonic()
        too_big = AgreementFunction(2, (0, 1, 2, 2))  # {2} -> 2 exceeds |{2}|
        assert not too_big.is_monotonic()


class TestComparePointwise:
    def test_resilient_below_wait_free(self):
        lo = AgreementFunction.t_resilient(3, 1)
        hi = AgreementFunction.wait_free(3)
        assert compare_pointwise(lo, hi) is Comparison.LE
        assert compare_pointwise(hi, lo) is Comparison.GE

    def test_reflexive(self):
        fn = AgreementFunction.k_concurrent(3, 2)
        assert compare_pointwise(fn, fn) is Comparison.EQ

    def test_pinned_ge_case(self, unfair_triple):
        fn = agreement_function(unfair_triple)
        lo = AgreementFunction.t_resilient(3, 1)
        assert compare_pointwise(fn, lo) is Comparison.GE
        assert fn.table[ProcessSet.of(3, [1]).bits] == 1 > lo.table[ProcessSet.of(3, [1]).bits] == 0

    def test_incomparable(self):
        a = AgreementFunction(2, (0, 1, 0, 1))
        b = AgreementFunction(2, (0, 0, 1, 1))
        assert compare_pointwise(a, b) is Comparison.INCOMPARABLE

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            compare_pointwise(AgreementFunction.wait_free(2), AgreementFunction.wait_free(3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_transitive_on_sampled_triples(self, seed):
        rng = random.Random(seed)

        def mono_table(n):
            # random monotone table built by raising values along supersets
            table = [0] * (1 << n)
            for bits in range(1, 1 << n):
                floor = max(table[bits & ~(1 << i)] for i in range(n) if bits >> i & 1)
                table[bits] = min(rng.randint(floor, floor + 1), bits.bit_count())
            return AgreementFunction(n, tuple(table))

        a, b, c = (mono_table(3) for _ in range(3))
        ab, bc, ac = compare_pointwise(a, b), compare_pointwise(b, c), compare_pointwise(a, c)
        flipped = {Comparison.LE: Comparison.GE, Comparison.GE: Comparison.LE}
        assert compare_pointwise(b, a) == flipped.get(ab, ab)
        if ab in (Comparison.LE, Comparison.EQ) and bc in (Comparison.LE, Comparison.EQ):
            assert ac in (Comparison.LE, Comparison.EQ)
        if ab in (Comparison.GE, Comparison.EQ) and bc in (Comparison.GE, Comparison.EQ):
            assert ac in (Comparison.GE, Comparison.EQ)


class TestAdmitsTrace:
    def test_wait_free_tolerates_decided_halts(self):
        fn = AgreementFunction.wait_free(3)
        trace = make_trace(3, [1, 2, 3], halted=[1, 2, 3], decided=[1, 2, 3], correct=ProcessSet(3, 0))
        assert admits_trace(fn, trace)

    def test_zero_level_is_rejected(self, unfair_triple):
        fn = agreement_function(unfair_triple)
        trace = make_trace(3, [2], halted=[], decided=[])
        assert fn.table[ProcessSet.of(3, [2]).bits] == 0
        assert not admits_trace(fn, trace)

    def test_too_many_undecided_halts(self):
        fn = AgreementFunction.t_resilient(3, 1)
        trace = make_trace(3, [1, 2, 3], halted=[1, 2], decided=[])
        assert not admits_trace(fn, trace)
        trace_ok = make_trace(3, [1, 2, 3], halted=[1], decided=[])
        assert admits_trace(fn, trace_ok)

    def test_empty_participation_rejected(self):
        fn = AgreementFunction.wait_free(3)
        trace = make_trace(3, [], halted=[], decided=[])
        assert not admits_trace(fn, trace)

    def test_universe_mismatch(self):
        fn = AgreementFunction.wait_free(4)
        trace = make_trace(3, [1], halted=[], decided=[])
        with pytest.raises(ValueError):
            admits_trace(fn, trace)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_the_function(self, seed):
        # pointwise larger functions admit at least as much
        rng = random.Random(seed)
        n = 3
        participants = sorted(rng.sample([1, 2, 3], rng.randint(1, 3)))
        halted = [p for p in participants if rng.random() < 0.4]
        decided = [p for p in halted if rng.random() < 0.5]
        trace = make_trace(n, participants, halted=halted, decided=decided)
        lo = AgreementFunction.t_resilient(3, rng.randint(0, 2))
        hi = AgreementFunction.wait_free(3)
        if admits_trace(lo, trace):
            assert admits_trace(hi, trace)
