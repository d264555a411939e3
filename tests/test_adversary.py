"""Adversary algebra: restriction, power, hitting sets, classification."""

import itertools
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import (
    Adversary,
    ProcessSet,
    adversary_from_json_obj,
    adversary_to_json_obj,
    agreement_function,
    all_nonempty,
    csize,
    fairness_counterexample,
    is_fair,
    is_superset_closed,
    is_symmetric,
    replay_witness,
    restrict,
    setcon,
    setcon_witness,
    sizes_adversary,
    symmetric_setcon,
    t_resilient_adversary,
)
from advlab.adversary import restrict_intersecting
from oracles import (
    all_families,
    brute_fair,
    brute_min_hitting,
    brute_setcon,
    brute_superset_closed,
    brute_witness,
    cyclic_edge_closure,
    distinct_sizes,
    slow_fairness_counterexample,
    slow_is_superset_closed,
    slow_csize,
    slow_region_powers,
    slow_setcon_witness,
    upward_closure,
)


def family(n, masks):
    return Adversary(n, tuple(masks))


def blocky_family(rng, n):
    """A union of orbits under a random partition: each block's processes are twins."""
    blocks = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    orbits = {}
    for m in range(1, 1 << n):
        counts = tuple(sum(1 for i in range(n) if m >> i & 1 and blocks[i] == b) for b in range(n))
        orbits.setdefault(counts, []).append(m)
    return family(n, [m for orbit in orbits.values() if rng.random() < 0.85 for m in orbit])


def assert_matches_slow_scans(adv, touching=()):
    """The region tables (the full touching mask and the given ones) and the
    witness chain equal the full-scan references, byte for byte."""
    n, masks = adv.n, list(adv.live_sets)
    for t in ((1 << n) - 1, *touching):
        assert adv.region_table(t) == slow_region_powers(n, [m for m in masks if m & t]), (adv, t)
    assert [(s.bits, a) for s, a in setcon_witness(adv).chain] == slow_setcon_witness(n, masks), adv


class TestProcessSet:
    def test_members_roundtrip(self):
        s = ProcessSet.of(4, [2, 4])
        assert s.members() == (2, 4)
        assert s.bits == 0b1010
        assert 2 in s and 1 not in s
        assert len(s) == 2

    def test_set_algebra(self):
        a = ProcessSet.of(3, [1, 2])
        b = ProcessSet.of(3, [2, 3])
        assert (a | b).members() == (1, 2, 3)
        assert (a & b).members() == (2,)
        assert (a - b).members() == (1,)
        assert not a.issubset(b)
        assert (a & b).issubset(a)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProcessSet.of(3, [1]) | ProcessSet.of(4, [1])

    def test_bounds(self):
        with pytest.raises(ValueError):
            ProcessSet(0, 0)
        with pytest.raises(ValueError):
            ProcessSet(17, 0)
        with pytest.raises(ValueError):
            ProcessSet(3, 0b1000)
        with pytest.raises(ValueError):
            ProcessSet.of(3, [4])

    @given(st.integers(1, 6), st.data())
    def test_matches_python_sets(self, n, data):
        xs = data.draw(st.sets(st.integers(1, n)))
        ys = data.draw(st.sets(st.integers(1, n)))
        a, b = ProcessSet.of(n, xs), ProcessSet.of(n, ys)
        assert set((a | b).members()) == xs | ys
        assert set((a & b).members()) == xs & ys
        assert set((a - b).members()) == xs - ys
        assert a.issubset(b) == (xs <= ys)


class TestAdversaryType:
    def test_canonical_order_and_validation(self):
        a = Adversary.of(3, [[2, 3], [1]])
        assert a.live_sets == (0b001, 0b110)
        with pytest.raises(ValueError):
            Adversary.of(3, [[1], [1]])
        with pytest.raises(ValueError):
            Adversary.of(3, [[]])
        with pytest.raises(ValueError):
            Adversary.of(3, [[4]])

    def test_masks_and_process_sets_build_equal_adversaries(self):
        for n, masks in [(3, [0b110, 0b001, 0b111]), (16, [1 << 15, 0b11, (1 << 16) - 1])]:
            by_mask = Adversary(n, tuple(masks))
            by_set = Adversary(n, tuple(ProcessSet(n, m) for m in masks))
            by_ids = Adversary.of(n, [ProcessSet(n, m).members() for m in masks])
            assert by_mask == by_set == by_ids
            assert hash(by_mask) == hash(by_set) == hash(by_ids)
            assert repr(by_mask) == repr(by_set) == repr(by_ids)
            assert by_mask.live_sets == by_set.live_sets == by_ids.live_sets == tuple(sorted(masks))

    @pytest.mark.parametrize(
        "sets, message",
        [
            ((0b001, 0), "live sets must be non-empty"),
            ((ProcessSet(3, 0),), "live sets must be non-empty"),
            ((0b001, 0b1000), "mask 0x8 has bits outside a universe of size 3"),
            ((-1,), "mask -0x1 has bits outside a universe of size 3"),
            ((0b010, 0b001, 0b010), "duplicate live set ProcessSet(3, {2})"),
            ((0b001, ProcessSet(3, 0b001)), "duplicate live set ProcessSet(3, {1})"),
            ((ProcessSet(4, 0b001),), "live set universe 4 does not match adversary universe 3"),
        ],
        ids=["zero-mask", "empty-set", "mask-outside", "negative-mask", "duplicate", "duplicate-set", "other-universe"],
    )
    def test_constructor_error_texts(self, sets, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Adversary(3, sets)

    def test_region_tables_are_per_instance(self, unfair_triple):
        table = unfair_triple.region_table(0b110)
        assert unfair_triple.region_table(0b110) is table
        twin = family(3, [0b001, 0b110, 0b111])
        assert twin == unfair_triple and hash(twin) == hash(unfair_triple)
        assert twin.region_table(0b110) == table and twin.region_table(0b110) is not table
        with pytest.raises(ValueError):
            unfair_triple.region_table(0b1000)

    def test_membership_table(self):
        rng = random.Random("membership")
        cases = [(3, masks) for masks in all_families(3)]
        cases += [(n, frozenset(rng.sample(range(1, 1 << n), rng.randint(0, 20)))) for n in (5, 8, 12) for _ in range(3)]
        for n, masks in cases:
            adv = family(n, sorted(masks, reverse=True))
            assert adv.membership == bytes(m in masks for m in range(1 << n)), (n, sorted(masks))

    def test_membership_is_derived_state(self, unfair_triple):
        # not a constructor argument, and not part of equality, hashing or the repr
        with pytest.raises(TypeError):
            Adversary(3, (), membership=b"")
        assert "membership" not in repr(unfair_triple)
        assert family(3, [0b111, 0b110, 0b001]) == unfair_triple

    def test_bit_planes_are_derived_state(self):
        # built on first use, and not part of equality, hashing or the repr
        adv = family(3, [0b111, 0b110, 0b001])
        twin = family(3, [0b001, 0b110, 0b111])
        before = repr(adv), hash(adv)
        assert "_lattice" not in vars(adv)
        assert setcon(adv) == 2 and not is_superset_closed(adv)
        assert adv._lattice == (0b11000010, ((0b01010101, 1), (0b00110011, 2), (0b00001111, 4)))
        assert (repr(adv), hash(adv)) == before and adv == twin and hash(twin) == before[1]
        assert "_lattice" not in repr(adv) and "_lattice" not in vars(twin)

    def test_level_planes_are_kept_beside_each_table(self):
        # G_j holds the regions whose entry is at least j: every mask at j = 0,
        # none past the largest entry; kept out of equality, hashing and the repr
        rng = random.Random("level-planes")
        cases = [(3, masks) for masks in all_families(3)]
        cases += [(n, frozenset(rng.sample(range(1, 1 << n), rng.randint(1, min(20, (1 << n) - 1))))) for n in (1, 2, 5, 8) for _ in range(4)]
        for n, masks in cases:
            adv = family(n, masks)
            for t in {0, 1, (1 << n) - 1, rng.randrange(1 << n)}:
                table = adv.region_table(t)
                for level in range(n + 2):
                    want = sum(1 << r for r in range(1 << n) if table[r] >= level)
                    assert adv.level_plane(t, level) == want, (n, sorted(masks), t, level)
        adv, twin = family(3, [0b111, 0b110, 0b001]), family(3, [0b001, 0b110, 0b111])
        assert adv.level_plane(0b111, 2) == twin.level_plane(0b111, 2) == 1 << 0b111
        assert adv == twin and hash(adv) == hash(twin) and "plane" not in repr(adv)

    def test_live_inside(self):
        rng = random.Random("live-inside")
        for n in (1, 3, 6):
            masks = frozenset(rng.sample(range(1, 1 << n), min(10, (1 << n) - 1)))
            adv = family(n, masks)
            for region in range(1 << n):
                assert adv.live_inside(region) == sum(1 << m for m in masks if m & ~region == 0), (n, region)

    def test_file_roundtrip(self, unfair_triple):
        obj = adversary_to_json_obj(unfair_triple)
        assert obj == {"n": 3, "live_sets": [[1], [1, 2, 3], [2, 3]]}
        assert adversary_from_json_obj(json.loads(json.dumps(obj))) == unfair_triple

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 3, "live_sets": [[1], []]},
            {"n": 3, "live_sets": [[2, 1]]},
            {"n": 3, "live_sets": [[1], [1]]},
            {"n": 3, "live_sets": [[2, 3], [1]]},
            {"n": 3},
            {"n": "3", "live_sets": []},
            {"n": 3, "live_sets": [[1, 4]]},
        ],
    )
    def test_bad_files_rejected(self, obj):
        with pytest.raises(ValueError):
            adversary_from_json_obj(obj)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"n": 3, "live_sets": [[1], []]}, "empty live sets are rejected"),
            ({"n": 3, "live_sets": [[2, 1]]}, "inner array [2, 1] is not strictly ascending"),
            ({"n": 3, "live_sets": [[1], [1]]}, "duplicate live sets are rejected"),
            ({"n": 3, "live_sets": [[2, 3], [1]]}, "outer array is not sorted lexicographically"),
            ({"n": 3}, 'adversary object must have exactly the fields "n" and "live_sets"'),
            ({"n": "3", "live_sets": []}, '"n" must be an integer'),
            ({"n": 3, "live_sets": [[1, 4]]}, "process id 4 outside 1..3"),
            ({"n": 3, "live_sets": [1]}, '"live_sets" must be an array of arrays'),
            # which rejection wins when a file has several faults, as before arrays were read in one pass
            ({"n": 3, "live_sets": [[3, 2, "1"]]}, "process ids must be integers"),
            ({"n": 3, "live_sets": [[2, 1], [1, True]]}, "inner array [2, 1] is not strictly ascending"),
            ({"n": 3, "live_sets": [[1, 4], [1, 4], [2, 1]]}, "inner array [2, 1] is not strictly ascending"),
            ({"n": 3, "live_sets": [[2, 4], [1], [1]]}, "outer array is not sorted lexicographically"),
            ({"n": 3, "live_sets": [[0], [0], [1]]}, "duplicate live sets are rejected"),
            ({"n": 3, "live_sets": [[1], [2, 5], [7]]}, "process id 5 outside 1..3"),
            ({"n": 20, "live_sets": [[1], [25]]}, "universe size must be in 1..16, got 20"),
            ({"n": 20, "live_sets": [[25], [26]]}, "process id 25 outside 1..20"),
            ({"n": 0, "live_sets": [[1]]}, "process id 1 outside 1..0"),
            ({"n": 17, "live_sets": []}, "universe size must be in 1..16, got 17"),
        ],
    )
    def test_rejection_messages(self, obj, message):
        with pytest.raises(ValueError) as info:
            adversary_from_json_obj(obj)
        assert str(info.value) == message


class TestRestriction:
    def test_filter_by_subset(self, unfair_triple):
        got = restrict(unfair_triple, ProcessSet.of(3, [1, 2]))
        assert got.live_sets == (0b001,)

    def test_full_region_is_identity(self, unfair_triple):
        assert restrict(unfair_triple, ProcessSet.full(3)) == unfair_triple

    def test_other_region(self, unfair_triple):
        got = restrict(unfair_triple, ProcessSet.of(3, [2, 3]))
        assert got.live_sets == (0b110,)

    def test_universe_mismatch(self, unfair_triple):
        with pytest.raises(ValueError):
            restrict(unfair_triple, ProcessSet.of(4, [1]))

    def test_intersecting_filter(self, unfair_triple):
        full = ProcessSet.full(3)
        got = restrict_intersecting(unfair_triple, full, ProcessSet.of(3, [2, 3]))
        assert got.live_sets == (0b110, 0b111)
        got = restrict_intersecting(unfair_triple, full, ProcessSet.of(3, [1]))
        assert got.live_sets == (0b001, 0b111)

    def test_intersecting_with_full_targets_is_restrict(self, unfair_triple):
        region = ProcessSet.of(3, [1, 2])
        assert restrict_intersecting(unfair_triple, region, region) == restrict(
            unfair_triple, region
        )

    def test_targets_outside_region_rejected(self, unfair_triple):
        with pytest.raises(ValueError):
            restrict_intersecting(unfair_triple, ProcessSet.of(3, [1, 2]), ProcessSet.of(3, [3]))


class TestSetcon:
    def test_empty_family(self):
        assert setcon(family(3, [])) == 0

    def test_pinned_examples(self, unfair_triple, fair_nonstructured):
        assert setcon(unfair_triple) == 2
        assert setcon(fair_nonstructured) == 2
        assert setcon(all_nonempty(3)) == 3

    def test_matches_brute_force_on_all_n3_families(self):
        for masks in all_families(3):
            assert setcon(family(3, masks)) == brute_setcon(masks), masks

    def test_monotone_under_family_containment_n3(self):
        fams = list(all_families(3))
        values = {m: setcon(family(3, m)) for m in fams}
        for masks in fams:
            base = values[masks]
            for extra in range(1, 8):
                if extra not in masks:
                    assert values.get(frozenset(masks | {extra}), None) >= base

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(1, 15), max_size=8))
    def test_monotone_under_family_containment_n4_sampled(self, masks):
        masks = frozenset(masks)
        base = setcon(family(4, masks))
        rng = random.Random(sum(masks))
        extras = [m for m in range(1, 16) if m not in masks]
        rng.shuffle(extras)
        for extra in extras[:3]:
            assert setcon(family(4, masks | {extra})) >= base

    def test_witness_replays_to_value_on_all_n3_families(self):
        for masks in all_families(3):
            adv = family(3, masks)
            w = setcon_witness(adv)
            assert w.value == setcon(adv)
            assert len(w.chain) == w.value
            assert replay_witness(adv, w) == w.value

    def test_witness_matches_brute_chain_on_all_n3_families(self):
        for masks in all_families(3):
            chain = [(s.bits, a) for s, a in setcon_witness(family(3, masks)).chain]
            assert chain == brute_witness(masks), masks

    @pytest.mark.parametrize("n", [4, 5])
    def test_witness_matches_brute_chain_on_seeded_families(self, n):
        rng = random.Random(f"witness:{n}")
        for _ in range(40):
            density = rng.uniform(0.1, 0.7)
            masks = frozenset(m for m in range(1, 1 << n) if rng.random() < density)
            chain = [(s.bits, a) for s, a in setcon_witness(family(n, masks)).chain]
            assert chain == brute_witness(masks), sorted(masks)

    def test_fast_paths_match_slow_scans_on_all_n3_families(self):
        for masks in all_families(3):
            assert_matches_slow_scans(family(3, masks), touching=range(1, 7))

    @pytest.mark.parametrize("n", range(4, 11))
    def test_fast_paths_match_slow_scans_on_seeded_families(self, n):
        rng = random.Random(f"slow-scans:{n}")
        for density in (0.25, 0.6):
            for _ in range(2):
                masks = frozenset(m for m in range(1, 1 << n) if rng.random() < density)
                touching = [rng.randrange(1, 1 << n) for _ in range(3)]
                assert_matches_slow_scans(family(n, masks), touching)
                assert_matches_slow_scans(family(n, upward_closure(masks, n)), touching)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_fast_paths_match_slow_scans_on_structured_families(self, n):
        touching = [1, 1 << n - 1, (1 << n // 2) - 1]
        cases = [all_nonempty(n), cyclic_edge_closure(n), sizes_adversary(n, [1, n]), sizes_adversary(n, [2, n - 1])]
        cases += [t_resilient_adversary(n, t) for t in {1, n // 2, n - 2}]
        for adv in cases:
            assert_matches_slow_scans(adv, touching)

    def test_tables_of_every_touching_mask_match_the_full_recursion(self):
        # n = 1 and 2 have patterns shorter than a byte; every touching mask,
        # the empty one included, on every family at n <= 3 and seeded ones at n = 4
        rng = random.Random("touching-masks")
        cases = [(n, masks) for n in (1, 2, 3) for masks in all_families(n)]
        cases += [(4, frozenset(m for m in range(1, 16) if rng.random() < density)) for density in (0.2, 0.5, 0.8) for _ in range(30)]
        for n, masks in cases:
            adv = family(n, masks)
            for t in range(1 << n):
                assert adv.region_table(t) == slow_region_powers(n, [m for m in masks if m & t]), (n, sorted(masks), t)

    def test_witness_is_deterministic(self, unfair_triple):
        w1 = setcon_witness(unfair_triple)
        w2 = setcon_witness(unfair_triple)
        assert w1 == w2
        assert w1.chain[0][0].members() == (1, 2, 3)
        assert w1.chain[0][1] == 1

    def test_bad_witness_rejected(self, unfair_triple):
        w = setcon_witness(unfair_triple)
        broken = type(w)(w.value, w.chain[:-1])
        with pytest.raises(ValueError):
            replay_witness(unfair_triple, broken)

    @pytest.mark.parametrize(
        "value, second, message",
        [
            # {1} is live, but not inside {2,3}, the region the first link leaves
            (2, ([1], 1), "witness live set ProcessSet(3, {1}) is not in the restricted family"),
            (2, ([2, 3], 1), "witness process 1 is not in live set ProcessSet(3, {2,3})"),
            (3, ([2, 3], 2), "witness value does not match its chain length"),
        ],
        ids=["set-outside-region", "process-outside-set", "value-mismatch"],
    )
    def test_each_bad_link_is_named(self, unfair_triple, value, second, message):
        w = setcon_witness(unfair_triple)
        assert [(s.members(), a) for s, a in w.chain] == [((1, 2, 3), 1), ((2, 3), 2)]
        members, a = second
        broken = type(w)(value, (w.chain[0], (ProcessSet.of(3, members), a)))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replay_witness(unfair_triple, broken)

    def test_link_over_another_universe_is_named(self, unfair_triple):
        # the same mask over four processes is not a live set of a 3-process family
        w = setcon_witness(unfair_triple)
        broken = type(w)(w.value, ((ProcessSet(4, 0b111), 1), *w.chain[1:]))
        message = "witness live set ProcessSet(4, {1,2,3}) is not in the restricted family"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replay_witness(unfair_triple, broken)


class TestCsize:
    def test_single_set(self):
        assert csize(family(3, [0b111])) == 1

    def test_pinned(self, one_resilient_3):
        assert csize(one_resilient_3) == 2
        assert csize(t_resilient_adversary(16, 8)) == 9
        assert csize(all_nonempty(16)) == 16
        # {{1}, {2, 3}} is not superset-closed: only the oracle gives its value
        assert brute_min_hitting(frozenset({0b001, 0b110}), 3) == 2
        assert csize(Adversary.of(3, [[1], [2, 3]])) is None

    def test_empty_rejected(self):
        assert csize(family(3, [])) is None

    def test_matches_brute_on_all_n3_families(self):
        # superset-closed families match the oracle; every other one gets None
        closed = 0
        for masks in all_families(3):
            if not masks:
                continue
            adv = family(3, masks)
            if is_superset_closed(adv):
                assert csize(adv) == brute_min_hitting(masks, 3), masks
                closed += 1
            else:
                assert csize(adv) is None, masks
        assert closed == 18  # D(3) = 20 upsets, less the empty family and the one holding {}

    def test_matches_brute_on_seeded_closures(self):
        rng = random.Random("csize-closures")
        for _ in range(60):
            n = rng.randint(4, 7)
            masks = upward_closure(frozenset(rng.sample(range(1, 1 << n), rng.randint(1, 4))), n)
            assert csize(family(n, masks)) == brute_min_hitting(masks, n), (n, sorted(masks))


class TestClassification:
    def test_superset_closed(self, one_resilient_3, unfair_triple):
        assert is_superset_closed(one_resilient_3)
        assert not is_superset_closed(unfair_triple)
        assert is_superset_closed(family(3, []))

    def test_superset_closed_matches_the_superset_walk(self):
        # single-process extensions against every superset: all 3-process
        # families, then seeded random families with n = 4..7 and their
        # upward closures (which are all superset-closed)
        for masks in all_families(3):
            assert is_superset_closed(family(3, masks)) == brute_superset_closed(masks, 3)
        rng = random.Random("superset-closed")
        closed = 0
        for _ in range(200):
            n = rng.randint(4, 7)
            masks = frozenset(rng.sample(range(1, 1 << n), rng.randint(1, 12)))
            for fam in (masks, upward_closure(masks, n), upward_closure(masks, n) - {max(masks)}):
                got = is_superset_closed(family(n, fam))
                assert got == brute_superset_closed(fam, n), (n, sorted(fam))
                closed += got
        assert closed >= 200

    def test_superset_closed_matches_the_extension_scan(self):
        # all 3-process families, seeded random families for n = 1..9 with
        # their upward closures and those closures less one set
        for masks in all_families(3):
            assert is_superset_closed(family(3, masks)) == slow_is_superset_closed(3, masks)
        rng = random.Random("superset-closed-planes")
        outcomes = set()
        for n in range(1, 10):
            for _ in range(12):
                masks = frozenset(rng.sample(range(1, 1 << n), rng.randint(1, min(12, (1 << n) - 1))))
                closed = upward_closure(masks, n)
                for fam in (masks, closed, closed - {rng.choice(sorted(closed))}):
                    got = is_superset_closed(family(n, fam))
                    assert got == slow_is_superset_closed(n, fam), (n, sorted(fam))
                    outcomes.add(got)
        assert outcomes == {True, False}

    def test_superset_closed_on_structured_families_at_n16(self):
        cycle = cyclic_edge_closure(16)
        cases = [all_nonempty(16), t_resilient_adversary(16, 8), cycle, sizes_adversary(16, [1, 16])]
        cases += [Adversary.of(16, [[1], [2, 3]]), Adversary.of(16, [range(1, 17)])]
        cases.append(family(16, [m for m in cycle.live_sets if m != (1 << 16) - 1]))
        verdicts = []
        for adv in cases:
            got = is_superset_closed(adv)
            assert got == slow_is_superset_closed(16, adv.live_sets), adv.live_sets[:3]
            verdicts.append(got)
        assert verdicts == [True, True, True, False, False, True, False]

    def test_symmetric(self, unfair_triple, fair_nonstructured):
        assert is_symmetric(sizes_adversary(3, [1, 2]))
        assert not is_symmetric(unfair_triple)
        assert not is_symmetric(fair_nonstructured)

    def test_symmetric_setcon(self):
        assert symmetric_setcon(sizes_adversary(3, [1, 2])) == 2
        assert symmetric_setcon(all_nonempty(4)) == 4
        assert symmetric_setcon(sizes_adversary(3, [3])) == 1
        assert symmetric_setcon(Adversary.of(3, [[1]])) is None
        assert symmetric_setcon(family(3, [])) == 0 and is_symmetric(family(3, []))

    def test_symmetric_formula_matches_oracle(self):
        for n in (3, 4):
            for r in range(n + 1):
                for sizes in itertools.combinations(range(1, n + 1), r):
                    adv = sizes_adversary(n, sizes)
                    masks = frozenset(adv.live_sets)
                    if masks:
                        assert symmetric_setcon(adv) == distinct_sizes(masks) == len(sizes)


class TestClosedFormsByPlanes:
    """The witness, csize and symmetric_setcon, each a few plane operations,
    against the slow witness scan, the brute-force hitting set and the
    distinct sizes."""

    @staticmethod
    def symmetric(n, masks):
        sizes = {bin(m).count("1") for m in masks}
        return len(masks) == sum(math.comb(n, k) for k in sizes)

    def assert_matches_oracles(self, n, masks, hitting=brute_min_hitting):
        adv = family(n, masks)
        assert [(s.bits, a) for s, a in setcon_witness(adv).chain] == slow_setcon_witness(n, masks), (n, sorted(masks))
        closed = bool(masks) and slow_is_superset_closed(n, masks)
        assert csize(adv) == (hitting(masks, n) if closed else None), (n, sorted(masks))
        assert symmetric_setcon(adv) == (distinct_sizes(masks) if self.symmetric(n, masks) else None), (n, sorted(masks))
        return closed, self.symmetric(n, masks)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_seeded_families(self, n):
        rng = random.Random(f"closed-forms:{n}")
        seen = set()
        for _ in range(6):
            masks = frozenset(m for m in range(1, 1 << n) if rng.random() < rng.uniform(0.1, 0.7))
            sparse = frozenset(rng.sample(range(1, 1 << n), rng.randint(1, 4)))
            closure = upward_closure(sparse, n)
            sizes = rng.sample(range(1, n + 1), rng.randint(1, n))
            sym = frozenset(m for m in range(1, 1 << n) if bin(m).count("1") in sizes)
            # one set less breaks the symmetry, and the closure of one set less breaks nothing
            cases = [masks, closure, closure - {max(sparse)}, sym, sym - {max(sym)}]
            for fam in cases:
                seen.add(self.assert_matches_oracles(n, fam))
        assert seen >= {(True, False), (False, True), (False, False)}, seen

    def test_structured_families_at_n16(self):
        cycle = cyclic_edge_closure(16)
        cases = [(all_nonempty(16), 16, 16), (t_resilient_adversary(16, 8), 9, 9), (cycle, 8, None)]
        for adv, hitting, sizes in cases:
            masks = frozenset(adv.live_sets)
            assert self.assert_matches_oracles(16, masks, slow_csize) == (True, sizes is not None)
            assert (csize(adv), symmetric_setcon(adv)) == (hitting, sizes)

    def test_random_upsets_at_n16(self):
        # criterion 03 checks setcon == csize up to n = 4, and criterion 02
        # fairness up to n = 5: Up of a seeded sparse family at n = 16
        rng = random.Random("upsets16")
        for _ in range(4):
            sparse = [sum(1 << i for i in rng.sample(range(16), rng.randint(3, 6))) for _ in range(rng.randint(2, 5))]
            adv = family(16, upward_closure(frozenset(sparse), 16))
            assert is_superset_closed(adv)
            assert setcon(adv) == csize(adv), sorted(sparse)
            assert is_fair(adv), sorted(sparse)


class TestFairness:
    def test_unfair_triple_with_pinned_witness(self, unfair_triple):
        assert not is_fair(unfair_triple)
        witness = fairness_counterexample(unfair_triple)
        assert witness is not None
        region, targets = witness
        assert region.members() == (1, 2)
        assert targets.members() == (2,)
        base = setcon(restrict(unfair_triple, region))
        got = setcon(restrict_intersecting(unfair_triple, region, targets))
        assert (base, got) == (1, 0)

    def test_fair_families(self, fair_nonstructured, one_resilient_3):
        assert is_fair(fair_nonstructured)
        assert fairness_counterexample(fair_nonstructured) is None
        assert is_fair(one_resilient_3)
        assert is_fair(family(3, []))

    def test_matches_brute_fair_on_all_n3_families(self):
        for masks in all_families(3):
            assert is_fair(family(3, masks)) == brute_fair(masks, 3), masks

    def test_same_pair_as_per_q_scan(self):
        # The same (P, Q), not only the same verdict: the pair is a golden output.
        cases = [family(3, masks) for masks in all_families(3)]
        rng = random.Random("fairness-pairs")
        for n in range(4, 8):
            for density in (0.25, 0.6):
                for _ in range(30):
                    masks = frozenset(m for m in range(1, 1 << n) if rng.random() < density)
                    cases += [family(n, masks), family(n, upward_closure(masks, n))]
        for n in range(1, 9):
            cases += [t_resilient_adversary(n, t) for t in range(n)]  # t = n - 1 is wait-free
        for n in (4, 5):
            cases += [sizes_adversary(n, sizes) for sizes in ([1], [2, n], [1, n - 1], [n])]
        for adv in cases:
            assert fairness_counterexample(adv) == slow_fairness_counterexample(adv), adv

    def test_same_pair_on_blocky_families(self):
        # Unions of orbits under a random partition of the processes: many
        # processes share a role, so ties between violating pairs are common.
        rng = random.Random("blocky")
        unfair = 0
        for _ in range(400):
            adv = blocky_family(rng, rng.randint(3, 8))
            pair = slow_fairness_counterexample(adv)
            assert fairness_counterexample(adv) == pair, adv
            unfair += pair is not None
        assert 150 <= unfair <= 250, unfair

    def test_structured_families_at_n16(self):
        assert is_fair(all_nonempty(16))
        assert is_fair(t_resilient_adversary(16, 8))
        assert is_fair(Adversary.of(16, [range(1, 17)]))
        # superset-closed, and no swap of two processes maps it onto itself
        assert is_fair(cyclic_edge_closure(16))
        # {1..15} is the first region past the live {1..14}; only removing 15 keeps its power
        sparse = Adversary.of(16, [range(1, 15)])
        assert fairness_counterexample(sparse) == (ProcessSet.of(16, range(1, 16)), ProcessSet.of(16, [15]))
        assert not is_fair(Adversary.of(16, [[1], range(2, 17)]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_region_table_lemma_and_tight_witness(self, n, data):
        # The criterion rests on s(R - i) in {s(R) - 1, s(R)}; that gives monotonicity too.
        masks = data.draw(st.sets(st.integers(1, (1 << n) - 1), max_size=40))
        adv = family(n, masks)
        power = adv.region_table((1 << n) - 1)
        for region in range(1, 1 << n):
            for i in range(n):
                if region >> i & 1:
                    assert power[region] - power[region & ~(1 << i)] in (0, 1), (sorted(masks), region, i)
        pair = fairness_counterexample(adv)
        if pair is not None:
            region, targets = pair
            assert targets.issubset(region) and len(targets) == power[region.bits]
            assert adv.region_table(targets.bits)[region.bits] == power[region.bits] - 1

    def test_power_bound_property_all_n3(self):
        # The intersecting restriction never beats min(|targets|, restricted power).
        for masks in all_families(3):
            adv = family(3, masks)
            for p_bits in range(1, 8):
                region = ProcessSet(3, p_bits)
                base = setcon(restrict(adv, region))
                q_bits = p_bits
                while q_bits:
                    targets = ProcessSet(3, q_bits)
                    got = setcon(restrict_intersecting(adv, region, targets))
                    assert got <= min(len(targets), base)
                    q_bits = (q_bits - 1) & p_bits


class TestAgreementFunctionDerivation:
    def test_pinned_table(self, unfair_triple):
        fn = agreement_function(unfair_triple)
        # masks 0..7: {}, {1}, {2}, {1,2}, {3}, {1,3}, {2,3}, {1,2,3}
        assert fn.table == bytes([0, 1, 0, 1, 0, 1, 1, 2])

    def test_empty_adversary_all_zero(self):
        fn = agreement_function(family(3, []))
        assert set(fn.table) == {0}

    def test_wait_free_adversary_gives_cardinality(self):
        fn = agreement_function(all_nonempty(3))
        assert fn.table == bytes(b.bit_count() for b in range(8))

    def test_t_resilient_adversary_matches_formula(self):
        from advlab import AgreementFunction

        fn = agreement_function(t_resilient_adversary(3, 1))
        assert fn.table == AgreementFunction.t_resilient(3, 1).table

    def test_wait_free_table_at_n16(self):
        from advlab import AgreementFunction

        assert agreement_function(all_nonempty(16)) == AgreementFunction.wait_free(16)

    def test_t_resilient_tables_at_n12(self):
        from advlab import AgreementFunction

        for t in range(12):
            assert agreement_function(t_resilient_adversary(12, t)) == AgreementFunction.t_resilient(12, t), t

    def test_monotonic_on_all_n3_families(self):
        for masks in all_families(3):
            assert agreement_function(family(3, masks)).is_monotonic()
