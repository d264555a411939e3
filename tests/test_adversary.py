"""Adversary algebra: restriction, power, hitting sets, classification."""

import itertools
import json
import random

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
    distinct_sizes,
    slow_fairness_counterexample,
    upward_closure,
)


def family(n, masks):
    return Adversary(n, tuple(ProcessSet(n, m) for m in masks))


def cyclic_edge_closure(n):
    """Every set holding two cyclically adjacent processes i and i + 1 mod n."""
    edges = [1 << i | 1 << (i + 1) % n for i in range(n)]
    return family(n, [m for m in range(1, 1 << n) if any(m & e == e for e in edges)])


def blocky_family(rng, n):
    """A union of orbits under a random partition: each block's processes are twins."""
    blocks = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    orbits = {}
    for m in range(1, 1 << n):
        counts = tuple(sum(1 for i in range(n) if m >> i & 1 and blocks[i] == b) for b in range(n))
        orbits.setdefault(counts, []).append(m)
    return family(n, [m for orbit in orbits.values() if rng.random() < 0.85 for m in orbit])


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
        assert [s.members() for s in a.live_sets] == [(1,), (2, 3)]
        with pytest.raises(ValueError):
            Adversary.of(3, [[1], [1]])
        with pytest.raises(ValueError):
            Adversary.of(3, [[]])
        with pytest.raises(ValueError):
            Adversary.of(3, [[4]])

    def test_region_tables_are_per_instance(self, unfair_triple):
        table = unfair_triple.region_table(0b110)
        assert unfair_triple.region_table(0b110) is table
        twin = family(3, [0b001, 0b110, 0b111])
        assert twin == unfair_triple and hash(twin) == hash(unfair_triple)
        assert twin.region_table(0b110) == table and twin.region_table(0b110) is not table
        with pytest.raises(ValueError):
            unfair_triple.region_table(0b1000)

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
        assert [s.members() for s in got.live_sets] == [(1,)]

    def test_full_region_is_identity(self, unfair_triple):
        assert restrict(unfair_triple, ProcessSet.full(3)) == unfair_triple

    def test_other_region(self, unfair_triple):
        got = restrict(unfair_triple, ProcessSet.of(3, [2, 3]))
        assert [s.members() for s in got.live_sets] == [(2, 3)]

    def test_universe_mismatch(self, unfair_triple):
        with pytest.raises(ValueError):
            restrict(unfair_triple, ProcessSet.of(4, [1]))

    def test_intersecting_filter(self, unfair_triple):
        full = ProcessSet.full(3)
        got = restrict_intersecting(unfair_triple, full, ProcessSet.of(3, [2, 3]))
        assert [s.members() for s in got.live_sets] == [(2, 3), (1, 2, 3)]
        got = restrict_intersecting(unfair_triple, full, ProcessSet.of(3, [1]))
        assert [s.members() for s in got.live_sets] == [(1,), (1, 2, 3)]

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


class TestCsize:
    def test_single_set(self):
        assert csize(family(3, [0b111])) == 1

    def test_pinned(self, one_resilient_3):
        assert csize(one_resilient_3) == 2
        assert csize(t_resilient_adversary(16, 8)) == 9
        assert csize(all_nonempty(16)) == 16
        # {{1}, {2, 3}} is not superset-closed: only the oracle gives its value
        assert brute_min_hitting(frozenset({0b001, 0b110}), 3) == 2
        with pytest.raises(ValueError, match="superset-closed"):
            csize(Adversary.of(3, [[1], [2, 3]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            csize(family(3, []))

    def test_matches_brute_on_all_n3_families(self):
        # superset-closed families match the oracle; every other one is rejected
        closed = 0
        for masks in all_families(3):
            if not masks:
                continue
            adv = family(3, masks)
            if is_superset_closed(adv):
                assert csize(adv) == brute_min_hitting(masks, 3), masks
                closed += 1
            else:
                with pytest.raises(ValueError, match="superset-closed"):
                    csize(adv)
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

    def test_symmetric(self, unfair_triple, fair_nonstructured):
        assert is_symmetric(sizes_adversary(3, [1, 2]))
        assert not is_symmetric(unfair_triple)
        assert not is_symmetric(fair_nonstructured)

    def test_symmetric_setcon(self):
        assert symmetric_setcon(sizes_adversary(3, [1, 2])) == 2
        assert symmetric_setcon(all_nonempty(4)) == 4
        assert symmetric_setcon(sizes_adversary(3, [3])) == 1
        with pytest.raises(ValueError):
            symmetric_setcon(Adversary.of(3, [[1]]))

    def test_symmetric_formula_matches_oracle(self):
        for n in (3, 4):
            for r in range(n + 1):
                for sizes in itertools.combinations(range(1, n + 1), r):
                    adv = sizes_adversary(n, sizes)
                    masks = frozenset(s.bits for s in adv.live_sets)
                    if masks:
                        assert symmetric_setcon(adv) == distinct_sizes(masks) == len(sizes)


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
        values = {tuple(ProcessSet(3, b).members()): fn.of_bits(b) for b in range(8)}
        assert values[(2,)] == 0 and values[(3,)] == 0
        assert values[(1, 2, 3)] == 2
        for key in [(1,), (1, 2), (1, 3), (2, 3)]:
            assert values[key] == 1
        assert values[()] == 0

    def test_empty_adversary_all_zero(self):
        fn = agreement_function(family(3, []))
        assert set(fn.table) == {0}

    def test_wait_free_adversary_gives_cardinality(self):
        fn = agreement_function(all_nonempty(3))
        assert fn.table == tuple(b.bit_count() for b in range(8))

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
