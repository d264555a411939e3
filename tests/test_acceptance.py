"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance and time bound is pinned here; protocol campaigns run on
the CLI's engine (`advlab.cli.run_campaign`) and the independent oracles
live in oracles.py.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager


from advlab import (
    Adversary,
    AgreementFunction,
    agreement_function,
    csize,
    fairness_counterexample,
    is_fair,
    is_superset_closed,
    is_symmetric,
    restrict,
    setcon,
    symmetric_setcon,
    t_resilient_adversary,
)
from advlab.adversary import restrict_intersecting
from advlab.bgg import GATE_ADAPTIVE, run_bgg_selection, selection_report
from advlab.cli import main as cli_main, run_campaign
from advlab.protocols import (
    AdaptiveSetConsensus,
    EmbeddedAgreement,
    RoundRobinSetConsensus,
    SafeAgreement,
    default_inputs,
)
from advlab.sim import enumerate_schedules, generate_admissible_schedule

from oracles import (
    all_families,
    brute_setcon,
    slow_fairness_counterexample,
    superset_closed_families,
    symmetric_families,
)

UNFAIR_TRIPLE = Adversary.of(3, [[1], [2, 3], [1, 2, 3]])
FAIR_NONSTRUCTURED = Adversary.of(3, [[1], [2], [3], [1, 3], [2, 3], [1, 2, 3]])
ONE_RESILIENT_3 = t_resilient_adversary(3, 1)


def adaptive(fn: AgreementFunction):
    """A fresh-protocol factory for adaptive set consensus under fn."""
    return lambda: AdaptiveSetConsensus(fn.n, default_inputs(fn.n), EmbeddedAgreement(fn))


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    start = time.time()
    outcome = {"pass": False}
    try:
        yield outcome
        outcome["pass"] = True
    finally:
        elapsed = time.time() - start
        tag = "PASS" if outcome["pass"] else "FAIL"
        print(f"ACCEPTANCE {number:02d} {name}: {tag} ({elapsed:.2f}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s ({elapsed:.2f}s)"


def run_cli_json(tmp_path, *argv) -> dict:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main([*argv, "--format", "json"])
    assert code == 0, buf.getvalue()
    return json.loads(buf.getvalue())


def test_criterion_01_counterexample_reproduction(tmp_path):
    with criterion(1, "counterexample-reproduction", 1.0):
        path = tmp_path / "unfair.json"
        path.write_text(json.dumps({"n": 3, "live_sets": [[1], [1, 2, 3], [2, 3]]}))
        report = run_cli_json(tmp_path, "setcon", "--adversary", str(path))
        assert report["setcon"] == 2
        classify = run_cli_json(tmp_path, "classify", "--adversary", str(path))
        assert classify["fair"] is False
        assert classify["counterexample"]["P"] == [1, 2]
        assert classify["counterexample"]["Q"] == [2]
        assert classify["counterexample"]["setcon_PQ"] == 0
        assert classify["counterexample"]["bound"] == 1
        table = run_cli_json(tmp_path, "alpha", "--adversary", str(path))
        # masks: {}, {1}, {2}, {1,2}, {3}, {1,3}, {2,3}, {1,2,3}
        assert table["table"] == [0, 1, 0, 1, 0, 1, 1, 2]


def test_criterion_02_structured_families_are_fair():
    with criterion(2, "structured-families-are-fair", 300.0):
        for masks in all_families(3):
            adv = Adversary(3, tuple(masks))
            if is_superset_closed(adv) or is_symmetric(adv):
                assert is_fair(adv), masks
        for masks in superset_closed_families(4):
            adv = Adversary(4, tuple(masks))
            assert is_superset_closed(adv)
            assert is_fair(adv), masks
        for masks in symmetric_families(4):
            adv = Adversary(4, tuple(masks))
            assert is_symmetric(adv)
            assert is_fair(adv), masks
        # An upset of 2^[5] is U0 | {S + 5 : S in U1} for upsets U0 subseteq U1 of
        # 2^[4]; the upsets of 2^[4] are the closed families plus the whole power set.
        upsets4 = [*superset_closed_families(4), frozenset(range(16))]
        assert len(upsets4) == 168  # D(4)
        pairs = [(low, high) for low in upsets4 for high in upsets4 if low <= high]
        assert len(pairs) == 7581  # D(5)
        families5 = {low | {s | 0b10000 for s in high} for low, high in pairs if high and 0 not in low}
        assert len(families5) == 7579  # without the empty family and the one holding the empty set
        for masks in families5:
            adv = Adversary(5, tuple(masks))
            assert is_superset_closed(adv)
            assert is_fair(adv), sorted(masks)


def test_criterion_03_setcon_oracle_equivalence():
    with criterion(3, "setcon-oracle-equivalence", 300.0):
        for masks in all_families(3):
            adv = Adversary(3, tuple(masks))
            assert setcon(adv) == brute_setcon(masks), masks
        for n in (3, 4):
            for masks in superset_closed_families(n):
                if not masks:
                    continue
                adv = Adversary(n, tuple(masks))
                assert setcon(adv) == csize(adv), (n, masks)
            for masks in symmetric_families(n):
                if not masks:
                    continue
                adv = Adversary(n, tuple(masks))
                assert setcon(adv) == symmetric_setcon(adv), (n, masks)


def test_criterion_04_power_bound_sweep():
    with criterion(4, "power-bound-sweep", 300.0):
        for masks in all_families(3):
            adv = Adversary(3, tuple(masks))
            for region in range(1, 8):
                base = setcon(restrict(adv, region))
                targets = region
                while targets:
                    got = setcon(restrict_intersecting(adv, region, targets))
                    assert got <= min(targets.bit_count(), base), (masks, region, targets)
                    targets = (targets - 1) & region
        rng = random.Random(20240801)
        for _ in range(10_000):
            fam = frozenset(m for m in range(1, 16) if rng.random() < 0.35)
            adv = Adversary(4, tuple(fam))
            region = rng.randrange(1, 16)
            targets = rng.choice([q for q in range(1, region + 1) if q & ~region == 0])
            got = setcon(restrict_intersecting(adv, region, targets))
            assert got <= min(targets.bit_count(), setcon(restrict(adv, region)))


def test_criterion_05_fair_nonstructured_example():
    with criterion(5, "fair-nonstructured-example", 60.0):
        assert is_fair(FAIR_NONSTRUCTURED)
        assert not is_symmetric(FAIR_NONSTRUCTURED)
        assert not is_superset_closed(FAIR_NONSTRUCTURED)
        assert setcon(FAIR_NONSTRUCTURED) == 2


def test_criterion_06_safe_agreement_exhaustive():
    with criterion(6, "safe-agreement-exhaustive", 120.0):
        def safe_agreement():
            return SafeAgreement(2, default_inputs(2))

        for sp in (1, 2, 3, 4, 5, 6):
            schedules = enumerate(enumerate_schedules(2, sp, 1))
            failures = run_campaign(safe_agreement, schedules, None, max_tail=40).failures
            assert failures == [], failures[:3]


def test_criterion_07_adaptive_campaign():
    with criterion(7, "adaptive-campaign", 600.0):
        configs = [
            agreement_function(UNFAIR_TRIPLE),
            agreement_function(FAIR_NONSTRUCTURED),
            agreement_function(ONE_RESILIENT_3),
            AgreementFunction.wait_free(3),
            AgreementFunction.t_resilient(3, 1),
        ]
        for fn in configs:
            schedules = ((seed, generate_admissible_schedule(fn, seed, 72)) for seed in range(10_000))
            failures = run_campaign(adaptive(fn), schedules, fn, max_tail=400).failures
            assert failures == [], (fn.table, failures[:3])
        for fn in (AgreementFunction.wait_free(2), AgreementFunction.t_resilient(2, 0)):
            for sp in (4, 6):
                schedules = enumerate(enumerate_schedules(2, sp, 1))
                failures = run_campaign(adaptive(fn), schedules, fn, max_tail=120).failures
                assert failures == [], (fn.table, failures[:3])
        for fn in configs:
            # every 3-process interleaving at 3 steps per process, one halt allowed
            schedules = enumerate(enumerate_schedules(3, 3, 1))
            result = run_campaign(adaptive(fn), schedules, fn, max_tail=120)
            assert result.runs == 3840
            assert result.failures == [], (fn.table, result.failures[:3])


def test_criterion_08_round_robin_construction():
    with criterion(8, "round-robin-construction", 600.0):
        fn = AgreementFunction.k_concurrent(3, 2)
        assert fn.table[0b111] == 2

        def round_robin():
            return RoundRobinSetConsensus(3, default_inputs(3), fn)

        for sp in (2, 3, 4):
            schedules = enumerate(enumerate_schedules(3, sp, 1))
            failures = run_campaign(round_robin, schedules, fn, max_tail=80).failures
            assert failures == [], failures[:3]
        schedules = ((seed, generate_admissible_schedule(fn, seed, 60)) for seed in range(2000))
        failures = run_campaign(round_robin, schedules, fn, max_tail=120).failures
        assert failures == [], failures[:3]


def test_criterion_09_selection_property_suite():
    with criterion(9, "selection-property-suite", 600.0):
        budget = 400 * 3
        for masks in all_families(3):
            adv = Adversary(3, tuple(masks))
            if not is_fair(adv):
                continue
            fn = agreement_function(adv)
            sims = fn.table[7]
            if sims == 0:
                continue
            for rsize in range(sims + 1):
                for halted in itertools.combinations(range(1, sims + 1), rsize):
                    pattern = {s: budget // 6 + 3 * s for s in halted}
                    history = run_bgg_selection(adv, pattern=pattern, budget=budget, gate_mode=GATE_ADAPTIVE)
                    # the report reads its final quarter as a slice of the round-ordered records
                    rounds = [r["round"] for r in history.records]
                    assert all(a < b for a, b in zip(rounds, rounds[1:])), (masks, pattern)
                    for verdict in selection_report(history):
                        assert verdict.passed, (masks, pattern, verdict)


def test_criterion_10_derived_functions_monotonic():
    with criterion(10, "derived-functions-monotonic", 60.0):
        for masks in all_families(3):
            adv = Adversary(3, tuple(masks))
            assert agreement_function(adv).is_monotonic(), masks


def test_criterion_11_fairness_census_n4():
    with criterion(11, "fairness-census-n4", 60.0):
        fair = 0
        for masks in all_families(4):
            if not masks:
                continue
            adv = Adversary(4, tuple(masks))
            pair = fairness_counterexample(adv)
            assert pair == slow_fairness_counterexample(adv), sorted(masks)
            fair += pair is None
        assert fair == 2205, fair
