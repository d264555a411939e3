import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from advlab import Adversary, AgreementFunction
from advlab.protocols import (
    AdaptiveSetConsensus,
    Cons23,
    EmbeddedAgreement,
    RoundRobinSetConsensus,
    SafeAgreement,
    default_inputs,
)
from advlab.sim import enumerate_schedules, generate_admissible_schedule, run_to_quiescence
from oracles import EchoProtocol, OracleAgreement


@pytest.fixture
def unfair_triple() -> Adversary:
    """The pinned 3-process family {{1},{2,3},{1,2,3}}: power 2, not fair."""
    return Adversary.of(3, [[1], [2, 3], [1, 2, 3]])


@pytest.fixture
def fair_nonstructured() -> Adversary:
    """All non-empty subsets of {1,2,3} except {1,2}: fair, yet neither
    symmetric nor superset-closed."""
    return Adversary.of(3, [[1], [2], [3], [1, 3], [2, 3], [1, 2, 3]])


@pytest.fixture
def one_resilient_3() -> Adversary:
    """Live sets of size >= 2 over three processes."""
    return Adversary.of(3, [[1, 2], [1, 3], [2, 3], [1, 2, 3]])


GOLDEN_FN = AgreementFunction.t_resilient(3, 1)
GOLDEN_INPUTS = default_inputs(3)
GOLDEN_PROTOCOLS = {
    "echo": lambda: EchoProtocol(3, GOLDEN_INPUTS),
    "safe-agreement": lambda: SafeAgreement(3, GOLDEN_INPUTS),
    "alpha-setcons": lambda: RoundRobinSetConsensus(3, GOLDEN_INPUTS, GOLDEN_FN),
    "adaptive": lambda: AdaptiveSetConsensus(3, GOLDEN_INPUTS, EmbeddedAgreement(GOLDEN_FN)),
    "adaptive-oracle": lambda: AdaptiveSetConsensus(3, GOLDEN_INPUTS, OracleAgreement(GOLDEN_FN)),
    "cons23": lambda: Cons23(3, GOLDEN_INPUTS),
}


@pytest.fixture(scope="session")
def golden_traces():
    """Every protocol and adaptive subroutine on every 3-process schedule with
    2 steps per process and at most 1 halt, plus 12 seeded schedules admitted
    by the 1-resilient agreement function; tail 60."""
    schedules = list(enumerate_schedules(3, 2, 1))
    schedules += [generate_admissible_schedule(GOLDEN_FN, seed, 24) for seed in range(12)]
    return [
        run_to_quiescence(make(), schedule, max_tail=60)
        for make in GOLDEN_PROTOCOLS.values()
        for schedule in schedules
    ]
