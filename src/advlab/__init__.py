"""Adversarial shared-memory models at desk scale.

Live-set adversary algebra (restriction, set-consensus power, hitting
sets, fairness), agreement functions, a deterministic atomic-snapshot run
simulator with executable agreement protocols, the live-set selection
layer of the adversarial simulation, and post-hoc trace checkers.
"""

from .adversary import (
    Adversary,
    SetconWitness,
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
from .alpha import AgreementFunction, Comparison, admits_trace, compare_pointwise
from .processes import MAX_UNIVERSE, ProcessSet

__version__ = "0.1.0"

__all__ = [
    "Adversary",
    "AgreementFunction",
    "Comparison",
    "MAX_UNIVERSE",
    "ProcessSet",
    "SetconWitness",
    "admits_trace",
    "adversary_from_json_obj",
    "adversary_to_json_obj",
    "agreement_function",
    "all_nonempty",
    "compare_pointwise",
    "csize",
    "fairness_counterexample",
    "is_fair",
    "is_superset_closed",
    "is_symmetric",
    "replay_witness",
    "restrict",
    "setcon",
    "setcon_witness",
    "sizes_adversary",
    "symmetric_setcon",
    "t_resilient_adversary",
]
