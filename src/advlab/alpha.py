"""Agreement functions: per-subset set-consensus levels and the runs they admit.

An agreement function assigns every subset P of the universe the best
set-consensus level its members can reach when nobody else participates,
with 0 meaning "no infinite run has exactly this participation".  A run is
admitted by an agreement function when its participating set P satisfies
alpha(P) >= 1 and at most alpha(P) - 1 participants stop without deciding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

from .processes import MAX_UNIVERSE

if TYPE_CHECKING:  # pragma: no cover
    from .sim import RunTrace


class Comparison(Enum):
    """Pointwise ordering verdict between two agreement functions."""

    LE = "LE"
    GE = "GE"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True)
class AgreementFunction:
    """Total map from subsets of {1..n} to levels in 0..n.

    Stored as `bytes`, one level per subset, indexed by the subset's bit
    mask (bit i-1 for process i): the format of `Adversary.membership` and
    `Adversary.region_table`, so alpha(P) is `table[P's mask]`.  The empty
    set always maps to 0.  Monotonicity and the |P| bound are checkable via
    is_monotonic, not enforced at construction, so defective tables can be
    represented and rejected by callers.
    """

    n: int
    table: bytes

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_UNIVERSE:
            raise ValueError(f"universe size must be in 1..{MAX_UNIVERSE}, got {self.n}")
        if len(self.table) != 1 << self.n:
            raise ValueError(f"table must have {1 << self.n} entries, got {len(self.table)}")
        # bytes with every entry in 0..n need no check: translate deletes those entries in C
        if type(self.table) is not bytes or self.table.translate(None, bytes(range(self.n + 1))):
            for bits, v in enumerate(self.table):
                if type(v) is not int:  # a bool is not a level
                    raise ValueError(f"level {v!r} at mask {bits} is not an integer")
                if not 0 <= v <= self.n:
                    raise ValueError(f"level {v!r} at mask {bits} outside 0..{self.n}")
            object.__setattr__(self, "table", bytes(self.table))
        if self.table[0] != 0:
            raise ValueError("the empty set must map to level 0")

    @cached_property
    def admissible_masks(self) -> tuple[int, ...]:
        """The masks P with alpha(P) >= 1, ascending: the participations a run may have.

        Computed on first use and kept on the instance, so a seeded campaign
        scans the 2**n table once, not once per schedule.
        """
        return tuple(bits for bits, v in enumerate(self.table) if v >= 1)

    @classmethod
    def wait_free(cls, n: int) -> "AgreementFunction":
        """Level |P| for every subset P."""
        return cls(n, bytes(bits.bit_count() for bits in range(1 << n)))

    @classmethod
    def t_resilient(cls, n: int, t: int) -> "AgreementFunction":
        """Level max(0, |P| - n + t + 1): at most t processes may fail or stay out."""
        if not 0 <= t < n:
            raise ValueError(f"resilience must satisfy 0 <= t < n, got t={t}, n={n}")
        return cls(n, bytes(max(0, bits.bit_count() - n + t + 1) for bits in range(1 << n)))

    @classmethod
    def k_concurrent(cls, n: int, k: int) -> "AgreementFunction":
        """Level min(|P|, k): at most k processes are ever concurrently active."""
        if not 1 <= k <= n:
            raise ValueError(f"concurrency must satisfy 1 <= k <= n, got k={k}, n={n}")
        return cls(n, bytes(min(bits.bit_count(), k) for bits in range(1 << n)))

    def is_monotonic(self) -> bool:
        """True iff P subseteq P' implies alpha(P) <= alpha(P') <= |P'|.

        Single-bit extensions suffice: any containment is a chain of
        insertions, and the per-set bound is checked directly.
        """
        for bits, v in enumerate(self.table):
            if v > bits.bit_count():
                return False
            for i in range(self.n):
                if not bits >> i & 1 and v > self.table[bits | 1 << i]:
                    return False
        return True

    def to_json_obj(self) -> dict:
        return {"n": self.n, "table": list(self.table)}

    @classmethod
    def from_json_obj(cls, obj: object, strict: bool = False) -> "AgreementFunction":
        """Parse {"n": ..., "table": [...]}; with strict=True also require monotonicity."""
        if not isinstance(obj, dict) or set(obj) != {"n", "table"}:
            raise ValueError('agreement function object must have exactly the fields "n" and "table"')
        n, table = obj["n"], obj["table"]
        if type(n) is not int or not isinstance(table, list):
            raise ValueError('"n" must be an integer and "table" an array')
        fn = cls(n, table)
        if strict and not fn.is_monotonic():
            raise ValueError("agreement function table violates monotonicity or the |P| bound")
        return fn


def compare_pointwise(a: AgreementFunction, b: AgreementFunction) -> Comparison:
    """Partial-order verdict of a against b over every subset."""
    if a.n != b.n:
        raise ValueError(f"universe mismatch: {a.n} vs {b.n}")
    le = all(x <= y for x, y in zip(a.table, b.table))
    ge = all(x >= y for x, y in zip(a.table, b.table))
    if le and ge:
        return Comparison.EQ
    if le:
        return Comparison.LE
    if ge:
        return Comparison.GE
    return Comparison.INCOMPARABLE


def admits_trace(alpha: AgreementFunction, trace: "RunTrace") -> bool:
    """True iff the trace could be a prefix of a run the agreement function admits.

    The trace's participating set P must be non-empty with alpha(P) >= 1,
    and at most alpha(P) - 1 participants may be flagged halted while still
    undecided.  Halted processes that decided before stopping are finished,
    not faulty, so they do not count against the bound.
    """
    part = trace.participating
    if part.n != alpha.n:
        raise ValueError(f"universe mismatch: trace n={part.n}, alpha n={alpha.n}")
    bits = part.bits
    level = alpha.table[bits]  # 0 for the empty set
    if level < 1:
        return False
    halted_at = trace.schedule.halted_at
    if not halted_at:
        return True
    decided = {d.pid for d in trace.decisions}
    faulty = 0
    for pid in halted_at:
        if bits >> (pid - 1) & 1 and pid not in decided:
            faulty += 1
    return faulty <= level - 1
