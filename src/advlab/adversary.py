"""Adversary algebra: live-set families, set-consensus power, and fairness.

An adversary is a finite family of non-empty "live sets" over the process
universe; a run complies with it when the set of processes taking
infinitely many steps is one of the live sets.  This module provides
restriction, the set-consensus power recursion (with a replayable witness
chain), minimum hitting sets, the superset-closed / symmetric / fair
classification, and derivation of an adversary's agreement function.

Set-consensus power is computed by region tables.  Restricting twice
equals restricting to the intersection, so every family the recursion
visits is the live sets inside some region R.  For a touching mask T, one
pass over the subset lattice gives the power of {S in F : S meets T}
restricted to every region R.  setcon, the witness chain and the agreement
function read the T = full table; the fairness scan and the selection
layer's power queries read the tables of other touching masks.  Each
Adversary keeps its own tables, keyed by T, so nothing is cached at module
level.

Everything here is exhaustive by design and meant for universes of at
most 16 processes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Optional

from .alpha import AgreementFunction
from .processes import MAX_UNIVERSE, ProcessSet


@dataclass(frozen=True)
class Adversary:
    """A family of non-empty live sets over the universe {1..n}.

    live_sets is kept canonically sorted by bit mask; duplicates and empty
    sets are rejected.
    """

    n: int
    live_sets: tuple[ProcessSet, ...]
    _tables: dict[int, bytes] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_UNIVERSE:
            raise ValueError(f"universe size must be in 1..{MAX_UNIVERSE}, got {self.n}")
        seen = set()
        for s in self.live_sets:
            if s.n != self.n:
                raise ValueError(f"live set universe {s.n} does not match adversary universe {self.n}")
            if not s:
                raise ValueError("live sets must be non-empty")
            if s.bits in seen:
                raise ValueError(f"duplicate live set {s}")
            seen.add(s.bits)
        object.__setattr__(self, "live_sets", tuple(sorted(self.live_sets, key=lambda s: s.bits)))

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "Adversary":
        return cls(n, tuple(s if isinstance(s, ProcessSet) else ProcessSet.of(n, s) for s in sets))

    def region_table(self, touching: int) -> bytes:
        """Set-consensus power of the live sets meeting `touching`, for every region.

        Entry R is setcon of {S in F : S & touching != 0, S subseteq R},
        indexed by R's bit mask.  Each table is built once and kept on this
        instance, keyed by the touching mask.
        """
        table = self._tables.get(touching)
        if table is None:
            if not 0 <= touching < 1 << self.n:
                raise ValueError(f"touching mask {touching:#x} outside a universe of size {self.n}")
            masks = [s.bits for s in self.live_sets if s.bits & touching]
            table = self._tables[touching] = _region_powers(self.n, masks)
        return table

    def __repr__(self) -> str:
        body = ",".join("{" + ",".join(map(str, s.members())) + "}" for s in self.live_sets)
        return f"Adversary({self.n}, [{body}])"


def all_nonempty(n: int) -> Adversary:
    """The wait-free adversary: every non-empty subset is a live set."""
    return Adversary(n, tuple(ProcessSet(n, b) for b in range(1, 1 << n)))


def t_resilient_adversary(n: int, t: int) -> Adversary:
    """Live sets of size >= n - t: at most t processes fail."""
    if not 0 <= t < n:
        raise ValueError(f"resilience must satisfy 0 <= t < n, got t={t}, n={n}")
    return Adversary(n, tuple(ProcessSet(n, b) for b in range(1, 1 << n) if b.bit_count() >= n - t))


def sizes_adversary(n: int, sizes: Iterable[int]) -> Adversary:
    """The symmetric adversary whose live sets are exactly those of the given sizes."""
    wanted = set(sizes)
    if any(not 1 <= k <= n for k in wanted):
        raise ValueError(f"sizes must lie in 1..{n}")
    return Adversary(n, tuple(ProcessSet(n, b) for b in range(1, 1 << n) if b.bit_count() in wanted))


def restrict(adversary: Adversary, region: ProcessSet) -> Adversary:
    """Keep only the live sets contained in region; the universe size is unchanged."""
    if region.n != adversary.n:
        raise ValueError(f"universe mismatch: {region.n} vs {adversary.n}")
    return Adversary(adversary.n, tuple(s for s in adversary.live_sets if s.issubset(region)))


def restrict_intersecting(adversary: Adversary, region: ProcessSet, targets: ProcessSet) -> Adversary:
    """Live sets inside region that intersect targets; requires targets subseteq region."""
    if region.n != adversary.n or targets.n != adversary.n:
        raise ValueError("universe mismatch between adversary and arguments")
    if not targets.issubset(region):
        raise ValueError(f"targets {targets} must be a subset of region {region}")
    return Adversary(
        adversary.n,
        tuple(s for s in adversary.live_sets if s.issubset(region) and s.bits & targets.bits),
    )


def _region_powers(n: int, masks: list[int]) -> bytes:
    """Set-consensus power of the family `masks` restricted to every region.

    Restricting twice equals restricting to the intersection, so the
    recursion only ever meets restrictions to some region R, and
    alpha(R) = max(max_i alpha(R - i), [R in F] * (1 + min_i alpha(R - i)))
    with alpha(empty) = 0.  Every R - i precedes R in increasing mask order,
    so one pass over the subset lattice fills the table in O(n * 2**n).
    Every live set lies inside their union U, so alpha(R) = alpha(R & U):
    a region reaching outside U copies a smaller entry, which keeps sparse
    families over large universes cheap.  Entries are at most n, so a byte
    each.
    """
    size = 1 << n
    live = bytearray(size)
    union = 0
    for m in masks:
        live[m] = 1
        union |= m
    table = bytearray(size)
    for region in range(1, size):
        if region & ~union:
            table[region] = table[region & union]
            continue
        hi, lo, rest = 0, n, region
        while rest:
            low = rest & -rest
            v = table[region ^ low]
            if v > hi:
                hi = v
            if v < lo:
                lo = v
            rest ^= low
        table[region] = hi + 1 if live[region] and lo == hi else hi
    return bytes(table)


def setcon(adversary: Adversary) -> int:
    """Set-consensus power: 0 for the empty family, else the max-min recursion

    over choices of a live set S and a process a in S, each level recursing
    into the family restricted to S minus {a} and adding one.
    """
    full = (1 << adversary.n) - 1
    return adversary.region_table(full)[full]


@dataclass(frozen=True)
class SetconWitness:
    """A chain of (live set, removed process) pairs realizing the recursion.

    The chain has exactly `value` links; replaying it from the original
    adversary reaches the empty family.
    """

    value: int
    chain: tuple[tuple[ProcessSet, int], ...]


def setcon_witness(adversary: Adversary) -> SetconWitness:
    """Extract the deterministic witness chain for setcon(adversary).

    Ties in the arg-max live set are broken by smallest bit-mask encoding,
    ties in the arg-min process by smallest id.
    """
    full = (1 << adversary.n) - 1
    power = adversary.region_table(full)
    chain = []
    region = full
    while power[region]:
        for s in adversary.live_sets:  # ascending mask: ties keep the smallest encoding
            if s.bits & ~region:
                continue
            # ascending id: ties keep the smallest process
            low, a = min((power[s.bits & ~(1 << (p - 1))], p) for p in s.members())
            if low + 1 == power[region]:
                break
        else:
            raise AssertionError(f"no live set realizes the power of region {region:#x}")
        chain.append((s, a))
        region = s.bits & ~(1 << (a - 1))
    return SetconWitness(len(chain), tuple(chain))


def replay_witness(adversary: Adversary, witness: SetconWitness) -> int:
    """Re-walk a witness chain, validating each link, and return its length.

    Each link's live set must belong to the family restricted so far and
    contain the removed process; the final restriction must be empty.
    """
    current = adversary
    for s, a in witness.chain:
        if s not in current.live_sets:
            raise ValueError(f"witness live set {s} is not in the restricted family")
        if a not in s:
            raise ValueError(f"witness process {a} is not in live set {s}")
        current = restrict(current, s.without(a))
    if current.live_sets:
        raise ValueError("witness chain ends before the family is exhausted")
    if witness.value != len(witness.chain):
        raise ValueError("witness value does not match its chain length")
    return len(witness.chain)


def csize(adversary: Adversary) -> int:
    """Minimum hitting-set size: the smallest H meeting every live set.

    Exhaustive search in ascending cardinality with early exit; the empty
    adversary has no hitting set and is rejected.
    """
    if not adversary.live_sets:
        raise ValueError("the empty adversary has no hitting set")
    masks = [s.bits for s in adversary.live_sets]
    for k in range(1, adversary.n + 1):
        for combo in itertools.combinations(range(adversary.n), k):
            h = 0
            for i in combo:
                h |= 1 << i
            if all(h & m for m in masks):
                return k
    raise AssertionError("unreachable: the full universe hits every non-empty live set")


def is_superset_closed(adversary: Adversary) -> bool:
    """True iff every superset (within the universe) of a live set is a live set."""
    family = {s.bits for s in adversary.live_sets}
    full = (1 << adversary.n) - 1
    for s in adversary.live_sets:
        rest = full & ~s.bits
        sub = rest
        while True:
            if s.bits | sub not in family:
                return False
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return True


def is_symmetric(adversary: Adversary) -> bool:
    """True iff membership depends only on cardinality."""
    counts: dict[int, int] = {}
    for s in adversary.live_sets:
        counts[len(s)] = counts.get(len(s), 0) + 1
    return all(counts[k] == comb(adversary.n, k) for k in counts)


def fairness_counterexample(adversary: Adversary) -> Optional[tuple[ProcessSet, ProcessSet]]:
    """First (P, Q) with setcon of the Q-intersecting restriction below min(|Q|, setcon(A|P)).

    Returns None when the adversary is fair.  Q = empty is skipped: both
    sides are 0 there by convention.  The search scans P from the largest
    bit encoding downward and Q upward, so the reported pair is the most
    global violation, which keeps golden outputs stable.
    """
    n = adversary.n
    full = (1 << n) - 1
    base = adversary.region_table(full)
    for p_bits in range(full, 0, -1):
        descending = []
        q_bits = p_bits
        while q_bits:
            descending.append(q_bits)
            q_bits = (q_bits - 1) & p_bits
        for q_bits in reversed(descending):  # ascending; each Q's table is built on first use
            if adversary.region_table(q_bits)[p_bits] != min(q_bits.bit_count(), base[p_bits]):
                return ProcessSet(n, p_bits), ProcessSet(n, q_bits)
    return None


def is_fair(adversary: Adversary) -> bool:
    """True iff restricting agreement to any subgroup preserves set-consensus power."""
    return fairness_counterexample(adversary) is None


def symmetric_setcon(adversary: Adversary) -> int:
    """Distinct live-set cardinality count; valid only for symmetric adversaries.

    Serves as an independent oracle against the setcon recursion.
    """
    if not is_symmetric(adversary):
        raise ValueError("the distinct-size formula applies only to symmetric adversaries")
    return len({len(s) for s in adversary.live_sets})


def agreement_function(adversary: Adversary) -> AgreementFunction:
    """The adversary's agreement function: each subset maps to the power of its restriction."""
    return AgreementFunction(adversary.n, tuple(adversary.region_table((1 << adversary.n) - 1)))


def adversary_to_json_obj(adversary: Adversary) -> dict:
    """Canonical file form: 1-based ids, ascending inner arrays, sorted outer array."""
    return {"n": adversary.n, "live_sets": sorted(list(s.members()) for s in adversary.live_sets)}


def adversary_from_json_obj(obj: object) -> Adversary:
    """Parse and validate the canonical adversary file object.

    Inner arrays must be strictly ascending and non-empty, the outer array
    lexicographically sorted with no duplicates.
    """
    if not isinstance(obj, dict) or set(obj) != {"n", "live_sets"}:
        raise ValueError('adversary object must have exactly the fields "n" and "live_sets"')
    n, raw = obj["n"], obj["live_sets"]
    if not isinstance(n, int):
        raise ValueError('"n" must be an integer')
    if not isinstance(raw, list) or not all(isinstance(s, list) for s in raw):
        raise ValueError('"live_sets" must be an array of arrays')
    for s in raw:
        if not s:
            raise ValueError("empty live sets are rejected")
        if any(not isinstance(i, int) for i in s):
            raise ValueError("process ids must be integers")
        if any(a >= b for a, b in zip(s, s[1:])):
            raise ValueError(f"inner array {s} is not strictly ascending")
    if sorted(raw) != raw:
        raise ValueError("outer array is not sorted lexicographically")
    if len({tuple(s) for s in raw}) != len(raw):
        raise ValueError("duplicate live sets are rejected")
    return Adversary.of(n, raw)
