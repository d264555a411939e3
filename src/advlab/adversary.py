"""Adversary algebra: live-set families, set-consensus power, and fairness.

An adversary is a finite family of non-empty "live sets" over the process
universe; a run complies with it when the set of processes taking
infinitely many steps is one of the live sets.  This module provides
restriction, the set-consensus power recursion (with a replayable witness
chain), minimum hitting sets of superset-closed families, the
superset-closed / symmetric / fair classification, and derivation of an
adversary's agreement function.

Set-consensus power is computed by region tables.  Restricting twice
equals restricting to the intersection, so every family the recursion
visits is the live sets inside some region R.  For a touching mask T, one
pass over the subset lattice gives the power of {S in F : S meets T}
restricted to every region R.  setcon, the witness chain, the agreement
function and the fairness verdict read the T = full table; the selection
layer's power queries read the tables of other touching masks.  Each
Adversary keeps its own tables, keyed by T, so nothing is cached at module
level.

Fairness is decided by a local criterion on that one table: every region
R that is not live and has power s(R) >= 1 must hold more than s(R)
processes whose removal keeps its power.  `fairness_counterexample` gives
the proof sketch.

Everything here is exhaustive by design and meant for universes of at
most 16 processes.
"""

from __future__ import annotations

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
    """Live sets inside region that intersect targets; requires targets subseteq region.

    The library does not call this: `Adversary.region_table(T)` gives the
    power of every such restriction at once.  The tests use this set-valued
    form as the slow reference for that table (fairness witnesses and the
    bound min(|T|, power) are checked on `setcon` of it).  It stays as a
    name the benchmark's tracer hooks, here and in `advlab.bgg`, and leaves
    the library when the tracer is repointed (ROADMAP item 1).
    """
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
    """Minimum hitting-set size of a superset-closed adversary.

    H misses a live set S exactly when S lies inside the complement of H,
    which is then live too, so H meets every live set exactly when its
    complement is not live: csize = n - max{|C| : C not in F}.  The empty
    adversary has no hitting set, and the formula needs superset-closure;
    both raise ValueError.
    """
    if not adversary.live_sets:
        raise ValueError("the empty adversary has no hitting set")
    if not is_superset_closed(adversary):
        raise ValueError("csize needs a superset-closed adversary")
    return _closed_csize(adversary)


def _closed_csize(adversary: Adversary) -> int:
    """csize's formula, for a caller that already knows the non-empty family is superset-closed."""
    live = bytearray(1 << adversary.n)
    for s in adversary.live_sets:
        live[s.bits] = 1
    return adversary.n - max(m.bit_count() for m in range(1 << adversary.n) if not live[m])


def is_superset_closed(adversary: Adversary) -> bool:
    """True iff every superset (within the universe) of a live set is a live set.

    Every superset is reached from the live set by adding one process at a
    time, so checking each single-process extension of each live set suffices.
    """
    family = {s.bits for s in adversary.live_sets}
    singles = [1 << i for i in range(adversary.n)]
    return all(bits | one in family for bits in family for one in singles)


def is_symmetric(adversary: Adversary) -> bool:
    """True iff membership depends only on cardinality."""
    counts: dict[int, int] = {}
    for s in adversary.live_sets:
        counts[len(s)] = counts.get(len(s), 0) + 1
    return all(counts[k] == comb(adversary.n, k) for k in counts)


def fairness_counterexample(adversary: Adversary) -> Optional[tuple[ProcessSet, ProcessSet]]:
    """First (P, Q) with setcon of the Q-intersecting restriction below min(|Q|, setcon(A|P)).

    Returns None when the adversary is fair.  Q = empty is skipped: both
    sides are 0 there by convention.  The reported pair is the smallest
    violating P by bit mask, then the smallest violating Q inside it, the
    same smallest-mask tie-break as the setcon witness.

    The verdict needs only the region table s(R) = setcon(A|R).  Let
    N(R) = {i in R : s(R - i) = s(R)}.  A is fair iff every region R that
    is not live and has s(R) >= 1 has |N(R)| > s(R).  Sketch:

    - s is monotone and drops by at most one per removed process,
      s(R - i) in {s(R) - 1, s(R)}; both follow by induction on the
      `_region_powers` recursion.
    - alpha(Q, R), the power of the live sets inside R that meet Q, obeys
      alpha(Q, R) = max(max_i a_i, [R in F] * (1 + min_i a_i)) over i in R,
      with a_i = alpha(Q - i, R - i) and alpha(empty, R) = 0.  It is
      monotone in Q and never exceeds min(|Q|, s(R)): Q hits every set
      counted, and power never exceeds a hitting set's size.
    - Induct over R in increasing mask order, assuming
      alpha(Q', R') = min(|Q'|, s(R')) for every R' strictly inside R.
      For 1 <= q = |Q| <= s(R), every a_i is at least q - 1, and a_i = q
      iff i is not in Q and (q < s(R) or i in N(R)).  So alpha(Q, R) < q
      iff R is not live, q = s(R) and N(R) is inside Q.
    - For |Q| > s(R) >= 1, a non-live R has s(R) = max_i s(R - i), so
      N(R) is non-empty, and some subset of Q of size s(R) misses a member
      of N(R).  That subset is at its cap, which lifts Q to its cap by
      monotonicity.

    So the first violating P is the first region that breaks the criterion,
    and every violating Q at P has |Q| = s(P) and holds N(P); the smallest
    such mask is N(P) plus the lowest ids of P - N(P).
    """
    n = adversary.n
    power = adversary.region_table((1 << n) - 1)
    live = bytearray(1 << n)
    for s in adversary.live_sets:
        live[s.bits] = 1
    for region in range(1, 1 << n):
        cap = power[region]
        if not cap or live[region]:
            continue
        keep, rest = 0, region  # keep collects N(region)
        while rest:
            low = rest & -rest
            if power[region ^ low] == cap:
                keep |= low
            rest ^= low
        if keep.bit_count() > cap:
            continue
        targets, rest = keep, region ^ keep
        for _ in range(cap - keep.bit_count()):
            low = rest & -rest
            targets |= low
            rest ^= low
        return ProcessSet(n, region), ProcessSet(n, targets)
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
    if type(n) is not int:  # JSON true and false are not integers
        raise ValueError('"n" must be an integer')
    if not isinstance(raw, list) or not all(isinstance(s, list) for s in raw):
        raise ValueError('"live_sets" must be an array of arrays')
    masks = []
    outside = None  # (array index, id) of the first id outside 1..n
    unsorted = duplicate = False
    prev = None
    for k, s in enumerate(raw):
        if not s:
            raise ValueError("empty live sets are rejected")
        if type(s[0]) is not int:
            raise ValueError("process ids must be integers")
        ascending, last, mask = True, s[0] - 1, 0
        for i in s:  # a non-int anywhere outranks a descent anywhere in the same array
            if type(i) is not int:
                raise ValueError("process ids must be integers")
            if i <= last:
                ascending = False
            last = i
            if 1 <= i <= n:
                mask |= 1 << (i - 1)
            elif outside is None:
                outside = (k, i)
        if not ascending:
            raise ValueError(f"inner array {s} is not strictly ascending")
        if prev is not None:
            unsorted = unsorted or s < prev
            duplicate = duplicate or s == prev
        prev = s
        masks.append(mask)
    if unsorted:
        raise ValueError("outer array is not sorted lexicographically")
    if duplicate:  # in a sorted array, duplicates are neighbours
        raise ValueError("duplicate live sets are rejected")
    # ProcessSet's own checks, in the order one set per array would raise them:
    # an id outside 1..n, else a universe size outside 1..MAX_UNIVERSE
    if outside is not None and (outside[0] == 0 or 1 <= n <= MAX_UNIVERSE):
        raise ValueError(f"process id {outside[1]} outside 1..{n}")
    return Adversary(n, tuple(ProcessSet(n, mask) for mask in masks))
