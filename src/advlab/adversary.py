"""Adversary algebra: live-set families, set-consensus power, and fairness.

An adversary is a finite family of non-empty "live sets" over the process
universe; a run complies with it when the set of processes taking
infinitely many steps is one of the live sets.  This module provides
restriction, the set-consensus power recursion (with a replayable witness
chain), minimum hitting sets of superset-closed families, the
superset-closed / symmetric / fair classification, and derivation of an
adversary's agreement function.

An Adversary holds its live sets as int bit masks (bit i-1 for process
i), ascending, and every set this module takes or hands out is such a
mask: restriction regions, witness links and the fairness pair.  The
parser, the family builders and the restrictions build masks only; a
ProcessSet is built on an error path alone, for its message.

Every question about a family reads data its Adversary owns, and none
walks the live sets: the membership table (one byte per mask, 1 at each
live set), the family as bit planes, or a region table of set-consensus
power with its level planes.  Restricting twice equals restricting to the
intersection, so every family the recursion visits is the live sets
inside some region R.  For a touching mask T, the region table gives the
power of {S in F : S meets T} restricted to every region R.  setcon, the
witness chain, the agreement function and the fairness verdict read the
T = full table; the selection layer's power questions and live-set
selection read the tables and planes of other touching masks.  Each
Adversary keeps its own tables, keyed by T, so nothing is cached at
module level.

The tables come from bit planes (`_plane_table`).  An Adversary also holds
its family as one 2**n-bit integer F (bit m set iff mask m is live), built
on first use.  The n patterns Z_i of the masks that lack process i depend
on n alone: they are built once, at import, with the other constants of
each universe size (`_UNIVERSES`), and every Adversary of that size
shares them.  Each level set G_j = {R : s(R) >= j} is one such integer,
and a region's power is the number of planes that hold it; the planes
stay beside their table (`Adversary.level_plane`).  The live sets inside
a region R are F AND Sub(R), where Sub(R) is the AND of Z_i over the
processes i outside R (`Adversary.live_inside`), and the lowest set bit
of such an integer is its smallest mask.  Up(X), the superset closure of
a set of masks, is n shift-and-OR steps, so superset-closure is the test
Up(F) == F.  `csize` and `symmetric_setcon` read F and the Z_i alone, no
region table, so they stay independent oracles for setcon.

Two lemmas about a region table s let the kernel read it instead of
rescanning it:

- Neighbour lemma: s(R - i) is s(R) - 1 or s(R) for every i in R (proof
  sketch in `fairness_counterexample`).  `fairness_counterexample` rests
  its criterion on it.
- Witness lemma: a live S inside R has 1 + min_p s(S - p) <= s(S) <= s(R),
  by the recursion and monotonicity.  So only the live sets with
  s(S) = s(R) can realize s(R), and those are F AND Sub(R) AND G_{s(R)},
  the integer `setcon_witness` takes the lowest bit of.

Fairness is decided by a local criterion on that one table: every region
R that is not live and has power s(R) >= 1 must hold more than s(R)
processes whose removal keeps its power.

Everything here is exhaustive by design and meant for universes of at
most 16 processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .alpha import AgreementFunction
from .processes import MAX_UNIVERSE, ProcessSet, check_mask, check_universe, ids_of, mask_of


@dataclass(frozen=True)
class Adversary:
    """A family of non-empty live sets over the universe {1..n}.

    live_sets holds each live set as its bit mask (bit i-1 for process i),
    ascending; duplicates and the empty mask are rejected.  A ProcessSet
    element is accepted too and contributes its bits (the benchmark's
    families are built so, ROADMAP item 1).  membership[m] is 1 exactly
    when mask m is live.
    """

    n: int
    live_sets: tuple[int, ...]
    membership: bytes = field(init=False, repr=False, compare=False)
    # touching mask -> [region table, G_1, ..., G_s]: the table, then its level planes
    _tables: dict[int, list] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        check_universe(n)
        membership = bytearray(1 << n)
        masks = []
        for m in self.live_sets:
            if isinstance(m, ProcessSet):
                if m.n != n:
                    raise ValueError(f"live set universe {m.n} does not match adversary universe {n}")
                m = m.bits
            if not m:
                raise ValueError("live sets must be non-empty")
            if m >> n:  # negative masks too: their shift is -1
                raise ValueError(f"mask {m:#x} has bits outside a universe of size {n}")
            if membership[m]:
                raise ValueError(f"duplicate live set {ProcessSet(n, m)}")
            membership[m] = 1
            masks.append(m)
        masks.sort()
        object.__setattr__(self, "membership", bytes(membership))
        object.__setattr__(self, "live_sets", tuple(masks))

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "Adversary":
        """The adversary of live sets given as process ids."""
        return cls(n, tuple(mask_of(n, s) for s in sets))

    def region_table(self, touching: int) -> bytes:
        """Set-consensus power of the live sets meeting `touching`, for every region.

        Entry R is setcon of {S in F : S & touching != 0, S subseteq R},
        indexed by R's bit mask.  Each table is built once and kept on this
        instance, keyed by the touching mask, with its level planes.
        """
        entry = self._tables.get(touching)
        if entry is None:
            if not 0 <= touching < 1 << self.n:
                raise ValueError(f"touching mask {touching:#x} outside a universe of size {self.n}")
            entry = self._tables[touching] = _plane_table(self.n, self._lattice[0], touching)
        return entry[0]

    def level_plane(self, touching: int, level: int) -> int:
        """G_level = {R : region_table(touching)[R] >= level}, as a 2**n-bit integer.

        Every mask for a level of at most 0, and none past the table's
        largest entry.  The planes are the ones the table was summed from,
        kept beside it.
        """
        self.region_table(touching)  # built with the table
        levels = self._tables[touching]
        if level < 1:
            return _UNIVERSES[self.n].full
        return levels[level] if level < len(levels) else 0

    def live_inside(self, region: int) -> int:
        """The live sets inside `region`, as a 2**n-bit integer: F AND Sub(R).

        Sub(R), the masks inside R, is the AND of Z_i over the processes i
        outside R.  Its lowest set bit is the smallest live mask inside R.
        """
        family, steps = self._lattice
        for i, (lacks, _) in enumerate(steps):
            if not region >> i & 1:
                family &= lacks
        return family

    @cached_property
    def _lattice(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(F, steps): F built on first use and kept out of equality and the repr.

        F has bit m set iff mask m is live.  steps[i] is (Z_i, 2**i), the
        universe's shared steps (`_UNIVERSES`).
        """
        family = int(self.membership[::-1].translate(_DIGITS), 2)  # base 2: no digit limit
        return family, _UNIVERSES[self.n].steps

    def __repr__(self) -> str:
        body = ",".join("{" + ",".join(map(str, ids_of(self.n, m))) + "}" for m in self.live_sets)
        return f"Adversary({self.n}, [{body}])"


def all_nonempty(n: int) -> Adversary:
    """The wait-free adversary: every non-empty subset is a live set."""
    return Adversary(n, tuple(range(1, 1 << n)))


def t_resilient_adversary(n: int, t: int) -> Adversary:
    """Live sets of size >= n - t: at most t processes fail."""
    if not 0 <= t < n:
        raise ValueError(f"resilience must satisfy 0 <= t < n, got t={t}, n={n}")
    return Adversary(n, tuple(b for b in range(1, 1 << n) if b.bit_count() >= n - t))


def sizes_adversary(n: int, sizes: Iterable[int]) -> Adversary:
    """The symmetric adversary whose live sets are exactly those of the given sizes."""
    wanted = set(sizes)
    if any(not 1 <= k <= n for k in wanted):
        raise ValueError(f"sizes must lie in 1..{n}")
    return Adversary(n, tuple(b for b in range(1, 1 << n) if b.bit_count() in wanted))


def restrict(adversary: Adversary, region: int) -> Adversary:
    """Keep only the live sets inside the region mask; the universe size is unchanged."""
    check_mask(adversary.n, region)
    outside = ~region
    return Adversary(adversary.n, tuple(m for m in adversary.live_sets if not m & outside))


def restrict_intersecting(adversary: Adversary, region: int, targets: int) -> Adversary:
    """Live sets inside the region mask that meet the targets mask; requires targets subseteq region.

    The library does not call this: `Adversary.region_table(T)` gives the
    power of every such restriction at once.  The tests use this set-valued
    form as the slow reference for that table (fairness witnesses and the
    bound min(|T|, power) are checked on `setcon` of it).  It stays as a
    name the benchmark's tracer hooks, here and in `advlab.bgg`, and leaves
    the library when the tracer is repointed (ROADMAP item 1).
    """
    n = adversary.n
    check_mask(n, region)
    check_mask(n, targets)
    if targets & ~region:
        raise ValueError(f"targets {ProcessSet(n, targets)} must be a subset of region {ProcessSet(n, region)}")
    return Adversary(n, tuple(m for m in adversary.live_sets if not m & ~region and m & targets))


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # membership bytes as binary digits


class _Universe(NamedTuple):
    """The constants of one universe size n, shared by every Adversary of that size."""

    steps: tuple[tuple[int, int], ...]  # (Z_i, 2**i) for i = 0..n-1
    full: int  # every mask: 2**n ones
    digits: str  # the format spec that writes a plane as 2**n binary digits
    zeros: int  # 2**n "0" digit bytes, read big-endian: the offset of a zero digit


def _universes() -> tuple[Optional[_Universe], ...]:
    """_Universe(n) at index n = 1..MAX_UNIVERSE.

    Z_i has bit m set iff m lacks process i: blocks of 2**i ones and 2**i
    zeros.  At the largest size, Z_{top-1} is the lower half of the masks and
    Z_{i-1} = Z_i ^ (Z_i << 2**(i-1)) splits each block in two.  The Z_i of
    a smaller n are the low 2**n bits of those patterns.
    """
    top = MAX_UNIVERSE
    lacks = [0] * top
    lacks[top - 1] = (1 << (1 << (top - 1))) - 1
    for i in range(top - 1, 0, -1):
        lacks[i - 1] = lacks[i] ^ (lacks[i] << (1 << (i - 1)))
    universes: list[Optional[_Universe]] = [None]
    zeros = ord("0")  # one "0" digit, read big-endian
    for n in range(1, top + 1):
        size = 1 << n
        full = (1 << size) - 1
        zeros |= zeros << (4 * size)  # the 2**(n-1) digits so far, twice
        steps = tuple((lacks[i] & full, 1 << i) for i in range(n))
        universes.append(_Universe(steps, full, f"0{size}b", zeros))
    return tuple(universes)


_UNIVERSES = _universes()


def _up(masks: int, steps: tuple[tuple[int, int], ...]) -> int:
    """Up(X): every superset within the universe of a mask in X, by one step per process."""
    for lacks, shift in steps:
        masks |= (masks & lacks) << shift
    return masks


def _plane_table(n: int, family: int, touching: int) -> list:
    """Power of the live sets meeting `touching`, restricted to every region, by bit planes.

    Written over live S inside R, the recursion is s(R) = max of
    1 + min_{i in S} s(S - i), with s(R) = 0 when no live set lies inside R.
    So s(R) >= j iff some live S inside R has every s(S - i) >= j - 1: with
    G_j = {R : s(R) >= j} and D_j = {S : S - i in G_j for every i in S},
    G_0 holds every region and G_j = Up(F & D_{j-1}).  D is the AND over i
    of Z_i | ((G & Z_i) << 2**i), and s(R) is the number of non-empty
    planes G_j, j >= 1, that hold R (Yates's OR-zeta transform over the
    subset lattice, one plane at a time).  A live set misses `touching`
    exactly when it lies inside the complement, and the masks there are the
    AND of Z_i over i in `touching`, so one AND clears those live sets.

    Each plane unpacks to one byte per mask through its binary digits (the
    digit characters' bytes, less ord("0") each), and the table is their
    sum; entries are at most n, so a byte each.  Returns the table followed
    by the planes, [table, G_1, ..., G_s], so index j >= 1 holds G_j.
    """
    steps, _, digits, zeros = _UNIVERSES[n]
    missing = -1  # the masks inside the complement of touching
    for i, (lacks, _) in enumerate(steps):
        if touching >> i & 1:
            missing &= lacks
    live = family & ~missing
    levels = [b""]  # levels[j] is G_j; index 0 takes the table
    total = 0
    below = live  # F & D_{j-1}: D_0 holds every mask
    while below:
        plane = below  # Up(below): the loop of `_up`, in line on the first-table path
        for lacks, shift in steps:
            plane |= (plane & lacks) << shift
        levels.append(plane)
        total += int.from_bytes(format(plane, digits).encode(), "big")
        below = live
        for lacks, shift in steps:
            below &= lacks | (plane & lacks) << shift
    levels[0] = (total - (len(levels) - 1) * zeros).to_bytes(1 << n, "little")
    return levels


def setcon(adversary: Adversary) -> int:
    """Set-consensus power: 0 for the empty family, else the max-min recursion

    over choices of a live set S and a process a in S, each level recursing
    into the family restricted to S minus {a} and adding one.
    """
    full = (1 << adversary.n) - 1
    return adversary.region_table(full)[full]


@dataclass(frozen=True)
class SetconWitness:
    """A chain of (live set mask, removed process) pairs realizing the recursion.

    The chain has exactly `value` links; replaying it from the original
    adversary reaches the empty family.
    """

    value: int
    chain: tuple[tuple[int, int], ...]


def setcon_witness(adversary: Adversary) -> SetconWitness:
    """Extract the deterministic witness chain for setcon(adversary).

    Ties in the arg-max live set are broken by smallest bit-mask encoding,
    ties in the arg-min process by smallest id.  By the witness lemma only
    a live S with s(S) = s(R) can realize s(R), and for a live S the
    recursion makes 1 + min_p s(S - p) = s(S).  A live S inside R has
    s(S) <= s(R) = t, so those sets are F AND Sub(R) AND G_t, and each link
    is the lowest set bit of that integer; its process is the first p in S
    with s(S - p) = s(S) - 1.  Each region lies inside the one before, so
    F AND Sub(R) takes one more AND per process a link leaves out.
    """
    n = adversary.n
    full = (1 << n) - 1
    power = adversary.region_table(full)
    inside, steps = adversary._lattice  # F AND Sub(region)
    chain = []
    region = full
    while power[region]:
        target = power[region]
        hits = inside & adversary.level_plane(full, target)
        if not hits:
            raise AssertionError(f"no live set realizes the power of region {region:#x}")
        m = (hits & -hits).bit_length() - 1  # lowest bit: ties keep the smallest encoding
        rest = m  # ascending id: the arg-min is the first p with s(S - p) = s(S) - 1
        while rest and power[m ^ (rest & -rest)] != target - 1:
            rest &= rest - 1
        low = rest & -rest
        if not low:
            raise AssertionError(f"no process of live set {m:#x} lowers its power")
        chain.append((m, low.bit_length()))
        left = region ^ m ^ low  # the processes the next region leaves out
        region = m ^ low
        while left:
            bit = left & -left
            inside &= steps[bit.bit_length() - 1][0]
            left ^= bit
    return SetconWitness(len(chain), tuple(chain))


def replay_witness(adversary: Adversary, witness: SetconWitness) -> int:
    """Re-walk a witness chain, validating each link, and return its length.

    Each link's live set must belong to the family restricted so far and
    contain the removed process; the final restriction must be empty.
    """
    n = adversary.n
    current = adversary
    for s, a in witness.chain:
        if not 0 <= s < 1 << n:
            raise ValueError(f"witness live set mask {s:#x} is outside a universe of size {n}")
        if not current.membership[s]:
            raise ValueError(f"witness live set {ProcessSet(n, s)} is not in the restricted family")
        if not 1 <= a <= n or not s >> (a - 1) & 1:
            raise ValueError(f"witness process {a} is not in live set {ProcessSet(n, s)}")
        current = restrict(current, s & ~(1 << (a - 1)))
    if current.live_sets:
        raise ValueError("witness chain ends before the family is exhausted")
    if witness.value != len(witness.chain):
        raise ValueError("witness value does not match its chain length")
    return len(witness.chain)


def csize(adversary: Adversary) -> Optional[int]:
    """Minimum hitting-set size of a superset-closed adversary.

    H misses a live set S exactly when S lies inside the complement of H,
    which is then live too, so H meets every live set exactly when its
    complement is not live: csize = n - max{|C| : C not in F}.  The empty
    adversary has no hitting set, and the formula needs superset-closure;
    for either the result is None.

    The dead masks of a superset-closed F are down-closed, so with
    E_0 = not F and E_{j+1} = (not F) AND the union over i of
    (E_j AND Z_i) << 2**i, E_j holds the dead sets of size at least j, and
    the largest dead size is the last j with E_j non-empty.  It reads no
    region table: an independent oracle for setcon.
    """
    if not adversary.live_sets or not is_superset_closed(adversary):
        return None
    family, steps = adversary._lattice
    dead = family ^ _UNIVERSES[adversary.n].full
    larger, size = dead, 0  # E_size
    while True:
        grown = 0
        for lacks, shift in steps:
            grown |= (larger & lacks) << shift
        larger = dead & grown
        if not larger:
            return adversary.n - size
        size += 1


def is_superset_closed(adversary: Adversary) -> bool:
    """True iff every superset (within the universe) of a live set is a live set: Up(F) == F."""
    family, steps = adversary._lattice
    return _up(family, steps) == family


def is_symmetric(adversary: Adversary) -> bool:
    """True iff membership depends only on cardinality."""
    return symmetric_setcon(adversary) is not None


def fairness_counterexample(adversary: Adversary) -> Optional[tuple[int, int]]:
    """First (P, Q), as masks, with setcon of the Q-intersecting restriction below min(|Q|, setcon(A|P)).

    Returns None when the adversary is fair.  Q = empty is skipped: both
    sides are 0 there by convention.  The reported pair is the smallest
    violating P by bit mask, then the smallest violating Q inside it, the
    same smallest-mask tie-break as the setcon witness.

    The verdict needs only the region table s(R) = setcon(A|R).  Let
    N(R) = {i in R : s(R - i) = s(R)}.  A is fair iff every region R that
    is not live and has s(R) >= 1 has |N(R)| > s(R).  Sketch:

    - s is monotone and drops by at most one per removed process,
      s(R - i) in {s(R) - 1, s(R)}; both follow by induction on the
      recursion s(R) = max(max_i s(R - i), [R in F] * (1 + min_i s(R - i)))
      over i in R, which the planes of `_plane_table` compute.
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
    live = adversary.membership
    for region in range(1, 1 << n):
        cap = power[region]
        if not cap or live[region]:
            continue
        keep, count, rest = 0, 0, region  # keep collects N(region) until it outgrows cap
        while rest and count <= cap:
            low = rest & -rest
            if power[region ^ low] == cap:
                keep |= low
                count += 1
            rest ^= low
        if count > cap:
            continue
        targets, rest = keep, region ^ keep
        for _ in range(cap - keep.bit_count()):
            low = rest & -rest
            targets |= low
            rest ^= low
        return region, targets
    return None


def is_fair(adversary: Adversary) -> bool:
    """True iff restricting agreement to any subgroup preserves set-consensus power."""
    return fairness_counterexample(adversary) is None


def symmetric_setcon(adversary: Adversary) -> Optional[int]:
    """Distinct live-set cardinality count of a symmetric adversary; None for any other.

    F is symmetric iff the n - 1 swaps of processes i + 1 and i + 2 each
    map it onto itself.  A swap moves the masks holding i + 2 but not
    i + 1 down by 2**i places, so it is one test,
    (F AND Z_i AND not Z_{i+1}) >> 2**i == F AND not Z_i AND Z_{i+1}.  The
    count is then the number of live prefix masks {1..k}.  It reads no
    region table: an independent oracle against the setcon recursion.
    """
    family, steps = adversary._lattice
    for (lacks, shift), (next_lacks, _) in zip(steps, steps[1:]):
        if (family & lacks & ~next_lacks) >> shift != family & next_lacks & ~lacks:
            return None
    live = adversary.membership
    return sum(live[(1 << k) - 1] for k in range(1, adversary.n + 1))


def agreement_function(adversary: Adversary) -> AgreementFunction:
    """The adversary's agreement function: each subset maps to the power of its restriction,
    read from the full region table, which the function wraps without a copy."""
    return AgreementFunction(adversary.n, adversary.region_table((1 << adversary.n) - 1))


def adversary_to_json_obj(adversary: Adversary) -> dict:
    """Canonical file form: 1-based ids, ascending inner arrays, sorted outer array."""
    n = adversary.n
    return {"n": n, "live_sets": sorted(ids_of(n, m) for m in adversary.live_sets)}


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
    # mask_of's own checks, in the order one call per array would raise them:
    # an id outside 1..n, else a universe size outside 1..MAX_UNIVERSE
    if outside is not None and (outside[0] == 0 or 1 <= n <= MAX_UNIVERSE):
        raise ValueError(f"process id {outside[1]} outside 1..{n}")
    return Adversary(n, tuple(masks))
