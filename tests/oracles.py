"""Independent brute-force oracles used to cross-check the package.

Everything here works on plain integers (bit masks) and deliberately
avoids the package's own recursion, memoization, and search strategies,
except `slow_fairness_counterexample`: the direct per-Q fairness scan, kept
on the package's region tables as the reference for the local fairness
criterion; `slow_region_powers`: the region-table recursion with the full
max/min scan over every R - i, one region at a time, the reference for the
package's bit planes; `slow_setcon_witness`: the witness scan over every
live set, the reference for the package's search of the sets at the
region's power; `slow_is_superset_closed`: the one-process extension of
every live set, the reference for the package's Up(F) == F;
`slow_selection_feasible`: the scan over every live set that the
selection report's one region-table lookup replaces; `slow_select_live_set`:
the scan over every live set that bgg's selection by level planes replaces;
`slow_csize`: the largest dead mask found by a walk over every mask, the
reference for the package's size-by-size growth of the dead masks;
`slow_universe_constants` and `slow_plane_digits`: the per-universe
patterns and digit constants read from strings of binary digits, the
reference for the package's shift-built constants;
`slow_quarter_records`:
the filter over every record that the report's slice of the round-ordered
records replaces; and the `slow_check_*` checkers and `slow_admits_trace`: the
validity and agreement checkers compare values by one `canonical_json` text
each, the reference for the hash-keyed checkers; validity takes the least
invalid decision by (step, list position) among all of them, the reference
for the checker that looks for it only after a first failure; the agreement
checkers rebuild, at each decision, the values decided and the processes
stepped by then, from step indices alone, the reference for the one pass
over decisions sorted by step; and the termination checker
and the admission test ask `has_decided` (a pass over every decision) per
process, the reference for the one-pass versions.  The `slow_generate_*`
schedule generators draw through `random.Random`'s `choice`, `randint`,
`sample` and `shuffle`: the reference for the package's generators, which
draw from `getrandbits` alone.

It also holds `truncate_trace`, the prefix of a recorded trace up to a
step, which the checker tests use to re-check a trace cut at a witness and
the simulator's golden digest uses to pin prefixes; and the test protocols:
`EchoProtocol`, the simplest program the executor runs, and
`OracleAgreement`, an adaptive-agreement subroutine of ideal
`IdealSetConsensus` objects that takes no step, which the `adaptive-oracle`
golden protocol passes to `AdaptiveSetConsensus`.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Optional

from advlab import Adversary, ProcessSet
from advlab.alpha import AgreementFunction
from advlab.bgg import SelectionImpossible
from advlab.checkers import Verdict
from advlab.protocols import Protocol
from advlab.sim import Decision, RunTrace, Schedule, _last_index, canonical_json, check_schedulable


def brute_setcon(masks: frozenset[int]) -> int:
    """Set-consensus power by direct, unmemoized recursion over mask families."""
    if not masks:
        return 0
    best = 0
    for s in masks:
        worst = None
        for i in range(16):
            if s >> i & 1:
                rest = s & ~(1 << i)
                sub = frozenset(m for m in masks if m & ~rest == 0)
                v = brute_setcon(sub)
                if worst is None or v < worst:
                    worst = v
        best = max(best, worst + 1)
    return best


def brute_witness(masks: frozenset[int]) -> list[tuple[int, int]]:
    """Witness chain of (live-set mask, removed process id) by direct recursion.

    Each link takes the arg-max live set with the smallest mask, then the
    arg-min process with the smallest id, and recurses into the family
    restricted to that set minus that process.
    """
    if not masks:
        return []
    best = None
    for s in sorted(masks):
        worst = None
        for i in range(16):
            if s >> i & 1:
                v = brute_setcon(brute_restrict(masks, s & ~(1 << i)))
                if worst is None or v < worst[0]:
                    worst = (v, i + 1)
        if best is None or worst[0] + 1 > best[0]:
            best = (worst[0] + 1, s, worst[1])
    _, s, a = best
    return [(s, a)] + brute_witness(brute_restrict(masks, s & ~(1 << (a - 1))))


def brute_min_hitting(masks: frozenset[int], n: int) -> int:
    """Smallest hitting-set size by scanning every subset of the universe."""
    best = None
    for h in range(1, 1 << n):
        if all(h & m for m in masks):
            size = bin(h).count("1")
            if best is None or size < best:
                best = size
    assert best is not None, "non-empty families of non-empty sets always have a hitting set"
    return best


def distinct_sizes(masks: frozenset[int]) -> int:
    return len({bin(m).count("1") for m in masks})


def brute_restrict(masks: frozenset[int], region: int) -> frozenset[int]:
    return frozenset(m for m in masks if m & ~region == 0)


def brute_restrict_touching(masks: frozenset[int], region: int, targets: int) -> frozenset[int]:
    return frozenset(m for m in masks if m & ~region == 0 and m & targets)


def brute_fair(masks: frozenset[int], n: int) -> bool:
    """Direct subgroup-power equality check over all region/target pairs."""
    for region in range(1, 1 << n):
        base = brute_setcon(brute_restrict(masks, region))
        targets = region
        while targets:
            got = brute_setcon(brute_restrict_touching(masks, region, targets))
            if got != min(bin(targets).count("1"), base):
                return False
            targets = (targets - 1) & region
    return True


def slow_fairness_counterexample(adversary: Adversary):
    """The per-Q fairness scan: one full region table per touching set Q.

    Same contract and scan order as `advlab.fairness_counterexample` (P
    ascending, then Q ascending), at n * 4**n cost; the reference the local
    criterion must match pair for pair.
    """
    n = adversary.n
    full = (1 << n) - 1
    base = adversary.region_table(full)
    for p_bits in range(1, full + 1):
        descending = []
        q_bits = p_bits
        while q_bits:
            descending.append(q_bits)
            q_bits = (q_bits - 1) & p_bits
        for q_bits in reversed(descending):  # ascending; each Q's table is built on first use
            if adversary.region_table(q_bits)[p_bits] != min(q_bits.bit_count(), base[p_bits]):
                return p_bits, q_bits
    return None


def slow_region_powers(n: int, masks) -> bytes:
    """The region table by the full recursion: the max and min over every R - i.

    One region at a time in increasing mask order, with
    alpha(R) = max(max_i alpha(R - i), [R in F] * (1 + min_i alpha(R - i))).
    The reference for `Adversary.region_table`, which builds the level sets
    G_j = {R : alpha(R) >= j} as 2**n-bit integers (`_plane_table`).
    """
    size = 1 << n
    live = bytearray(size)
    for m in masks:
        live[m] = 1
    table = bytearray(size)
    for region in range(1, size):
        below = [table[region & ~(1 << i)] for i in range(n) if region >> i & 1]
        table[region] = max(max(below), live[region] * (1 + min(below)))
    return bytes(table)


def slow_plane_digits(n: int, plane: int) -> str:
    """A 2**n-bit integer as 2**n binary digits, mask 2**n - 1 first: digit m from bit m."""
    return "".join("1" if plane >> m & 1 else "0" for m in reversed(range(1 << n)))


def slow_universe_constants(n: int) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """(steps, all-ones, zero-digit offset) of a universe of size n, read from digit strings.

    steps[i] is (Z_i, 2**i), with Z_i read from 2**n binary digits whose
    digit for mask m is 1 iff m lacks process i; the all-ones integer is 2**n
    "1" digits; the offset is the bytes of 2**n "0" digits read big-endian,
    from its hex form.  The reference for `advlab.adversary._UNIVERSES`.
    """
    size = 1 << n
    steps = []
    for i in range(n):
        digits = "".join("0" if m >> i & 1 else "1" for m in reversed(range(size)))
        steps.append((int(digits, 2), 2**i))
    return tuple(steps), int("1" * size, 2), int(b"0".hex() * size, 16)


def slow_setcon_witness(n: int, masks) -> list[tuple[int, int]]:
    """Witness chain of (live-set mask, removed process id) over `slow_region_powers`.

    Each link tries every live set inside the region in ascending mask
    order, takes the min over all its members, and keeps the first set that
    realizes the region's power: the reference for `advlab.setcon_witness`,
    which skips the sets below that power.
    """
    power = slow_region_powers(n, masks)
    chain = []
    region = (1 << n) - 1
    while power[region]:
        for s in sorted(masks):
            if s & ~region:
                continue
            low, a = min((power[s & ~(1 << i)], i + 1) for i in range(n) if s >> i & 1)
            if low + 1 == power[region]:
                break
        chain.append((s, a))
        region = s & ~(1 << (a - 1))
    return chain


def slow_selection_feasible(adversary: Adversary, active: int, window: int, sid: int) -> bool:
    """Some live set inside the window carries power at least sid in region_table(active).

    The scan `advlab.bgg`'s selection-feasibility check made before it read
    region_table(active)[window] >= sid; the reference for that lemma.
    """
    table = adversary.region_table(active)
    return any(m & ~window == 0 and table[m] >= sid for m in adversary.live_sets)


def slow_select_live_set(adversary: Adversary, active: int, window: int, part: int, sid: int) -> tuple[int, bool]:
    """(live set, fallback): the first live set in mask order inside the window with
    region_table(active) at least sid, else the first inside the participating region.

    The scan `advlab.bgg.select_live_set` made before it read the level planes;
    the reference for the planes.  Raises SelectionImpossible when no live set
    lies inside the region.
    """
    table = adversary.region_table(active)
    for m in adversary.live_sets:  # ascending mask
        if m & ~window == 0 and table[m] >= sid:
            return m, False
    for m in adversary.live_sets:
        if m & ~part == 0:
            return m, True
    raise SelectionImpossible(f"no live set fits the participating region {ProcessSet(adversary.n, part)}")


def slow_csize(masks, n: int) -> int:
    """n minus the size of the largest mask that is not live, by a walk over every mask.

    The minimum hitting-set size of a superset-closed family; the reference
    for `advlab.csize` where `brute_min_hitting` is too slow (n = 16).
    """
    live = set(masks)
    return n - max(bin(m).count("1") for m in range(1 << n) if m not in live)


def slow_quarter_records(history) -> list[dict]:
    """The records of a selection history from round 3·budget // 4 on.

    The filter over every record that `advlab.bgg`'s `quarter_records` ran
    before it sliced the round-ordered records; the reference for the slice.
    """
    cut = 3 * history.budget // 4
    return [r for r in history.records if r["round"] >= cut]


def brute_alpha_table(masks: frozenset[int], n: int) -> tuple[int, ...]:
    return tuple(brute_setcon(brute_restrict(masks, region)) for region in range(1 << n))


def all_families(n: int):
    """Every live-set family over {1..n}, the empty one included."""
    candidates = list(range(1, 1 << n))
    for r in range(len(candidates) + 1):
        for picks in itertools.combinations(candidates, r):
            yield frozenset(picks)


def cyclic_edge_closure(n: int) -> Adversary:
    """Every set holding two cyclically adjacent processes i and i + 1 mod n."""
    edges = [1 << i | 1 << (i + 1) % n for i in range(n)]
    return Adversary(n, tuple(m for m in range(1, 1 << n) if any(m & e == e for e in edges)))


def upward_closure(masks: frozenset[int], n: int) -> frozenset[int]:
    full = (1 << n) - 1
    out = set()
    for m in masks:
        rest = full & ~m
        sub = rest
        while True:
            out.add(m | sub)
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return frozenset(out)


def brute_superset_closed(masks: frozenset[int], n: int) -> bool:
    """Every superset of every live set is live: walks all supersets (3^n work)."""
    full = (1 << n) - 1
    for m in masks:
        rest = full & ~m
        sub = rest
        while True:
            if m | sub not in masks:
                return False
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return True


def slow_is_superset_closed(n: int, masks) -> bool:
    """Every superset (within the universe) of every live set is live.

    Every superset is reached from its live set by adding one process at a
    time, so it suffices that each one-process extension of each live set
    is live: |F| * n set lookups, the reference for the library's
    Up(F) == F.
    """
    live = set(masks)
    return all(m | 1 << i in live for m in live for i in range(n))


def superset_closed_families(n: int):
    """All upward-closed families over {1..n}, deduplicated, empty included."""
    seen = {frozenset()}
    yield frozenset()
    for fam in all_families(n):
        closed = upward_closure(fam, n)
        if closed not in seen:
            seen.add(closed)
            yield closed


def symmetric_families(n: int):
    """All cardinality-determined families over {1..n}, empty included."""
    for sizes in itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), r) for r in range(n + 1)
    ):
        yield frozenset(m for m in range(1, 1 << n) if bin(m).count("1") in sizes)


def slow_check_validity(trace: RunTrace) -> Verdict:
    """Every decided value must be some participant's input.

    The witness is the earliest invalid decision in time: the smallest
    step, and at one step the first listed.  Built from that definition:
    every invalid decision with its (step, list position), then the least.
    """
    allowed = {canonical_json(trace.inputs[p]) for p in trace.participating.members() if p in trace.inputs}
    invalid = [
        ((d.step, i), d) for i, d in enumerate(trace.decisions) if canonical_json(d.value) not in allowed
    ]
    if not invalid:
        return Verdict("validity", True)
    _, d = min(invalid, key=lambda item: item[0])
    return Verdict("validity", False, {"step": d.step, "process": d.pid, "value": d.value})


def _decisions_by_time(trace: RunTrace) -> list[tuple[Decision, set[str]]]:
    """Each decision with the distinct values decided by then, earliest first.

    Time is the step index.  Decisions at one step are taken in the order
    the trace lists them, so "by then" is every decision at an earlier
    step, or at the same step and listed no later.  Built from that
    definition alone, one decision at a time, whatever order the list has.
    """
    listed = list(enumerate(trace.decisions))
    return [
        (d, {canonical_json(e.value) for j, e in listed if (e.step, j) <= (d.step, i)})
        for i, d in sorted(listed, key=lambda item: (item[1].step, item[0]))
    ]


def slow_check_alpha_agreement(trace: RunTrace, fn: AgreementFunction) -> Verdict:
    """At each decision, the distinct decisions so far fit the current participation.

    Time is the trace's step index; the participating set at a decision is
    everyone with an event at or before it, whatever order the events are
    listed in.  The witness is the earliest failing decision.  Raises
    ValueError when the trace and the function have different universe sizes.
    """
    if trace.n != fn.n:
        raise ValueError(f"universe mismatch: trace n={trace.n}, alpha n={fn.n}")
    for d, distinct in _decisions_by_time(trace):
        part = ProcessSet.of(trace.n, {ev.pid for ev in trace.events if ev.step <= d.step})
        level = fn.table[part.bits]
        if len(distinct) > level:
            return Verdict(
                "alpha-agreement",
                False,
                {
                    "step": d.step,
                    "process": d.pid,
                    "distinct": len(distinct),
                    "level": level,
                    "participating": list(part.members()),
                },
            )
    return Verdict("alpha-agreement", True)


def slow_check_k_agreement(trace: RunTrace, k: int) -> Verdict:
    """At most k distinct decisions overall, valid or not; the witness is the
    earliest decision by which more than k distinct values were decided."""
    for d, distinct in _decisions_by_time(trace):
        if len(distinct) > k:
            return Verdict(
                "k-agreement",
                False,
                {"step": d.step, "process": d.pid, "distinct": len(distinct), "k": k},
            )
    return Verdict("k-agreement", True)


def has_decided(trace: RunTrace, pid: int) -> bool:
    """Whether the process decided in the trace: a pass over every decision."""
    return any(d.pid == pid for d in trace.decisions)


def slow_check_termination(trace: RunTrace, among: Optional[Iterable[int]] = None) -> Verdict:
    """Every correct participant decided (optionally restricted to a client set)."""
    scope = set(among) if among is not None else None
    for pid in trace.schedule.correct.members():
        if pid not in trace.participating:
            continue
        if scope is not None and pid not in scope:
            continue
        if not has_decided(trace, pid):
            return Verdict(
                "termination", False, {"process": pid, "status": trace.statuses.get(pid)}
            )
    return Verdict("termination", True)


def slow_admits_trace(alpha: AgreementFunction, trace: RunTrace) -> bool:
    """True iff the trace could be a prefix of a run the agreement function admits.

    The trace's participating set P must be non-empty with alpha(P) >= 1,
    and at most alpha(P) - 1 participants may be flagged halted while still
    undecided.  Halted processes that decided before stopping are finished,
    not faulty, so they do not count against the bound.
    """
    part = trace.participating
    if part.n != alpha.n:
        raise ValueError(f"universe mismatch: trace n={part.n}, alpha n={alpha.n}")
    if not part.bits:
        return False
    level = alpha.table[part.bits]
    if level < 1:
        return False
    halted_undecided = [p for p in part.members() if p in trace.schedule.halted_at and not has_decided(trace, p)]
    return len(halted_undecided) <= level - 1


def slow_generate_schedule(adversary, seed: int, budget: int) -> Schedule:
    """Seeded adversary-compliant schedule: the correct set is a live set.

    Participation is the chosen live set plus a random batch of extra,
    faulty processes; every correct process gets at least
    budget // (2 * |live set|) activations, faulty ones a short random
    prefix, and the whole multiset is shuffled uniformly.
    """
    check_schedulable(adversary, budget)
    rng = random.Random(seed)
    live = ProcessSet(adversary.n, rng.choice(adversary.live_sets))
    extras = [p for p in range(1, adversary.n + 1) if p not in live and rng.random() < 0.5]
    return slow_fill_slots(rng, adversary.n, budget, live, extras)


def slow_generate_admissible_schedule(alpha: AgreementFunction, seed: int, budget: int) -> Schedule:
    """Seeded schedule admitted by the agreement function.

    Picks a participating set P with alpha(P) >= 1, at most alpha(P) - 1
    faulty participants, and fair quotas for the correct ones.  Processes
    outside P never step and are not marked correct, so completion tails
    keep the participation at P.
    """
    check_schedulable(alpha, budget)
    rng = random.Random(seed)
    part = rng.choice(alpha.admissible_masks)
    level = alpha.table[part]
    ids = [p for p in range(1, alpha.n + 1) if part >> (p - 1) & 1]
    faulty_count = rng.randint(0, min(level - 1, len(ids) - 1))
    faulty = rng.sample(ids, faulty_count)
    for p in faulty:
        part &= ~(1 << (p - 1))
    return slow_fill_slots(rng, alpha.n, budget, ProcessSet(alpha.n, part), faulty)


def slow_fill_slots(rng: random.Random, n: int, budget: int, correct: ProcessSet, faulty: list[int]) -> Schedule:
    """Fair quotas for the correct processes, a short random prefix for each
    faulty one, random correct activations up to the budget, all shuffled;
    each faulty process halts at its last slot."""
    correct_ids = list(correct.members())
    quota = budget // (2 * len(correct_ids))
    slots: list[int] = []
    for p in correct_ids:
        slots.extend([p] * quota)
    for p in faulty:
        slots.extend([p] * rng.randint(1, max(1, budget // (4 * n))))
    while len(slots) < budget:
        slots.append(rng.choice(correct_ids))
    rng.shuffle(slots)
    halted_at = {p: _last_index(slots, p) for p in faulty}
    return Schedule(n, tuple(slots), halted_at, correct)


def truncate_trace(trace: RunTrace, step: int) -> RunTrace:
    """The prefix of a trace up to and including the given step index.

    A process with an event in the prefix is "decided" if it decided by
    then, else "running"; protocol statuses are not kept.
    """
    events = [e for e in trace.events if e.step <= step]
    decisions = [d for d in trace.decisions if d.step <= step]
    prefix = Schedule(
        trace.n,
        trace.schedule.steps[: step + 1],
        {p: at for p, at in trace.schedule.halted_at.items() if at <= step},
        trace.schedule.correct,
    )
    participating = ProcessSet.of(trace.n, {e.pid for e in events})
    decided = {d.pid for d in decisions}
    final = {pid: "decided" if pid in decided else "running" for pid in participating.members()}
    return RunTrace(prefix, dict(trace.inputs), events, decisions, participating, final)


class EchoProtocol(Protocol):
    """Write the input, look once, decide the own input."""

    name = "echo"

    def program(self, pid: int):
        v = self._input(pid)
        yield {"val": v}
        return v


class IdealSetConsensus:
    """Simulation-level set-consensus object: at most `limit` distinct outputs.

    The first `limit` proposers keep their own values, later proposers adopt
    the first pooled one.  This is the adversarial extreme allowed by the
    contract, which is what the calling protocol's bounds must absorb.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.pool: list = []

    def propose(self, value):
        if len(self.pool) < self.limit:
            self.pool.append(value)
            return value
        return self.pool[0]


class OracleAgreement:
    """Adaptive-agreement subroutine backed by ideal objects, in place of
    `advlab.protocols.EmbeddedAgreement`."""

    def __init__(self, fn: AgreementFunction):
        self.fn = fn
        self._objects: dict[int, IdealSetConsensus] = {}

    def run(self, proto: Protocol, pid: int, parts: int, level: int, proposal, rec: dict, payload):
        """A generator, like EmbeddedAgreement.run, that takes no step."""
        yield from ()
        return self._objects.setdefault(parts, IdealSetConsensus(level)).propose(proposal)
