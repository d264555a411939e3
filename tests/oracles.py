"""Independent brute-force oracles used to cross-check the package.

Everything here works on plain integers (bit masks) and deliberately
avoids the package's own recursion, memoization, and search strategies,
except `slow_fairness_counterexample`: the direct per-Q fairness scan, kept
on the package's region tables as the reference for the local fairness
criterion, and the `slow_check_*` checkers and `slow_admits_trace`: the
validity and agreement checkers compare values by one `canonical_json` text
each, the reference for the hash-keyed checkers, and the termination checker
and the admission test ask `RunTrace.has_decided` (a pass over every
decision) per process, the reference for the one-pass versions.

It also holds `truncate_trace`, the prefix of a recorded trace up to a
step, which the checker tests use to re-check a trace cut at a witness and
the simulator's golden digest uses to pin prefixes.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from advlab import Adversary, ProcessSet
from advlab.alpha import AgreementFunction
from advlab.checkers import Verdict
from advlab.sim import RunTrace, Schedule, canonical_json


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
                return ProcessSet(n, p_bits), ProcessSet(n, q_bits)
    return None


def brute_alpha_table(masks: frozenset[int], n: int) -> tuple[int, ...]:
    return tuple(brute_setcon(brute_restrict(masks, region)) for region in range(1 << n))


def all_families(n: int):
    """Every live-set family over {1..n}, the empty one included."""
    candidates = list(range(1, 1 << n))
    for r in range(len(candidates) + 1):
        for picks in itertools.combinations(candidates, r):
            yield frozenset(picks)


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
    """Every decided value must be some participant's input."""
    allowed = {canonical_json(trace.inputs[p]) for p in trace.participating if p in trace.inputs}
    for d in trace.decisions:
        if canonical_json(d.value) not in allowed:
            return Verdict(
                "validity", False, {"step": d.step, "process": d.pid, "value": d.value}
            )
    return Verdict("validity", True)


def slow_check_alpha_agreement(trace: RunTrace, fn: AgreementFunction) -> Verdict:
    """At each decision, the distinct decisions so far fit the current participation.

    Time is the trace's step index; the participating set at a decision is
    everyone with an event at or before it.  Raises ValueError when the
    trace and the function have different universe sizes.
    """
    if trace.n != fn.n:
        raise ValueError(f"universe mismatch: trace n={trace.n}, alpha n={fn.n}")
    first = trace.first_steps()
    distinct: set[str] = set()
    for d in trace.decisions:
        distinct.add(canonical_json(d.value))
        bits = 0
        for pid, at in first.items():
            if at <= d.step:
                bits |= 1 << (pid - 1)
        level = fn.of_bits(bits)
        if len(distinct) > level:
            return Verdict(
                "alpha-agreement",
                False,
                {
                    "step": d.step,
                    "process": d.pid,
                    "distinct": len(distinct),
                    "level": level,
                    "participating": [p + 1 for p in range(trace.n) if bits >> p & 1],
                },
            )
    return Verdict("alpha-agreement", True)


def slow_check_k_agreement(trace: RunTrace, k: int) -> Verdict:
    """At most k distinct decisions overall, and every one of them valid."""
    validity = slow_check_validity(trace)
    if not validity.passed:
        return Verdict("k-agreement", False, validity.witness)
    distinct: set[str] = set()
    for d in trace.decisions:
        distinct.add(canonical_json(d.value))
        if len(distinct) > k:
            return Verdict(
                "k-agreement",
                False,
                {"step": d.step, "process": d.pid, "distinct": len(distinct), "k": k},
            )
    return Verdict("k-agreement", True)


def slow_check_termination(trace: RunTrace, among: Optional[Iterable[int]] = None) -> Verdict:
    """Every correct participant decided (optionally restricted to a client set)."""
    scope = set(among) if among is not None else None
    for pid in trace.schedule.correct:
        if pid not in trace.participating:
            continue
        if scope is not None and pid not in scope:
            continue
        if not trace.has_decided(pid):
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
    if len(part) == 0:
        return False
    level = alpha.value_of(part)
    if level < 1:
        return False
    halted_undecided = [p for p in part if p in trace.schedule.halted_at and not trace.has_decided(p)]
    return len(halted_undecided) <= level - 1


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
    final = {pid: "decided" if pid in decided else "running" for pid in participating}
    return RunTrace(prefix, dict(trace.inputs), events, decisions, participating, final)
