"""Independent brute-force oracles used to cross-check the package.

Everything here works on plain integers (bit masks) and deliberately
avoids the package's own recursion, memoization, and search strategies.
"""

from __future__ import annotations

import itertools


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
