"""Independent reference answers for the benchmark's output checks.

Everything here works on plain bit masks and shares no code with advlab,
so a defect in the program cannot hide in its own check.
"""

from __future__ import annotations

import itertools
from math import comb, factorial


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def setcon_by_region(masks, n: int) -> list[int]:
    """Set-consensus power of the family restricted to every region, by region mask.

    Restricting twice equals restricting to the intersection, so the
    recursion only visits regions: power(R) is the best live set S inside R
    of 1 + min over a in S of power(S minus a).
    """
    family = sorted(masks)
    table = [0] * (1 << n)
    for region in range(1 << n):
        best = 0
        for s in family:
            if s & ~region:
                continue
            worst = min(table[s & ~(1 << i)] for i in range(n) if s >> i & 1)
            best = max(best, worst + 1)
        table[region] = best
    return table


def setcon_of(masks, n: int) -> int:
    return setcon_by_region(masks, n)[(1 << n) - 1]


def is_fair(masks, n: int) -> bool:
    """Direct check: every (P, Q) keeps min(|Q|, power(F|P)) when only Q-touching sets remain."""
    by_region = setcon_by_region(masks, n)
    for region in range(1, 1 << n):
        inside = [s for s in masks if s & ~region == 0]
        for targets in range(1, 1 << n):
            if targets & ~region:
                continue
            touching = [s for s in inside if s & targets]
            if setcon_of(touching, n) != min(popcount(targets), by_region[region]):
                return False
    return True


def is_superset_closed(masks, n: int) -> bool:
    family = set(masks)
    return all(s | 1 << i in family for s in family for i in range(n))


def is_symmetric(masks, n: int) -> bool:
    sizes = {popcount(s) for s in masks}
    return len(masks) == sum(comb(n, k) for k in sizes)


def min_hitting_set(masks, n: int) -> int:
    return min(popcount(h) for h in range(1, 1 << n) if all(h & s for s in masks))


def is_monotonic(table, n: int) -> bool:
    """alpha(P) <= |P| and alpha never drops when a process is added."""
    for bits, v in enumerate(table):
        if v > popcount(bits):
            return False
        if any(not bits >> i & 1 and v > table[bits | 1 << i] for i in range(n)):
            return False
    return True


def sizes_masks(n: int, sizes) -> list[int]:
    wanted = set(sizes)
    return [m for m in range(1, 1 << n) if popcount(m) in wanted]


def upward_closure(n: int, generators) -> list[int]:
    return [m for m in range(1, 1 << n) if any(m & g == g for g in generators)]


def enumerated_space(n: int, steps: int, halts: int) -> int:
    """Schedules `advlab enumerate` covers: interleavings of every halt choice.

    Correct processes take `steps` steps; each of up to `halts` faulty
    processes takes 0..steps-1 steps.
    """
    total = 0
    for faulty in range(min(halts, n) + 1):
        for cuts in itertools.product(range(steps), repeat=faulty):
            counts = [steps] * (n - faulty) + list(cuts)
            arrangements = factorial(sum(counts))
            for c in counts:
                arrangements //= factorial(c)
            total += comb(n, faulty) * arrangements
    return total
