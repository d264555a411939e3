"""Subsets of a small process universe: bit masks, and the ProcessSet of a run description.

Process i is bit i-1 of a mask.  The adversary layer hands out plain int
masks; `mask_of` and `ids_of` convert between a mask and its ids.
ProcessSet pairs a mask with its universe size, for the sets a run
description holds (`Schedule.correct`, `RunTrace.participating`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

MAX_UNIVERSE = 16


def check_universe(n: int) -> None:
    if not 1 <= n <= MAX_UNIVERSE:
        raise ValueError(f"universe size must be in 1..{MAX_UNIVERSE}, got {n}")


def check_mask(n: int, mask: int) -> None:
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {mask:#x} has bits outside a universe of size {n}")


def mask_of(n: int, ids: Iterable[int]) -> int:
    """The mask of process ids over {1..n}: each id is checked, then the universe size."""
    mask = 0
    for i in ids:
        if not 1 <= int(i) <= n:
            raise ValueError(f"process id {i} outside 1..{n}")
        mask |= 1 << (int(i) - 1)
    check_universe(n)
    return mask


def ids_of(n: int, mask: int) -> list[int]:
    """The processes of a mask over {1..n}, ascending."""
    return [i + 1 for i in range(n) if mask >> i & 1]


@dataclass(frozen=True)
class ProcessSet:
    """A subset of the process universe {1..n}, stored as a bit mask.

    Bit i-1 holds process i.  The value type of a run description's sets;
    set algebra is done on `bits`.
    """

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        check_universe(self.n)
        check_mask(self.n, self.bits)

    @classmethod
    def of(cls, n: int, ids: Iterable[int] = ()) -> "ProcessSet":
        return cls(n, mask_of(n, ids))

    def members(self) -> tuple[int, ...]:
        return tuple(ids_of(self.n, self.bits))

    def __contains__(self, pid: int) -> bool:
        return 1 <= pid <= self.n and self.bits >> (pid - 1) & 1 == 1

    def __repr__(self) -> str:
        return f"ProcessSet({self.n}, {{{','.join(map(str, ids_of(self.n, self.bits)))}}})"
