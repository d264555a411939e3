"""Bit-set subsets of a small process universe."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_UNIVERSE = 16


@dataclass(frozen=True)
class ProcessSet:
    """A subset of the process universe {1..n}, stored as a bit mask.

    Bit i-1 holds process i.  Sets over different universe sizes never mix;
    every combining operation checks that the sizes match.
    """

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_UNIVERSE:
            raise ValueError(f"universe size must be in 1..{MAX_UNIVERSE}, got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"mask {self.bits:#x} has bits outside a universe of size {self.n}")

    @classmethod
    def of(cls, n: int, ids: Iterable[int] = ()) -> "ProcessSet":
        bits = 0
        for i in ids:
            if not 1 <= int(i) <= n:
                raise ValueError(f"process id {i} outside 1..{n}")
            bits |= 1 << (int(i) - 1)
        return cls(n, bits)

    @classmethod
    def full(cls, n: int) -> "ProcessSet":
        return cls(n, (1 << n) - 1)

    def members(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.bits >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, pid: int) -> bool:
        return 1 <= pid <= self.n and self.bits >> (pid - 1) & 1 == 1

    def _check(self, other: "ProcessSet") -> None:
        if self.n != other.n:
            raise ValueError(f"universe mismatch: {self.n} vs {other.n}")

    def __or__(self, other: "ProcessSet") -> "ProcessSet":
        self._check(other)
        return ProcessSet(self.n, self.bits | other.bits)

    def __and__(self, other: "ProcessSet") -> "ProcessSet":
        self._check(other)
        return ProcessSet(self.n, self.bits & other.bits)

    def __sub__(self, other: "ProcessSet") -> "ProcessSet":
        self._check(other)
        return ProcessSet(self.n, self.bits & ~other.bits)

    def issubset(self, other: "ProcessSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def without(self, pid: int) -> "ProcessSet":
        if not 1 <= pid <= self.n:
            raise ValueError(f"process id {pid} outside 1..{self.n}")
        return ProcessSet(self.n, self.bits & ~(1 << (pid - 1)))

    def __repr__(self) -> str:
        return f"ProcessSet({self.n}, {{{','.join(map(str, self.members()))}}})"
