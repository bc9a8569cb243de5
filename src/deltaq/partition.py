"""Integer partitions: conjugation, cell statistics, generation."""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from typing import Iterator, NamedTuple


class CellStat(NamedTuple):
    """Arm/leg/content/hook of one cell, 0-indexed English convention."""

    row: int
    col: int
    arm: int
    leg: int
    content: int
    hook: int


class Partition(tuple):
    """Weakly decreasing tuple of positive integers.  Hashable, renders as '[3,1,1]'."""

    def __new__(cls, parts=()):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if not isinstance(p, int) or p <= 0:
                raise ValueError(f"parts must be positive integers, got {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        return Partition(sum(1 for p in self if p > j) for j in range(self[0]))

    def nstat(self) -> int:
        """sum_i (i-1) * part_i, equivalently the total leg count."""
        return sum(i * p for i, p in enumerate(self))

    def multiplicities(self) -> dict[int, int]:
        return dict(Counter(self))

    def cells(self) -> Iterator[tuple[int, int]]:
        for i, p in enumerate(self):
            for j in range(p):
                yield i, j

    def cell_stats(self) -> list[CellStat]:
        conj = self.conjugate()
        out = []
        for i, j in self.cells():
            arm = self[i] - j - 1
            leg = conj[j] - i - 1
            out.append(CellStat(i, j, arm, leg, j - i, arm + leg + 1))
        return out

    def is_hook(self) -> bool:
        return len(self) <= 1 or all(p == 1 for p in self[1:])

    def render(self) -> str:
        return "[" + ",".join(str(p) for p in self) + "]"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return self.render()


def parse_partition(text: str) -> Partition:
    """Inverse of Partition.render: '[3,1,1]' -> Partition((3,1,1)), each part ASCII digits."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected bracketed partition, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return Partition()
    pieces = [piece.strip() for piece in inner.split(",")]
    for piece in pieces:
        if not re.fullmatch(r"[0-9]+", piece):
            raise ValueError(f"invalid literal for int() with base 10: {piece!r}")
    return Partition(map(int, pieces))


def _gen(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partitions_of(n: int, length: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first, (1^n) last.

    With length given, only partitions with exactly that many parts.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    parts = tuple(Partition(p) for p in _gen(n, n if n else 1))
    if length is not None:
        parts = tuple(p for p in parts if len(p) == length)
    return parts
