"""Semistandard tableaux of one content, walked once for every shape, and the charge statistic."""

from __future__ import annotations

from collections import Counter

from .partition import Partition


def charge_counts(content: Partition) -> dict[Partition, Counter]:
    """{shape: Counter of charges} over the semistandard tableaux of the given content.

    The cells of value v form a horizontal strip, placed from the bottom row up:
    a row grows by appending and never past the row above it, and the top row
    takes the cells left.  Each tableau's reading word (rows left to right,
    bottom row first) is charged and counted under its shape, and not kept.
    """
    rows: list[list[int]] = [[] for _ in range(len(content) + 1)]
    found: dict[tuple[int, ...], Counter] = {}

    def strip(v: int, height: int, r: int, left: int) -> None:
        # `left` cells of value v still go into rows r, r-1, ..., 0; rows[:height] are not empty
        row, start = rows[r], len(rows[r])
        if r:
            for a in range(min(left, len(rows[r - 1]) - start) + 1):
                strip(v, height, r - 1, left - a)
                row.append(v)
        else:
            row.extend([v] * left)
            height += bool(rows[height])
            if v < len(content):
                strip(v + 1, height, height, content[v])
            else:
                word = [x for done in reversed(rows[:height]) for x in done]
                found.setdefault(tuple(map(len, rows[:height])), Counter())[charge(word)] += 1
        del row[start:]

    strip(0, 0, 0, 0)  # value 0 has no cells; its top row starts value 1
    return {Partition(shape): counts for shape, counts in found.items()}


def charge(word) -> int:
    """Lascoux-Schutzenberger charge of a word whose content is a partition.

    Repeatedly extract a standard subword: take the rightmost 1, then scan
    leftward (cyclically) for a 2, then a 3, and so on.  Each letter whose
    scan wraps around the left end increments the running index; charge is
    the sum of the indices over all letters of all extracted subwords.
    """
    w = list(word)
    total = 0
    while w:
        top = max(w)
        pos = max(i for i, v in enumerate(w) if v == 1)
        chosen = [pos]
        index = 0
        for letter in range(2, top + 1):
            j = pos - 1
            wrapped = False
            while True:
                if j < 0:
                    j = len(w) - 1
                    wrapped = True
                if w[j] == letter:
                    break
                j -= 1
            if wrapped:
                index += 1
            total += index
            chosen.append(j)
            pos = j
        for j in sorted(chosen, reverse=True):
            del w[j]
    return total

