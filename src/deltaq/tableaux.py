"""Semistandard tableaux and the charge statistic."""

from __future__ import annotations

from functools import lru_cache

from .partition import Partition


def ssyt(shape: Partition, content: Partition) -> tuple[tuple[int, ...], ...]:
    """All semistandard tableaux of the given shape and content, each as its reading word.

    Rows weakly increase left to right, columns strictly increase downward,
    value i appears content[i-1] times.  The word reads the rows left to
    right, bottom row first, as ``charge`` takes it.
    """
    if shape.size != sum(content):
        return ()
    nvals = len(content)
    remaining = list(content)
    word = [0] * shape.size
    found: list[tuple[int, ...]] = []
    # (place in the word, places of the left and upper neighbours or -1), top row first
    start = [sum(shape[i + 1:]) for i in range(len(shape))]
    cells = [(start[i] + j, start[i] + j - 1 if j else -1, start[i - 1] + j if i else -1)
             for i, p in enumerate(shape) for j in range(p)]

    def fill(idx: int) -> None:
        if idx == len(cells):
            found.append(tuple(word))
            return
        at, left, up = cells[idx]
        lo = word[left] if left >= 0 else 1
        if up >= 0:
            lo = max(lo, word[up] + 1)
        for v in range(lo, nvals + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                word[at] = v
                fill(idx + 1)
                remaining[v - 1] += 1

    fill(0)
    return tuple(found)


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


@lru_cache(maxsize=None)
def kostka_number(shape: Partition, content: Partition) -> int:
    return len(ssyt(shape, content))
