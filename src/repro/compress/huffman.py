"""Huffman code construction (codeword lengths only).

The canonical Huffman encoding (Section 3) needs only the *lengths* of
an optimal prefix code; the codewords themselves are derived from the
per-length counts ``N[i]``.  This module computes those lengths.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Hashable, Iterable


def huffman_code_lengths(
    frequencies: dict[Hashable, int],
) -> dict[Hashable, int]:
    """Optimal prefix-code length for each symbol.

    Ties are broken deterministically (by combined weight, then by
    creation order), so the same frequencies always give the same
    lengths.  A single-symbol alphabet gets a 1-bit code.  Symbols with
    zero frequency are rejected: the caller decides the alphabet.
    """
    if not frequencies:
        raise ValueError("cannot build a Huffman code for an empty alphabet")
    if min(frequencies.values()) <= 0:
        symbol = next(s for s, freq in frequencies.items() if freq <= 0)
        raise ValueError(f"symbol {symbol!r} has non-positive frequency")

    symbols = list(frequencies)
    count = len(symbols)
    if count == 1:
        return {symbols[0]: 1}

    # Heap entries are (weight, node): leaves are nodes 0 .. count - 1
    # in insertion order, and each merge makes the next node, so the
    # node number is also the tie-break (creation order).
    heap = list(zip(frequencies.values(), range(count)))
    heapq.heapify(heap)
    parent = [0] * (2 * count - 1)
    pop, push = heapq.heappop, heapq.heappush
    for node in range(count, 2 * count - 1):
        w1, n1 = pop(heap)
        w2, n2 = pop(heap)
        parent[n1] = parent[n2] = node
        push(heap, (w1 + w2, node))

    # A parent is always made after its children: walk down from the
    # root, whose depth is 0.
    depth = [0] * (2 * count - 1)
    for node in range(2 * count - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return dict(zip(symbols, depth))


def count_frequencies(values: Iterable[Hashable]) -> dict[Hashable, int]:
    """Frequency table of *values* (first pass of the two-pass encoder)."""
    return dict(Counter(values))
