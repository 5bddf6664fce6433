"""Small bitmask helpers shared by the graph, complex and sweep code."""

from __future__ import annotations

from typing import Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of *mask*, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

