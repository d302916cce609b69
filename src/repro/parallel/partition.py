"""Work partitioning helper."""

from __future__ import annotations

from typing import Sequence, TypeVar

T = TypeVar("T")

__all__ = ["partition_chunks"]


def partition_chunks(items: Sequence[T], n_parts: int) -> list[list[T]]:
    """Split into *n_parts* contiguous chunks with sizes differing by <= 1.

    Good when items are ordered (e.g. time ranges) and locality matters.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    items = list(items)
    n = len(items)
    base, extra = divmod(n, n_parts)
    parts: list[list[T]] = []
    start = 0
    for i in range(n_parts):
        size = base + (1 if i < extra else 0)
        parts.append(items[start : start + size])
        start += size
    return parts
