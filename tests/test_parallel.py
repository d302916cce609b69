"""Tests for the EMS pool's work partitioning."""

import pytest

from repro.parallel import partition_chunks


class TestPartition:
    def test_chunks_contiguous(self):
        parts = partition_chunks(list(range(10)), 3)
        assert parts == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_more_parts_than_items(self):
        parts = partition_chunks([1, 2], 4)
        assert parts == [[1], [2], [], []]

    def test_single_part(self):
        assert partition_chunks([1, 2, 3], 1) == [[1, 2, 3]]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_chunks([1], 0)
