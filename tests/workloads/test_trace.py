"""Tests for trace structures."""

import numpy as np
import pytest

from repro.workloads.trace import PageRequest, Trace


class TestPageRequest:
    def test_str(self):
        assert str(PageRequest(3, True)) == "W(3)"
        assert str(PageRequest(3, False)) == "R(3)"


class TestTrace:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Trace([1, 2], [True])

    def test_len_and_indexing(self):
        trace = Trace([1, 2, 3], [True, False, True])
        assert len(trace) == 3
        assert trace[1] == PageRequest(2, False)

    def test_iteration_yields_requests(self):
        trace = Trace([1, 2], [True, False])
        assert list(trace) == [PageRequest(1, True), PageRequest(2, False)]

    def test_from_arrays(self):
        trace = Trace.from_arrays(
            np.array([5, 6]), np.array([True, False]), name="x"
        )
        assert trace.pages == [5, 6]
        assert trace.writes == [True, False]
        assert isinstance(trace.pages[0], int)

    def test_from_requests(self):
        trace = Trace.from_requests([PageRequest(1, True)], name="y")
        assert trace.pages == [1]

    def test_read_write_counts(self):
        trace = Trace([1, 2, 3, 4], [True, False, False, False])
        assert trace.num_writes == 1
        assert trace.num_reads == 3
        assert trace.read_fraction == pytest.approx(0.75)

    def test_unique_pages_and_footprint(self):
        trace = Trace([5, 5, 9, 2], [False] * 4)
        assert trace.unique_pages() == 3
        assert trace.footprint() == (2, 9)

    def test_empty_footprint_raises(self):
        with pytest.raises(ValueError):
            Trace([], []).footprint()

    def test_slice(self):
        trace = Trace([1, 2, 3], [True, False, True])
        part = trace.slice(1, 3)
        assert part.pages == [2, 3]

    def test_locality_measures_skew(self):
        pages = [0] * 90 + list(range(1, 11))
        trace = Trace(pages, [False] * 100)
        assert trace.locality(hot_fraction=0.1, total_pages=100) > 0.85

    def test_locality_uniform_is_low(self):
        trace = Trace(list(range(100)), [False] * 100)
        assert trace.locality(hot_fraction=0.1, total_pages=100) == pytest.approx(0.1)

    def test_locality_validation(self):
        with pytest.raises(ValueError):
            Trace([1], [True]).locality(hot_fraction=0.0)


class TestClientIds:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace([1, 2], [True, False], client_ids=[0])

    def test_defaults_to_none(self):
        assert Trace([1], [True]).client_ids is None

    def test_slice_carries_client_ids(self):
        trace = Trace([1, 2, 3], [True, False, True], client_ids=[0, 1, 2])
        part = trace.slice(1, 3)
        assert part.client_ids == [1, 2]

    def test_slice_without_client_ids_stays_none(self):
        assert Trace([1, 2], [True, False]).slice(0, 1).client_ids is None
