"""Tests for the NPL lookahead prefetcher (OPL is NPL at depth 1)."""

import pytest

from repro.prefetch.base import NullPrefetcher
from repro.prefetch.sequential import NPLPrefetcher


class TestNull:
    def test_never_suggests(self):
        assert NullPrefetcher().suggest(5, 10) == []


class TestOPL:
    def test_suggests_next_page(self):
        assert NPLPrefetcher(depth=1).suggest(5, 10) == [6]

    def test_respects_max_page(self):
        assert NPLPrefetcher(depth=1, max_page=6).suggest(5, 10) == []


class TestNPL:
    def test_suggests_depth_pages(self):
        assert NPLPrefetcher(depth=3).suggest(5, 10) == [6, 7, 8]

    def test_limited_by_n(self):
        assert NPLPrefetcher(depth=8).suggest(5, 2) == [6, 7]

    def test_max_page_filter(self):
        assert NPLPrefetcher(depth=4, max_page=7).suggest(5, 10) == [6]

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            NPLPrefetcher(depth=0)

    def test_no_self_suggestion(self):
        suggestions = NPLPrefetcher(depth=4).suggest(5, 10)
        assert 5 not in suggestions
