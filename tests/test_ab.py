"""``benchmarks/ab.py``'s summary: ratios are change / parent, and a pair
counts as won only when the change is strictly better in the metric's
direction."""

import pytest

from benchmarks.ab import summarise


def test_summary_is_median_ratio_range_and_pairs_won():
    parent = [{"cost": 10.0, "share": 1.0}, {"cost": 20.0, "share": 1.0},
              {"cost": 10.0, "share": 1.0}]
    change = [{"cost": 9.0, "share": 1.0}, {"cost": 22.0, "share": 0.5},
              {"cost": 10.0, "share": 1.0}]
    rows = summarise(parent, change, {"cost": "lower", "share": "higher"})
    assert rows == [
        ("cost", 10.0, 10.0, 1.0, 0.9, pytest.approx(1.1), 1),
        ("share", 1.0, 1.0, 1.0, 0.5, 1.0, 0),
    ]
