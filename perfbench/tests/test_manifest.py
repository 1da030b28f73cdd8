"""``BENCHMARK.json`` must say what the code measures."""

import json
from pathlib import Path

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import SPECS

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_keys_are_exactly_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["perfbench"]


def test_workloads_match_the_specs():
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (spec.name, spec.why) for spec in SPECS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in MANIFEST["workloads"])


def test_end_to_end_matches_the_metric_list():
    assert MANIFEST["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound, _ in END_TO_END
    ]
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower",
              "bound": max(b for *_, b, _ in END_TO_END)}
        for m in MANIFEST["end_to_end"]
    )
    assert all(m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


def test_per_layer_matches_the_metric_list():
    assert MANIFEST["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in PER_LAYER
    ]
    assert len(PER_LAYER) <= 128
