"""Tests for the project import graph: edges, resolution, cycles."""

import ast

from repro.analyze.graph import (
    LAYER_DEPS,
    ProjectGraph,
    extract_edges,
    package_of,
    validate_layer_declaration,
)


def edges_of(source, module="repro.core.sample", is_package=False, tags=None):
    tree = ast.parse(source)
    return extract_edges(
        "x.py", module, tree, line_tags=tags or {}, is_package=is_package
    )


class TestExtractEdges:
    def test_plain_and_from_imports(self):
        edges = edges_of(
            "import repro.storage.device\n"
            "from repro.policies import lru\n"
        )
        assert [(e.target, e.deferred, e.type_checking) for e in edges] == [
            ("repro.storage.device", False, False),
            ("repro.policies.lru", False, False),
        ]

    def test_non_repro_imports_are_ignored(self):
        assert edges_of("import os\nfrom json import dumps\n") == []
        # A top-level module merely *prefixed* with repro is not ours.
        assert edges_of("import reproduce\n") == []

    def test_function_scope_import_is_deferred(self):
        edges = edges_of(
            "def f():\n"
            "    from repro.engine import executor\n"
        )
        assert len(edges) == 1 and edges[0].deferred

    def test_type_checking_gate_is_recorded(self):
        edges = edges_of(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.engine import executor\n"
        )
        assert len(edges) == 1 and edges[0].type_checking

    def test_relative_import_resolves_against_module(self):
        # Symbol imports overshoot by one component on purpose; the
        # graph's longest-prefix resolve lands them on the real module.
        edges = edges_of(
            "from . import lru\nfrom .clock import VirtualClock\n",
            module="repro.storage.device",
        )
        assert [e.target for e in edges] == [
            "repro.storage.lru", "repro.storage.clock.VirtualClock",
        ]

    def test_relative_import_from_package_init(self):
        edges = edges_of(
            "from .device import SimulatedSSD\n",
            module="repro.storage",
            is_package=True,
        )
        assert [e.target for e in edges] == [
            "repro.storage.device.SimulatedSSD"
        ]

    def test_suppression_tags_ride_along(self):
        edges = edges_of(
            "from repro.engine import executor\n",
            tags={1: frozenset({"allow-layering"})},
        )
        assert edges[0].tags == frozenset({"allow-layering"})

    def test_conditional_and_try_imports_are_module_scope(self):
        edges = edges_of(
            "try:\n"
            "    import repro.bench.plot\n"
            "except ImportError:\n"
            "    repro_plot = None\n"
            "if True:\n"
            "    from repro.errors import ReproError\n"
        )
        assert all(not e.deferred and not e.type_checking for e in edges)
        assert len(edges) == 2


class TestPackageOf:
    def test_submodules_map_to_their_package(self):
        assert package_of("repro.policies.lru") == "repro.policies"
        assert package_of("repro.bufferpool.manager") == "repro.bufferpool"

    def test_top_level_modules_own_their_key(self):
        assert package_of("repro.errors") == "repro.errors"
        assert package_of("repro") == "repro"


class TestProjectGraph:
    def test_resolve_longest_known_prefix(self):
        graph = ProjectGraph([], ["repro.storage", "repro.storage.device"])
        assert graph.resolve("repro.storage.device") == "repro.storage.device"
        assert graph.resolve("repro.storage.device.SimulatedSSD") == \
            "repro.storage.device"
        assert graph.resolve("repro.storage.clock") == "repro.storage"
        assert graph.resolve("repro.engine") is None

    def test_runtime_edges_skip_deferred_and_type_checking(self):
        modules = ["repro.a", "repro.b"]
        mk = lambda **kw: dict(  # noqa: E731 - local edge factory
            src_path="x.py", src_module="repro.a", target="repro.b",
            lineno=1, col=0, deferred=False, type_checking=False,
        ) | kw
        from repro.analyze.graph import ImportEdge

        edges = [
            ImportEdge(**mk()),
            ImportEdge(**mk(deferred=True, lineno=2)),
            ImportEdge(**mk(type_checking=True, lineno=3)),
        ]
        adjacency = ProjectGraph(edges, modules).runtime_module_edges()
        assert adjacency["repro.a"] == {"repro.b"}

    def test_two_module_cycle_detected(self):
        graph = ProjectGraph(
            edges_of("from repro.core.b import x\n", module="repro.core.a")
            + edges_of("from repro.core.a import y\n", module="repro.core.b"),
            ["repro.core.a", "repro.core.b"],
        )
        assert graph.cycles() == [["repro.core.a", "repro.core.b"]]

    def test_three_module_cycle_rotated_deterministically(self):
        graph = ProjectGraph(
            edges_of("import repro.core.b\n", module="repro.core.a")
            + edges_of("import repro.core.c\n", module="repro.core.b")
            + edges_of("import repro.core.a\n", module="repro.core.c"),
            ["repro.core.a", "repro.core.b", "repro.core.c"],
        )
        assert graph.cycles() == [
            ["repro.core.a", "repro.core.b", "repro.core.c"]
        ]

    def test_deferred_import_breaks_the_cycle(self):
        graph = ProjectGraph(
            edges_of("import repro.core.b\n", module="repro.core.a")
            + edges_of(
                "def late():\n    import repro.core.a\n",
                module="repro.core.b",
            ),
            ["repro.core.a", "repro.core.b"],
        )
        assert graph.cycles() == []

    def test_edge_for_finds_the_reporting_site(self):
        edges = edges_of(
            "import os\nfrom repro.core.b import x\n", module="repro.core.a"
        )
        graph = ProjectGraph(edges, ["repro.core.a", "repro.core.b"])
        edge = graph.edge_for("repro.core.a", "repro.core.b")
        assert edge is not None and edge.lineno == 2


class TestLayerDeclaration:
    def test_shipped_declaration_is_valid(self):
        validate_layer_declaration()

    def test_policies_and_bufferpool_cannot_reach_up(self):
        for low in ("repro.policies", "repro.bufferpool"):
            assert "repro.engine" not in LAYER_DEPS[low]
            assert "repro.bench" not in LAYER_DEPS[low]

    def test_analyze_stands_alone(self):
        assert LAYER_DEPS["repro.analyze"] == frozenset({"repro.errors"})
