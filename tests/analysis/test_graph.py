"""Golden tests for the project graph export and the graph API itself.

``fixtures_graph/pkg`` is a four-module package exercising every import
flavour the collector distinguishes: eager absolute, eager relative,
TYPE_CHECKING-only, and lazy (function-body).  The JSON export is pinned
structurally — any change to the schema or the resolver shows up here.
"""

import json
from pathlib import Path

from repro.analysis.cli import load_project
from repro.analysis.graph import GRAPH_JSON_VERSION, ProjectGraph

PKG = Path(__file__).parent / "fixtures_graph" / "pkg"

GOLDEN = {
    "version": GRAPH_JSON_VERSION,
    "modules": [
        {"name": "pkg", "path": "__init__.py", "layer": "__init__", "imports": []},
        {"name": "pkg.base", "path": "base.py", "layer": "base", "imports": []},
        {
            "name": "pkg.middle",
            "path": "middle.py",
            "layer": "middle",
            "imports": [
                {"target": "pkg.base", "line": 5, "lazy": False, "type_checking": False},
                {"target": "pkg.base", "line": 6, "lazy": False, "type_checking": False},
                {"target": "pkg.top", "line": 9, "lazy": False, "type_checking": True},
            ],
        },
        {
            "name": "pkg.top",
            "path": "top.py",
            "layer": "top",
            "imports": [
                {"target": "pkg.middle", "line": 3, "lazy": False, "type_checking": False},
                {"target": "pkg.base", "line": 9, "lazy": True, "type_checking": False},
            ],
        },
    ],
}


def build():
    _, project = load_project([PKG])
    return project


class TestGoldenExports:
    def test_json_matches_golden(self):
        assert json.loads(build().to_json()) == GOLDEN

    def test_dot_styles_every_edge_flavour(self):
        dot = build().to_dot()
        assert dot.startswith("digraph project {")
        assert '"pkg.top" -> "pkg.middle";' in dot
        assert '"pkg.top" -> "pkg.base" [style=dashed, label="lazy"];' in dot
        assert '"pkg.middle" -> "pkg.top" [style=dotted, label="type"];' in dot


class TestGraphApi:
    def test_relative_import_resolves_like_absolute(self):
        # middle.py imports pkg.base twice: once absolute, once relative.
        middle = build().modules["pkg.middle"]
        targets = [e.target for e in middle.imports if e.eager]
        assert targets.count("pkg.base") == 2

    def test_eager_only_edges_drop_lazy_and_type_checking(self):
        eager = {(e.source, e.target) for e in build().edges(eager_only=True)}
        assert ("pkg.top", "pkg.base") not in eager  # lazy
        assert ("pkg.middle", "pkg.top") not in eager  # TYPE_CHECKING
        assert ("pkg.top", "pkg.middle") in eager

    def test_node_for_path(self):
        project = build()
        assert project.node_for_path("top.py").name == "pkg.top"
        assert project.node_for_path("nope.py") is None

    def test_acyclic_package_has_no_cycles(self):
        assert build().cycles() == []

    def test_mutual_imports_form_a_cycle(self, tmp_path):
        (tmp_path / "alpha.py").write_text("import beta\n", encoding="utf-8")
        (tmp_path / "beta.py").write_text("import alpha\n", encoding="utf-8")
        _, project = load_project([tmp_path])
        assert project.cycles() == [["alpha", "beta"]]


class TestProjectGraphBuild:
    def test_external_imports_are_not_edges(self):
        # middle.py imports typing; only project-internal edges survive.
        targets = {e.target for e in build().edges()}
        assert targets <= {"pkg", "pkg.base", "pkg.middle", "pkg.top"}

    def test_build_from_pairs_matches_cli_loader(self):
        from repro.analysis.core import collect_files, load_module

        pairs = [(load_module(p, PKG), PKG) for p in collect_files(PKG)]
        direct = ProjectGraph.build(pairs)
        assert json.loads(direct.to_json()) == GOLDEN
