"""Unit tests for the engine layer: Finding, Suppressions, file walking."""

import ast
import tokenize
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, run_analysis
from repro.analysis.core import (
    Finding,
    Suppressions,
    collect_files,
    load_module,
)
from repro.errors import ValidationError

FIXTURES = Path(__file__).parent / "fixtures"


class TestFinding:
    def make(self):
        return Finding(path="kpm/config.py", line=7, col=4, rule="RA002", message="boom")

    def test_render(self):
        assert self.make().render() == "kpm/config.py:7:4: RA002 boom"

    def test_fingerprint_is_line_independent(self):
        a = self.make()
        b = Finding(path="kpm/config.py", line=99, col=0, rule="RA002", message="boom")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() == "RA002::kpm/config.py::boom"

    def test_json_round_trip(self):
        finding = self.make()
        assert Finding.from_json(finding.to_json()) == finding

    def test_ordering_by_path_then_line(self):
        early = Finding(path="a.py", line=1, col=0, rule="RA001", message="m")
        late = Finding(path="a.py", line=9, col=0, rule="RA001", message="m")
        other = Finding(path="b.py", line=1, col=0, rule="RA001", message="m")
        assert sorted([other, late, early]) == [early, late, other]


class TestSuppressions:
    def test_single_rule(self):
        supp = Suppressions.parse("x = 1  # repro: noqa[RA001]\n")
        assert supp.is_suppressed("RA001", 1)
        assert not supp.is_suppressed("RA002", 1)
        assert not supp.is_suppressed("RA001", 2)

    def test_multiple_rules_and_whitespace(self):
        supp = Suppressions.parse("x = 1  # repro: noqa[RA001, RA003]\n")
        assert supp.is_suppressed("RA001", 1)
        assert supp.is_suppressed("RA003", 1)
        assert not supp.is_suppressed("RA002", 1)

    def test_bare_noqa_suppresses_everything_on_the_line(self):
        supp = Suppressions.parse("x = 1  # repro: noqa\n")
        assert supp.is_suppressed("RA001", 1)
        assert supp.is_suppressed("RA006", 1)
        assert not supp.is_suppressed("RA001", 2)

    def test_file_wide(self):
        supp = Suppressions.parse('"""doc."""\n# repro: noqa-file[RA005]\nx = 1\n')
        assert supp.is_suppressed("RA005", 1)
        assert supp.is_suppressed("RA005", 999)
        assert not supp.is_suppressed("RA001", 1)

    def test_lowercase_rule_ids_normalized(self):
        supp = Suppressions.parse("x = 1  # repro: noqa[ra001]\n")
        assert supp.is_suppressed("RA001", 1)

    def test_string_literals_never_suppress(self):
        supp = Suppressions.parse('x = "# repro: noqa[RA001]"\n')
        assert not supp.is_suppressed("RA001", 1)

    def test_trailing_prose_allowed(self):
        supp = Suppressions.parse("x = 1  # repro: noqa[RA003] -- complex allowed\n")
        assert supp.is_suppressed("RA003", 1)

    def test_consume_marks_entries_used(self):
        supp = Suppressions.parse("x = 1  # repro: noqa[RA001]\ny = 2  # repro: noqa[RA002]\n")
        supp.consume("RA001", 1)
        stale = supp.stale_entries()
        assert [(e.line, e.rule) for e in stale] == [(2, "RA002")]

    def test_unconsumed_entries_are_stale(self):
        supp = Suppressions.parse("x = 1  # repro: noqa[RA001]\n")
        assert [(e.line, e.rule) for e in supp.stale_entries()] == [(1, "RA001")]

    def test_file_wide_entry_tracked(self):
        supp = Suppressions.parse('"""doc."""\n# repro: noqa-file[RA005]\n')
        (entry,) = supp.stale_entries()
        assert entry.file_wide
        supp.consume("RA005", 40)
        assert supp.stale_entries() == []


class TestCollectFiles:
    def test_walks_fixture_tree_sorted(self):
        files = collect_files(FIXTURES)
        names = [f.relative_to(FIXTURES).as_posix() for f in files]
        assert names == sorted(names)
        assert "kpm/ra003_bad.py" in names
        assert "clean.py" in names

    def test_single_file(self):
        path = FIXTURES / "clean.py"
        assert collect_files(path) == [path]

    def test_rejects_non_python_file(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hi")
        with pytest.raises(ValidationError, match="not a Python file"):
            collect_files(target)

    def test_rejects_missing_path(self, tmp_path):
        with pytest.raises(ValidationError, match="no such file"):
            collect_files(tmp_path / "nope")

    def test_skips_pycache_and_hidden(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "mod.py").write_text("x = 1\n")
        names = [f.relative_to(tmp_path).as_posix() for f in collect_files(tmp_path)]
        assert names == ["pkg/mod.py"]


class TestLoadModule:
    def test_rel_path_is_posix_relative_to_root(self):
        module = load_module(FIXTURES / "kpm" / "ra003_bad.py", FIXTURES)
        assert module.rel_path == "kpm/ra003_bad.py"

    def test_file_scanned_as_root_uses_its_name(self):
        path = FIXTURES / "clean.py"
        module = load_module(path, path)
        assert module.rel_path == "clean.py"

    def test_syntax_error_raises_validation_error(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        with pytest.raises(ValidationError, match="cannot parse"):
            load_module(bad, tmp_path)


class TestReadOnce:
    def test_each_module_is_walked_and_tokenized_once(self, monkeypatch):
        # load_module parses, walks and tokenizes a file exactly once;
        # every rule queries the results instead of re-reading the tree.
        walk, generate_tokens = ast.walk, tokenize.generate_tokens
        module_walks = []
        tokenizes = []

        def counting_walk(node):
            if isinstance(node, ast.Module):
                module_walks.append(node)
            return walk(node)

        def counting_generate_tokens(readline):
            tokenizes.append(readline)
            return generate_tokens(readline)

        monkeypatch.setattr(ast, "walk", counting_walk)
        monkeypatch.setattr(tokenize, "generate_tokens", counting_generate_tokens)
        report = run_analysis([FIXTURES], AnalysisConfig())
        assert report.files_checked == len(collect_files(FIXTURES)) > 0
        assert len(module_walks) == report.files_checked
        assert len(tokenizes) == report.files_checked
