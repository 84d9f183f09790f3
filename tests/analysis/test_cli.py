"""End-to-end tests of ``python -m repro.analysis``.

Pins the exit-code contract (0 clean / 1 findings / 2 usage error), the
JSON schema, the baseline create-then-pass flow, and noqa suppression —
all through :func:`repro.analysis.cli.main` exactly as ``__main__`` calls
it.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.analysis.core import Finding

FIXTURES = Path(__file__).parent / "fixtures"

BAD_SOURCE = '''"""Tmp module with one RA002 finding."""

__all__ = ["checked"]


def checked(x):
    if x < 0:
        raise ValueError("negative")
    return x
'''

CLEAN_SOURCE = '''"""Tmp module with no findings."""

__all__ = ["checked"]


def checked(x):
    return x
'''


@pytest.fixture
def project(tmp_path):
    """A hermetic scan root: no pyproject.toml above it inside tmp_path."""
    root = tmp_path / "proj"
    root.mkdir()
    (root / "mod.py").write_text(BAD_SOURCE, encoding="utf-8")
    return root


class TestExitCodes:
    def test_clean_run_exits_zero(self, capsys):
        assert main([str(FIXTURES / "clean.py")]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "1 file(s) checked" in out

    def test_findings_exit_one(self, project, capsys):
        assert main([str(project)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RA002" in out

    def test_unknown_rule_is_usage_error(self, project, capsys):
        assert main([str(project), "--select", "RA999"]) == EXIT_USAGE
        assert "RA999" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_unparseable_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        assert main([str(bad)]) == EXIT_USAGE
        assert "cannot parse" in capsys.readouterr().err

    def test_bad_flag_is_argparse_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--format", "yaml"])
        assert excinfo.value.code == EXIT_USAGE

    def test_write_baseline_without_baseline_is_usage_error(self, project, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([str(project), "--write-baseline"])
        assert excinfo.value.code == EXIT_USAGE


class TestSelectIgnore:
    def test_select_narrows_the_rule_pack(self, project, capsys):
        assert main([str(project), "--select", "RA001"]) == EXIT_CLEAN
        assert main([str(project), "--select", "RA002"]) == EXIT_FINDINGS

    def test_ignore_drops_the_only_finding(self, project, capsys):
        assert main([str(project), "--ignore", "RA002"]) == EXIT_CLEAN

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for index in range(1, 21):
            # RA010 (deprecated APIs) was retired; its id is not reused.
            assert (f"RA{index:03d}" in out) == (index != 10)


class TestExplain:
    def test_known_rule_exits_clean_with_prose(self, capsys):
        assert main(["--explain", "RA007"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert out.startswith("RA007 ")
        assert "layer" in out

    def test_lowercase_rule_id_accepted(self, capsys):
        assert main(["--explain", "ra008"]) == EXIT_CLEAN
        assert "RA008" in capsys.readouterr().out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["--explain", "RA999"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "RA999" in err
        assert "RA001" in err  # the error lists the known rule ids

    def test_explain_needs_no_paths(self, capsys):
        # --explain is a documentation query: no scan root required.
        assert main(["--explain", "RA012"]) == EXIT_CLEAN

    def test_every_rule_has_explain_prose(self, capsys):
        from repro.analysis.rules import ALL_RULES

        assert len(ALL_RULES) == 19
        for rule in ALL_RULES:
            assert main(["--explain", rule.id]) == EXIT_CLEAN
            out = capsys.readouterr().out
            assert out.startswith(f"{rule.id} ")
            # Rich prose, not a one-line restatement of the title.
            assert len(out.strip().splitlines()) > 1

    @pytest.mark.parametrize(
        "rule_id, phrase",
        [
            ("RA016", "out-of-bounds"),
            ("RA017", "disjoint"),
            ("RA018", "canonical"),
            ("RA019", "exactly-once"),
            ("RA020", "certificate"),
        ],
    )
    def test_verifier_rules_explain_their_proof_obligation(
        self, rule_id, phrase, capsys
    ):
        assert main(["--explain", rule_id]) == EXIT_CLEAN
        assert phrase in capsys.readouterr().out.lower()


class TestGraphOut:
    def test_dot_export(self, project, capsys):
        assert main([str(project), "--graph-out", "dot"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert out.startswith("digraph project {")
        assert '"mod"' in out

    def test_json_export(self, project, capsys):
        assert main([str(project), "--graph-out", "json"]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert [m["name"] for m in payload["modules"]] == ["mod"]

    def test_graph_out_skips_rule_findings(self, project, capsys):
        # The project fixture has an RA002 finding, but a graph export is
        # a query, not a scan: it must still exit 0.
        assert main([str(project), "--graph-out", "dot"]) == EXIT_CLEAN

    def test_bad_graph_format_is_argparse_usage_error(self, project):
        with pytest.raises(SystemExit) as excinfo:
            main([str(project), "--graph-out", "svg"])
        assert excinfo.value.code == EXIT_USAGE


class TestJsonFormat:
    def test_schema_round_trip(self, project, capsys):
        assert main([str(project), "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["files_checked"] == 1
        assert payload["baselined"] == []
        assert payload["stale_baseline"] == []
        findings = [Finding.from_json(item) for item in payload["findings"]]
        assert [f.rule for f in findings] == ["RA002"]
        assert findings[0].path == "mod.py"

    def test_clean_json(self, capsys):
        assert main([str(FIXTURES / "clean.py"), "--format", "json"]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []


class TestBaselineFlow:
    def test_create_then_pass_then_ratchet(self, project, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"

        # 1. Known debt exists: write it down (exit 0).
        assert main(
            [str(project), "--baseline", str(baseline), "--write-baseline"]
        ) == EXIT_CLEAN
        assert json.loads(baseline.read_text())["version"] == 1
        assert "wrote 1 finding(s)" in capsys.readouterr().err

        # 2. The same debt no longer fails the run.
        assert main([str(project), "--baseline", str(baseline)]) == EXIT_CLEAN
        assert "(baselined)" in capsys.readouterr().out

        # 3. A new violation still fails even with the baseline applied.
        (project / "extra.py").write_text(BAD_SOURCE, encoding="utf-8")
        assert main([str(project), "--baseline", str(baseline)]) == EXIT_FINDINGS
        capsys.readouterr()

        # 4. Fixing everything flags the stale entry but passes — the
        #    file can now be ratcheted down to empty.
        (project / "mod.py").write_text(CLEAN_SOURCE, encoding="utf-8")
        (project / "extra.py").write_text(CLEAN_SOURCE, encoding="utf-8")
        assert main([str(project), "--baseline", str(baseline)]) == EXIT_CLEAN
        assert "stale baseline entry:" in capsys.readouterr().out

    def test_missing_baseline_file_is_ignored(self, project, tmp_path, capsys):
        # A configured-but-absent baseline means "no accepted debt".
        absent = tmp_path / "absent.json"
        assert main([str(project), "--baseline", str(absent)]) == EXIT_FINDINGS

    def test_corrupt_baseline_is_usage_error(self, project, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("not json")
        assert main([str(project), "--baseline", str(baseline)]) == EXIT_USAGE
        assert "cannot parse" in capsys.readouterr().err


class TestSuppression:
    def test_noqa_fixture_is_clean(self, capsys):
        assert main([str(FIXTURES / "noqa_suppressed.py")]) == EXIT_CLEAN

    def test_line_noqa_silences_only_its_line(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(
            '"""Doc."""\n'
            "\n"
            "__all__ = []\n"
            "\n"
            "import random  # repro: noqa[RA001]\n"
            "import random as rng2\n",
            encoding="utf-8",
        )
        assert main([str(target)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "mod.py:6" in out
        assert "mod.py:5" not in out

    def test_file_wide_noqa(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(
            '"""Doc."""\n'
            "# repro: noqa-file[RA001]\n"
            "\n"
            "__all__ = []\n"
            "\n"
            "import random\n"
            "import random as rng2\n",
            encoding="utf-8",
        )
        assert main([str(target)]) == EXIT_CLEAN
