"""Per-rule tests over the deliberately-broken fixture tree.

Each ``raNNN_bad.py`` fixture must produce *exactly* its expected
findings — path, line, and rule — and nothing else; ``clean.py`` and
``noqa_suppressed.py`` must produce nothing under any rule.
"""

from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, run_analysis

FIXTURES = Path(__file__).parent / "fixtures"


def scan(select=()):
    """Run the checker over the fixture tree with the given rule selection."""
    config = AnalysisConfig(select=tuple(select))
    return run_analysis([FIXTURES], config)


def locations(findings):
    return [(f.path, f.line, f.rule) for f in findings]


class TestRA001UnseededRng:
    def test_exact_findings(self):
        report = scan(["RA001"])
        assert locations(report.findings) == [
            ("ra001_bad.py", 3, "RA001"),
            ("ra001_bad.py", 12, "RA001"),
            ("ra001_bad.py", 13, "RA001"),
            ("ra001_submodule.py", 8, "RA001"),
        ]

    def test_messages_name_the_offender(self):
        messages = [f.message for f in scan(["RA001"]).findings]
        assert any("stdlib 'random'" in m for m in messages)
        assert any("np.random.rand" in m for m in messages)
        assert all("philox_stream" in m for m in messages)


class TestRA002ErrorTaxonomy:
    def test_exact_findings(self):
        report = scan(["RA002"])
        assert locations(report.findings) == [
            ("ra002_bad.py", 8, "RA002"),
            ("ra002_bad.py", 14, "RA002"),
            ("ra002_bad.py", 16, "RA002"),
        ]

    def test_messages_point_at_the_taxonomy(self):
        messages = [f.message for f in scan(["RA002"]).findings]
        assert any("raise ValueError" in m for m in messages)
        assert any("raise TypeError" in m for m in messages)
        assert any("raise RuntimeError" in m for m in messages)
        assert all("repro.errors" in m for m in messages)


class TestRA003DtypeDrift:
    def test_exact_findings(self):
        report = scan(["RA003"])
        assert locations(report.findings) == [
            ("kpm/ra003_bad.py", 12, "RA003"),
            ("kpm/ra003_bad.py", 13, "RA003"),
            ("kpm/ra003_bad.py", 15, "RA003"),
        ]

    def test_only_fires_in_hot_path_modules(self):
        # The same constructors in a non-hot-path file stay legal: the
        # fixture root itself holds numpy-using files that never trigger.
        paths = {f.path for f in scan(["RA003"]).findings}
        assert paths == {"kpm/ra003_bad.py"}


class TestRA004LaunchContract:
    def test_exact_findings(self):
        report = scan(["RA004"])
        assert locations(report.findings) == [
            ("ra004_bad.py", 9, "RA004"),
            ("ra004_bad.py", 10, "RA004"),
            ("ra004_bad.py", 12, "RA004"),
        ]

    def test_messages_distinguish_the_violations(self):
        messages = [f.message for f in scan(["RA004"]).findings]
        assert any("literal block size 96" in m for m in messages)
        assert any("hard-coded grid dimension 7" in m for m in messages)
        assert any("planning layer" in m for m in messages)


class TestRA005PublicApiValidation:
    def test_exact_findings(self):
        report = scan(["RA005"])
        assert locations(report.findings) == [
            ("kpm/ra005_bad.py", 6, "RA005"),
        ]

    def test_message_names_the_function(self):
        (finding,) = scan(["RA005"]).findings
        assert "estimate_seconds" in finding.message

    def test_validated_function_passes(self):
        # make_workspace in kpm/ra003_bad.py calls check_positive_int,
        # which is validation evidence — no RA005 finding for it.
        paths = {f.path for f in scan(["RA005"]).findings}
        assert "kpm/ra003_bad.py" not in paths


class TestRA006ExportConsistency:
    def test_exact_findings(self):
        report = scan(["RA006"])
        assert locations(report.findings) == [
            ("ra006_bad.py", 3, "RA006"),
            ("ra006_bad.py", 3, "RA006"),
            ("ra006_bad.py", 10, "RA006"),
        ]

    def test_messages_cover_all_three_drift_modes(self):
        messages = [f.message for f in scan(["RA006"]).findings]
        assert any("twice" in m for m in messages)
        assert any("'missing_def' is not defined" in m for m in messages)
        assert any("'orphan' is missing from __all__" in m for m in messages)


class TestRA007Layering:
    def test_exact_findings(self):
        report = scan(["RA007"])
        assert locations(report.findings) == [
            ("cycle_a.py", 3, "RA007"),
            ("gpu/ra007_sibling.py", 3, "RA007"),
            ("kpm/ra007_bad.py", 10, "RA007"),
        ]

    def test_messages_cover_all_three_shapes(self):
        messages = [f.message for f in scan(["RA007"]).findings]
        assert any("eager import cycle: cycle_a -> cycle_b -> cycle_a" in m for m in messages)
        assert any("same-rank siblings" in m for m in messages)
        assert any("layer 'kpm' (rank 6) is below layer 'serve' (rank 10)" in m for m in messages)

    def test_lazy_and_type_checking_imports_are_exempt(self):
        # kpm/ra007_bad.py also imports serve lazily (function body) and
        # under TYPE_CHECKING; only the eager module-level import fires.
        paths = [loc for loc in locations(scan(["RA007"]).findings) if loc[0] == "kpm/ra007_bad.py"]
        assert paths == [("kpm/ra007_bad.py", 10, "RA007")]

    def test_noqa_silences_the_upward_import(self):
        paths = {f.path for f in scan(["RA007"]).findings}
        assert "kpm/ra007_ok.py" not in paths


class TestRA008ModeledClock:
    def test_exact_findings(self):
        report = scan(["RA008"])
        assert locations(report.findings) == [
            ("ra008_bad.py", 10, "RA008"),
            ("ra008_bad.py", 16, "RA008"),
            ("ra008_bad.py", 17, "RA008"),
            ("ra008_bad.py", 18, "RA008"),
            ("ra008_bad.py", 19, "RA008"),
        ]

    def test_messages_name_the_clock_source(self):
        messages = [f.message for f in scan(["RA008"]).findings]
        assert any("time.perf_counter" in m for m in messages)
        assert any("os.urandom" in m for m in messages)
        assert any("datetime.now" in m for m in messages)

    def test_wall_clock_allowed_module_is_exempt(self):
        paths = {f.path for f in scan(["RA008"]).findings}
        assert "timing.py" not in paths


class TestRA009HotPathPerf:
    def test_exact_findings(self):
        report = scan(["RA009"])
        assert locations(report.findings) == [
            ("kpm/ra009_bad.py", 18, "RA009"),
            ("kpm/ra009_bad.py", 19, "RA009"),
            ("kpm/ra009_bad.py", 20, "RA009"),
            ("kpm/ra009_bad.py", 28, "RA009"),
        ]

    def test_iterator_expression_allocation_is_exempt(self):
        # The np.zeros in the for-loop's *iterator* runs once, not per
        # iteration; only the loop-body allocation at line 28 fires.
        lines = [f.line for f in scan(["RA009"]).findings if "allocat" in f.message]
        assert lines == [28]

    def test_only_fires_in_hot_path_modules(self):
        paths = {f.path for f in scan(["RA009"]).findings}
        assert paths == {"kpm/ra009_bad.py"}


class TestRA011ResourceHygiene:
    def test_exact_findings(self):
        report = scan(["RA011"])
        assert locations(report.findings) == [
            ("ra011_bad.py", 17, "RA011"),
            ("ra011_bad.py", 18, "RA011"),
            ("ra011_bad.py", 19, "RA011"),
            ("ra011_bad.py", 20, "RA011"),
        ]

    def test_messages_cover_all_four_shapes(self):
        messages = [f.message for f in scan(["RA011"]).findings]
        assert any("open(" in m for m in messages)
        assert any("NamedTemporaryFile" in m for m in messages)
        assert any("span" in m for m in messages)
        assert any("without a matching STATE.reset()" in m for m in messages)

    def test_with_blocks_and_reset_stay_silent(self):
        lines = {f.line for f in scan(["RA011"]).findings}
        # balanced() spans lines 24-30: everything entered via with or reset.
        assert all(line < 24 for line in lines)


class TestRA012StaleSuppressions:
    # RA012 only makes sense under the full pack: a narrower selection
    # leaves every other rule's noqa unconsumed and therefore "stale".
    def findings(self):
        return [f for f in scan().findings if f.rule == "RA012"]

    def test_exact_findings(self):
        assert [(f.path, f.line) for f in self.findings()] == [
            ("ra012_bad.py", 7),
            ("ra012_bad.py", 10),
            ("ra012_bad.py", 16),
        ]

    def test_messages_distinguish_the_three_shapes(self):
        messages = [f.message for f in self.findings()]
        assert any("file-wide noqa for RA004 suppresses nothing" in m for m in messages)
        assert any("noqa for RA003 suppresses nothing" in m for m in messages)
        assert any("noqa for every rule suppresses nothing" in m for m in messages)

    def test_consumed_tokens_stay_silent(self):
        # The RA001 tokens on lines 9-10 shield real findings and are
        # consumed — only the RA003 token of line 10 is reported.
        line_10 = [f for f in self.findings() if f.line == 10]
        assert len(line_10) == 1
        assert "RA003" in line_10[0].message


class TestRA013DeviceArrayLifetime:
    def test_exact_findings(self):
        report = scan(["RA013"])
        assert locations(report.findings) == [
            ("ra013_bad.py", 13, "RA013"),
            ("ra013_bad.py", 19, "RA013"),
        ]

    def test_messages_distinguish_leak_from_escape(self):
        messages = [f.message for f in scan(["RA013"]).findings]
        assert any("'buf' is neither freed nor transferred" in m for m in messages)
        assert any("'out' escapes its device scope via return" in m for m in messages)

    def test_free_transfer_and_store_stay_silent(self):
        # freed_is_fine / transferred_is_fine / stored_is_fine cover the
        # three legitimate endings; only the first two functions fire.
        lines = {f.line for f in scan(["RA013"]).findings}
        assert lines == {13, 19}


class TestRA014KernelWriteSet:
    def test_exact_findings(self):
        report = scan(["RA014"])
        assert locations(report.findings) == [
            ("ra014_bad.py", 16, "RA014"),
            ("ra014_bad.py", 22, "RA014"),
        ]

    def test_messages_cover_both_store_shapes(self):
        messages = [f.message for f in scan(["RA014"]).findings]
        assert any("writes 'out.data' with indices not derived" in m for m in messages)
        assert any("updates device view 'acc' identically" in m for m in messages)

    def test_tiled_block_view_and_guarded_kernels_stay_silent(self):
        # thread_range tiling, a linear_block_id-derived view, and the
        # single-writer guard are the three legitimate write shapes.
        lines = {f.line for f in scan(["RA014"]).findings}
        assert lines == {16, 22}


class TestRA015SanitizerSuppressionAudit:
    def test_exact_findings(self):
        report = scan(["RA015"])
        assert locations(report.findings) == [
            ("ra015_bad.py", 3, "RA015"),
            ("ra015_bad.py", 4, "RA015"),
            ("ra015_bad.py", 5, "RA015"),
        ]

    def test_messages_distinguish_bare_from_unknown(self):
        messages = [f.message for f in scan(["RA015"]).findings]
        assert any("names no finding code" in m for m in messages)
        assert any("unknown finding code 'SAN999'" in m for m in messages)
        assert any("unknown finding code 'SAN042'" in m for m in messages)

    def test_named_known_code_stays_silent(self):
        # Line 5 mixes SAN001 (known) with SAN042 (unknown): only the
        # unknown code fires; line 6's well-formed ignore is silent.
        lines = [f.line for f in scan(["RA015"]).findings]
        assert lines.count(5) == 1
        assert 6 not in lines


class TestRA016StaticBounds:
    def test_exact_findings(self):
        report = scan(["RA016"])
        assert locations(report.findings) == [
            ("gpukpm/ra016_bad.py", 19, "RA016"),
        ]

    def test_certain_violation_names_the_escape(self):
        (finding,) = scan(["RA016"]).findings
        assert "oob_shift" in finding.message
        assert "upper bound n exceeds extent n" in finding.message

    def test_uncertain_issue_suppressed_by_sanitize_workload(self):
        # The same fixture reads out[k] with k <= n (may escape by one);
        # the contract's sanitize_workload shifts that uncertain
        # obligation to RA020, so only the certain write is reported.
        lines = [f.line for f in scan(["RA016"]).findings]
        assert lines == [19]


class TestRA017CrossBlockRace:
    def test_exact_findings(self):
        report = scan(["RA017"])
        assert locations(report.findings) == [
            ("gpukpm/ra017_bad.py", 19, "RA017"),
        ]

    def test_certain_self_race_is_reported(self):
        # j = block_id - block_id cancels to the constant 0: one write
        # statement races itself across blocks.
        (finding,) = scan(["RA017"]).findings
        assert "racy_reduce" in finding.message
        assert "write/write" in finding.message
        assert "overlaps across blocks" in finding.message

    def test_pinned_single_writer_is_clean(self):
        messages = [f.message for f in scan(["RA017"]).findings]
        assert not any("pinned_reduce" in m for m in messages)


class TestRA018CanonicalSweep:
    def test_exact_findings(self):
        report = scan(["RA018"])
        assert locations(report.findings) == [
            ("gpukpm/ra018_bad.py", 20, "RA018"),
            ("gpukpm/ra018_bad.py", 22, "RA018"),
            ("gpukpm/ra018_bad.py", 24, "RA018"),
            ("gpukpm/ra018_bad.py", 25, "RA018"),
            ("gpukpm/ra018_bad.py", 39, "RA018"),
        ]

    def test_block_product_through_matmat_is_clean(self):
        messages = [f.message for f in scan(["RA018"]).findings]
        assert any("adhoc_block_product" in m for m in messages)
        assert not any("canonical_block_product" in m for m in messages)

    def test_messages_name_the_contraction_route(self):
        messages = [f.message for f in scan(["RA018"]).findings]
        assert any("'np.dot'" in m for m in messages)
        assert any("'@'" in m for m in messages)
        assert any("'np.vecdot'" in m for m in messages)
        assert any("'np.matvec'" in m for m in messages)
        assert all("matvec / repro.sparse.sweep" in m for m in messages)


class TestRA019LaunchCoverage:
    def test_exact_findings(self):
        report = scan(["RA019"])
        assert locations(report.findings) == [
            ("gpukpm/ra019_bad.py", 18, "RA019"),
        ]

    def test_message_names_the_coverage_axis(self):
        (finding,) = scan(["RA019"]).findings
        assert "short_cover" in finding.message
        assert "exactly-once covering scheme on coverage axis 0" in finding.message


class TestRA020ProofCertificate:
    def test_exact_findings(self):
        report = scan(["RA020"])
        assert locations(report.findings) == [
            ("gpukpm/ra019_bad.py", 16, "RA020"),
            ("gpukpm/ra020_bad.py", 10, "RA020"),
            ("gpukpm/ra020_bad.py", 22, "RA020"),
            ("gpukpm/ra020_bad.py", 28, "RA020"),
        ]

    def test_messages_cover_the_three_gaps(self):
        messages = [f.message for f in scan(["RA020"]).findings]
        assert any("not statically proven" in m for m in messages)
        assert any(
            "no statically-readable KernelContract" in m for m in messages
        )
        assert any("unknown sanitize workload 'warmup'" in m for m in messages)

    def test_unreadable_contract_carries_the_extractor_error(self):
        messages = [f.message for f in scan(["RA020"]).findings]
        assert any("build_contract" in m for m in messages)

    def test_certain_failure_with_workload_stays_out_of_ra020(self):
        # ra016/ra017 fixtures carry sanitize_workload="dos": RA020
        # leaves their certain violations to RA016/RA017 rather than
        # double-reporting them.
        paths = {f.path for f in scan(["RA020"]).findings}
        assert "gpukpm/ra016_bad.py" not in paths
        assert "gpukpm/ra017_bad.py" not in paths


class TestFullSweep:
    def test_rule_totals(self):
        report = scan()
        counts: dict[str, int] = {}
        for finding in report.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        assert counts == {
            "RA001": 4,
            "RA002": 3,
            "RA003": 3,
            "RA004": 3,
            "RA005": 1,
            "RA006": 3,
            "RA007": 3,
            "RA008": 5,
            "RA009": 4,
            "RA011": 4,
            "RA012": 3,
            "RA013": 2,
            "RA014": 2,
            "RA015": 3,
            "RA016": 1,
            "RA017": 1,
            "RA018": 5,
            "RA019": 1,
            "RA020": 4,
        }

    def test_clean_and_suppressed_files_stay_silent(self):
        paths = {f.path for f in scan().findings}
        assert "clean.py" not in paths
        assert "noqa_suppressed.py" not in paths

    def test_ignore_drops_rules(self):
        config = AnalysisConfig(
            ignore=(
                "RA001",
                "RA002",
                "RA004",
                "RA006",
                "RA007",
                "RA008",
                "RA011",
                "RA012",
                "RA013",
                "RA014",
                "RA015",
                "RA016",
                "RA017",
                "RA018",
                "RA019",
                "RA020",
            )
        )
        report = run_analysis([FIXTURES], config)
        assert {f.rule for f in report.findings} == {"RA003", "RA005", "RA009"}

    def test_severity_downgrade_keeps_finding_but_not_failure(self):
        config = AnalysisConfig(
            select=("RA009",),
            severity=(("RA009", "warning"),),
        )
        report = run_analysis([FIXTURES], config)
        assert len(report.findings) == 4
        assert all(f.severity == "warning" for f in report.findings)
        assert not report.failed

    def test_unknown_rule_id_rejected(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError, match="RA999"):
            scan(["RA999"])
