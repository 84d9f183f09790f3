"""Unit tests for AnalysisConfig and the [tool.repro-analysis] loader."""

import pytest

from repro.analysis.config import AnalysisConfig, load_config, match_path
from repro.errors import ValidationError


class TestDefaults:
    def test_default_scopes(self):
        config = AnalysisConfig()
        assert "kpm/*" in config.hot_path_modules
        assert "gpu/*" in config.hot_path_modules
        assert config.rng_allowed == ("util/rng.py",)
        assert "gpukpm/*" in config.validated_packages
        assert config.baseline is None

    def test_with_updates_is_non_destructive(self):
        base = AnalysisConfig()
        changed = base.with_updates(select=("RA001",))
        assert changed.select == ("RA001",)
        assert base.select == ()


class TestMatchPath:
    def test_direct_match(self):
        assert match_path("kpm/config.py", ("kpm/*",))

    def test_prefixed_match(self):
        # Scanning from the repository root instead of src/repro still
        # classifies the module correctly.
        assert match_path("src/repro/kpm/config.py", ("kpm/*",))

    def test_exact_file_pattern(self):
        assert match_path("util/rng.py", ("util/rng.py",))
        assert match_path("src/repro/util/rng.py", ("util/rng.py",))

    def test_non_match(self):
        assert not match_path("cli/main.py", ("kpm/*", "gpu/*"))


class TestLoadConfig:
    def write_pyproject(self, tmp_path, body):
        (tmp_path / "pyproject.toml").write_text(body, encoding="utf-8")

    def test_missing_pyproject_yields_defaults(self, tmp_path):
        assert load_config(tmp_path) == AnalysisConfig()

    def test_missing_table_yields_defaults(self, tmp_path):
        self.write_pyproject(tmp_path, "[project]\nname = 'x'\n")
        assert load_config(tmp_path) == AnalysisConfig()

    def test_table_overrides_kebab_case_keys(self, tmp_path):
        self.write_pyproject(
            tmp_path,
            "[tool.repro-analysis]\n"
            'select = ["RA001", "RA002"]\n'
            'hot-path-modules = ["fast/*"]\n'
            'rng-allowed = ["fast/rng.py"]\n'
            'baseline = "debt.json"\n',
        )
        config = load_config(tmp_path)
        assert config.select == ("RA001", "RA002")
        assert config.hot_path_modules == ("fast/*",)
        assert config.rng_allowed == ("fast/rng.py",)
        assert config.baseline == "debt.json"

    def test_search_walks_upward(self, tmp_path):
        self.write_pyproject(tmp_path, '[tool.repro-analysis]\nignore = ["RA006"]\n')
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert load_config(nested).ignore == ("RA006",)

    def test_start_may_be_a_file(self, tmp_path):
        self.write_pyproject(tmp_path, '[tool.repro-analysis]\nignore = ["RA004"]\n')
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        assert load_config(target).ignore == ("RA004",)

    def test_unknown_key_rejected(self, tmp_path):
        # ``deprecations`` was retired with RA010: a stale table fails loudly.
        for key, body in (
            ("bogus", "[tool.repro-analysis]\nbogus = []\n"),
            (
                "deprecations",
                '[tool.repro-analysis.deprecations]\n"Old.run" = "call Old.go()"\n',
            ),
        ):
            self.write_pyproject(tmp_path, body)
            with pytest.raises(ValidationError, match=key):
                load_config(tmp_path)

    def test_non_list_value_rejected(self, tmp_path):
        self.write_pyproject(tmp_path, '[tool.repro-analysis]\nselect = "RA001"\n')
        with pytest.raises(ValidationError, match="list of strings"):
            load_config(tmp_path)

    def test_non_string_baseline_rejected(self, tmp_path):
        self.write_pyproject(tmp_path, "[tool.repro-analysis]\nbaseline = 3\n")
        with pytest.raises(ValidationError, match="baseline"):
            load_config(tmp_path)

    def test_broken_toml_rejected(self, tmp_path):
        self.write_pyproject(tmp_path, "[tool.repro-analysis\n")
        with pytest.raises(ValidationError, match="cannot parse"):
            load_config(tmp_path)


class TestLayerDag:
    def test_default_dag_ranks(self):
        config = AnalysisConfig()
        assert config.layer_rank("errors") == 0
        assert config.layer_rank("kpm") == 6
        assert config.layer_rank("serve") == 10
        # cpu and gpu are same-rank siblings.
        assert config.layer_rank("cpu") == config.layer_rank("gpu")
        assert config.layer_rank("not-a-layer") is None

    def test_layers_key_parses_strings_and_sibling_lists(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-analysis]\n"
            'layers = ["base", ["left", "right"], "top"]\n',
            encoding="utf-8",
        )
        config = load_config(tmp_path)
        assert config.layers == (("base",), ("left", "right"), ("top",))
        assert config.layer_rank("left") == config.layer_rank("right") == 1

    def test_duplicate_layer_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-analysis]\nlayers = ["base", ["base", "top"]]\n',
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="twice"):
            load_config(tmp_path)

    def test_non_list_layers_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-analysis]\nlayers = "base"\n', encoding="utf-8"
        )
        with pytest.raises(ValidationError, match="layers"):
            load_config(tmp_path)


class TestSeverityAndTables:
    def test_severity_defaults_to_error(self):
        assert AnalysisConfig().severity_for("RA001") == "error"

    def test_severity_table_overrides_one_rule(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-analysis.severity]\nRA009 = \"warning\"\n",
            encoding="utf-8",
        )
        config = load_config(tmp_path)
        assert config.severity_for("RA009") == "warning"
        assert config.severity_for("RA001") == "error"

    def test_bad_severity_level_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-analysis.severity]\nRA009 = \"info\"\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="severity"):
            load_config(tmp_path)

    def test_wall_clock_and_loop_allocator_defaults(self):
        config = AnalysisConfig()
        assert config.wall_clock_allowed == ("timing.py",)
        assert "zeros" in config.loop_allocators
