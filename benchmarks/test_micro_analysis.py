"""Microbenchmark: one full contract-checker pass over the package.

Times ``run_analysis`` over ``src/repro`` with the repository's own
``[tool.repro-analysis]`` configuration, exactly as CI's analysis job
runs it, and checks the tree stays clean.
"""

from pathlib import Path

from repro.analysis import load_config, run_analysis

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_full_pass_src_repro(run_once, benchmark, monkeypatch):
    # The baseline and certificate paths in the config are cwd-relative.
    monkeypatch.chdir(REPO_ROOT)
    src = REPO_ROOT / "src" / "repro"
    report = run_once(benchmark, run_analysis, [src], load_config(src))
    assert report.findings == [], "\n".join(f.render() for f in report.findings)
    assert report.files_checked > 50
