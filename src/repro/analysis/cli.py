"""``python -m repro.analysis`` — the contract-checker command line.

Exit codes (pinned by the test suite and the CI job):

* ``0`` — clean (no findings beyond the baseline), also ``--graph-out``
  / ``--explain`` / ``--list-rules`` output,
* ``1`` — error-severity findings,
* ``2`` — usage error (bad arguments, unknown rule, unreadable path or
  baseline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.config import AnalysisConfig, load_config
from repro.analysis.core import SourceModule, collect_files, load_module, run_rules
from repro.analysis.graph import ProjectGraph
from repro.analysis.report import Baseline, Report, render_json, render_text
from repro.analysis.rules import ALL_RULES, resolve_rules
from repro.errors import ReproError

__all__ = ["main", "build_parser", "load_project", "run_analysis"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST-based contract checker: determinism (RA001), error "
            "taxonomy (RA002), dtype discipline (RA003), launch contract "
            "(RA004), API validation (RA005), export consistency (RA006), "
            "layering over the project import graph (RA007), modeled-clock "
            "purity (RA008), hot-path perf lint (RA009), resource hygiene "
            "(RA011), stale suppressions (RA012), "
            "device-array lifetime (RA013), kernel write-set hygiene "
            "(RA014), sanitizer-suppression audit (RA015), static kernel "
            "bounds proofs (RA016), cross-block race proofs (RA017), "
            "canonical-sweep conformance (RA018), launch coverage proofs "
            "(RA019), proof/sanitizer certificate cross-check (RA020)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file of accepted pre-existing findings",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default="",
        help="comma-separated rule ids to enable (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        default="",
        help="comma-separated rule ids to disable",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule pack and exit",
    )
    parser.add_argument(
        "--graph-out",
        choices=("dot", "json"),
        metavar="{dot,json}",
        help="print the resolved project import graph and exit 0",
    )
    parser.add_argument(
        "--explain",
        metavar="RAXXX",
        help="print the long-form rationale of one rule and exit 0",
    )
    parser.add_argument(
        "--certificate-out",
        metavar="FILE",
        help=(
            "verify the kernel modules and write the proof certificate "
            "(byte-stable JSON) to FILE, then exit 0"
        ),
    )
    return parser


def _split_ids(spec: str) -> list[str]:
    return [part.strip() for part in spec.split(",") if part.strip()]


def load_project(
    paths: list[Path],
) -> tuple[list[SourceModule], ProjectGraph]:
    """Parse every file under ``paths`` and build the project graph."""
    pairs: list[tuple[SourceModule, Path]] = []
    for root in paths:
        root = root.resolve()
        for path in collect_files(root):
            pairs.append((load_module(path, root), root))
    modules = [module for module, _ in pairs]
    return modules, ProjectGraph.build(pairs)


def run_analysis(
    paths: list[Path], config: AnalysisConfig
) -> Report:
    """Scan ``paths`` with the configured rules; no baseline applied yet."""
    rules = resolve_rules(config.select, config.ignore)
    modules, project = load_project(paths)
    findings = run_rules(modules, rules, config, project=project)
    return Report(findings=findings, files_checked=len(modules))


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id} {rule.name}: {rule.description}")
        return EXIT_CLEAN

    if args.explain:
        wanted = args.explain.strip().upper()
        for rule in ALL_RULES:
            if rule.id == wanted:
                print(f"{rule.id} {rule.name}")
                print(rule.explain or rule.description)
                return EXIT_CLEAN
        known = ", ".join(rule.id for rule in ALL_RULES)
        print(f"error: unknown rule id {wanted!r}; known: {known}", file=sys.stderr)
        return EXIT_USAGE

    try:
        config = load_config(Path(args.paths[0]) if args.paths else None)
        if args.select:
            config = config.with_updates(select=tuple(_split_ids(args.select)))
        if args.ignore:
            config = config.with_updates(ignore=tuple(_split_ids(args.ignore)))

        if args.graph_out:
            _, project = load_project([Path(p) for p in args.paths])
            graph_text = (
                project.to_dot() if args.graph_out == "dot" else project.to_json()
            )
            print(graph_text, end="" if graph_text.endswith("\n") else "\n")
            return EXIT_CLEAN

        if args.certificate_out:
            from repro.analysis.kernelver import (
                build_certificate,
                render_certificate,
            )

            certificate = build_certificate(
                [Path(p) for p in args.paths], config
            )
            Path(args.certificate_out).write_text(
                render_certificate(certificate), encoding="utf-8"
            )
            print(
                f"wrote {len(certificate['kernels'])} kernel "
                f"certificate(s) to {args.certificate_out}",
                file=sys.stderr,
            )
            return EXIT_CLEAN

        report = run_analysis([Path(p) for p in args.paths], config)

        baseline_path = args.baseline or config.baseline
        if args.write_baseline:
            if baseline_path is None:
                parser.error("--write-baseline requires --baseline FILE")
            Baseline.from_findings(report.findings).save(Path(baseline_path))
            print(
                f"wrote {len(report.findings)} finding(s) to {baseline_path}",
                file=sys.stderr,
            )
            return EXIT_CLEAN
        if baseline_path is not None and Path(baseline_path).exists():
            baseline = Baseline.load(Path(baseline_path))
            new, baselined, stale = baseline.partition(report.findings)
            report = Report(
                findings=new,
                baselined=baselined,
                stale_baseline=stale,
                files_checked=report.files_checked,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    print(render_json(report) if args.format == "json" else render_text(report))
    return EXIT_FINDINGS if report.failed else EXIT_CLEAN
