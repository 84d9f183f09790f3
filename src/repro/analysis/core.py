"""Rule engine of the :mod:`repro.analysis` contract checker.

The checker reads each Python source file once: :func:`load_module`
parses, walks and tokenizes it a single time and wraps the results in a
:class:`SourceModule` (its nodes, comments, import aliases and
suppression data), which it hands to every enabled :class:`Rule`.
Rules yield :class:`Finding` records; the engine filters findings
through the ``# repro: noqa[...]`` suppression comments and returns the
survivors sorted by path/line.

Suppression syntax (comments, discovered with :mod:`tokenize` so string
literals never trigger them):

``# repro: noqa[RA001]``
    Suppress RA001 findings on this line.
``# repro: noqa[RA001,RA003]``
    Suppress several rules on this line.
``# repro: noqa``
    Suppress every rule on this line.
``# repro: noqa-file[RA005]``
    Suppress RA005 for the whole file (conventionally near the top).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.graph import ProjectGraph

__all__ = [
    "Finding",
    "ProjectRule",
    "Rule",
    "SEVERITIES",
    "SourceModule",
    "SuppressionEntry",
    "Suppressions",
    "collect_files",
    "load_module",
    "run_rules",
]

#: Recognized per-rule severities (``error`` fails the run, ``warning``
#: is reported but does not).
SEVERITIES = ("error", "warning")

#: Rule id of the stale-suppression audit, which the engine itself
#: implements (it needs to see which suppressions every other rule used).
STALE_SUPPRESSION_RULE_ID = "RA012"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?P<file>-file)?\s*(?:\[(?P<rules>[A-Za-z0-9,\s]+)\])?"
)

_ALL_RULES_MARKER = "*"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    ``path`` is stored relative to the scan root (POSIX separators) so
    findings — and the baseline fingerprints derived from them — are
    stable across machines.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def fingerprint(self) -> str:
        """Line-independent identity used by the baseline ratchet.

        Severity is deliberately excluded: re-classifying a rule must not
        invalidate accepted baseline entries.
        """
        return f"{self.rule}::{self.path}::{self.message}"

    def render(self) -> str:
        """``path:line:col: RA00x message`` — the human text format."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.severity != "error":
            text += f" [{self.severity}]"
        return text

    def to_json(self) -> dict:
        """JSON-serializable form (schema pinned by the CLI tests)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Finding":
        """Inverse of :meth:`to_json`."""
        return cls(
            path=str(obj["path"]),
            line=int(obj["line"]),
            col=int(obj["col"]),
            rule=str(obj["rule"]),
            message=str(obj["message"]),
            severity=str(obj.get("severity", "error")),
        )


@dataclass(frozen=True)
class SuppressionEntry:
    """One declared rule token of one ``# repro: noqa`` comment."""

    line: int
    rule: str  # a rule id, or "*" for a bare noqa
    file_wide: bool


@dataclass
class Suppressions:
    """Parsed ``# repro: noqa`` comments of one file.

    ``by_line`` maps a 1-based line number to the set of suppressed rule
    ids (or ``{"*"}`` for all); ``file_wide`` holds rules suppressed for
    the entire file.  ``entries`` retains each declaration with the line
    of its comment so the engine's stale-suppression audit (RA012) can
    report the ones that never matched a finding; :meth:`consume` is the
    usage-recording variant of :meth:`is_suppressed`.
    """

    by_line: dict[int, set[str]] = field(default_factory=dict)
    file_wide: set[str] = field(default_factory=set)
    entries: list[SuppressionEntry] = field(default_factory=list)
    _used: set[SuppressionEntry] = field(default_factory=set)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True if ``rule_id`` is silenced at ``line``."""
        if _ALL_RULES_MARKER in self.file_wide or rule_id in self.file_wide:
            return True
        rules = self.by_line.get(line)
        if rules is None:
            return False
        return _ALL_RULES_MARKER in rules or rule_id in rules

    def consume(self, rule_id: str, line: int) -> bool:
        """Like :meth:`is_suppressed`, but mark the matching declarations used."""
        if not self.is_suppressed(rule_id, line):
            return False
        for entry in self.entries:
            if entry.rule not in (rule_id, _ALL_RULES_MARKER):
                continue
            if entry.file_wide or entry.line == line:
                self._used.add(entry)
        return True

    def stale_entries(self) -> list[SuppressionEntry]:
        """Declarations no :meth:`consume` call ever matched, in file order."""
        return sorted(
            (entry for entry in self.entries if entry not in self._used),
            key=lambda entry: (entry.line, entry.rule),
        )

    @classmethod
    def parse(cls, source: str) -> "Suppressions":
        """Extract suppression comments via :mod:`tokenize`."""
        return cls.from_comments(_comment_tokens(source))

    @classmethod
    def from_comments(cls, comments: list[tokenize.TokenInfo]) -> "Suppressions":
        """Parse the suppression comments among a file's comment tokens."""
        result = cls()
        for tok in comments:
            match = _NOQA_RE.search(tok.string)
            if match is None:
                continue
            spec = match.group("rules")
            if spec is None:
                rules = {_ALL_RULES_MARKER}
            else:
                rules = {part.strip().upper() for part in spec.split(",") if part.strip()}
            file_wide = bool(match.group("file"))
            if file_wide:
                result.file_wide |= rules
            else:
                result.by_line.setdefault(tok.start[0], set()).update(rules)
            for rule in sorted(rules):
                result.entries.append(
                    SuppressionEntry(line=tok.start[0], rule=rule, file_wide=file_wide)
                )
        return result


@dataclass
class SourceModule:
    """One parsed source file, as seen by every rule.

    Attributes
    ----------
    path:
        Absolute filesystem path.
    rel_path:
        POSIX-style path relative to the scan root (what findings carry).
    source:
        Full file text.
    tree:
        The parsed :class:`ast.Module`.
    nodes:
        Every node of ``tree``, in :func:`ast.walk` order.  Rules iterate
        this list instead of walking the whole tree themselves.
    comments:
        The file's comment tokens, in file order.
    import_aliases:
        Dotted module path -> local names the file's imports bind to it;
        query it with :meth:`aliases_of`.
    suppressions:
        Parsed ``# repro: noqa`` data.
    kernel_reports:
        Memo of :func:`repro.analysis.kernelver.verify.module_reports`.
    """

    path: Path
    rel_path: str
    source: str
    tree: ast.Module
    nodes: list[ast.AST]
    comments: list[tokenize.TokenInfo]
    import_aliases: dict[str, set[str]]
    suppressions: Suppressions
    kernel_reports: list | None = None

    def aliases_of(self, module: str) -> set[str]:
        """Local names that refer to ``module`` (e.g. ``numpy`` -> {"np"})."""
        return self.import_aliases.get(module, set())

    def finding(self, node: ast.AST, rule_id: str, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule_id,
            message=message,
        )


class Rule:
    """Base class of every contract rule.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings for one module.  Suppression filtering happens in
    the engine, not in the rule.  ``explain`` holds the long-form text
    behind the CLI's ``--explain RAxxx`` (falls back to ``description``).
    """

    id: str = ""
    name: str = ""
    description: str = ""
    explain: str = ""

    def check(
        self, module: SourceModule, config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        """Yield the rule's findings for ``module``."""
        raise NotImplementedError  # pragma: no cover - abstract

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Rule {self.id} {self.name}>"


class ProjectRule(Rule):
    """A rule of the second (whole-program) phase.

    Phase one hands every :class:`SourceModule` to :meth:`Rule.check`;
    phase two hands the resolved
    :class:`~repro.analysis.graph.ProjectGraph` to
    :meth:`check_project`.  Findings still carry the source file's
    relative path, so ``# repro: noqa`` suppression works unchanged.
    """

    def check(
        self, module: SourceModule, config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        """Project rules contribute nothing in the per-module phase."""
        return iter(())

    def check_project(
        self, project: "ProjectGraph", config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        """Yield the rule's findings for the whole project."""
        raise NotImplementedError  # pragma: no cover - abstract


def collect_files(root: Path) -> list[Path]:
    """All ``.py`` files under ``root`` (or ``root`` itself if a file).

    Hidden directories and ``__pycache__`` are skipped; the listing is
    sorted for deterministic output.
    """
    if root.is_file():
        if root.suffix != ".py":
            raise ValidationError(f"not a Python file: {root}")
        return [root]
    if not root.is_dir():
        raise ValidationError(f"no such file or directory: {root}")
    files = [
        path
        for path in sorted(root.rglob("*.py"))
        if "__pycache__" not in path.parts
        and not any(part.startswith(".") for part in path.parts[len(root.parts):])
    ]
    return files


def load_module(path: Path, root: Path) -> SourceModule:
    """Read and parse ``path`` into a :class:`SourceModule`.

    Raises :class:`repro.errors.ValidationError` on syntax errors — a
    file the checker cannot parse cannot be certified.
    """
    source = path.read_text(encoding="utf-8")
    if path == root:
        rel = path.name
    else:
        rel = path.relative_to(root).as_posix()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise ValidationError(f"cannot parse {rel}: {exc}") from exc
    nodes = list(ast.walk(tree))
    comments = _comment_tokens(source)
    return SourceModule(
        path=path,
        rel_path=rel,
        source=source,
        tree=tree,
        nodes=nodes,
        comments=comments,
        import_aliases=_import_aliases(nodes),
        suppressions=Suppressions.from_comments(comments),
    )


def _comment_tokens(source: str) -> list[tokenize.TokenInfo]:
    """The comment tokens of ``source`` (none if it does not tokenize)."""
    try:
        return [
            tok
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []


def _import_aliases(nodes: list[ast.AST]) -> dict[str, set[str]]:
    """Dotted module path -> the local names the imports bind to it.

    ``import numpy as np`` binds ``np`` to ``numpy``; ``from datetime
    import datetime`` binds ``datetime`` to ``datetime.datetime``.  A
    submodule import without ``as`` (``import numpy.random``) binds only
    the top package name, and only to the top package: attribute chains
    through it (``numpy.random.rand``) start at ``numpy``.
    """
    aliases: dict[str, set[str]] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname is not None:
                    aliases.setdefault(item.name, set()).add(item.asname)
                else:
                    top = item.name.split(".")[0]
                    aliases.setdefault(top, set()).add(top)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for item in node.names:
                aliases.setdefault(f"{node.module}.{item.name}", set()).add(
                    item.asname or item.name
                )
    return aliases


def run_rules(
    modules: Iterable[SourceModule],
    rules: Iterable[Rule],
    config: "AnalysisConfig",
    project: "ProjectGraph | None" = None,
) -> list[Finding]:
    """Run the two-phase rule pack; return suppression-filtered findings.

    Phase one runs every per-module rule over every module; phase two
    runs the :class:`ProjectRule` subclasses over ``project`` (skipped
    when no graph was built).  Afterwards, if the stale-suppression
    audit (RA012) is enabled, every ``# repro: noqa`` declaration that
    suppressed nothing becomes a finding of its own.
    """
    modules = list(modules)
    rules = list(rules)
    module_rules = [rule for rule in rules if not isinstance(rule, ProjectRule)]
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    audit_stale = any(rule.id == STALE_SUPPRESSION_RULE_ID for rule in rules)
    by_path = {module.rel_path: module for module in modules}

    findings: list[Finding] = []

    def admit(module: SourceModule | None, finding: Finding) -> None:
        if module is not None and module.suppressions.consume(
            finding.rule, finding.line
        ):
            return
        severity = config.severity_for(finding.rule)
        if severity != finding.severity:
            finding = replace(finding, severity=severity)
        findings.append(finding)

    for module in modules:
        for rule in module_rules:
            for finding in rule.check(module, config):
                admit(module, finding)

    if project is not None:
        for rule in project_rules:
            for finding in rule.check_project(project, config):
                admit(by_path.get(finding.path), finding)

    if audit_stale:
        for module in modules:
            suppressions = module.suppressions
            for entry in suppressions.stale_entries():
                # A noqa[RA012] (or its file-wide form) silences the
                # audit, but a stale entry must not silence its *own*
                # report — a bare all-rules suppression that suppresses
                # nothing would otherwise be invisible by construction.
                shields = [
                    other
                    for other in suppressions.entries
                    if other is not entry
                    and other.rule in (STALE_SUPPRESSION_RULE_ID, _ALL_RULES_MARKER)
                    and (other.file_wide or other.line == entry.line)
                ]
                if shields:
                    suppressions._used.update(shields)
                    continue
                scope = "file-wide " if entry.file_wide else ""
                target = "every rule" if entry.rule == _ALL_RULES_MARKER else entry.rule
                finding = Finding(
                    path=module.rel_path,
                    line=entry.line,
                    col=0,
                    rule=STALE_SUPPRESSION_RULE_ID,
                    message=(
                        f"{scope}noqa for {target} suppresses nothing; "
                        "remove the stale suppression"
                    ),
                )
                severity = config.severity_for(finding.rule)
                if severity != finding.severity:
                    finding = replace(finding, severity=severity)
                findings.append(finding)
    return sorted(findings)
