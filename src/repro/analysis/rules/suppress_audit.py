"""RA015 — sanitizer-suppression audit: every ignore names its finding.

The runtime sanitizer (:mod:`repro.sanitize`) has its own suppression
channel: a ``# sanitize: ignore[SANxxx] -- reason`` comment marks code
whose finding is understood and accepted, and the matching code is
passed to ``DeviceSanitizer(suppress=...)`` by the harness that owns
the workload.  Mirroring RA012's discipline for ``# repro: noqa``, a
bare ``# sanitize: ignore`` is a blank cheque — nobody can tell which
detector it silences or whether it is still needed — so this rule
requires every such comment to name at least one real finding code
from :data:`repro.sanitize.findings.FINDING_CODES`.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Finding, Rule, SourceModule
from repro.sanitize.findings import FINDING_CODES

__all__ = ["SanitizerSuppressionRule"]

_IGNORE_RE = re.compile(
    r"#\s*sanitize:\s*ignore\s*(?:\[(?P<codes>[A-Za-z0-9,\s]+)\])?"
)


class SanitizerSuppressionRule(Rule):
    """Audit ``# sanitize: ignore`` comments for named finding codes."""

    id = "RA015"
    name = "sanitizer-suppression-audit"
    description = (
        "every '# sanitize: ignore' comment must name a known sanitizer "
        "finding code, e.g. '# sanitize: ignore[SAN001] -- reason'"
    )
    explain = (
        "RA015 scans comments (via tokenize, so strings never match) for "
        "the runtime sanitizer's suppression marker '# sanitize: ignore'. "
        "A marker with no bracketed code list silences every detector at "
        "once and can never be audited for staleness; one naming a code "
        "outside repro.sanitize.findings.FINDING_CODES (SAN001-SAN007) "
        "silences nothing and hides a typo. Both are flagged. The fix is "
        "the same discipline RA012 enforces for '# repro: noqa': write "
        "'# sanitize: ignore[SANxxx] -- reason', keep the code list "
        "minimal, and delete the comment when the finding it excuses no "
        "longer reproduces under 'python -m repro sanitize'."
    )

    def check(
        self, module: SourceModule, config: AnalysisConfig
    ) -> Iterator[Finding]:
        for tok in module.comments:
            match = _IGNORE_RE.search(tok.string)
            if match is None:
                continue
            line, col = tok.start
            codes = match.group("codes")
            if codes is None:
                yield Finding(
                    path=module.rel_path,
                    line=line,
                    col=col,
                    rule=self.id,
                    message=(
                        "'# sanitize: ignore' names no finding code; write "
                        "'# sanitize: ignore[SANxxx] -- reason' so the "
                        "suppression can be audited"
                    ),
                )
                continue
            for code in codes.split(","):
                code = code.strip()
                if code and code not in FINDING_CODES:
                    yield Finding(
                        path=module.rel_path,
                        line=line,
                        col=col,
                        rule=self.id,
                        message=(
                            f"'# sanitize: ignore' names unknown finding "
                            f"code {code!r}; known codes are "
                            f"{', '.join(sorted(FINDING_CODES))}"
                        ),
                    )
