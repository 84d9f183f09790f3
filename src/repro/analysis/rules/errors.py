"""RA002 — error-taxonomy discipline.

:mod:`repro.errors` defines the library's exception hierarchy so callers
can catch :class:`~repro.errors.ReproError` once.  A bare builtin
``raise ValueError(...)`` inside the library escapes that contract (and
the `except ReproError` fences in the CLI and pipeline drivers).
:class:`~repro.errors.ValidationError` keeps ``ValueError`` in its MRO,
so converting a raise never breaks existing callers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Finding, Rule, SourceModule

__all__ = ["ErrorTaxonomyRule"]

_BUILTIN_ERRORS = {"ValueError", "TypeError", "RuntimeError"}


class ErrorTaxonomyRule(Rule):
    """Flag ``raise ValueError/TypeError/RuntimeError`` in library code."""

    id = "RA002"
    name = "error-taxonomy"
    description = (
        "bare builtin exception raised instead of the repro.errors "
        "hierarchy (ValidationError keeps ValueError compatibility)"
    )
    explain = (
        "RA002 keeps the exception surface catchable in one place: "
        "library code must raise from the repro.errors hierarchy so "
        "callers (the CLI, pipeline drivers, the cluster retry loop) can "
        "fence failures with a single 'except ReproError'. It flags any "
        "'raise ValueError/TypeError/RuntimeError(...)'. Converting to "
        "repro.errors.ValidationError is always safe for callers because "
        "ValidationError keeps ValueError in its MRO."
    )

    def check(
        self, module: SourceModule, config: AnalysisConfig
    ) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id in _BUILTIN_ERRORS:
                yield module.finding(
                    node,
                    self.id,
                    f"raise {exc.id} bypasses the repro.errors hierarchy; "
                    "raise repro.errors.ValidationError (or a subclass)",
                )
