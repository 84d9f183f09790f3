"""The RA001–RA020 rule pack.

:data:`ALL_RULES` is the ordered registry the CLI and tests consume;
:func:`resolve_rules` applies ``--select`` / ``--ignore`` style
filtering with validation of the requested ids.

RA001–RA006 are per-module rules; RA007 is a project rule running over
the resolved import graph (phase two of the engine); RA008, RA009 and
RA011 are per-module dataflow rules (RA010, the deprecated-API rule,
was retired with the last deprecated shim and its id is not reused);
RA012 is the engine-implemented stale-suppression audit; RA013–RA015
are the device-lifetime pack that complements the runtime sanitizer
(:mod:`repro.sanitize`); RA016–RA020 are the static kernel verifier
(:mod:`repro.analysis.kernelver`) — symbolic bounds/race/coverage
proofs over ``@kernel`` block programs plus the
proof-certificate/sanitizer cross-check.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.core import Rule
from repro.analysis.rules.clock import ModeledClockRule
from repro.analysis.rules.determinism import UnseededRngRule
from repro.analysis.rules.dtype import DtypeDriftRule
from repro.analysis.rules.errors import ErrorTaxonomyRule
from repro.analysis.rules.exports import ExportConsistencyRule
from repro.analysis.rules.hotpath import HotPathPerfRule
from repro.analysis.rules.kernelver_certified import ProofCertificateRule
from repro.analysis.rules.kernelver_proofs import (
    CrossBlockRaceRule,
    LaunchCoverageRule,
    StaticBoundsRule,
)
from repro.analysis.rules.kernelver_sweep import CanonicalSweepRule
from repro.analysis.rules.launch import LaunchContractRule
from repro.analysis.rules.layering import LayeringRule
from repro.analysis.rules.lifetime import DeviceArrayLifetimeRule
from repro.analysis.rules.resources import ResourceHygieneRule
from repro.analysis.rules.suppress_audit import SanitizerSuppressionRule
from repro.analysis.rules.suppressions import StaleSuppressionRule
from repro.analysis.rules.validation import PublicApiValidationRule
from repro.analysis.rules.writeset import KernelWriteSetRule
from repro.errors import ValidationError

__all__ = [
    "ALL_RULES",
    "resolve_rules",
    "UnseededRngRule",
    "ErrorTaxonomyRule",
    "DtypeDriftRule",
    "LaunchContractRule",
    "PublicApiValidationRule",
    "ExportConsistencyRule",
    "LayeringRule",
    "ModeledClockRule",
    "HotPathPerfRule",
    "ResourceHygieneRule",
    "StaleSuppressionRule",
    "DeviceArrayLifetimeRule",
    "KernelWriteSetRule",
    "SanitizerSuppressionRule",
    "StaticBoundsRule",
    "CrossBlockRaceRule",
    "CanonicalSweepRule",
    "LaunchCoverageRule",
    "ProofCertificateRule",
]

#: Every shipped rule, in id order.
ALL_RULES: tuple[Rule, ...] = (
    UnseededRngRule(),
    ErrorTaxonomyRule(),
    DtypeDriftRule(),
    LaunchContractRule(),
    PublicApiValidationRule(),
    ExportConsistencyRule(),
    LayeringRule(),
    ModeledClockRule(),
    HotPathPerfRule(),
    ResourceHygieneRule(),
    StaleSuppressionRule(),
    DeviceArrayLifetimeRule(),
    KernelWriteSetRule(),
    SanitizerSuppressionRule(),
    StaticBoundsRule(),
    CrossBlockRaceRule(),
    CanonicalSweepRule(),
    LaunchCoverageRule(),
    ProofCertificateRule(),
)


def resolve_rules(
    select: Iterable[str] = (), ignore: Iterable[str] = ()
) -> list[Rule]:
    """Filter :data:`ALL_RULES` by rule id.

    An empty ``select`` means "all rules".  Unknown ids raise
    :class:`repro.errors.ValidationError` (the CLI maps this to its
    usage-error exit code).
    """
    known = {rule.id: rule for rule in ALL_RULES}
    select = [rule_id.upper() for rule_id in select]
    ignore = {rule_id.upper() for rule_id in ignore}
    for rule_id in [*select, *ignore]:
        if rule_id not in known:
            raise ValidationError(
                f"unknown rule id {rule_id!r}; known: {', '.join(known)}"
            )
    chosen = select or list(known)
    return [known[rule_id] for rule_id in chosen if rule_id not in ignore]
