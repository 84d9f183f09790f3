"""RA003 — dtype drift in hot-path array constructions.

The paper's measured configuration is all-float64 (the RMP 2006 KPM
review stresses that moment accumulation must be numerically
disciplined; silent float32 promotion corrupts spectra rather than
crashing).  In the hot-path packages every array construction must
therefore pin its ``dtype=`` explicitly — NumPy's defaults depend on the
input values and platform, which is exactly the drift the contract
forbids.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import AnalysisConfig, match_path
from repro.analysis.core import Finding, Rule, SourceModule

__all__ = ["DtypeDriftRule"]


class DtypeDriftRule(Rule):
    """Flag ``np.zeros/empty/ones/asarray/full`` without ``dtype=``."""

    id = "RA003"
    name = "dtype-drift"
    description = (
        "array construction without explicit dtype= in a hot-path module "
        "(all-float64 precision contract)"
    )
    explain = (
        "RA003 pins the all-float64 precision contract in the hot-path "
        "packages (hot-path-modules config): every "
        "np.zeros/empty/ones/asarray/full call must pass dtype= "
        "(keyword or the documented positional slot). NumPy's default "
        "dtype depends on input values and platform; a silently promoted "
        "float32 moment accumulator corrupts spectra instead of "
        "crashing, which is why the rule demands the intent be written "
        "down even when the default would happen to be right."
    )

    def check(
        self, module: SourceModule, config: AnalysisConfig
    ) -> Iterator[Finding]:
        if not match_path(module.rel_path, config.hot_path_modules):
            return
        numpy_aliases = module.aliases_of("numpy")
        if not numpy_aliases:
            return
        watched = set(config.dtype_functions)
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in watched
                and isinstance(func.value, ast.Name)
                and func.value.id in numpy_aliases
            ):
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            # Positional dtype: np.zeros(shape, dtype) — second positional
            # argument of zeros/empty/ones/full(3rd)/asarray is the dtype.
            positional_dtype = {
                "zeros": 2,
                "empty": 2,
                "ones": 2,
                "asarray": 2,
                "full": 3,
            }[func.attr]
            if len(node.args) >= positional_dtype:
                continue
            yield module.finding(
                node,
                self.id,
                f"np.{func.attr}(...) without explicit dtype= in hot-path "
                "module (float64 precision contract)",
            )
