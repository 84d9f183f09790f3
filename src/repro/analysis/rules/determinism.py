"""RA001 — unseeded / out-of-band RNG construction.

The stochastic trace estimator's determinism contract (paper Eq. 19 and
the multi-backend parity tests) requires every random draw to come from
the counter-based Philox streams in :mod:`repro.util.rng`, keyed by
``(seed, realization, vector_index)``.  Any direct use of
``numpy.random`` or the stdlib :mod:`random` module outside that module
creates a stream the contract cannot reproduce across backends or
batchings.

The rule flags RNG *imports* and *calls*; annotations such as
``-> np.random.Generator`` are type references, not constructions, and
stay legal.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.config import AnalysisConfig, match_path
from repro.analysis.core import Finding, Rule, SourceModule

__all__ = ["UnseededRngRule"]

_ADVICE = "use repro.util.rng.philox_stream / spawn_seeds instead"


class UnseededRngRule(Rule):
    """Flag ``np.random.*`` / ``random.*`` usage outside the RNG module."""

    id = "RA001"
    name = "unseeded-rng"
    description = (
        "RNG construction outside util/rng.py; route every draw through "
        "repro.util.rng.philox_stream / spawn_seeds"
    )
    explain = (
        "RA001 enforces the determinism contract behind the stochastic "
        "trace estimator (paper Eq. 19): every random draw must come from "
        "the counter-based Philox streams in repro.util.rng, keyed by "
        "(seed, realization, vector_index), so all backends and batchings "
        "reproduce the same vectors bit-for-bit. It flags imports of "
        "stdlib random, imports from numpy.random, and calls through "
        "numpy.random — anywhere outside the modules listed in "
        "[tool.repro-analysis] rng-allowed (default: util/rng.py). Type "
        "annotations like '-> np.random.Generator' are references, not "
        "constructions, and stay legal."
    )

    def check(
        self, module: SourceModule, config: AnalysisConfig
    ) -> Iterator[Finding]:
        if match_path(module.rel_path, config.rng_allowed):
            return
        numpy_aliases = module.aliases_of("numpy")
        numpy_random_aliases = module.aliases_of("numpy.random")
        stdlib_random_aliases = module.aliases_of("random")

        for node in module.nodes:
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name == "random" or item.name.startswith("random."):
                        yield module.finding(
                            node, self.id, f"import of stdlib 'random'; {_ADVICE}"
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    yield module.finding(
                        node, self.id, f"import from stdlib 'random'; {_ADVICE}"
                    )
                elif node.module and (
                    node.module == "numpy.random"
                    or node.module.startswith("numpy.random.")
                ):
                    yield module.finding(
                        node, self.id, f"import from numpy.random; {_ADVICE}"
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                parts = name.split(".")
                head = parts[0]
                if len(parts) >= 3 and head in numpy_aliases and parts[1] == "random":
                    yield module.finding(
                        node, self.id, f"call to {name}; {_ADVICE}"
                    )
                elif len(parts) >= 2 and head in numpy_random_aliases:
                    yield module.finding(
                        node, self.id, f"call to numpy.random ({name}); {_ADVICE}"
                    )
                elif len(parts) >= 2 and head in stdlib_random_aliases:
                    yield module.finding(
                        node, self.id, f"call to stdlib random ({name}); {_ADVICE}"
                    )
