"""RA008 — modeled-clock purity: no host wall clock outside timing.py.

Every number the repo reports — Fig. 5-8 speedups, tracer spans, bench
baselines — lives on the *modeled* clock (cost-model seconds), which is
what makes two runs byte-identical and the perf-regression gate
meaningful.  A stray ``time.perf_counter()`` in a pipeline silently
mixes host time into modeled results; ``datetime.now()`` or
``os.urandom()`` smuggle nondeterminism into records and seeds.

The rule flags calls *and* from-imports of the host clock surface —
``time.time`` / ``perf_counter`` / ``monotonic`` / ``process_time``
(plus their ``_ns`` variants), ``datetime.datetime.now`` / ``utcnow`` /
``date.today``, and ``os.urandom`` — in every module not listed in
``wall-clock-allowed`` (default: ``timing.py``, the one place host
observations are deliberately bridged into annotations).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.config import AnalysisConfig, match_path
from repro.analysis.core import Finding, Rule, SourceModule

__all__ = ["ModeledClockRule"]

_ADVICE = "stay on the modeled clock (Tracer.advance / cost-model seconds)"

#: Banned attributes of the stdlib ``time`` module.
_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: Banned constructors on ``datetime.datetime`` / ``datetime.date``.
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


class ModeledClockRule(Rule):
    """Flag host wall-clock / entropy reads outside the allowed modules."""

    id = "RA008"
    name = "modeled-clock"
    description = (
        "host wall clock or OS entropy outside wall-clock-allowed modules; "
        "results must be a function of the modeled clock"
    )
    explain = (
        "RA008 keeps every module except those in [tool.repro-analysis] "
        "wall-clock-allowed (default: timing.py) off the host clock. It "
        "flags calls to time.time/perf_counter/monotonic/process_time "
        "(and *_ns variants), datetime.datetime.now/utcnow, "
        "date.today, and os.urandom, plus from-imports of those names. "
        "Reproducibility contract: modeled spans and bench baselines are "
        "bit-identical across runs only if no code path reads host time "
        "or OS entropy. Route timing through repro.timing's reports or "
        "Tracer.advance(cost_seconds); derive randomness from "
        "repro.util.rng streams."
    )

    def check(
        self, module: SourceModule, config: AnalysisConfig
    ) -> Iterator[Finding]:
        if match_path(module.rel_path, config.wall_clock_allowed):
            return
        time_aliases = module.aliases_of("time")
        os_aliases = module.aliases_of("os")
        dt_module_aliases = module.aliases_of("datetime")
        dt_class_aliases = module.aliases_of("datetime.datetime")
        date_class_aliases = module.aliases_of("datetime.date")

        for node in module.nodes:
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for item in node.names:
                        if item.name in _TIME_ATTRS:
                            yield module.finding(
                                node,
                                self.id,
                                f"import of time.{item.name}; {_ADVICE}",
                            )
                elif node.module == "os":
                    for item in node.names:
                        if item.name == "urandom":
                            yield module.finding(
                                node,
                                self.id,
                                f"import of os.urandom; {_ADVICE}",
                            )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                parts = name.split(".")
                head, tail = parts[0], parts[-1]
                if (
                    len(parts) == 2
                    and head in time_aliases
                    and tail in _TIME_ATTRS
                ):
                    yield module.finding(
                        node, self.id, f"call to {name}; {_ADVICE}"
                    )
                elif len(parts) == 2 and head in os_aliases and tail == "urandom":
                    yield module.finding(
                        node, self.id, f"call to {name}; {_ADVICE}"
                    )
                elif (
                    len(parts) == 3
                    and head in dt_module_aliases
                    and parts[1] in ("datetime", "date")
                    and tail in _DATETIME_ATTRS
                ):
                    yield module.finding(
                        node, self.id, f"call to {name}; {_ADVICE}"
                    )
                elif (
                    len(parts) == 2
                    and head in (dt_class_aliases | date_class_aliases)
                    and tail in _DATETIME_ATTRS
                ):
                    yield module.finding(
                        node, self.id, f"call to {name}; {_ADVICE}"
                    )
