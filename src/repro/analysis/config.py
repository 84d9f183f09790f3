"""Checker configuration, overridable from ``pyproject.toml``.

The defaults encode this repository's layout; projects can re-point them
through a ``[tool.repro-analysis]`` table::

    [tool.repro-analysis]
    select = ["RA001", "RA002"]          # enabled rules (default: all)
    ignore = []                          # rules to drop from the selection
    hot-path-modules = ["kpm/*", "gpukpm/*", "sparse/*", "gpu/*"]
    rng-allowed = ["util/rng.py"]
    validated-packages = ["kpm/*", "gpukpm/*", "sparse/*"]
    trusted-validators = ["as_operator"]
    wall-clock-allowed = ["timing.py"]
    layers = [
        "errors", "util", "timing", "trace", "sparse",
        ["lattice", "ed"], "kpm", ["cpu", "gpu"],
        "gpukpm", "cluster", "serve", "obs",
        ["bench", "analysis"], "cli",
    ]
    baseline = "analysis-baseline.json"

    [tool.repro-analysis.severity]
    RA009 = "warning"

Path-shaped options are glob patterns matched against paths relative to
the scan root; a pattern also matches with any leading directories, so
``kpm/*`` covers both ``kpm/config.py`` (scanning ``src/repro``) and
``src/repro/kpm/config.py`` (scanning the repository root).

``layers`` declares the architecture bottom-up: each entry is a layer
name (the first path segment of a module, or the stem of a top-level
file) or a list of same-rank sibling layers.  A module may import only
layers at a strictly lower rank; siblings may not import each other;
layers not listed are unconstrained.  RA007 enforces the declaration
over the resolved project import graph.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, replace
from fnmatch import fnmatch
from pathlib import Path

from repro.analysis.core import SEVERITIES
from repro.errors import ValidationError

__all__ = ["AnalysisConfig", "load_config", "match_path"]

#: Array constructors whose missing ``dtype=`` RA003 reports.
DEFAULT_DTYPE_FUNCTIONS = ("zeros", "empty", "ones", "asarray", "full")

#: Call names RA005 accepts as validation evidence besides ``check_*``.
#: Each is a public entry point that fully validates what it receives.
DEFAULT_TRUSTED_VALIDATORS = (
    "as_float64_array",
    "as_operator",
    "as_dim3",
    "plan_grid",
    "rescale_operator",
)

#: The repository's layer DAG, bottom-up.  Tuples group same-rank
#: siblings (which may not import each other).  RA007's ground truth.
DEFAULT_LAYERS: tuple[tuple[str, ...], ...] = (
    ("errors",),
    ("util",),
    ("timing",),
    ("trace", "sanitize"),
    ("sparse",),
    ("lattice", "ed"),
    ("kpm",),
    ("cpu", "gpu"),
    ("gpukpm",),
    ("cluster",),
    ("serve",),
    ("obs",),
    ("bench", "analysis"),
    ("cli",),
)

#: Modules allowed to read the host wall clock (RA008).  Everything else
#: must run on the modeled clock so runs stay bit-reproducible.
DEFAULT_WALL_CLOCK_ALLOWED = ("timing.py",)

#: Allocating numpy constructors RA009 flags inside hot-path for-loops.
DEFAULT_LOOP_ALLOCATORS = ("zeros", "empty", "ones", "full", "eye")


@dataclass(frozen=True)
class AnalysisConfig:
    """Resolved checker settings (see the module docstring for the TOML form)."""

    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()
    hot_path_modules: tuple[str, ...] = ("kpm/*", "gpukpm/*", "sparse/*", "gpu/*")
    rng_allowed: tuple[str, ...] = ("util/rng.py",)
    validated_packages: tuple[str, ...] = ("kpm/*", "gpukpm/*", "sparse/*")
    dtype_functions: tuple[str, ...] = DEFAULT_DTYPE_FUNCTIONS
    trusted_validators: tuple[str, ...] = DEFAULT_TRUSTED_VALIDATORS
    layers: tuple[tuple[str, ...], ...] = DEFAULT_LAYERS
    wall_clock_allowed: tuple[str, ...] = DEFAULT_WALL_CLOCK_ALLOWED
    loop_allocators: tuple[str, ...] = DEFAULT_LOOP_ALLOCATORS
    severity: tuple[tuple[str, str], ...] = ()
    baseline: str | None = None
    #: Modules whose ``@kernel`` definitions the static kernel verifier
    #: (RA016–RA020) must prove or cover by a sanitize workload.
    kernel_modules: tuple[str, ...] = ("gpukpm/*",)
    #: Committed proof-certificate file RA020 cross-checks (cwd-relative,
    #: like ``baseline``); ``None`` disables the drift check.
    certificate: str | None = None

    def with_updates(self, **changes) -> "AnalysisConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def severity_for(self, rule_id: str) -> str:
        """The configured severity for a rule (``"error"`` by default)."""
        for rule, level in self.severity:
            if rule == rule_id:
                return level
        return "error"

    def layer_rank(self, layer: str) -> int | None:
        """The rank of a layer in the declared DAG (``None`` if unlisted)."""
        for rank, group in enumerate(self.layers):
            if layer in group:
                return rank
        return None


def match_path(rel_path: str, patterns: tuple[str, ...]) -> bool:
    """True if ``rel_path`` matches any pattern (with or without a prefix)."""
    return any(
        fnmatch(rel_path, pattern) or fnmatch(rel_path, f"*/{pattern}")
        for pattern in patterns
    )


_KEY_MAP = {
    "select": "select",
    "ignore": "ignore",
    "hot-path-modules": "hot_path_modules",
    "rng-allowed": "rng_allowed",
    "validated-packages": "validated_packages",
    "dtype-functions": "dtype_functions",
    "trusted-validators": "trusted_validators",
    "wall-clock-allowed": "wall_clock_allowed",
    "loop-allocators": "loop_allocators",
    "baseline": "baseline",
    "kernel-modules": "kernel_modules",
    "certificate": "certificate",
    "layers": "layers",
    "severity": "severity",
}


def _parse_layers(value) -> tuple[tuple[str, ...], ...]:
    """Validate the TOML ``layers`` list (strings or lists of strings)."""
    if not isinstance(value, list):
        raise ValidationError("[tool.repro-analysis] layers must be a list")
    groups: list[tuple[str, ...]] = []
    seen: set[str] = set()
    for entry in value:
        if isinstance(entry, str):
            group = (entry,)
        elif isinstance(entry, list) and entry and all(
            isinstance(item, str) for item in entry
        ):
            group = tuple(entry)
        else:
            raise ValidationError(
                "[tool.repro-analysis] layers entries must be strings or "
                f"non-empty lists of strings, got {entry!r}"
            )
        for name in group:
            if name in seen:
                raise ValidationError(
                    f"[tool.repro-analysis] layers lists {name!r} twice"
                )
            seen.add(name)
        groups.append(group)
    return tuple(groups)


def _parse_str_table(value, key: str) -> tuple[tuple[str, str], ...]:
    """Validate a TOML sub-table of string keys to string values."""
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    ):
        raise ValidationError(
            f"[tool.repro-analysis] {key} must be a table of strings"
        )
    return tuple(sorted(value.items()))


def _find_pyproject(start: Path) -> Path | None:
    for candidate in (start, *start.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(start: Path | None = None) -> AnalysisConfig:
    """Build the config, merging ``[tool.repro-analysis]`` if present.

    ``start`` is where the search for ``pyproject.toml`` begins (upward
    through parents); it defaults to the current directory.  A missing
    file or table yields the defaults.
    """
    start = Path.cwd() if start is None else Path(start)
    if start.is_file():
        start = start.parent
    pyproject = _find_pyproject(start.resolve())
    if pyproject is None:
        return AnalysisConfig()
    try:
        with pyproject.open("rb") as handle:
            data = tomllib.load(handle)
    except tomllib.TOMLDecodeError as exc:
        raise ValidationError(f"cannot parse {pyproject}: {exc}") from exc
    table = data.get("tool", {}).get("repro-analysis", {})
    if not isinstance(table, dict):
        raise ValidationError("[tool.repro-analysis] must be a table")
    changes: dict = {}
    for key, value in table.items():
        if key not in _KEY_MAP:
            raise ValidationError(f"unknown [tool.repro-analysis] key {key!r}")
        if key in ("baseline", "certificate"):
            if not isinstance(value, str):
                raise ValidationError(
                    f"[tool.repro-analysis] {key} must be a string"
                )
            changes[_KEY_MAP[key]] = value
        elif key == "layers":
            changes["layers"] = _parse_layers(value)
        elif key == "severity":
            pairs = _parse_str_table(value, key)
            for rule, level in pairs:
                if level not in SEVERITIES:
                    raise ValidationError(
                        f"[tool.repro-analysis] severity for {rule} must be one "
                        f"of {', '.join(SEVERITIES)}, got {level!r}"
                    )
            changes["severity"] = pairs
        else:
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise ValidationError(
                    f"[tool.repro-analysis] {key} must be a list of strings"
                )
            changes[_KEY_MAP[key]] = tuple(value)
    return AnalysisConfig(**changes)
