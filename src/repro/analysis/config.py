"""Lint configuration: the ``[tool.repro-lint]`` table in pyproject.toml.

The checked-in config *is* the baseline: module allowlists for rules
whose invariant only binds a subset of the tree (wall-clock use is legal
in real-execution modules, vectorization pressure only applies to hot
kernels).  Unknown keys are rejected so a typo cannot silently disable
a rule.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["AnalysisConfig", "ConfigError", "find_pyproject"]

#: table name inside pyproject.toml
_TABLE = "repro-lint"

#: recognized keys (dashed, as they appear in TOML) → attribute names
_KEYS = {
    "paths": "paths",
    "disable": "disable",
    "clock-allow": "clock_allow",
    "hot-modules": "hot_modules",
    "durable-modules": "durable_modules",
}


class ConfigError(ValueError):
    """Malformed ``[tool.repro-lint]`` table."""


@dataclass
class AnalysisConfig:
    """Engine + checker configuration.

    Attributes
    ----------
    paths:
        Directories (or files) linted when the CLI gets no positional
        arguments; relative to the pyproject's directory.
    disable:
        Rule names disabled globally (prefer inline suppressions —
        global disables turn a checker off for good).  ``repro-lint``
        rejects a name here that is no rule, as it does for ``--rules``.
    clock_allow:
        Module prefixes allowed to touch the wall clock
        (``time.time``/``time.sleep``/``datetime.now`` …).  Everything
        else is presumed simulation-facing and must advance the
        executor clock instead.
    hot_modules:
        Module prefixes whose elementwise Python loops over ndarrays
        the vectorization rule flags.
    durable_modules:
        Module prefixes whose functions' file writes must follow the
        tmp+``os.replace`` idiom (the atomic-write rule).  A helper in
        another module is checked only if its own module is listed.
    """

    paths: list[str] = field(default_factory=lambda: ["src"])
    disable: list[str] = field(default_factory=list)
    clock_allow: list[str] = field(default_factory=list)
    hot_modules: list[str] = field(
        default_factory=lambda: ["repro.docking", "repro.nn", "repro.md"]
    )
    durable_modules: list[str] = field(
        default_factory=lambda: [
            "repro.util.checkpoint",
            "repro.util.shardio",
            "repro.nn.serialization",
        ]
    )
    root: Path = field(default_factory=Path.cwd)

    @classmethod
    def from_pyproject(cls, pyproject: Path) -> "AnalysisConfig":
        """Load the ``[tool.repro-lint]`` table (missing table = defaults)."""
        with open(pyproject, "rb") as fh:
            data = tomllib.load(fh)
        table = data.get("tool", {}).get(_TABLE, {})
        return cls.from_table(table, root=pyproject.parent)

    @classmethod
    def from_table(cls, table: dict, root: Path | None = None) -> "AnalysisConfig":
        """Build a config from an already-parsed TOML table."""
        unknown = set(table) - set(_KEYS)
        if unknown:
            raise ConfigError(
                f"unknown [tool.{_TABLE}] keys: {sorted(unknown)}; "
                f"recognized keys: {sorted(_KEYS)}"
            )
        kwargs: dict = {}
        for toml_key, attr in _KEYS.items():
            if toml_key not in table:
                continue
            value = table[toml_key]
            if not isinstance(value, list) or not all(
                isinstance(v, str) for v in value
            ):
                raise ConfigError(
                    f"[tool.{_TABLE}] {toml_key} must be a list of strings"
                )
            kwargs[attr] = list(value)
        if root is not None:
            kwargs["root"] = root
        return cls(**kwargs)


def find_pyproject(start: Path) -> Path | None:
    """Walk up from ``start`` to the first directory holding pyproject.toml."""
    here = start.resolve()
    if here.is_file():
        here = here.parent
    for candidate in (here, *here.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def module_matches(module: str, prefixes: list[str]) -> bool:
    """Whether a dotted module name falls under any allowlist prefix."""
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )
