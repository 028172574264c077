"""``repro-lint`` / ``python -m repro.analysis``: the lint front-end.

Exit status: 0 on a clean run, 1 when findings survive suppression,
2 on usage/config errors — so CI can gate on any finding not already in
the checked-in baseline (the suppressions and allowlists in
``pyproject.toml``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.checkers import CHECKER_CLASSES, checkers_for
from repro.analysis.config import AnalysisConfig, ConfigError, find_pyproject
from repro.analysis.engine import run_analysis
from repro.analysis.project import SUPPRESSION_REASON_RULE
from repro.analysis.reporters import REPORTERS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Per-file domain lint for the repro codebase: clock "
            "purity, vectorization pressure, thread-shared state and "
            "durable writes."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the configured paths)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        help=(
            "pyproject.toml holding [tool.repro-lint] "
            "(default: nearest one upward from the lint target)"
        ),
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print registered rules and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        width = max(len(cls.rule) for cls in CHECKER_CLASSES)
        for cls in CHECKER_CLASSES:
            print(f"{cls.rule:{width}s} [{cls.severity:7s}] {cls.description}")
        return 0

    pyproject = args.config
    if pyproject is None:
        anchor = args.paths[0] if args.paths else Path.cwd()
        pyproject = find_pyproject(anchor)
    try:
        config = (
            AnalysisConfig.from_pyproject(pyproject)
            if pyproject is not None and pyproject.is_file()
            else AnalysisConfig()
        )
    except (ConfigError, OSError) as exc:
        print(f"repro-lint: config error: {exc}", file=sys.stderr)
        return 2

    paths = list(args.paths) or [config.root / p for p in config.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"repro-lint: no such path(s): {[str(p) for p in missing]}",
            file=sys.stderr,
        )
        return 2

    checkers = None  # the full registry
    try:
        # a misspelt global disable would leave its rule running silently
        checkers_for(
            [r for r in config.disable if r != SUPPRESSION_REASON_RULE]
        )
        if args.rules is not None:
            rules = [r.strip() for r in args.rules.split(",") if r.strip()]
            checkers = checkers_for(rules)
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    result = run_analysis(paths, config, checkers)
    print(REPORTERS[args.format](result))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
