"""Shared benchmark-report writer.

Every ``BENCH_*.json`` artifact carries the same envelope so CI and the
analysis notebooks can consume any benchmark uniformly:

```json
{
  "schema": "repro-bench/1",
  "name": "scheduler",
  "seed": 11,
  "host": {"hostname": ..., "platform": ..., "python": ..., "numpy": ...},
  "git_rev": "1d1f1e7",
  "config": {... benchmark knobs ...},
  "metrics": {... measured numbers ...}
}
```

``bench_report`` builds the envelope, ``write_report`` persists it,
``merge`` combines several reports into one document keyed by benchmark
name, and ``validate_report`` checks the schema (CI runs
``python benchmarks/_bench.py --validate BENCH_*.json``).
"""

from __future__ import annotations

import argparse
import json
import platform
import socket
import subprocess
import sys
from pathlib import Path

SCHEMA = "repro-bench/1"

__all__ = ["SCHEMA", "bench_report", "write_report", "merge", "validate_report"]


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _host_info() -> dict:
    import numpy as np

    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def bench_report(name: str, seed: int, config: dict, metrics: dict) -> dict:
    """Wrap one benchmark's knobs and measurements in the common envelope."""
    return {
        "schema": SCHEMA,
        "name": name,
        "seed": int(seed),
        "host": _host_info(),
        "git_rev": _git_rev(),
        "config": dict(config),
        "metrics": dict(metrics),
    }


def write_report(report: dict, path: Path | str) -> Path:
    """Write one report as indented JSON (trailing newline, stable keys)."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path


def merge(reports: list[dict]) -> dict:
    """Combine reports into one document keyed by benchmark name.

    The merged document keeps one shared ``host``/``git_rev`` (from the
    first report) and nests each report's ``seed``/``config``/``metrics``
    under its name; duplicate names are an error.
    """
    if not reports:
        raise ValueError("no reports to merge")
    by_name: dict[str, dict] = {}
    for rep in reports:
        errors = validate_report(rep)
        if errors:
            raise ValueError(f"invalid report {rep.get('name')!r}: {errors[0]}")
        if rep["name"] in by_name:
            raise ValueError(f"duplicate benchmark name {rep['name']!r}")
        by_name[rep["name"]] = {
            "seed": rep["seed"],
            "config": rep["config"],
            "metrics": rep["metrics"],
        }
    return {
        "schema": SCHEMA,
        "name": "merged",
        "host": reports[0]["host"],
        "git_rev": reports[0]["git_rev"],
        "benchmarks": by_name,
    }


def validate_report(data) -> list[str]:
    """Schema errors for one report dict (empty list = valid)."""
    errors = []
    if not isinstance(data, dict):
        return ["report is not a JSON object"]
    if data.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {data.get('schema')!r}")
    if not isinstance(data.get("name"), str) or not data.get("name"):
        errors.append("name must be a non-empty string")
    if not isinstance(data.get("git_rev"), str):
        errors.append("git_rev must be a string")
    host = data.get("host")
    if not isinstance(host, dict):
        errors.append("host must be an object")
    else:
        for key in ("hostname", "platform", "python", "numpy"):
            if not isinstance(host.get(key), str):
                errors.append(f"host.{key} must be a string")
    if data.get("name") == "merged":
        benches = data.get("benchmarks")
        if not isinstance(benches, dict) or not benches:
            errors.append("merged report needs a non-empty benchmarks object")
        return errors
    if not isinstance(data.get("seed"), int):
        errors.append("seed must be an integer")
    if not isinstance(data.get("config"), dict):
        errors.append("config must be an object")
    if not isinstance(data.get("metrics"), dict) or not data.get("metrics"):
        errors.append("metrics must be a non-empty object")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path, help="BENCH JSON files")
    parser.add_argument("--validate", action="store_true",
                        help="check each file against the common schema")
    parser.add_argument("--merge", type=Path, default=None, metavar="OUT",
                        help="merge the files into one document at OUT")
    args = parser.parse_args(argv)

    reports = []
    failed = False
    for path in args.paths:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            failed = True
            continue
        errors = validate_report(data)
        for err in errors:
            print(f"{path}: {err}", file=sys.stderr)
        failed = failed or bool(errors)
        if not errors:
            reports.append(data)
            if args.validate:
                print(f"{path}: OK ({data['name']})")
    if failed:
        return 1
    if args.merge is not None:
        write_report(merge(reports), args.merge)
        print(f"wrote {args.merge}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
