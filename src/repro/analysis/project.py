"""Project model: every file parsed once, with its import table.

Every lint run starts here.  This module reads and parses the tree
**once** (with each file's inline suppressions), and gives every rule
the same name resolution: a Name/Attribute chain resolves through the
file's import table, following aliases, relative imports *and*
re-exports (``from .a import fn`` in a package ``__init__`` resolves
callers of ``pkg.fn`` to ``pkg.a.fn``), so a wall-clock read cannot hide
behind a package that hands it out under its own name.  Rules are
per-file: nothing here knows which function calls which.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.astutil import qualified_name
from repro.analysis.findings import Finding

__all__ = [
    "PARSE_ERROR_RULE",
    "SUPPRESSION_REASON_RULE",
    "Project",
    "ProjectFile",
    "Suppressions",
    "build_project",
    "project_from_source",
    "discover",
    "module_name_for",
]

#: rule name reserved for files the linter cannot read or parse
PARSE_ERROR_RULE = "parse-error"

#: rule name for suppressions carrying no reason
SUPPRESSION_REASON_RULE = "suppression-reason"

#: rules group (lazy) plus an optional `-- reason` / `— reason` tail
_SUPPRESS_LINE = re.compile(
    r"#\s*repro:\s*disable=([\w, -]+?)(?:\s*(?:--|[—–])\s*(\S.*))?$"
)
_SUPPRESS_FILE = re.compile(
    r"#\s*repro:\s*disable-file=([\w, -]+?)(?:\s*(?:--|[—–])\s*(\S.*))?$"
)


def _split_rules(spec: str) -> set[str]:
    return {part.strip(" -") for part in spec.split(",") if part.strip(" -")}


@dataclass
class Suppressions:
    """Inline-suppression tables for one file.

    ``reasonless`` holds ``(lineno, rules)`` for every suppression
    comment missing its ``-- <reason>`` tail; the engine turns those
    into findings so a suppression can never silently drop a rule
    without justification.
    """

    line: dict[int, set[str]] = field(default_factory=dict)
    file: set[str] = field(default_factory=set)
    reasonless: list[tuple[int, set[str]]] = field(default_factory=list)

    @classmethod
    def parse(cls, lines: list[str]) -> "Suppressions":
        supp = cls()
        for lineno, text in enumerate(lines, start=1):
            m = _SUPPRESS_FILE.search(text)
            if m:
                rules = _split_rules(m.group(1))
                supp.file |= rules
                if not m.group(2):
                    supp.reasonless.append((lineno, rules))
                continue
            m = _SUPPRESS_LINE.search(text)
            if m:
                rules = _split_rules(m.group(1))
                supp.line.setdefault(lineno, set()).update(rules)
                if not m.group(2):
                    supp.reasonless.append((lineno, rules))
        return supp

    def covers(self, finding: Finding) -> bool:
        """Whether an inline comment suppresses this finding."""
        for rules in (self.file, self.line.get(finding.line, ())):
            if finding.rule in rules or "all" in rules:
                return True
        return False

    def reason_findings(self, path: str) -> list[Finding]:
        """One ``suppression-reason`` finding per reasonless comment."""
        return [
            Finding(
                rule=SUPPRESSION_REASON_RULE,
                message=(
                    f"suppression of {sorted(rules)} has no reason; append "
                    "`-- <why this is safe>` so the next reader does not "
                    "have to re-derive the justification"
                ),
                path=path,
                line=lineno,
            )
            for lineno, rules in self.reasonless
        ]


def module_name_for(path: Path) -> str:
    """Derive a dotted module name from a file path.

    The component after the last ``src`` directory starts the module
    (``src/repro/md/system.py`` → ``repro.md.system``); without a
    ``src`` anchor the whole relative path is used.  ``__init__.py``
    maps to its package.
    """
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    parts = [p for p in parts if p not in (".", "..", "/")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def discover(paths: list[Path]) -> list[Path]:
    """Expand directories into sorted ``*.py`` files; keep explicit files."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        else:
            files.append(path)
    return files


@dataclass
class ProjectFile:
    """One parsed source file plus the tables derived from it."""

    path: str  # display path (relative to the project root when possible)
    module: str
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)
    #: names of the module's top-level defs and classes
    defs: set[str] = field(default_factory=set)
    suppressions: Suppressions = field(default_factory=Suppressions)


class Project:
    """The parsed files, their import tables and why any file is missing."""

    def __init__(self) -> None:
        self.files: dict[str, ProjectFile] = {}  # module -> file
        self.parse_findings: list[Finding] = []

    def canonical(self, dotted: str) -> str:
        """Follow re-exports until ``dotted`` names a definition.

        ``pkg.fn`` where ``pkg/__init__.py`` does ``from .a import fn``
        canonicalizes to ``pkg.a.fn``; unknown names come back unchanged
        (they are external).
        """
        seen: set[str] = set()
        while dotted not in seen:
            seen.add(dotted)
            head, _, sym = dotted.rpartition(".")
            if not head:
                break
            # `a.b.c.sym`: if `a.b.c` is a project module re-exporting
            # sym, follow; otherwise try canonicalizing the head (so
            # `pkg.Cls.method` resolves through a re-exported Cls)
            pf = self.files.get(head)
            if pf is not None:
                nxt = pf.imports.get(sym) if sym not in pf.defs else None
                if nxt is None or nxt == dotted:
                    break
                dotted = nxt
            else:
                dotted = f"{self.canonical(head)}.{sym}"
        return dotted

    def resolve(self, module: str, name_expr: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain seen in ``module`` to a symbol.

        A chain rooted at one of the module's own top-level defs or
        classes names ``module.<chain>``; any other root goes through
        the module's import table and then :meth:`canonical`.
        """
        pf = self.files.get(module)
        if pf is None:
            return None
        dotted = qualified_name(name_expr, pf.imports)
        if dotted is None:
            return None
        root = dotted.split(".", 1)[0]
        if root not in pf.imports and root in pf.defs:
            return self.canonical(f"{module}.{dotted}")
        return self.canonical(dotted)


def _resolved_imports(tree: ast.Module, module: str, is_package: bool) -> dict[str, str]:
    """Local name → dotted origin, with relative imports resolved.

    The importing module's own dotted path anchors relative imports, so
    ``from .shardio import x`` in ``repro.util.checkpoint`` maps ``x`` →
    ``repro.util.shardio.x``.
    """
    package_parts = module.split(".") if module else []
    if not is_package and package_parts:
        package_parts = package_parts[:-1]
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    imports[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                anchor = package_parts[: len(package_parts) - (node.level - 1)]
                base_parts = anchor + (node.module.split(".") if node.module else [])
                base = ".".join(base_parts)
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                origin = f"{base}.{alias.name}" if base else alias.name
                imports[alias.asname or alias.name] = origin
    return imports


def _add_file(
    project: Project, source: str, module: str, path: str, is_package: bool
) -> None:
    """Parse one source into the project, or record why it cannot be."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        project.parse_findings.append(
            Finding(
                rule=PARSE_ERROR_RULE,
                message=f"cannot parse: {exc.msg}",
                path=path,
                line=exc.lineno or 0,
                col=max((exc.offset or 1) - 1, 0),
            )
        )
        return
    # every node learns its parent, so rules can walk upward freely
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._repro_parent = node  # type: ignore[attr-defined]
    project.files[module] = ProjectFile(
        path=path,
        module=module,
        tree=tree,
        imports=_resolved_imports(tree, module, is_package),
        defs={
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        },
        suppressions=Suppressions.parse(source.splitlines()),
    )


def build_project(paths: list[Path], root: Path | None = None) -> Project:
    """Read and parse every file under ``paths`` once; assemble the project.

    Paths display relative to ``root`` when they lie under it.  Files
    that cannot be read or parsed contribute a ``parse-error`` finding
    and are skipped.
    """
    project = Project()
    for path in discover(paths):
        display = path
        if root is not None:
            try:
                display = path.resolve().relative_to(Path(root).resolve())
            except ValueError:
                display = path
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            project.parse_findings.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    message=f"cannot read: {exc}",
                    path=str(display),
                    line=0,
                )
            )
            continue
        _add_file(
            project,
            source,
            module_name_for(display),
            str(display),
            is_package=path.name == "__init__.py",
        )
    return project


def project_from_source(
    source: str, module: str = "<module>", path: str = "<string>"
) -> Project:
    """A one-file project built from a source string."""
    project = Project()
    _add_file(project, source, module, path, is_package=False)
    return project
