"""Shared AST helpers: name chains and lexical context."""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = [
    "qualified_name",
    "iter_parents",
    "enclosing_function",
    "function_locals",
    "qualname_of",
]


def qualified_name(node: ast.AST, imports: dict[str, str]) -> str | None:
    """Resolve a Name/Attribute chain to a dotted name, or ``None``.

    The chain root is looked up in ``imports``; an unimported root
    keeps its surface name (so ``dock(...)`` resolves to ``dock`` even
    when defined in-file).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(imports.get(node.id, node.id))
    return ".".join(reversed(parts))


def iter_parents(node: ast.AST) -> Iterator[ast.AST]:
    """Walk the parent chain set by the project builder (innermost first)."""
    current = getattr(node, "_repro_parent", None)
    while current is not None:
        yield current
        current = getattr(current, "_repro_parent", None)


def enclosing_function(
    node: ast.AST,
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """The innermost ``def`` lexically containing ``node``, if any."""
    for parent in iter_parents(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return parent
    return None


def qualname_of(node: ast.AST, module: str) -> str:
    """``module.Outer.inner``: a def or class under the defs and classes around it."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = [p.name for p in iter_parents(node) if isinstance(p, scopes)]
    return ".".join([module, *reversed(names), node.name])


def function_locals(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names local to ``fn``: parameters plus names it binds.

    Names declared ``nonlocal``/``global`` are excluded — they are
    shared state even though assigned here.  Bindings inside *nested*
    functions are not credited to ``fn``.
    """
    args = fn.args
    names = {
        a.arg
        for a in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *((args.vararg,) if args.vararg else ()),
            *((args.kwarg,) if args.kwarg else ()),
        )
    }
    shared: set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(child.name)  # the def binds its name locally
                continue  # but its body is another scope
            if isinstance(child, ast.Lambda):
                continue
            if isinstance(child, (ast.Nonlocal, ast.Global)):
                shared.update(child.names)
            elif isinstance(child, ast.Name) and isinstance(
                child.ctx, ast.Store
            ):
                names.add(child.id)
            elif isinstance(child, ast.ExceptHandler) and child.name:
                names.add(child.name)
            visit(child)

    visit(fn)
    return names - shared
