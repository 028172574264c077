"""atomic-write: durable files are written tmp-first, then replaced.

The resume contract (ROADMAP: a campaign killed mid-shard resumes
without rescoring) survives crashes only because every durable file is
produced by the tmp+``os.replace`` idiom — a reader never observes a
half-written artifact.  This checker walks every function of the
modules listed in ``durable-modules``, names each callee through the
file's import table, and flags:

* a write-mode ``open`` / ``gzip.open`` / ``np.save*`` /
  ``Path.write_text`` whose target never feeds ``os.replace`` in the
  same function (a torn write: a crash mid-write leaves a corrupt
  final path);
* a write aimed directly at ``os.replace``'s *destination* (the tmp
  dance is present but bypassed);
* an append-mode open (the manifest journal pattern) with no
  ``os.fsync`` in the same function — an un-fsynced append can be lost
  on power failure even though ``mark_done`` already returned.

Read modes never flag, and other modules are not examined — scratch
files elsewhere may legitimately be torn.  A helper a durable module
calls in another module is only checked if its own module is listed.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import qualname_of
from repro.analysis.checkers.base import Checker
from repro.analysis.engine import FileContext

__all__ = ["AtomicWriteChecker"]

#: numpy writers of their first argument
_WRITER_CALLEES = {"numpy.save", "numpy.savez", "numpy.savez_compressed"}

#: open-like callees whose mode argument decides read vs write
_OPEN_CALLEES = {"open", "gzip.open", "bz2.open", "lzma.open", "io.open"}

#: method suffixes that write to their receiver path
_PATH_WRITE_ATTRS = {"write_text", "write_bytes"}


def _root_name(expr: ast.AST | None) -> str | None:
    """The variable at the root of an expression (``tmp`` in ``str(tmp)``)."""
    while expr is not None:
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Attribute):
            expr = expr.value
        elif isinstance(expr, ast.Call):
            # Path(...).with_suffix(...), str(tmp): look through the
            # callee's receiver or the sole argument
            if isinstance(expr.func, ast.Attribute):
                expr = expr.func.value
            elif expr.args:
                expr = expr.args[0]
            else:
                return None
        elif isinstance(expr, ast.Subscript):
            expr = expr.value
        else:
            return None
    return None


def _open_mode(call: ast.Call) -> str:
    """The constant mode string of an open-like call (default ``"r"``)."""
    mode: ast.AST | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "r"


class AtomicWriteChecker(Checker):
    """Enforce tmp+``os.replace`` (and fsync'd appends) in durable code."""

    rule = "atomic-write"
    description = (
        "file writes in durable modules must flow through "
        "tmp+os.replace; append-mode journal writes must fsync"
    )

    def begin_file(self, ctx: FileContext) -> None:
        self._durable = ctx.module_in(ctx.config.durable_modules)

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: FileContext) -> None:
        if self._durable:
            self._check_function(node, ctx)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_function(self, fn: ast.AST, ctx: FileContext) -> None:
        replace_src: set[str | None] = set()
        replace_dst: set[str | None] = set()
        has_replace = has_fsync = False
        writes: list[tuple[ast.Call, str | None, str]] = []  # node, root, kind
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = ctx.resolve(node.func) or ""
            first = _root_name(node.args[0]) if node.args else None
            if callee in ("os.replace", "os.rename"):
                has_replace = True
                replace_src.add(first)
                if len(node.args) >= 2:
                    replace_dst.add(_root_name(node.args[1]))
            elif callee == "os.fsync":
                has_fsync = True
            elif callee in _OPEN_CALLEES:
                mode = _open_mode(node)
                if any(c in mode for c in "wx"):
                    writes.append((node, first, "write"))
                elif "a" in mode:
                    writes.append((node, first, "append"))
            elif callee in _WRITER_CALLEES:
                writes.append((node, first, "write"))
            elif callee.rsplit(".", 1)[-1] in _PATH_WRITE_ATTRS:
                target = node.func.value if isinstance(node.func, ast.Attribute) else None
                writes.append((node, _root_name(target), "write"))

        qualname = qualname_of(fn, ctx.module)
        for node, root, kind in writes:
            if kind == "append":
                if not has_fsync:
                    self.report(
                        ctx,
                        node,
                        f"append-mode write in durable function {qualname} has "
                        "no os.fsync in the same function; a journal append "
                        "that is not fsync'd can be lost on power failure "
                        "after returning",
                    )
            elif not has_replace:
                self.report(
                    ctx,
                    node,
                    f"bare write in durable function {qualname} never feeds "
                    "os.replace; a crash mid-write leaves a torn file at the "
                    "final path — write to a tmp sibling and os.replace it "
                    "into place",
                )
            elif root is not None and root in replace_dst and root not in replace_src:
                self.report(
                    ctx,
                    node,
                    f"write in {qualname} targets os.replace's destination "
                    "directly, bypassing the tmp file; write to the tmp path "
                    "instead",
                )
