"""atomic-write: durable files are written tmp-first, then replaced.

The resume contract (ROADMAP: a campaign killed mid-shard resumes
without rescoring) survives crashes only because every durable file is
produced by the tmp+``os.replace`` idiom — a reader never observes a
half-written artifact.  This checker walks every function in the
``durable-modules`` config *plus everything reachable from them* and
flags:

* a write-mode ``open`` / ``gzip.open`` / ``np.save*`` /
  ``Path.write_text`` whose target never feeds ``os.replace`` in the
  same function (a torn write: a crash mid-write leaves a corrupt
  final path);
* a write aimed directly at ``os.replace``'s *destination* (the tmp
  dance is present but bypassed);
* an append-mode open (the manifest journal pattern) with no
  ``os.fsync`` in the same function — an un-fsynced append can be lost
  on power failure even though ``mark_done`` already returned.

Read modes never flag, and functions outside the durable cone are not
examined — scratch files elsewhere may legitimately be torn.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.project import FunctionInfo, Project

__all__ = ["AtomicWriteChecker"]

#: callees (suffix match on the dotted name) that write their first arg
_WRITER_CALLEES = {
    "numpy.save",
    "numpy.savez",
    "numpy.savez_compressed",
    "pickle.dump",  # first arg is the object; handled via handle mode
}

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
        "file writes reachable from durable modules must flow through "
        "tmp+os.replace; append-mode journal writes must fsync"
    )

    def check(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        roots = project.functions_in(config.durable_modules)
        cone = project.reachable(roots)
        findings: list[Finding] = []
        for fq in sorted(cone):
            findings.extend(self._check_function(project, project.functions[fq]))
        return findings

    # ------------------------------------------------------- per function
    def _check_function(
        self, project: Project, info: FunctionInfo
    ) -> list[Finding]:
        replace_src: set[str] = set()
        replace_dst: set[str] = set()
        has_replace = False
        has_fsync = False
        writes: list[tuple[ast.Call, str | None, str]] = []  # node, root, kind

        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            callee = project.callee_of(node)
            if callee in ("os.replace", "os.rename"):
                has_replace = True
                if node.args:
                    src = _root_name(node.args[0])
                    if src is not None:
                        replace_src.add(src)
                if len(node.args) >= 2:
                    dst = _root_name(node.args[1])
                    if dst is not None:
                        replace_dst.add(dst)
                continue
            if callee == "os.fsync":
                has_fsync = True
                continue
            if callee in _OPEN_CALLEES:
                mode = _open_mode(node)
                if any(c in mode for c in "wx"):
                    writes.append((node, _root_name(node.args[0]) if node.args else None, "write"))
                elif "a" in mode:
                    writes.append((node, _root_name(node.args[0]) if node.args else None, "append"))
                continue
            if callee in _WRITER_CALLEES and callee != "pickle.dump":
                writes.append(
                    (node, _root_name(node.args[0]) if node.args else None, "write")
                )
                continue
            if callee is not None and callee.rsplit(".", 1)[-1] in _PATH_WRITE_ATTRS:
                target = (
                    node.func.value
                    if isinstance(node.func, ast.Attribute)
                    else None
                )
                writes.append((node, _root_name(target), "write"))

        findings: list[Finding] = []
        for node, root, kind in writes:
            line = getattr(node, "lineno", 0)
            col = getattr(node, "col_offset", 0)
            if kind == "append":
                if not has_fsync:
                    findings.append(
                        self.finding(
                            f"append-mode write in durable function "
                            f"{info.qualname} has no os.fsync in the same "
                            "function; a journal append that is not fsync'd "
                            "can be lost on power failure after returning",
                            path=info.path,
                            line=line,
                            col=col,
                        )
                    )
                continue
            if not has_replace:
                findings.append(
                    self.finding(
                        f"bare write in durable function {info.qualname} "
                        "never feeds os.replace; a crash mid-write leaves "
                        "a torn file at the final path — write to a tmp "
                        "sibling and os.replace it into place",
                        path=info.path,
                        line=line,
                        col=col,
                    )
                )
                continue
            if root is not None and root in replace_dst and root not in replace_src:
                findings.append(
                    self.finding(
                        f"write in {info.qualname} targets os.replace's "
                        "destination directly, bypassing the tmp file; "
                        "write to the tmp path instead",
                        path=info.path,
                        line=line,
                        col=col,
                    )
                )
        return findings
