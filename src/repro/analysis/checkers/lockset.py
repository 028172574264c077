"""lockset: state shared with worker threads needs one lock.

Every thread handoff in the project is a root: a callable handed to a
pool (``pool.submit``/``pool.map``/``apply_async``…) or
``threading.Thread(target=…)``.  Handoffs are found by walking every
call in every file — module-level and class-body calls included, which
the call graph has no edges for — and a handed-over name is looked up
in the enclosing function scopes first, so a nested ``def run_bulk``
passed to ``pool.map`` by its local name is found.

Two shapes of shared state are checked:

* **Free functions and closures.**  In every function reachable from a
  handed-over function, an augmented assignment (``+=`` and friends)
  to subscript/attribute state rooted at a *non-local* name — closure
  or module globals shared across workers — or to a name declared
  ``nonlocal``/``global`` must sit under a held lock (a ``with`` whose
  context names a lock/mutex/guard/semaphore), unless the root is a
  thread-local accumulator (``tls…``/``…local…`` naming).  This is the
  RAPTOR busy-accounting race once fixed in the project:
  ``worker_busy[slot] += work`` on a closed-over array loses updates
  under concurrency.  Plain element stores (``results[i] = value``) are
  not flagged: distinct-slot writes from distinct workers are the
  idiomatic lock-free pattern.

* **Instance attributes** (Eraser-style lockset inference) of classes
  that hand one of their bound methods to a thread
  (``threading.Thread(target=self._producer)``, ``pool.submit(self.run)``).
  Methods split into *thread context* (the entry plus every class
  method it transitively calls) and *caller context* (everything
  else); every ``self.<attr>`` access in both is tracked with the set
  of ``with self.<lock>:`` guards held at it.  An attribute is
  reported when all of these hold:

  - it is accessed in both contexts (that is what makes it shared — a
    producer-only buffer is fine);
  - at least one access outside ``__init__`` is a write (init-only
    configuration published before ``Thread.start()`` is ordered by the
    start's happens-before edge);
  - the intersection of locksets over all non-init accesses is empty
    (no single lock consistently guards it);
  - it is not itself a synchronization object (``Lock``/``Queue``/
    ``Event``/``deque`` constructors, lock-ish names) or thread-local.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.astutil import (
    enclosing_function,
    function_locals,
    iter_parents,
)
from repro.analysis.checkers.base import Checker
from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.project import (
    THREAD_SAFE_CTORS,
    ClassInfo,
    FunctionInfo,
    Project,
)

__all__ = ["LocksetChecker"]

#: executor/pool methods whose callable argument runs on another thread
_SUBMIT_METHODS = frozenset(
    {"submit", "map", "apply_async", "starmap", "imap", "imap_unordered"}
)

_LOCK_NAME = re.compile(r"(lock|mutex|guard|sem)", re.IGNORECASE)
_THREAD_LOCAL_NAME = re.compile(r"(^|_)(tls|local)", re.IGNORECASE)

#: container methods that mutate their receiver — ``self.items.append(x)``
#: is a write to ``items`` for lockset purposes, not a read
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popleft",
        "appendleft",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "sort",
        "reverse",
    }
)


def _self_param(info: FunctionInfo) -> str | None:
    params = info.positional_params()
    return params[0] if info.is_method and params else None


class _Access:
    """One ``self.<attr>`` touch: where, read/write, locks held."""

    __slots__ = ("attr", "write", "locks", "path", "line", "col", "function")

    def __init__(self, attr, write, locks, path, line, col, function):
        self.attr = attr
        self.write = write
        self.locks = locks
        self.path = path
        self.line = line
        self.col = col
        self.function = function


class LocksetChecker(Checker):
    """Race detector for state shared with worker threads."""

    rule = "lockset"
    description = (
        "state shared with worker threads (closure/global read-modify-"
        "writes, thread-target class attributes) must hold one lock "
        "or be thread-local"
    )

    def __init__(self) -> None:
        #: free functions (nested defs included) handed to threads
        self._function_entries: set[str] = set()
        #: class qualname → bound methods handed to threads
        self._class_entries: dict[str, set[str]] = {}

    # ------------------------------------------------------ thread entries
    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        """Record the callables this call hands to another thread."""
        targets: list[ast.AST] = []
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _SUBMIT_METHODS:
            # a project method that happens to be called `submit`/`map`
            # is not a pool
            edge = ctx.project.edge_of(node)
            if node.args and (edge is None or edge.external):
                targets.append(node.args[0])
        if ctx.resolve(func) == "threading.Thread":
            targets.extend(kw.value for kw in node.keywords if kw.arg == "target")
        if not targets:
            return
        caller = ctx.project.function_of(enclosing_function(node))
        scope = caller.qualname if caller is not None else None
        for target in targets:
            fq = ctx.project.resolve(ctx.module, target, scope=scope)
            info = ctx.project.functions.get(fq)
            if info is not None and not info.is_method:
                self._function_entries.add(fq)
            elif caller is not None:
                resolved = self._resolve_bound_method(
                    ctx.project, caller, target
                )
                if resolved is not None:
                    cls_q, method_q = resolved
                    self._class_entries.setdefault(cls_q, set()).add(method_q)

    def check(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        findings: list[Finding] = []
        seen: set[int] = set()
        for fq in sorted(project.reachable(self._function_entries)):
            for node in ast.walk(project.functions[fq].node):
                if isinstance(node, ast.AugAssign) and id(node) not in seen:
                    seen.add(id(node))
                    finding = self._check_aug(node, project.functions[fq])
                    if finding is not None:
                        findings.append(finding)
        for cls_q, entries in sorted(self._class_entries.items()):
            cls = project.classes.get(cls_q)
            if cls is not None:
                findings.extend(self._check_class(project, cls, entries))
        return findings

    # ------------------------------------------- free functions, closures
    def _check_aug(
        self, node: ast.AugAssign, info: FunctionInfo
    ) -> Finding | None:
        root = node.target
        while isinstance(root, (ast.Subscript, ast.Attribute)):
            root = root.value
        containing = enclosing_function(node)
        if not isinstance(root, ast.Name) or containing is None:
            return None
        if isinstance(node.target, ast.Name):
            # `x += 1` races only when x is declared nonlocal/global
            if not any(
                isinstance(stmt, (ast.Nonlocal, ast.Global))
                and node.target.id in stmt.names
                for stmt in ast.walk(containing)
            ):
                return None
        elif root.id in function_locals(containing):
            return None  # container created in this very call; not shared
        if _THREAD_LOCAL_NAME.search(root.id):
            return None  # thread-local accumulator by naming convention
        if _under_lock(node, containing):
            return None
        return self.finding(
            f"read-modify-write ({type(node.op).__name__}) on shared "
            f"'{root.id}' inside thread-submitted code without a held "
            "lock; guard it with `with <lock>:` or accumulate into "
            "thread-local state and merge after the pool drains",
            path=info.path,
            line=node.lineno,
            col=node.col_offset,
        )

    # ------------------------------------------------ instance attributes
    def _resolve_bound_method(
        self, project: Project, caller: FunctionInfo, target: ast.AST
    ) -> tuple[str, str] | None:
        """``self.m`` (or ``obj.m`` with an inferable class) → (class, method)."""
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
        ):
            return None
        root = target.value.id
        cls_q: str | None = None
        if root == _self_param(caller):
            cls_q = caller.class_qualname
        else:
            # `worker = Worker(...); Thread(target=worker.run)`
            for node in ast.walk(caller.node):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and any(
                        isinstance(t, ast.Name) and t.id == root
                        for t in node.targets
                    )
                ):
                    ctor = project.edge_of(node.value)
                    if ctor is not None and not ctor.external:
                        fn = project.functions.get(ctor.callee)
                        if fn is not None and fn.name == "__init__":
                            cls_q = fn.class_qualname
        if cls_q is None:
            return None
        method_q = project.method_resolution(cls_q, target.attr)
        if method_q is None:
            return None
        return cls_q, method_q

    def _check_class(
        self, project: Project, cls: ClassInfo, entries: set[str]
    ) -> list[Finding]:
        methods = set(cls.methods.values())
        # thread context: entries plus class methods they transitively call
        thread_ctx = {
            fq for fq in project.reachable(entries) if fq in methods
        }
        init_q = cls.methods.get("__init__")
        caller_ctx = methods - thread_ctx - ({init_q} if init_q else set())

        accesses: dict[str, list[_Access]] = {}
        for fq in sorted(methods):
            info = project.functions.get(fq)
            if info is None:
                continue
            for access in self._collect_accesses(info):
                accesses.setdefault(access.attr, []).append(access)

        findings: list[Finding] = []
        for attr, acc in sorted(accesses.items()):
            if self._exempt_attr(cls, attr):
                continue
            in_thread = [a for a in acc if a.function in thread_ctx]
            in_caller = [a for a in acc if a.function in caller_ctx]
            if not in_thread or not in_caller:
                continue  # not shared across the thread boundary
            non_init = in_thread + in_caller
            if not any(a.write for a in non_init):
                continue  # read-only after construction
            common = set.intersection(*(a.locks for a in non_init))
            if common:
                continue  # one lock consistently guards every access
            witness = next(
                (a for a in non_init if a.write and not a.locks),
                non_init[0],
            )
            held = sorted({lock for a in non_init for lock in a.locks})
            hint = (
                f"some accesses hold {held} but not all do"
                if held
                else "no access holds any lock"
            )
            findings.append(
                self.finding(
                    f"attribute self.{attr} of {cls.qualname} is shared "
                    f"between thread-target method(s) "
                    f"{sorted(m.rsplit('.', 1)[-1] for m in thread_ctx)} and "
                    "other methods without a consistent lock "
                    f"({hint}); guard every access with one `with "
                    "self.<lock>:` or make it thread-local",
                    path=witness.path,
                    line=witness.line,
                    col=witness.col,
                )
            )
        return findings

    @staticmethod
    def _exempt_attr(cls: ClassInfo, attr: str) -> bool:
        if _LOCK_NAME.search(attr) or _THREAD_LOCAL_NAME.search(attr):
            return True
        ctor = cls.attr_ctors.get(attr)
        if ctor in THREAD_SAFE_CTORS or ctor == "threading.local":
            return True
        return False

    def _collect_accesses(self, info: FunctionInfo) -> list[_Access]:
        self_name = _self_param(info)
        if self_name is None:
            return []
        out: list[_Access] = []
        for node in ast.walk(info.node):
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == self_name
            ):
                continue
            write = isinstance(node.ctx, (ast.Store, ast.Del))
            parent = getattr(node, "_repro_parent", None)
            if not write:
                # self.items.append(x) / self.items[k] = v mutate the attr
                if (
                    isinstance(parent, ast.Attribute)
                    and parent.value is node
                    and parent.attr in _MUTATOR_METHODS
                ):
                    write = True
                elif (
                    isinstance(parent, ast.Subscript)
                    and parent.value is node
                    and isinstance(parent.ctx, (ast.Store, ast.Del))
                ):
                    write = True
            out.append(
                _Access(
                    attr=node.attr,
                    write=write,
                    locks=self._held_locks(node, info),
                    path=info.path,
                    line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0),
                    function=info.qualname,
                )
            )
        return out

    @staticmethod
    def _held_locks(node: ast.AST, info: FunctionInfo) -> set[str]:
        """Names of ``with self.<lock>:`` guards enclosing ``node``."""
        self_name = _self_param(info)
        held: set[str] = set()
        for parent in iter_parents(node):
            if isinstance(parent, (ast.With, ast.AsyncWith)):
                for item in parent.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        expr = expr.func
                    if (
                        isinstance(expr, ast.Attribute)
                        and isinstance(expr.value, ast.Name)
                        and expr.value.id == self_name
                    ):
                        held.add(expr.attr)
            if parent is info.node:
                break
        return held


def _under_lock(node: ast.AST, containing: ast.AST) -> bool:
    """Whether ``node`` sits inside a ``with <lock-like>`` in scope."""
    for parent in iter_parents(node):
        if isinstance(parent, (ast.With, ast.AsyncWith)):
            for item in parent.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                if isinstance(expr, ast.Attribute):
                    name = expr.attr
                elif isinstance(expr, ast.Name):
                    name = expr.id
                else:
                    continue
                if _LOCK_NAME.search(name):
                    return True
        if parent is containing:
            break
    return False
