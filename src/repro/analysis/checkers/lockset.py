"""lockset: state shared with worker threads needs one lock.

A per-file rule.  Its roots are the file's thread handoffs: a callable
handed to a pool (``submit``/``map``/``apply_async``…) or to
``threading.Thread(target=…)``, at any call in the file, module level
included.  A handed-over bare name is looked up in the enclosing
function scopes first, so a nested ``def run_bulk`` passed to
``pool.map`` is found.  From a root the rule follows the calls it can
name in the file: a def by bare name (nested, then module level), a
class's ``__init__`` through its constructor, and ``self.m()``.

* **Globals and closures.**  In every function reached from a
  handed-over callable, free function or bound method alike, an
  augmented assignment (``+=`` …) to state
  rooted at a *non-local* name, or to a name declared
  ``nonlocal``/``global``, must sit under a ``with`` whose context
  names a lock/mutex/guard/semaphore, unless the root is thread-local
  by name (``tls…``/``…local…``).  This is the RAPTOR busy-accounting
  race once fixed in the project (``worker_busy[slot] += work`` on a
  closed-over array).  Plain element stores (``results[i] = value``)
  are the idiomatic lock-free pattern and pass.

* **Instance attributes** (static Eraser) of a class that hands a bound
  method to a thread: ``Thread(target=self._producer)``,
  ``pool.submit(self.run)``, or ``w = Worker(...); Thread(target=w.run)``
  for a class of the file.  The entry and the methods it reaches
  through ``self`` are the *thread context*, the other methods bar
  ``__init__`` the *caller context*.  An attribute is reported when it
  is accessed in both contexts, written at least once outside
  ``__init__``, and no one ``with self.<lock>:`` is held at every such
  access — unless it is a synchronization object (``Lock``/``Queue``/
  ``Event``/``deque`` constructors, lock-ish names) or thread-local.
"""

from __future__ import annotations

import ast
import re
from typing import NamedTuple

from repro.analysis.astutil import (
    enclosing_function,
    function_locals,
    iter_parents,
    qualname_of,
)
from repro.analysis.checkers.base import Checker
from repro.analysis.engine import FileContext

__all__ = ["LocksetChecker"]

#: constructors whose instances are safe to share across threads
THREAD_SAFE_CTORS = frozenset(
    {
        "queue.Queue",
        "queue.LifoQueue",
        "queue.PriorityQueue",
        "queue.SimpleQueue",
        "threading.Event",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Barrier",
        "threading.local",
        "collections.deque",
    }
)

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

_FUNC = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Access(NamedTuple):
    """One ``self.<attr>`` touch: where, read/write, locks held."""

    attr: str
    write: bool
    locks: set[str]
    node: ast.Attribute
    function: str


def _self_param(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    params = [p.arg for p in (*fn.args.posonlyargs, *fn.args.args)]
    return params[0] if params else None


def _body_nodes(fn: ast.AST):
    """Walk a function body, *excluding* nested function/class bodies."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (*_FUNC, ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _with_contexts(node: ast.AST, scope: ast.AST):
    """Context expressions of the ``with`` blocks around ``node`` in ``scope``."""
    for parent in iter_parents(node):
        if isinstance(parent, (ast.With, ast.AsyncWith)):
            for item in parent.items:
                expr = item.context_expr
                yield expr.func if isinstance(expr, ast.Call) else expr
        if parent is scope:
            break


def _thread_safe_store(node: ast.Attribute, ctx: FileContext) -> bool:
    """Whether ``node`` is assigned an instance of a thread-safe class."""
    parent = getattr(node, "_repro_parent", None)
    return (
        isinstance(node.ctx, ast.Store)
        and isinstance(parent, (ast.Assign, ast.AnnAssign))
        and isinstance(parent.value, ast.Call)
        and ctx.resolve(parent.value.func) in THREAD_SAFE_CTORS
    )


class LocksetChecker(Checker):
    """Race detector for state shared with worker threads."""

    rule = "lockset"
    description = (
        "state shared with worker threads (closure/global read-modify-"
        "writes, thread-target class attributes) must hold one lock "
        "or be thread-local"
    )

    def begin_file(self, ctx: FileContext) -> None:
        #: qualname → def, for every def in the file (first one wins)
        self._defs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        #: class qualname → method name → method qualname
        self._methods: dict[str, dict[str, str]] = {}
        #: class qualname → its bound methods handed to threads, and
        #: None → the free functions (nested defs included) handed over
        self._entries: dict[str | None, set[str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                self._methods.setdefault(qualname_of(node, ctx.module), {})
            elif isinstance(node, _FUNC):
                self._defs.setdefault(qualname_of(node, ctx.module), node)
        for fq in self._defs:
            cls, _, name = fq.rpartition(".")
            if cls in self._methods:
                self._methods[cls].setdefault(name, fq)

    # ------------------------------------------------ names in the file
    def _class_of(self, fq: str | None) -> str | None:
        """The class whose method ``fq`` is, if it is one."""
        cls = fq.rpartition(".")[0] if fq else None
        return cls if cls in self._methods else None

    def _lookup(self, expr: ast.AST, scope: str | None, ctx: FileContext):
        """Qualname a Name/Attribute chain names from inside ``scope``.

        A bare name finds the defs nested in ``scope`` and in the
        functions enclosing it first, as a closure would.
        """
        if isinstance(expr, ast.Name):
            while scope in self._defs:
                nested = f"{scope}.{expr.id}"
                if nested in self._defs:
                    return nested
                scope = scope.rpartition(".")[0]
        return ctx.resolve(expr)

    def _callee(self, call: ast.Call, scope: str | None, ctx: FileContext):
        """The function of this file a call runs, or ``None``."""
        func, cls = call.func, self._class_of(scope)
        if (
            cls is not None
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == _self_param(self._defs[scope])
        ):
            return self._methods[cls].get(func.attr)
        fq = self._lookup(func, scope, ctx)
        if fq in self._methods:  # a constructor runs the class's __init__
            return self._methods[fq].get("__init__")
        return fq if fq in self._defs else None

    def _reach(self, roots, ctx: FileContext) -> set[str]:
        """Functions of this file reachable from ``roots`` (roots included)."""
        seen: set[str] = set()
        frontier = [r for r in roots if r in self._defs]
        while frontier:
            fq = frontier.pop()
            if fq in seen:
                continue
            seen.add(fq)
            for node in _body_nodes(self._defs[fq]):
                if isinstance(node, ast.Call):
                    callee = self._callee(node, fq, ctx)
                    if callee is not None:
                        frontier.append(callee)
        return seen

    # ------------------------------------------------------ thread entries
    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        """Record the callables this call hands to another thread."""
        fn = enclosing_function(node)
        scope = qualname_of(fn, ctx.module) if fn is not None else None
        targets: list[ast.AST] = []
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _SUBMIT_METHODS:
            # a method of this file that happens to be called
            # `submit`/`map` is not a pool
            if node.args and self._callee(node, scope, ctx) is None:
                targets.append(node.args[0])
        if ctx.resolve(func) == "threading.Thread":
            targets.extend(kw.value for kw in node.keywords if kw.arg == "target")
        for target in targets:
            fq = self._lookup(target, scope, ctx)
            if fq in self._defs and self._class_of(fq) is None:
                self._entries.setdefault(None, set()).add(fq)
            elif scope is not None and (method := self._bound_method(target, scope, ctx)):
                self._entries.setdefault(self._class_of(method), set()).add(method)

    def end_file(self, ctx: FileContext) -> None:
        seen: set[int] = set()
        every_entry = set().union(*self._entries.values())
        self._entries.pop(None, None)
        for fq in sorted(self._reach(every_entry, ctx)):
            for node in ast.walk(self._defs[fq]):
                if isinstance(node, ast.AugAssign) and id(node) not in seen:
                    seen.add(id(node))
                    self._check_aug(node, ctx)
        for cls, entries in sorted(self._entries.items()):
            self._check_class(cls, entries, ctx)

    # ------------------------------------------- free functions, closures
    def _check_aug(self, node: ast.AugAssign, ctx: FileContext) -> None:
        root = node.target
        while isinstance(root, (ast.Subscript, ast.Attribute)):
            root = root.value
        containing = enclosing_function(node)
        if not isinstance(root, ast.Name) or containing is None:
            return
        if isinstance(node.target, ast.Name):
            # `x += 1` races only when x is declared nonlocal/global
            if not any(
                isinstance(stmt, (ast.Nonlocal, ast.Global))
                and node.target.id in stmt.names
                for stmt in ast.walk(containing)
            ):
                return
        elif root.id in function_locals(containing):
            return  # container created in this very call; not shared
        if _THREAD_LOCAL_NAME.search(root.id):
            return  # thread-local accumulator by naming convention
        if any(
            _LOCK_NAME.search(expr.attr if isinstance(expr, ast.Attribute) else expr.id)
            for expr in _with_contexts(node, containing)
            if isinstance(expr, (ast.Attribute, ast.Name))
        ):
            return
        self.report(
            ctx,
            node,
            f"read-modify-write ({type(node.op).__name__}) on shared "
            f"'{root.id}' inside thread-submitted code without a held "
            "lock; guard it with `with <lock>:` or accumulate into "
            "thread-local state and merge after the pool drains",
        )

    # ------------------------------------------------ instance attributes
    def _bound_method(
        self, target: ast.AST, scope: str, ctx: FileContext
    ) -> str | None:
        """The method ``self.m``, or ``obj.m`` for ``obj = Cls(...)``, names."""
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
        ):
            return None
        root = target.value.id
        fn = self._defs[scope]
        cls = self._class_of(scope) if root == _self_param(fn) else None
        if cls is None:
            # `worker = Worker(...); Thread(target=worker.run)`
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and any(
                        isinstance(t, ast.Name) and t.id == root
                        for t in node.targets
                    )
                ):
                    ctor = self._lookup(node.value.func, scope, ctx)
                    if ctor in self._methods:
                        cls = ctor
        return self._methods[cls].get(target.attr) if cls else None

    def _check_class(self, cls: str, entries: set[str], ctx: FileContext) -> None:
        methods = set(self._methods[cls].values())
        # thread context: entries plus class methods they transitively call
        thread_ctx = self._reach(entries, ctx) & methods
        init_q = self._methods[cls].get("__init__")
        caller_ctx = methods - thread_ctx - {init_q}

        accesses: dict[str, list[_Access]] = {}
        for fq in sorted(methods):
            for access in self._collect_accesses(fq):
                accesses.setdefault(access.attr, []).append(access)

        for attr, acc in sorted(accesses.items()):
            if (
                _LOCK_NAME.search(attr)
                or _THREAD_LOCAL_NAME.search(attr)
                or any(a.function == init_q and _thread_safe_store(a.node, ctx) for a in acc)
            ):
                continue
            in_thread = [a for a in acc if a.function in thread_ctx]
            in_caller = [a for a in acc if a.function in caller_ctx]
            if not in_thread or not in_caller:
                continue  # not shared across the thread boundary
            non_init = in_thread + in_caller
            if not any(a.write for a in non_init):
                continue  # read-only after construction
            if set.intersection(*(a.locks for a in non_init)):
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
            self.report(
                ctx,
                witness.node,
                f"attribute self.{attr} of {cls} is shared "
                f"between thread-target method(s) "
                f"{sorted(m.rsplit('.', 1)[-1] for m in thread_ctx)} and "
                "other methods without a consistent lock "
                f"({hint}); guard every access with one `with "
                "self.<lock>:` or make it thread-local",
            )

    def _collect_accesses(self, fq: str) -> list[_Access]:
        fn = self._defs[fq]
        self_name = _self_param(fn)
        out: list[_Access] = []
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == self_name
            ):
                continue
            parent = getattr(node, "_repro_parent", None)
            write = (
                isinstance(node.ctx, (ast.Store, ast.Del))
                # self.items.append(x) / self.items[k] = v mutate the attr
                or (
                    isinstance(parent, ast.Attribute)
                    and parent.value is node
                    and parent.attr in _MUTATOR_METHODS
                )
                or (
                    isinstance(parent, ast.Subscript)
                    and parent.value is node
                    and isinstance(parent.ctx, (ast.Store, ast.Del))
                )
            )
            locks = {
                expr.attr
                for expr in _with_contexts(node, fn)
                if isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == self_name
            }
            out.append(_Access(node.attr, write, locks, node, fq))
        return out
