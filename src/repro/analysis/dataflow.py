"""Forward interprocedural taint analysis over the project call graph.

The framework answers one question for whole-program checkers: *which
source, if any, does the value of this expression derive from?* —
across assignments, arithmetic, containers, function calls, returns and
instance attributes.  It is deliberately engineered for the properties
that matter to a lint gate rather than a verifier:

* **context-insensitive, first-wins**: every variable / parameter /
  return slot / class attribute holds at most one taint witness, and a
  witness is never replaced once set.  The abstract domain is finite and
  updates are monotone, so the fixpoint terminates without widening.
* **flow-insensitive within a function**: statements are re-walked until
  the local environment stops changing, which soundly covers loops and
  use-before-def orderings at the cost of some precision.
* **conservative pass-through for unknown callees**: ``int(time.time())``
  stays tainted because ``int`` is external and receives a tainted
  argument; resolved project callees use their computed summaries
  instead.

A :class:`Taint` carries provenance — source label, origin location and
the chain of functions it travelled through — so findings read as a
story ("seeded at util/seeds.py:4, via make_seed → configure") instead
of a bare line number.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

from repro.analysis.project import FunctionInfo, Project

__all__ = ["Taint", "TaintAnalysis"]

#: provenance chains are capped so cyclic call graphs cannot grow them
_MAX_CHAIN = 10


@dataclass(frozen=True)
class Taint:
    """One taint witness: what the value derives from, and how it got here."""

    label: str  # human description of the source, e.g. "time.time()"
    path: str  # file of the source expression
    line: int
    chain: tuple[str, ...] = ()  # function qualnames traversed, source first

    def via(self, qualname: str) -> "Taint":
        """Extend the provenance chain into ``qualname``."""
        if self.chain and self.chain[-1] == qualname:
            return self
        if len(self.chain) >= _MAX_CHAIN:
            return self
        return Taint(self.label, self.path, self.line, (*self.chain, qualname))

    def describe(self) -> str:
        """Readable provenance: source, origin, route."""
        route = " → ".join(q.rsplit(".", 1)[-1] for q in self.chain)
        text = f"{self.label} (origin {self.path}:{self.line}"
        if len(self.chain) > 1:
            text += f", via {route}"
        return text + ")"


class TaintAnalysis:
    """Run forward taint from ``source`` matches to a fixpoint.

    Parameters
    ----------
    project:
        The built :class:`~repro.analysis.project.Project`.
    source:
        ``source(callee_qualname, call_node) -> label | None``.  Called
        for every call site with the canonical callee name (``None``
        when unresolved); a non-``None`` label marks the call's result
        tainted.

    After :meth:`run`, :meth:`taint_of` answers for any expression in
    any project function.
    """

    def __init__(
        self,
        project: Project,
        source: Callable[[str | None, ast.Call], str | None],
    ) -> None:
        self.project = project
        self.source = source
        #: function qualname -> local name (or "self.attr") -> Taint
        self.env: dict[str, dict[str, Taint]] = {}
        #: function qualname -> Taint of its return value
        self.returns: dict[str, Taint] = {}
        #: (class qualname, attr) -> Taint
        self.attr_taints: dict[tuple[str, str], Taint] = {}

    # ------------------------------------------------------------- fixpoint
    def run(self) -> "TaintAnalysis":
        """Iterate to a fixpoint."""
        worklist = list(self.project.functions)
        queued = set(worklist)
        rounds = 0
        budget = max(1, len(worklist)) * 25
        while worklist and rounds < budget:
            rounds += 1
            fq = worklist.pop(0)
            queued.discard(fq)
            info = self.project.functions[fq]
            changed = self._analyze_function(info)
            for dep in changed:
                if dep not in queued and dep in self.project.functions:
                    queued.add(dep)
                    worklist.append(dep)
        return self

    # -------------------------------------------------------- per function
    def _fn_env(self, fq: str) -> dict[str, Taint]:
        return self.env.setdefault(fq, {})

    def _bind(self, env: dict[str, Taint], key: str, taint: Taint) -> bool:
        """First-wins binding; returns True when something new was learned."""
        if key in env:
            return False
        env[key] = taint
        return True

    def _analyze_function(self, info: FunctionInfo) -> set[str]:
        """One pass over ``info``; returns qualnames needing re-analysis."""
        fq = info.qualname
        env = self._fn_env(fq)
        dirty: set[str] = set()
        self_name = (
            info.positional_params()[0]
            if info.is_method and info.positional_params()
            else None
        )

        # seed: class-attribute taints visible through self
        if info.class_qualname is not None:
            for (cls, attr), taint in list(self.attr_taints.items()):
                if cls == info.class_qualname and self_name is not None:
                    self._bind(env, f"{self_name}.{attr}", taint)

        changed_local = True
        passes = 0
        while changed_local and passes < 6:
            changed_local = False
            passes += 1
            for node in ast.walk(info.node):
                changed_local |= self._transfer(node, info, env, dirty)
        return dirty

    # ------------------------------------------------------- transfer rules
    def _transfer(
        self,
        node: ast.AST,
        info: FunctionInfo,
        env: dict[str, Taint],
        dirty: set[str],
    ) -> bool:
        fq = info.qualname
        changed = False
        if isinstance(node, ast.Assign):
            taint = self.taint_of(node.value, info)
            if taint is not None:
                for target in node.targets:
                    changed |= self._bind_target(target, taint, info, env, dirty)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            taint = self.taint_of(node.value, info)
            if taint is not None:
                changed |= self._bind_target(node.target, taint, info, env, dirty)
        elif isinstance(node, ast.AugAssign):
            taint = self.taint_of(node.value, info) or self.taint_of(
                node.target, info
            )
            if taint is not None:
                changed |= self._bind_target(node.target, taint, info, env, dirty)
        elif isinstance(node, ast.For):
            taint = self.taint_of(node.iter, info)
            if taint is not None:
                changed |= self._bind_target(node.target, taint, info, env, dirty)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            taint = self.taint_of(node.context_expr, info)
            if taint is not None:
                changed |= self._bind_target(
                    node.optional_vars, taint, info, env, dirty
                )
        elif isinstance(node, ast.Return) and node.value is not None:
            taint = self.taint_of(node.value, info)
            if taint is not None and fq not in self.returns:
                self.returns[fq] = taint.via(fq)
                changed = True
                dirty.update(e.caller for e in self.project.calls_to(fq))
        elif isinstance(node, ast.Call):
            changed |= self._propagate_call_args(node, info, env, dirty)
        return changed

    def _bind_target(
        self,
        target: ast.AST,
        taint: Taint,
        info: FunctionInfo,
        env: dict[str, Taint],
        dirty: set[str],
    ) -> bool:
        changed = False
        if isinstance(target, ast.Name):
            changed |= self._bind(env, target.id, taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                changed |= self._bind_target(elt, taint, info, env, dirty)
        elif isinstance(target, ast.Starred):
            changed |= self._bind_target(target.value, taint, info, env, dirty)
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            changed |= self._bind(env, f"{target.value.id}.{target.attr}", taint)
            # a write through self publishes to every method of the class
            if info.class_qualname is not None:
                params = info.positional_params()
                if params and target.value.id == params[0]:
                    key = (info.class_qualname, target.attr)
                    if key not in self.attr_taints:
                        self.attr_taints[key] = taint
                        changed = True
                        cls = self.project.classes.get(info.class_qualname)
                        if cls is not None:
                            dirty.update(cls.methods.values())
        elif isinstance(target, ast.Subscript):
            changed |= self._bind_target(target.value, taint, info, env, dirty)
        return changed

    def _propagate_call_args(
        self,
        call: ast.Call,
        info: FunctionInfo,
        env: dict[str, Taint],
        dirty: set[str],
    ) -> bool:
        """Tainted arguments flow into resolved project callees' params."""
        edge = self.project.edge_of(call)
        if edge is None or edge.external:
            return False
        callee = self.project.functions.get(edge.callee)
        if callee is None:
            return False
        params = callee.positional_params()
        # calling a method through a receiver binds args from params[1:]
        offset = 0
        if callee.is_method and isinstance(call.func, ast.Attribute):
            offset = 1
        changed = False
        callee_env = self._fn_env(edge.callee)
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            taint = self.taint_of(arg, info)
            if taint is None:
                continue
            slot = i + offset
            if slot < len(params):
                if self._bind(callee_env, params[slot], taint.via(edge.callee)):
                    dirty.add(edge.callee)
                    changed = True
        names = set(callee.param_names())
        for kw in call.keywords:
            if kw.arg is None or kw.arg not in names:
                continue
            taint = self.taint_of(kw.value, info)
            if taint is not None:
                if self._bind(callee_env, kw.arg, taint.via(edge.callee)):
                    dirty.add(edge.callee)
                    changed = True
        return changed

    # ---------------------------------------------------- expression taint
    def taint_of(
        self, expr: ast.AST | None, function: FunctionInfo
    ) -> Taint | None:
        """The taint witness of ``expr`` evaluated inside ``function``."""
        if expr is None:
            return None
        env = self.env.get(function.qualname, {})
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name):
                dotted = f"{expr.value.id}.{expr.attr}"
                if dotted in env:
                    return env[dotted]
            return self.taint_of(expr.value, function)
        if isinstance(expr, ast.Call):
            callee = self.project.callee_of(expr)
            label = self.source(callee, expr)
            if label is not None:
                return Taint(
                    label,
                    function.path,
                    getattr(expr, "lineno", 0),
                    (function.qualname,),
                )
            if callee is not None and callee in self.returns:
                return self.returns[callee].via(function.qualname)
            edge = self.project.edge_of(expr)
            if edge is not None and not edge.external:
                # resolved project callee with an untainted return:
                # trust the summary, do not pass taint through
                return None
            # unknown/external callee: conservative pass-through from
            # arguments and the receiver object
            for arg in (*expr.args, *(kw.value for kw in expr.keywords)):
                taint = self.taint_of(arg, function)
                if taint is not None:
                    return taint
            if isinstance(expr.func, ast.Attribute):
                return self.taint_of(expr.func.value, function)
            return None
        if isinstance(
            expr,
            (
                ast.BinOp,
                ast.UnaryOp,
                ast.BoolOp,
                ast.Compare,
                ast.IfExp,
                ast.Tuple,
                ast.List,
                ast.Set,
                ast.Dict,
                ast.Subscript,
                ast.Starred,
                ast.JoinedStr,
                ast.FormattedValue,
                ast.Slice,
                ast.ListComp,
                ast.SetComp,
                ast.GeneratorExp,
                ast.DictComp,
                ast.Await,
                ast.NamedExpr,
            ),
        ):
            for child in ast.iter_child_nodes(expr):
                taint = self.taint_of(child, function)
                if taint is not None:
                    return taint
            return None
        if isinstance(expr, ast.comprehension):
            return self.taint_of(expr.iter, function)
        return None
