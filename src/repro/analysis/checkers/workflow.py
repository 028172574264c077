"""workflow-shape: validate task/stage/pipeline literals before dispatch.

The static twin of :meth:`repro.rct.pilot.Pilot.validate_fits` — RAPTOR
(arXiv:2209.00114) and the RADICAL infrastructure papers both push
task/resource validation *before* submission, because at scale a
malformed request surfaces as a misleading deadlock hours into an
allocation.  At lint time we can catch every construction site whose
arguments are literals:

* **overcommit** — a ``TaskSpec`` requesting more per-node cpus/gpus
  than the ``NodeSpec`` visible in the same scope (or the module) holds;
* **zero-slot tasks** — ``cpus=0`` with no gpus (raises at runtime);
* **non-positive node counts / negative durations**;
* **zero-task stages** and **empty pipelines** (both raise at runtime);
* **unreachable stages** — a ``Stage`` bound to a name that is never
  referenced again, i.e. built but never wired into any pipeline.

Only literal arguments are judged; computed shapes are runtime
territory (``validate_fits`` still guards those).
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import iter_parents, literal_number
from repro.analysis.checkers.base import Checker
from repro.analysis.engine import FileContext

__all__ = ["WorkflowShapeChecker"]

#: default per-node shape of repro.rct.cluster.NodeSpec / SUMMIT_NODE
_DEFAULT_NODE = (42, 6)

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def _last_segment(qname: str | None) -> str | None:
    return qname.rsplit(".", 1)[-1] if qname else None


def _scope_of(node: ast.AST) -> ast.AST:
    """Innermost function containing ``node``, else the module."""
    last = node
    for parent in iter_parents(node):
        if isinstance(parent, _FunctionNode):
            return parent
        last = parent
    return last


class WorkflowShapeChecker(Checker):
    """Statically validate TaskSpec/Stage/Pipeline construction sites."""

    rule = "workflow-shape"
    description = (
        "TaskSpec/Stage/Pipeline literals checked against NodeSpec "
        "shapes: overcommit, zero-task stages, unreachable stages"
    )

    def begin_file(self, ctx: FileContext) -> None:
        # scope id → list of node shapes visible in that scope
        self._shapes: dict[int, list[tuple[float, float]]] = {}
        self._module_scope = ctx.tree
        # stage bindings awaiting a later load: name → assign node
        self._stage_bindings: list[tuple[str, ast.AST, ast.AST]] = []
        self._collect_shapes(ctx)

    # ---------------------------------------------------------- node shapes
    def _collect_shapes(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            shape = None
            if isinstance(node, ast.Call):
                if _last_segment(ctx.resolve(node.func)) == "NodeSpec":
                    kwargs = self._literal_kwargs(node)
                    shape = (
                        kwargs.get("cpus", _DEFAULT_NODE[0]),
                        kwargs.get("gpus", _DEFAULT_NODE[1]),
                    )
            elif isinstance(node, ast.Name) and node.id == "SUMMIT_NODE":
                shape = _DEFAULT_NODE
            if shape is not None:
                scope = _scope_of(node)
                self._shapes.setdefault(id(scope), []).append(shape)

    def _ambient_shape(self, node: ast.AST) -> tuple[float, float] | None:
        """The unambiguous node shape governing ``node``'s scope, if any.

        The innermost scope holding any shape wins; several *different*
        shapes in that scope are ambiguous and disable the check.
        """
        scope = _scope_of(node)
        for candidate in (scope, self._module_scope):
            shapes = set(self._shapes.get(id(candidate), ()))
            if len(shapes) == 1:
                return next(iter(shapes))
            if len(shapes) > 1:
                return None
        return None

    @staticmethod
    def _literal_kwargs(node: ast.Call) -> dict[str, float]:
        out = {}
        for kw in node.keywords:
            value = literal_number(kw.value)
            if kw.arg is not None and value is not None:
                out[kw.arg] = value
        return out

    # ------------------------------------------------------------ the rules
    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        name = _last_segment(ctx.resolve(node.func))
        if name == "TaskSpec":
            self._check_taskspec(node, ctx)
        elif name == "Stage":
            self._check_stage(node, ctx)
        elif name == "Pipeline":
            self._check_pipeline(node, ctx)

    def _check_taskspec(self, node: ast.Call, ctx: FileContext) -> None:
        kwargs = self._literal_kwargs(node)
        if kwargs.get("cpus") == 0 and kwargs.get("gpus", 0) == 0:
            self.report(
                ctx,
                node,
                "TaskSpec requests no slots (cpus=0, gpus=0); it can "
                "never be placed and raises at construction",
            )
        nodes = kwargs.get("nodes")
        if nodes is not None and nodes < 1:
            self.report(
                ctx, node, f"TaskSpec nodes={nodes:g} must be >= 1"
            )
        duration = kwargs.get("duration")
        if duration is not None and duration < 0:
            self.report(
                ctx,
                node,
                f"TaskSpec duration={duration:g} must be non-negative",
            )
        shape = self._ambient_shape(node)
        if shape is not None:
            cpus, gpus = kwargs.get("cpus"), kwargs.get("gpus")
            if cpus is not None and cpus > shape[0]:
                self.report(
                    ctx,
                    node,
                    f"per-node overcommit: TaskSpec requests {cpus:g} "
                    f"cpus/node but the NodeSpec in scope holds "
                    f"{shape[0]:g}; Pilot.validate_fits will reject this "
                    "at runtime",
                )
            if gpus is not None and gpus > shape[1]:
                self.report(
                    ctx,
                    node,
                    f"per-node overcommit: TaskSpec requests {gpus:g} "
                    f"gpus/node but the NodeSpec in scope holds "
                    f"{shape[1]:g}; Pilot.validate_fits will reject this "
                    "at runtime",
                )

    def _check_stage(self, node: ast.Call, ctx: FileContext) -> None:
        tasks = None
        if node.args:
            tasks = node.args[0]
        for kw in node.keywords:
            if kw.arg == "tasks":
                tasks = kw.value
        if isinstance(tasks, (ast.List, ast.Tuple)) and not tasks.elts:
            self.report(
                ctx,
                node,
                "zero-task stage: Stage(tasks=[]) raises at construction "
                "and can never open its barrier",
            )
        # record simple `name = Stage(...)` bindings for reachability
        parent = getattr(node, "_repro_parent", None)
        if (
            isinstance(parent, ast.Assign)
            and len(parent.targets) == 1
            and isinstance(parent.targets[0], ast.Name)
            and not parent.targets[0].id.startswith("_")
        ):
            self._stage_bindings.append(
                (parent.targets[0].id, parent, _scope_of(parent))
            )

    def _check_pipeline(self, node: ast.Call, ctx: FileContext) -> None:
        stages = None
        if node.args:
            stages = node.args[0]
        for kw in node.keywords:
            if kw.arg == "stages":
                stages = kw.value
        if isinstance(stages, (ast.List, ast.Tuple)) and not stages.elts:
            self.report(
                ctx,
                node,
                "empty pipeline: Pipeline(stages=[]) raises at "
                "construction",
            )

    def end_file(self, ctx: FileContext) -> None:
        """Unreachable stages: bound to a name that is never loaded."""
        for name, assign, scope in self._stage_bindings:
            loaded = any(
                isinstance(n, ast.Name)
                and n.id == name
                and isinstance(n.ctx, ast.Load)
                for n in ast.walk(scope)
            )
            if not loaded:
                self.report(
                    ctx,
                    assign,
                    f"unreachable stage: '{name}' is constructed but "
                    "never referenced, so it is never wired into a "
                    "pipeline or run",
                )
