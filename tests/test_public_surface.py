"""Every function, class, method and module constant in ``src/repro`` has
a caller that runs.

A name counts as used when it is read somewhere in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/`` in a way that can reach it.  A member
of a class is reached through an attribute read (``x.name``, any
receiver).  A module-level name is reached through a bare-name read in a
file that defines it or imports it from a ``repro`` module, where no
scope around the read binds the name itself, or through an attribute of
a ``repro`` module (``ag.name``).  So ``threading.Timer`` does not keep a
``Timer`` class alive, nor a local variable ``stack`` a function
``stack``.  Import statements and ``__all__`` lists name a definition
without using it, and a definition's own body (recursion, a class
reading its own methods through ``self``) does not count either.  Tests
do not count: a name only tests call is code that nothing the project
runs needs.

A module constant is a module-level assignment to an UPPER_CASE name
(``_INTERNAL`` ones too); its own assignment does not count as a read.
Dunders are called by the language, ``visit_*`` methods by
``ast.NodeVisitor`` and ``kernel_*`` functions by the graph binder, which
finds an op's kernel by its kind the same way, so all three are exempt.
Anything else without a caller must be listed in :data:`ALLOWED` with
the reason it stays; a listed name that does have a caller fails too, so
the table cannot go stale.

Matching is still by simple name within each kind, so a dead method that
shares its name with a live attribute read elsewhere is not caught; the
check errs towards passing.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_TREES = ("src", "bench", "benchmarks", "examples")

ALLOWED: dict[str, str] = {
    # hooks that tests drive or inspect a subsystem through
    "repro.analysis.engine.analyze_source": "lints one source string for the rule tests",
    "repro.nn.graph.train.TrainStep.plan_info": "the training plan the planner tests check",
    "repro.nn.im2col.plan_cache_info": "hit/miss counters of the im2col plan cache",
    "repro.rct.backends.base.ExecutorBackend.n_running": "executor protocol: the in-flight "
    "count the backend-contract tests settle after timeouts and aborts",
    "repro.rct.backends.pool.PoolBackend.n_running": "ExecutorBackend.n_running",
    "repro.rct.backends.sim.SimExecutor.n_running": "ExecutorBackend.n_running",
    "repro.rct.pilot.Pilot.wait_one": "grant-by-hand primitive (DESIGN.md, one drive loop)",
    "repro.rct.sched.IndexedPlacer.free_cpus": "free slots the conservation tests settle",
    "repro.rct.sched.IndexedPlacer.free_gpus": "free slots the conservation tests settle",
    "repro.service.sched.StrideScheduler.entry": "one tenant's share ledger entry",
    "repro.rct.tasklog.TaskLog.state_counts": "final-state histogram of a columnar log",
    "repro.rct.utilization.UtilizationTracker.backoff_by_stage": "Fig 7's backoff view",
    # single-item references the batched kernels are tested against
    "repro.chem.depict.layout_2d": "one-molecule layout under depict_batch",
    "repro.docking.local_search._LocalSearch.refine": "one-pose refinement under refine_packed",
    "repro.docking.scoring.score_pose": "single-pose scoring under the packed kernels",
    "repro.docking.scoring.score_and_gradient": "single-pose scoring under the packed kernels",
    "repro.docking.scoring.score_poses_batch": "single-pose scoring under the packed kernels",
    "repro.docking.scoring.apply_rigid_step": "single-pose scoring under the packed kernels",
    # durable writers in the atomic-write rule's durable-modules
    "repro.nn.serialization.save_model": "durable model writer (ROADMAP 6(c))",
    "repro.nn.serialization.load_model": "reads what save_model writes",
    "repro.surrogate.train.TrainedSurrogate.save": "persists a surrogate through save_model",
    # the service's campaign work and its live front end
    "repro.service.work.CampaignWork": "campaign-shaped work source (ROADMAP 1(b), 17)",
    "repro.service.manager.CampaignManager.submit_async": "live asyncio command interface",
    "repro.service.manager.CampaignManager.cancel_async": "live asyncio command interface",
    "repro.service.manager.CampaignManager.serve": "asyncio drive loop of that interface",
    # called by the standard library
    "repro.util.log._ContextAdapter.process": "called by logging.LoggerAdapter",
    "repro.util.log._ContextFilter.filter": "called by logging.Filterer",
    # science measurements the tests check the generated science with
    "repro.chem.descriptors.Descriptors.lipinski_violations": "rule-of-five count",
    "repro.chem.fingerprint.tanimoto": "fingerprint similarity",
    "repro.chem.library.CompoundLibrary.descriptors": "cached per-entry descriptors",
    "repro.chem.library.CompoundLibrary.fingerprints": "cached fingerprint matrix",
    "repro.chem.library.library_overlap": "shared compounds of two libraries",
    "repro.ddmd.aae.AAE.reconstruct": "autoencoder round trip",
    "repro.ddmd.cmvae.ContactMapVAE.embed_coords": "coordinates to latent means",
    "repro.docking.receptor.Receptor.contains": "box membership of points",
    "repro.md.observables.radius_of_gyration": "compactness of a structure",
    "repro.telemetry.tracer.Span.add_event": "writes the events the Chrome exporter emits",
    "repro.telemetry.tracer._NullSpan.add_event": "the null span mirrors Span",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _definitions(tree: ast.Module, module: str):
    """Yield ``(qualname, name, node)`` for module-level functions,
    classes and constants and for the methods of classes (nested classes
    included)."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{node.name}", node.name, node
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}.{node.name}")

    yield from walk(tree.body, module)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and _CONSTANT.fullmatch(target.id):
                yield f"{module}.{target.id}", target.id, node


def _is_all(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


_LOCAL = (None, None)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _module_of(path: Path) -> tuple[str | None, bool]:
    """``(module name, is a package)`` of a file under ``src``, else ``None``."""
    try:
        rel = path.relative_to(SRC.parent).with_suffix("")
    except ValueError:
        return None, False
    pkg = rel.name == "__init__"
    return ".".join(rel.parts[:-1] if pkg else rel.parts), pkg


class _Reads(ast.NodeVisitor):
    """Count, per name, the reads that can reach a definition.

    ``attrs`` counts ``x.name`` reads of any receiver, which is how a
    member of a class is reached.  ``globals`` counts the reads that can
    reach a module-level name: a bare name that resolves, through the
    scopes around it, to the file's own module level or to an import
    from a ``repro`` module, and ``m.name`` where ``m`` is a ``repro``
    module.  A read inside a definition is also counted against that
    definition in ``own``, so its own body does not keep it alive.
    """

    def __init__(self, path: Path, modules: set[str]):
        self.module, self.is_pkg = _module_of(path)
        self.modules = modules
        self.attrs: Counter = Counter()
        self.globals: Counter = Counter()
        self.own: Counter = Counter()  # (kind, id(definition node)) → reads
        self._scopes: list[tuple[ast.AST, dict]] = []
        self._defs: list[tuple[str, ast.AST]] = []

    # ------------------------------------------------------------ bindings
    def _origin(self, node: ast.ImportFrom) -> str | None:
        """The module an ``import from`` reads, if it is a repro one."""
        base = node.module or ""
        if node.level:
            if self.module is None:
                return None
            parts = self.module.split(".")[: None if self.is_pkg else -1]
            parts = parts[: len(parts) - node.level + 1]
            base = ".".join(parts + ([node.module] if node.module else []))
        return base if base.split(".")[0] == "repro" else None

    def _binding(self, node: ast.AST, alias: ast.alias) -> tuple:
        """``(repro name, repro module)`` an import binds, each or ``None``.

        ``from repro.chem import depict`` may bind the package's
        re-exported function or its submodule, so it binds both.
        """
        if isinstance(node, ast.Import):
            module = alias.name if alias.asname else alias.name.split(".")[0]
            return (None, module if module.split(".")[0] == "repro" else None)
        origin = self._origin(node)
        if origin is None:
            return _LOCAL
        module = f"{origin}.{alias.name}"
        return (alias.name, module if module in self.modules else None)

    def _bindings(self, scope: ast.AST) -> dict:
        """name → ``(repro name, repro module)`` for what ``scope`` binds
        itself (nested scopes excluded); ``_LOCAL`` reaches neither."""
        out: dict = {}
        shared: set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = scope.args
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))):
                out[a.arg] = _LOCAL
        if isinstance(scope, ast.Lambda):
            stack = [scope.body]
        elif hasattr(scope, "generators"):
            stack = [g.target for g in scope.generators]
        else:
            stack = list(scope.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out[node.name] = _LOCAL
            elif isinstance(node, _SCOPES):
                continue
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                out[node.id] = _LOCAL
            elif isinstance(node, ast.ExceptHandler) and node.name:
                out[node.name] = _LOCAL
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    out[name] = self._binding(node, alias)
            if not isinstance(node, _SCOPES):
                stack.extend(ast.iter_child_nodes(node))
        for name in shared:
            out.pop(name, None)
        return out

    def _lookup(self, name: str) -> tuple:
        """``(repro name, repro module)`` a bare ``name`` read here reaches."""
        innermost = self._scopes[-1][0]
        for scope, bindings in reversed(self._scopes):
            # a class body's names are not visible to the scopes it holds
            if isinstance(scope, ast.ClassDef) and scope is not innermost:
                continue
            if name in bindings:
                if isinstance(scope, ast.Module) and bindings[name] == _LOCAL:
                    return (name, None)  # the file defines it
                return bindings[name]
        return _LOCAL

    def _module(self, expr: ast.AST) -> str | None:
        """The repro module ``expr`` names, if it names one."""
        if isinstance(expr, ast.Name):
            return self._lookup(expr.id)[1]
        if isinstance(expr, ast.Attribute):
            base = self._module(expr.value)
            if base is not None and f"{base}.{expr.attr}" in self.modules:
                return f"{base}.{expr.attr}"
        return None

    # ---------------------------------------------------------------- reads
    def _count(self, kind: str, name: str) -> None:
        (self.attrs if kind == "attr" else self.globals)[name] += 1
        for def_name, node in self._defs:
            if def_name == name:
                self.own[kind, id(node)] += 1

    def _scoped(self, node: ast.AST, children, name: str | None = None) -> None:
        if name is not None:
            self._defs.append((name, node))
        self._scopes.append((node, self._bindings(node)))
        for child in children:
            self.visit(child)
        self._scopes.pop()
        if name is not None:
            self._defs.pop()

    def visit_Module(self, node: ast.Module) -> None:
        self._scoped(node, node.body)

    def visit_FunctionDef(self, node) -> None:
        args = node.args
        every = (*args.posonlyargs, *args.args, *args.kwonlyargs,
                 *filter(None, (args.vararg, args.kwarg)))
        for child in (*node.decorator_list, *args.defaults, *filter(None, args.kw_defaults),
                      *filter(None, [a.annotation for a in every] + [node.returns])):
            self.visit(child)
        self._scoped(node, node.body, node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for child in (*node.decorator_list, *node.bases, *node.keywords):
            self.visit(child)
        self._scoped(node, node.body, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        for child in (*node.args.defaults, *filter(None, node.args.kw_defaults)):
            self.visit(child)
        self._scoped(node, [node.body])

    def _comprehension(self, node) -> None:
        body = (node.key, node.value) if isinstance(node, ast.DictComp) else (node.elt,)
        self._scoped(node, [*node.generators, *body])

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _comprehension

    def visit_Import(self, node) -> None:
        """An import names a definition without reading it."""

    visit_ImportFrom = visit_Import

    def _assign(self, node) -> None:
        if _is_all(node):
            return
        target = node.targets[0] if isinstance(node, ast.Assign) else node.target
        if isinstance(self._scopes[-1][0], ast.Module) and isinstance(target, ast.Name):
            # a module constant's own value does not read it
            self._defs.append((target.id, node))
            self.generic_visit(node)
            self._defs.pop()
        else:
            self.generic_visit(node)

    visit_Assign = visit_AnnAssign = _assign

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            name = self._lookup(node.id)[0]
            if name is not None:
                self._count("global", name)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._count("attr", node.attr)
        if self._module(node.value) is not None:
            self._count("global", node.attr)
        self.visit(node.value)


def _exempt(name: str) -> bool:
    dunder = name.startswith("__") and name.endswith("__")
    return dunder or name.startswith(("visit_", "kernel_"))


def _surface() -> dict[str, bool]:
    """Return ``{qualname: has_caller}`` for every definition under
    ``src/repro``."""
    modules = {_module_of(path)[0] for path in SRC.rglob("*.py")}
    attrs: Counter = Counter()
    globals_: Counter = Counter()
    own: Counter = Counter()
    trees: dict[Path, ast.Module] = {}
    for tree_name in CALLER_TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            trees[path] = _parse(path)
            reads = _Reads(path, modules)
            reads.visit(trees[path])
            attrs += reads.attrs
            globals_ += reads.globals
            own += reads.own
    used: dict[str, bool] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_of(path)[0]
        for qualname, name, node in _definitions(trees[path], module):
            if _exempt(name):
                continue
            if qualname.count(".") > module.count(".") + 1:  # a class member
                used[qualname] = attrs[name] - own["attr", id(node)] > 0
            else:
                used[qualname] = globals_[name] - own["global", id(node)] > 0
    return used


def test_every_definition_has_a_caller_or_a_reason():
    used = _surface()
    dead = sorted(q for q, has_caller in used.items() if not has_caller and q not in ALLOWED)
    assert not dead, (
        "defined in src/repro but never used in src/, bench/, benchmarks/ or "
        "examples/ (delete, or list in ALLOWED with the reason it stays):\n  "
        + "\n  ".join(dead)
    )


def test_allowlist_names_only_uncalled_definitions():
    used = _surface()
    stale = sorted(q for q in ALLOWED if used.get(q, True))
    assert not stale, (
        "ALLOWED lists names that are gone or now have a caller (drop them):\n  "
        + "\n  ".join(stale)
    )
