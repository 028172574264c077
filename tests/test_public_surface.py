"""Every function, class, method and module constant in ``src/repro`` has
a caller that runs.

A name counts as used when it is read somewhere in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/``: as a bare name or as an attribute.
Import statements and ``__all__`` lists name a definition without using
it, and a definition's own body (recursion, a class reading its own
methods through ``self``) does not count either.  Tests do not count: a
name only tests call is code that nothing the project runs needs.

A module constant is a module-level assignment to an UPPER_CASE name
(``_INTERNAL`` ones too); its own assignment does not count as a read.
Dunders are called by the language and ``visit_*`` methods by
``ast.NodeVisitor``, so both are exempt.  Anything else without a caller
must be listed in :data:`ALLOWED` with the reason it stays; a listed name
that does have a caller fails too, so the table cannot go stale.

Matching is by simple name, so a dead method that shares its name with a
live one elsewhere is not caught; the check errs towards passing.
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
    "repro.nn.graph.executor.GraphExecutor.plan_info": "the activation plan the tests check",
    "repro.nn.graph.train.TrainStep.plan_info": "the training plan the planner tests check",
    "repro.nn.graph.planner.validate_plan": "proves no two live values share arena space",
    "repro.nn.graph.ir.trace_module": "traces a module to the IR the pass tests rewrite",
    "repro.nn.im2col.plan_cache_info": "hit/miss counters of the im2col plan cache",
    "repro.rct.backends.base.ExecutorBackend.n_running": "executor protocol: the in-flight "
    "count the backend-contract tests settle after timeouts and aborts",
    "repro.rct.backends.pool.PoolBackend.n_running": "ExecutorBackend.n_running",
    "repro.rct.backends.sim.SimExecutor.n_running": "ExecutorBackend.n_running",
    "repro.rct.pilot.Pilot.wait_one": "grant-by-hand primitive (DESIGN.md, one drive loop)",
    "repro.rct.tasklog.TaskLog.state_counts": "final-state histogram of a columnar log",
    "repro.rct.utilization.UtilizationTracker.backoff_by_stage": "Fig 7's backoff view",
    # single-item references the batched kernels are tested against
    "repro.chem.depict.layout_2d": "one-molecule layout under depict_batch",
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


def _reads(node: ast.AST) -> Counter:
    """Count the names and attribute names read under ``node``."""
    counts: Counter = Counter()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(cur, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and _is_all(cur):
            continue
        if isinstance(cur, ast.Name):
            counts[cur.id] += 1
        elif isinstance(cur, ast.Attribute):
            counts[cur.attr] += 1
        stack.extend(ast.iter_child_nodes(cur))
    return counts


def _exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) or name.startswith("visit_")


def _surface() -> dict[str, bool]:
    """Return ``{qualname: has_caller}`` for every definition under
    ``src/repro``."""
    reads: Counter = Counter()
    for tree_name in CALLER_TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            reads += _reads(_parse(path))
    used: dict[str, bool] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).with_suffix("")
        module = ".".join(rel.parts[:-1] if rel.name == "__init__" else rel.parts)
        for qualname, name, node in _definitions(_parse(path), module):
            if _exempt(name):
                continue
            used[qualname] = reads[name] - _reads(node)[name] > 0
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
