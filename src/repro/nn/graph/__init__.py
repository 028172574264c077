"""One graph compiler under training steps and inference alike.

The TensorRT analogue of this codebase (§6.1.1) and the compiled trainer
share one IR, one pass pipeline, one planner and one binder:

* the IR is :class:`TrainGraph` (:mod:`repro.nn.graph.backward`): SSA
  values with absolute shapes and the ops that define them;
* a training step reaches it through the tape: :func:`build_train_graph`
  lowers one eager forward + ``backward()`` as it runs;
* inference reaches it through its front end (:mod:`repro.nn.graph.lower`):
  :func:`freeze_module` checks and copies the module tree and
  :func:`~repro.nn.graph.lower.lower_frozen` emits the closure
  interpreter's ops from its layers at one batched shape, weights rounded
  to the storage precision — a graph with no backward;
* :func:`optimize_train` reschedules without reassociating (dead ops,
  in-place coalescing — conv → BatchNorm → ReLU runs in place on the
  matmul's buffer);
* :func:`plan_train_memory` packs every live value into one arena, with
  :func:`validate_train_plan` asserting no live-range overlap;
* :func:`~repro.nn.graph.executor.bind` runs each op's one kernel,
  ``repro.nn.autograd.kernel_<kind>`` — the eager op's own — over arena
  views, with one probe-gated substitution (the ``bincount`` scatter)
  and ``nn.op`` spans.

:class:`TrainStep` replays a bound step with the optimizer's compiled
update and optimizer moments in :class:`StateArena` buffers;
:func:`repro.nn.inference.compile_model` replays a bound forward pass.
Hard contract for both: bit-identical to their eager references (the
eager trainer; the closure interpreter) at the same precision and batch.
"""

from repro.nn.graph.backward import TrainGraph, build_train_graph
from repro.nn.graph.lower import freeze_module
from repro.nn.graph.passes import PassStats, optimize_train
from repro.nn.graph.planner import (
    MemoryPlan,
    StateArena,
    plan_state_arena,
    plan_train_memory,
    validate_train_plan,
)
from repro.nn.graph.train import TrainStep

__all__ = [
    "MemoryPlan",
    "PassStats",
    "StateArena",
    "TrainGraph",
    "TrainStep",
    "build_train_graph",
    "freeze_module",
    "optimize_train",
    "plan_state_arena",
    "plan_train_memory",
    "validate_train_plan",
]
