"""Runtime concurrency sanitizer (layer 2 of the correctness toolchain).

Static analysis (``repro-lint``, :mod:`repro.analysis.checkers`) proves
what it can from the call graph; this package watches the locks the program
*actually takes*:

* :mod:`~repro.analysis.sanitize.monitor` — instrumented
  ``Lock``/``RLock`` wrappers, the lock-order graph, deadlock-cycle
  detection;
* :mod:`~repro.analysis.sanitize.recorder` — the shared-attribute
  access recorder (Eraser lockset rule over a recorded log);
* :mod:`~repro.analysis.sanitize.plugin` — ``pytest --repro-sanitize``;
* :mod:`~repro.analysis.sanitize.cli` — the ``repro-sanitize`` script
  runner.
"""

from repro.analysis.sanitize.monitor import (
    LockOrderMonitor,
    SanitizedLock,
    SanitizedRLock,
    current_monitor,
    install,
    uninstall,
)
from repro.analysis.sanitize.recorder import (
    AccessRecorder,
    AttrAccess,
    AttrConflict,
)

__all__ = [
    "AccessRecorder",
    "AttrAccess",
    "AttrConflict",
    "LockOrderMonitor",
    "SanitizedLock",
    "SanitizedRLock",
    "current_monitor",
    "install",
    "uninstall",
]
