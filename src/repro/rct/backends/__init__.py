"""Pluggable execution backends for the pilot's scheduling loop.

One protocol, three backends (the runtime-characterization shape of the
RAPTOR and task-runtime papers): ``sim`` simulates Summit-scale
campaigns on a virtual clock, ``thread`` runs real payloads on a thread
pool, ``process`` scales CPU-bound payloads past the GIL on a process
pool.  ``create_executor(name, **kwargs)`` builds one by name; the
conformance suite in ``tests/rct/test_backend_contract.py`` runs the
full protocol against all three.
"""

from repro.rct.backends.base import ExecutorBackend
from repro.rct.backends.process import ProcessExecutor
from repro.rct.backends.sim import SimExecutor
from repro.rct.backends.thread import ThreadExecutor

__all__ = [
    "ExecutorBackend",
    "ProcessExecutor",
    "SimExecutor",
    "ThreadExecutor",
    "create_executor",
]

_BACKENDS = {"process": ProcessExecutor, "sim": SimExecutor, "thread": ThreadExecutor}


def create_executor(name: str, **kwargs) -> ExecutorBackend:
    """Instantiate the backend called ``name`` (``sim``/``thread``/``process``)."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; valid: {sorted(_BACKENDS)}"
        ) from None
    return cls(**kwargs)
