"""determinism: all randomness flows through seeded generators.

A campaign must replay bit-identically from one root seed
(``repro.util.rng`` hands out hierarchical, key-addressed streams).
Two API families break that contract:

* the stdlib's module-level functions (``random.random()``,
  ``random.shuffle()``, …) draw from one hidden global state that any
  import order or thread interleaving perturbs;
* NumPy's legacy global namespace (``np.random.rand()``,
  ``np.random.seed()``, …) has the same problem and is soft-deprecated
  upstream (NEP 19).

Constructing explicit generator objects (``np.random.default_rng``,
``Generator``, ``SeedSequence``, bit generators, ``random.Random``)
stays legal — the rule targets *global* state, not randomness.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker
from repro.analysis.engine import FileContext

__all__ = ["DeterminismChecker"]

#: numpy.random attributes that construct explicit, seedable state
_NP_RANDOM_SAFE = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "RandomState",  # explicit (if legacy) state object, still seedable
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: stdlib random module-level functions that use the hidden global state
_STDLIB_RANDOM_GLOBALS = frozenset(
    {
        "seed",
        "random",
        "uniform",
        "randint",
        "randrange",
        "getrandbits",
        "randbytes",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "triangular",
        "vonmisesvariate",
        "weibullvariate",
    }
)


class DeterminismChecker(Checker):
    """Flag global-state RNG use; point at :mod:`repro.util.rng`."""

    rule = "determinism"
    description = (
        "no np.random.* legacy globals or unseeded stdlib random.*; "
        "derive streams from repro.util.rng"
    )

    def begin_file(self, ctx: FileContext) -> None:
        self._allowed = ctx.module_in(ctx.config.determinism_allow)

    def _flagged(self, qname: str | None) -> str | None:
        if qname is None:
            return None
        parts = qname.split(".")
        if parts[:2] == ["numpy", "random"] and len(parts) == 3:
            if parts[2] not in _NP_RANDOM_SAFE:
                return (
                    f"legacy global RNG {qname}() mutates numpy's hidden "
                    "state; derive a generator via repro.util.rng "
                    "(rng_stream / RngFactory) or np.random.default_rng"
                )
        if (
            parts[0] == "random"
            and len(parts) == 2
            and parts[1] in _STDLIB_RANDOM_GLOBALS
        ):
            return (
                f"unseeded stdlib RNG {qname}() draws from the process-"
                "global state; derive a stream from repro.util.rng instead"
            )
        return None

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if self._allowed:
            return
        message = self._flagged(ctx.resolve(node.func))
        if message is not None:
            self.report(ctx, node, message)
