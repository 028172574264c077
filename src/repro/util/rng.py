"""Deterministic, hierarchical random-number streams.

A campaign touches randomness in many places (library generation, GA search,
MD thermostats, NN initialization, replica seeds).  To keep experiments
reproducible while still letting components run concurrently, each component
derives an *independent* :class:`numpy.random.Generator` from a root seed and
a string key.  The derivation hashes the key, so adding a new consumer never
perturbs the streams of existing consumers — the property that matters when
extending a pipeline without invalidating previous results.

Building a stream costs ~16 µs (``SeedSequence`` mixing plus ``PCG64``
seeding), which dominates a consumer that reads only a value or two per key,
like the simulator's per-attempt fault draws.  :func:`first_draws` returns
those first values for a whole block of keys in one NumPy pass, bit for bit.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Sequence

import numpy as np

__all__ = ["rng_stream", "first_draws", "RngFactory"]

_MASK32 = 0xFFFFFFFF
# numpy.random.SeedSequence's hash constants (bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier as (high, low) 64-bit halves
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _key_to_ints(key: str) -> list[int]:
    """Hash a string key into a list of 32-bit ints for seed sequences."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def rng_stream(seed: int, key: str) -> np.random.Generator:
    """Return an independent generator for ``key`` under a root ``seed``.

    Parameters
    ----------
    seed:
        Root campaign seed.  The same (seed, key) pair always yields a
        generator producing the same sequence.
    key:
        Free-form component name, e.g. ``"docking/lga/ligand-42"``.
    """
    seq = np.random.SeedSequence([seed & 0xFFFFFFFF, *_key_to_ints(key)])
    return np.random.default_rng(seq)


def _hashmix(init: int, mult: int, n_calls: int):
    """``SeedSequence``'s ``hashmix`` over ``uint32`` lanes, for one chain.

    Exactness fact 1: every call advances ``hash_const`` by one multiply by
    ``mult``, whatever the data, so call ``k`` xors with ``init·mult^k`` and
    multiplies by ``init·mult^(k+1)`` (mod 2³²) in every lane alike.  The
    chain is derived here, once per block, and broadcast.
    """
    chain = [init]
    for _ in range(n_calls):
        chain.append(chain[-1] * mult & _MASK32)
    # exactness fact 2: uint32 arrays wrap mod 2³² like C ``uint32_t``;
    # np.uint32 operands keep NEP 50 from ever widening a product
    consts = itertools.pairwise([np.uint32(c) for c in chain])
    shift = np.uint32(16)

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor_c, mul_c = next(consts)
        value = (value ^ xor_c) * mul_c
        return value ^ (value >> shift)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix`` over ``uint32`` lanes (fact 2)."""
    value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return value ^ (value >> np.uint32(16))


def _mul128(hi: np.ndarray, lo: np.ndarray, c_hi: int, c_lo: int) -> tuple:
    """``(hi, lo) · c mod 2¹²⁸`` on ``uint64`` halves, for a constant ``c``.

    ``uint64`` products wrap mod 2⁶⁴, so only the high half of ``lo · c_lo``
    needs 32-bit limbs: each limb product is below 2⁶⁴ and ``mid`` sums
    three values below 2³², so nothing in it wraps.
    """
    u64, m32, s32 = np.uint64, np.uint64(_MASK32), np.uint64(32)
    x0, x1 = lo & m32, lo >> s32
    c0, c1 = u64(c_lo & _MASK32), u64(c_lo >> 32)
    p01, p10 = x0 * c1, x1 * c0
    mid = ((x0 * c0) >> s32) + (p01 & m32) + (p10 & m32)
    carry = x1 * c1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    return carry + lo * u64(c_hi) + hi * u64(c_lo), lo * u64(c_lo)


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    """``a + b mod 2¹²⁸`` on ``uint64`` halves."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def first_draws(seed: int, keys: Sequence[str], n: int) -> np.ndarray:
    """The first ``n`` values of ``rng_stream(seed, key).random()`` per key.

    Returns a ``(len(keys), n)`` float64 array equal, bit for bit, to
    ``[[rng_stream(seed, k).random() for _ in range(n)] for k in keys]``.
    NumPy's ``SeedSequence`` pool mixing and ``generate_state(4, uint64)``
    run on ``uint32`` arrays with one lane per key; PCG64 is then seeded
    and stepped on the ``(high, low)`` ``uint64`` halves of its 128-bit
    state.  About 1 µs per key on a block of 1,024 keys, against ~16 µs to
    build one stream.
    """
    m = len(keys)
    # exactness fact 3: the entropy is exactly five words,
    # [seed & 0xFFFFFFFF, k0, k1, k2, k3], k = little-endian sha256(key)[:16].
    # Each word is < 2³² and a 0 word is one word, not none, so every key
    # has the same entropy length and the same mixing schedule.
    digests = b"".join(hashlib.sha256(k.encode("utf-8")).digest()[:16] for k in keys)
    words = np.frombuffer(digests, dtype="<u4").astype(np.uint32).reshape(m, 4)
    entropy = [np.full(m, seed & _MASK32, dtype=np.uint32), *np.ascontiguousarray(words.T)]

    # mix_entropy: the pool holds four words, so k3 goes through the
    # "remaining entropy" loop; 4 + 12 + 4 = 20 hashmix calls
    hashmix = _hashmix(_INIT_A, _MULT_A, 20)
    pool = [hashmix(word) for word in entropy[:4]]
    for src, dst in itertools.permutations(range(4), 2):  # i_src-major, i_dst != i_src
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    pool = [_mix(word, hashmix(entropy[4])) for word in pool]

    # generate_state(4, uint64): eight uint32 words, cycling the pool
    hashmix = _hashmix(_INIT_B, _MULT_B, 8)
    w = [hashmix(word).astype(np.uint64) for word in pool + pool]

    # exactness fact 4: PCG64(ss) reads the state as little-endian uint32
    # pairs: seed = (w0|w1<<32)<<64 | (w2|w3<<32) and
    # inc = ((w4|w5<<32)<<64 | (w6|w7<<32))<<1 | 1
    s1, s32, s63 = np.uint64(1), np.uint64(32), np.uint64(63)
    seed_hi, seed_lo = w[0] | w[1] << s32, w[2] | w[3] << s32
    inc_hi, inc_lo = w[4] | w[5] << s32, w[6] | w[7] << s32
    inc_hi, inc_lo = inc_hi << s1 | inc_lo >> s63, inc_lo << s1 | s1

    def step(hi, lo) -> tuple:
        return _add128(*_mul128(hi, lo, _PCG_MULT_HI, _PCG_MULT_LO), inc_hi, inc_lo)

    # seeding: state = 0; step (state = inc); state += seed; step
    hi, lo = step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo))
    out = np.empty((m, n))
    for column in out.T:
        # each output is step, then XSL-RR, then random()'s (x >> 11) · 2⁻⁵³
        hi, lo = step(hi, lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = x >> rot | x << ((np.uint64(64) - rot) & s63)
        column[:] = (x >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return out


class RngFactory:
    """Factory bound to one root seed, handing out per-component streams.

    Components receive an ``RngFactory`` and call :meth:`stream` (or
    :meth:`child` to scope a subtree) instead of seeding generators
    themselves.  This makes seeding explicit in APIs and greppable in code.
    """

    def __init__(self, seed: int, prefix: str = "") -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed)
        self.prefix = prefix

    def stream(self, key: str) -> np.random.Generator:
        """Return the generator for ``key`` (scoped under this prefix)."""
        full = f"{self.prefix}/{key}" if self.prefix else key
        return rng_stream(self.seed, full)

    def spawn_seed(self, key: str) -> int:
        """Derive a plain integer seed (for APIs that only accept ints)."""
        return int(self.stream(key).integers(0, 2**31 - 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self.seed}, prefix={self.prefix!r})"
