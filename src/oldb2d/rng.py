"""numpy's default generator, without ``numpy.random``.

``default_rng(seed)`` draws the same bits as ``numpy.random.default_rng(seed)``
for the two calls the seeded perturbation and the Sobol scramble make:
PCG64 (O'Neill's XSL-RR 128/64, HMC-CS-2014-0905) seeded through numpy's
``SeedSequence``, with Lemire's bounded integers (ACM TOMACS 2019).
Importing ``numpy.random`` would load ``secrets``, ``hashlib`` and OpenSSL's
libcrypto, about 6 MB of a command's peak memory, for a few thousand draws.
"""

from __future__ import annotations

import operator

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
#: PCG's default 128-bit multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: SeedSequence's hash and mix constants; its pool holds 4 words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_INT_TYPES = (np.dtype(np.int64), np.dtype(np.uint32))


def _hasher(const: int, mult: int):
    """SeedSequence's uint32 hash, whose multiplier advances per call."""
    def hash_(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hash_


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _seed_state(seed: int) -> tuple:
    """PCG64's (initstate, initseq) from ``SeedSequence(seed)
    .generate_state(4, uint64)``: the seed's 32-bit words, low first, hashed
    into the pool, the pool mixed with itself and with the words past it."""
    words = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    hash_a = _hasher(_INIT_A, _MULT_A)
    pool = [hash_a(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hash_a(word))
    hash_b = _hasher(_INIT_B, _MULT_B)
    out = [hash_b(pool[i % _POOL]) for i in range(8)]
    u64 = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


class Generator:
    """The part of ``numpy.random.Generator`` this package draws from."""

    def __init__(self, seed: int):
        initstate, initseq = _seed_state(seed)
        # PCG's srandom: step from 0, add initstate, step again
        self._inc = (initseq << 1 | 1) & _M128
        self._state = (self._inc + initstate) * _PCG_MULT + self._inc & _M128
        self._half = None   # the high half of the last 64-bit draw, unused

    def _next64(self) -> int:
        """Step, then XSL-RR output of the new state."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next_double(self) -> float:
        """The top 53 bits of a 64-bit draw, in [0, 1)."""
        return (self._next64() >> 11) * 2.0 ** -53

    def _next32(self) -> int:
        """The low half of a 64-bit draw, then its high half."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def _bounded(self, span: int) -> int:
        """Uniform on [0, span] with span < 2^32 - 1, by Lemire's method."""
        if span == 0:
            return 0
        excl = span + 1
        m = self._next32() * excl
        if m & _M32 < excl:
            threshold = (_M32 - span) % excl
            while m & _M32 < threshold:
                m = self._next32() * excl
        return m >> 32

    def integers(self, low: int, high: int, size, dtype=np.int64) -> np.ndarray:
        """Integers in [low, high) of an int64 or uint32 ``dtype``, in an
        array of shape ``size``; the range must be narrower than 2^32."""
        dtype = np.dtype(dtype)
        if dtype not in _INT_TYPES:
            raise TypeError(f"unsupported dtype {dtype}")
        low, high = operator.index(low), operator.index(high)
        info = np.iinfo(dtype)
        if not info.min <= low < high <= info.max + 1:
            raise ValueError(f"need {info.min} <= low < high <= {info.max + 1}, "
                             f"got {low}, {high}")
        if high - low >= 1 << 32:
            raise ValueError(f"range {high - low} not narrower than 2^32")
        out = np.empty(size, dtype=dtype)
        out.flat = [low + self._bounded(high - 1 - low) for _ in range(out.size)]
        return out

    def uniform(self, low: float, high: float, size=None):
        """Floats in [low, high): one, or an array of shape ``size``."""
        low, high = float(low), float(high)
        span = high - low
        if not 0.0 <= span < float("inf"):
            raise ValueError(f"need a finite high - low >= 0, got {span}")
        if size is None:
            return low + span * self._next_double()
        out = np.empty(size)
        out.flat = [low + span * self._next_double() for _ in range(out.size)]
        return out


def default_rng(seed: int) -> Generator:
    """The generator ``numpy.random.default_rng(seed)`` would give, for a
    non-negative integer seed."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return Generator(seed)
