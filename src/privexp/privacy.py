"""Privacy primitives: budgets, Laplace noise, noisy counting queries.

The budget ledger enforces the composition structure of the learners: a
budget is either consumed whole or split into fractions exactly once, and
each fragment is then consumed by exactly one mechanism. Reuse raises.
On a stream built with ``noiseless=True`` every Laplace draw is exactly 0.0
(and leaves the generator untouched), which turns every mechanism and learner
into a deterministic function of the data for oracle testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import (BadSplit, BudgetExhausted, EmptyDataset, InvalidScale, check_count,
                     check_in)

__all__ = [
    "RngStream",
    "NoiseScale",
    "PrivacyBudget",
    "sample_laplace",
    "noisy_fraction_below",
]

# Fraction lists must sum to 1; tolerate accumulated representation error of
# one ulp at 1.0 (e.g. 1/3 + 2/3 lands one ulp short).
_SPLIT_TOL = 2.0 ** -50

# numpy's SeedSequence (numpy/random/bit_generator.pyx) with a pool of four
# 32-bit words. Each hash takes two constants, consecutive in a chain that
# does not depend on the data: _POOL_HASH's pairs for the 16 hashes that
# fill and mix the pool, then per later entropy word four hashes, one for
# each pool word, whose constant rows are _ABSORB_HASH's times _MULT_A^4 per
# earlier such word; generate_state's 8 output words, from pool words 0-3
# then 0-3 again, use _OUT_HASH's rows.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_MULT_A4 = pow(_MULT_A, 4, 1 << 32)
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED


def _chain(init: int, mult: int, first: int, count: int) -> list:
    """Hash constants first to first + count - 1 of the chain from init."""
    return [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + count)]


# pairs and rows: the constants each hash xors with, then those it
# multiplies by, one step further on the chain
_POOL_HASH = list(zip(_chain(_INIT_A, _MULT_A, 0, 16), _chain(_INIT_A, _MULT_A, 1, 16)))
_ABSORB_HASH = np.array([_chain(_INIT_A, _MULT_A, 16 + k, 4) for k in (0, 1)],
                        dtype=np.uint64)
_OUT_HASH = np.array([_chain(_INIT_B, _MULT_B, k, 8) for k in (0, 1)],
                     dtype=np.uint64).reshape(2, 2, 4)
# the pool word each of the 12 mixes after the 4 fill hashes reads, and the
# one it mixes into
_POOL_MIXES = [(src, dst) for src in range(4) for dst in range(4) if src != dst]


def _hash(value, xor, mul):
    """SeedSequence's hashmix of value between the chain constants xor and
    mul: ints below 2^32, or uint64 arrays. Only value's low 32 bits count:
    where it has more, its product wraps mod 2^64 and the mask keeps the
    same low 32 bits."""
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y. An int goes
    negative where a uint64 array wraps mod 2^64; the mask takes either to
    the same word."""
    r = _MIX_L * x - _MIX_R * y & _MASK32
    return r ^ r >> 16


def _words32(value: int) -> int:
    """How many 32-bit words SeedSequence splits the int value into."""
    return max(1, (value.bit_length() + 31) // 32)


def _seed_words(seed: int, first: int, count: int) -> np.ndarray:
    """A C-contiguous (count, 4) uint64 array whose row j holds the PCG64
    seed words SeedSequence(entropy=seed, spawn_key=(first + j,))
    .generate_state(4, np.uint64) gives, bit for bit.

    seed and first must be checked non-negative ints (SeedSequence refuses
    a negative one), and count at least 1. The pool mixed from the seed is
    the same for every stream, so it is mixed once, in ints; the spawn key's
    32-bit words, lowest first, then go into it for all streams at once.
    """
    entropy = [seed >> 32 * k & _MASK32 for k in range(_words32(seed))]
    # a spawned SeedSequence pads short entropy to its pool size
    entropy += [0] * (4 - len(entropy))
    pool = [_hash(word, *consts) for word, consts in zip(entropy[:4], _POOL_HASH)]
    for (src, dst), consts in zip(_POOL_MIXES, _POOL_HASH[4:]):
        pool[dst] = _mix(pool[dst], _hash(pool[src], *consts))
    pool = np.array([pool], dtype=np.uint64)
    hashes = _ABSORB_HASH
    for word in entropy[4:]:
        pool = _mix(pool, _hash(word, *hashes))
        hashes = hashes * _MULT_A4 & _MASK32

    # Stream first + j has its words k >= 1 from j = 2^(32k) - first on,
    # and always word 0; they are first's words plus j, carried.
    total = np.arange(count, dtype=np.uint64)[:, None] + (first & _MASK32)
    pool = _mix(pool, _hash(total, *hashes))
    for k in range(1, _words32(first + count - 1)):
        hashes = hashes * _MULT_A4 & _MASK32
        total = (total >> 32) + (first >> 32 * k & _MASK32)
        start = max(0, (1 << 32 * k) - first)
        pool[start:] = _mix(pool[start:], _hash(total[start:], *hashes))
    out = _hash(pool[:, None], *_OUT_HASH).reshape(count, 8)
    return out[:, 0::2] | out[:, 1::2] << 32


class RngStream:
    """A seeded, independent random stream.

    (seed, stream_id) fully determines the draw sequence: the stream's
    PCG64 is seeded as SeedSequence(entropy=seed, spawn_key=(stream_id,))
    would seed it, bit for bit, so its generator's state equals that of
    np.random.PCG64 built on that SeedSequence. No SeedSequence is built,
    so the generator cannot spawn. Distinct stream_ids under the
    same seed give statistically independent streams, so parallel trials can
    each own stream_id = trial index without any coordination.
    ``laplace_draws`` counts the Laplace samples actually drawn, which the
    tests use to audit SVT halting behavior. ``noiseless`` pins every
    Laplace draw to 0.0; data sampling is unaffected.
    """

    def __init__(self, seed: int, stream_id: int = 0, *, noiseless: bool = False):
        self.seed = check_count("seed", seed, 0, math.inf)
        self.stream_id = check_count("stream_id", stream_id, 0, math.inf)
        self._start(_seed_words(self.seed, self.stream_id, 1)[0], noiseless)

    @classmethod
    def _seeded(cls, seed: int, stream_id: int, words: np.ndarray,
                noiseless: bool) -> "RngStream":
        """RngStream(seed, stream_id, noiseless=noiseless), on its checked
        seed and stream id and its row of _seed_words."""
        rng = cls.__new__(cls)
        rng.seed, rng.stream_id = seed, stream_id
        rng._start(words, noiseless)
        return rng

    def _start(self, words: np.ndarray, noiseless: bool) -> None:
        self.noiseless = bool(noiseless)
        self.generator = np.random.Generator(np.random.PCG64(_SeedWords(words)))
        self.laplace_draws = 0

    def __repr__(self):  # pragma: no cover
        return (f"RngStream(seed={self.seed}, stream_id={self.stream_id}, "
                f"noiseless={self.noiseless})")


class _SeedWords(ISeedSequence):
    """The seed source PCG64 reads its four seed words from: one row of
    _seed_words, handed over as generate_state(4, np.uint64) would give it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@dataclass(frozen=True)
class NoiseScale:
    """Laplace scale b = sensitivity / epsilon for a declared query."""

    scale_b: float

    def __post_init__(self):
        check_in("Laplace scale scale_b", self.scale_b, 0.0, math.inf, InvalidScale)


def sample_laplace(scale: NoiseScale, rng: RngStream) -> float:
    """One draw from Laplace(0, b) via inverse CDF; exactly 0.0 when the
    stream is noiseless.

    A noiseless stream is not advanced, so noisy and noiseless runs of the
    same mechanism consume uniforms only for draws that really happen.
    """
    if rng.noiseless:
        return 0.0
    b = scale.scale_b
    u = rng.generator.random() - 0.5
    while u == -0.5:  # log1p(-1) = -inf; probability-zero edge of the uniform
        u = rng.generator.random() - 0.5
    rng.laplace_draws += 1
    return -b * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u))


def noisy_fraction_below(data, threshold: float, scale: NoiseScale,
                         rng: RngStream) -> float:
    """(#{x in data : x < threshold})/n + Laplace(scale), unclamped.

    Sensitivity of the fraction is 1/n; callers choose the scale. The raw
    noisy value may fall outside [0, 1] and is compared as-is.
    """
    if data.n == 0:
        raise EmptyDataset("fraction query needs at least one sample")
    return data.count_below(threshold) / data.n + sample_laplace(scale, rng)


class PrivacyBudget:
    """An (epsilon, delta) budget that can be spent exactly once.

    A budget starts fresh, and a learner either consumes it whole or splits
    it into positive fractions summing to 1 (each child then follows the
    same discipline). ``spent()`` walks the ledger tree and reports the
    total actually consumed, which the tests compare against the configured
    budget.
    """

    def __init__(self, epsilon: float, delta: float = 0.0):
        self.epsilon = check_in("epsilon", epsilon, 0.0, math.inf)
        self.delta = check_in("delta", delta, 0.0, 1.0, ends="[)")
        self._state = "fresh"
        self._children: list[PrivacyBudget] = []

    @property
    def state(self) -> str:
        return self._state

    @property
    def children(self) -> tuple["PrivacyBudget", ...]:
        """The fragments this budget was split into (empty unless split)."""
        return tuple(self._children)

    def consume(self) -> None:
        """Mark the whole budget as spent by one mechanism."""
        if self._state != "fresh":
            raise BudgetExhausted(f"budget already {self._state}")
        self._state = "consumed"

    def split(self, fractions, delta_fractions=None) -> list["PrivacyBudget"]:
        """Split into children with epsilons fraction*epsilon.

        ``delta_fractions`` lets a caller route the whole delta to one child
        (the bounds finder spends (epsilon/2, delta) then (epsilon/2, 0));
        by default delta follows the same fractions as epsilon.
        """
        if self._state != "fresh":
            raise BudgetExhausted(f"budget already {self._state}")
        fractions = list(fractions)
        delta_fractions = fractions if delta_fractions is None else list(delta_fractions)
        for name, shares, ends in (("fraction", fractions, "(]"),
                                   ("delta fraction", delta_fractions, "[]")):
            if len(shares) != len(fractions):
                raise BadSplit("delta_fractions length must match fractions")
            for f in shares:
                check_in(name, f, 0.0, 1.0, BadSplit, ends)
            if abs(math.fsum(shares) - 1.0) > _SPLIT_TOL:
                raise BadSplit(f"{name}s must sum to 1, got {shares!r}")
        children = [
            PrivacyBudget(f * self.epsilon, d * self.delta)
            for f, d in zip(fractions, delta_fractions)
        ]
        self._state = "split"
        self._children = children
        return children

    def spent(self) -> tuple[float, float]:
        """Total (epsilon, delta) consumed beneath this node."""
        if self._state == "consumed":
            return self.epsilon, self.delta
        if self._state == "split":
            eps, dlt = zip(*(c.spent() for c in self._children))
            return math.fsum(eps), math.fsum(dlt)
        return 0.0, 0.0

    def __repr__(self):  # pragma: no cover
        return (f"PrivacyBudget(epsilon={self.epsilon}, delta={self.delta}, "
                f"state={self._state})")
