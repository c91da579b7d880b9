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

# numpy's SeedSequence (numpy/random/bit_generator.pyx) with its pool of
# four 32-bit words, in uint32 arrays, which wrap as its C does. Each hash
# xors with one constant of a chain and multiplies by the next. A seed of w
# words takes the first 4 * max(4, w) hashes of the A chain, and each word
# of the spawn key the next four, one per pool word; generate_state's 8
# output words, from pool words 0-3 and then 0-3 again, take the B chain's.
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715


def _hashes(init: int, mult: int, first: int) -> np.ndarray:
    """The constants of hashes first to first + 7 of the chain from init,
    as [xor, multiply][word][pool word]."""
    chain = [init * pow(mult, k, 1 << 32) & 0xFFFF_FFFF for k in range(first, first + 9)]
    return np.array([chain[:8], chain[1:]], dtype=np.uint32).reshape(2, 2, 4)


# the spawn key's two words after a seed of at most four words
_ABSORB_HASH = _hashes(_INIT_A, _MULT_A, 16)
_OUT_HASH = _hashes(_INIT_B, _MULT_B, 0)


def _hash(value, xor, mul):
    """SeedSequence's hashmix of value between the chain constants xor and mul."""
    value = (value ^ xor) * mul
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


def _seed_words(seed: int, ids: np.ndarray) -> np.ndarray:
    """A C-contiguous (len(ids), 4) uint64 array whose row j holds the PCG64
    seed words SeedSequence(seed, spawn_key=(ids[j],)).generate_state(4,
    np.uint64) gives, bit for bit.

    seed must be a checked non-negative int and ids a uint64 array. The
    pool mixed from the seed is SeedSequence(seed).pool for every stream;
    each id's low 32-bit word goes into it for all ids at once, and its
    high word only into the rows of the ids past 2^32 - 1, which have one.
    """
    words = (seed.bit_length() + 31) // 32
    hashes = _ABSORB_HASH * pow(_MULT_A, 4 * max(0, words - 4), 1 << 32)
    pool = _mix(np.random.SeedSequence(seed).pool,
                _hash(ids.astype(np.uint32)[:, None], *hashes[:, 0]))
    two = np.flatnonzero(ids >> 32)
    if two.size:
        high = (ids[two] >> 32).astype(np.uint32)[:, None]
        pool[two] = _mix(pool[two], _hash(high, *hashes[:, 1]))
    out = _hash(pool[:, None], *_OUT_HASH).reshape(len(ids), 8).astype(np.uint64)
    return out[:, 0::2] | out[:, 1::2] << 32


class RngStream:
    """A seeded, independent random stream.

    (seed, stream_id) fully determines the draw sequence: the stream's
    PCG64 is seeded by SeedSequence(seed, spawn_key=(stream_id,)) itself,
    and an experiment's trial streams by rows of _seed_words, that
    SeedSequence's words derived for all trials at once. Distinct
    stream_ids under the same seed give statistically independent streams,
    so parallel trials can each own stream_id = trial index without any
    coordination. ``laplace_draws`` counts the Laplace samples actually
    drawn, which the tests use to audit SVT halting behavior. ``noiseless``
    pins every Laplace draw to 0.0; data sampling is unaffected.
    """

    def __init__(self, seed: int, stream_id: int = 0, *, noiseless: bool = False):
        self.seed = check_count("seed", seed, 0, math.inf)
        self.stream_id = check_count("stream_id", stream_id, 0, math.inf)
        self._start(np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,)),
                    noiseless)

    @classmethod
    def _seeded(cls, seed: int, stream_id: int, words: np.ndarray,
                noiseless: bool) -> "RngStream":
        """RngStream(seed, stream_id, noiseless=noiseless), on its checked
        seed and stream id and its row of _seed_words."""
        rng = cls.__new__(cls)
        rng.seed, rng.stream_id = seed, stream_id
        rng._start(_SeedWords(words), noiseless)
        return rng

    def _start(self, seed_source: ISeedSequence, noiseless: bool) -> None:
        self.noiseless = bool(noiseless)
        self.generator = np.random.Generator(np.random.PCG64(seed_source))
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
