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


class RngStream:
    """A seeded, independent random stream.

    (seed, stream_id) fully determines the draw sequence. Distinct
    stream_ids under the same seed give statistically independent streams,
    so parallel trials can each own stream_id = trial index without any
    coordination. ``laplace_draws`` counts the Laplace samples actually
    drawn, which the tests use to audit SVT halting behavior. ``noiseless``
    pins every Laplace draw to 0.0; data sampling is unaffected.
    """

    def __init__(self, seed: int, stream_id: int = 0, *, noiseless: bool = False):
        self.seed = check_count("seed", seed, 0, math.inf)
        self.stream_id = check_count("stream_id", stream_id, 0, math.inf)
        self.noiseless = bool(noiseless)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.Generator(np.random.PCG64(ss))
        self.laplace_draws = 0

    def __repr__(self):  # pragma: no cover
        return (f"RngStream(seed={self.seed}, stream_id={self.stream_id}, "
                f"noiseless={self.noiseless})")


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
