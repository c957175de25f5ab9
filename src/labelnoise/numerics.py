"""Deterministic numeric primitives shared by the rest of the toolkit.

Everything here is a pure function of its inputs. Randomness is routed
through :class:`RngStream`, a splittable seeded stream: the same
``(seed, stream_id)`` pair always reproduces the same draws, and distinct
stream ids yield statistically independent sequences. Streams advance
functionally, with ``child(i)`` deriving a fresh independent sub-stream
rather than mutating the parent, so any piece of the pipeline can be
re-run in isolation and reproduce its draws exactly.

All arithmetic is 64-bit floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import InvalidInputError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    ``seed`` identifies the whole reproducibility universe (one experiment
    run, say); ``stream_id`` names one independent stream within it.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(
            entropy=self.seed & _MASK64, spawn_key=(self.stream_id & _MASK64,)
        )
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, index: int) -> "RngStream":
        """Derive the ``index``-th sub-stream of this stream."""
        if index < 0:
            raise InvalidInputError(f"stream index must be non-negative, got {index}")
        mixed = _splitmix64(((self.stream_id & _MASK64) * _GOLDEN + index + 1) & _MASK64)
        return RngStream(self.seed, mixed)


def derive_seed(*parts: int) -> int:
    """Fold integers into one 64-bit seed, order-sensitively.

    Used to derive per-run seeds from (base_seed, tag, run_index) tuples so
    that runs are independent yet fully determined by their coordinates.
    """
    state = 0
    for part in parts:
        state = _splitmix64((state * _GOLDEN + (part & _MASK64) + 1) & _MASK64)
    return state


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax of a logit vector.

    Computes ``exp(z_k - max(z)) / sum_j exp(z_j - max(z))``; the max shift
    makes the result immune to overflow and invariant to adding a constant
    to every logit.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 2:
        raise InvalidInputError("softmax expects a vector of at least 2 logits")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("softmax requires finite logits")
    return softmax_rows(z[None, :])[0]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for a 2-D array of logits (shape N x K)."""
    z = np.asarray(logits, dtype=np.float64)
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def percentile(values, level: float) -> float:
    """Percentile by linear interpolation between closest ranks.

    Sorts ascending as ``v[0..N-1]``, sets ``idx = (level/100) * (N-1)``,
    and interpolates linearly between ``v[floor(idx)]`` and the next rank.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise InvalidInputError("percentile of an empty sequence")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("percentile requires finite values")
    if not 0.0 <= level <= 100.0:
        raise InvalidInputError(f"percentile level must lie in [0, 100], got {level}")
    v = np.sort(v)
    idx = (level / 100.0) * (v.size - 1)
    lo = int(math.floor(idx))
    hi = min(lo + 1, v.size - 1)
    frac = idx - lo
    return float(v[lo] + frac * (v[hi] - v[lo]))


def beta_draws(alpha: float, gen: np.random.Generator, size: int) -> np.ndarray:
    """Beta(alpha, alpha) draws as a ratio of two Gamma(alpha, 1) variates.

    The gamma sampler underneath is safe for small shape parameters, so the
    ratio construction is correct for every ``alpha > 0`` including the
    heavy-endpoint regime alpha << 1.
    """
    if alpha <= 0:
        raise InvalidInputError(f"beta shape parameter must be positive, got {alpha}")
    g1 = gen.standard_gamma(alpha, size=size)
    g2 = gen.standard_gamma(alpha, size=size)
    total = g1 + g2
    degenerate = total == 0.0
    if np.any(degenerate):
        # Both variates underflowed to zero (possible only for tiny alpha);
        # by symmetry the draw is then an endpoint coin flip.
        coin = gen.integers(0, 2, size=size).astype(np.float64)
        g1 = np.where(degenerate, coin, g1)
        total = np.where(degenerate, 1.0, total)
    return g1 / total


def sample_beta(alpha: float, rng: RngStream) -> float:
    """One draw of λ ~ Beta(alpha, alpha) from the given stream."""
    return float(beta_draws(alpha, rng.generator(), size=1)[0])


def mean_ci(values, level: float = 0.95) -> tuple[float, float]:
    """Arithmetic mean and Student-t confidence half-width of a sample.

    ``half_width = t_{(1+level)/2, N-1} * s / sqrt(N)`` with the sample
    standard deviation ``s``; zero when ``N = 1`` or ``s = 0``.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise InvalidInputError("mean_ci of an empty sequence")
    if not 0.0 < level < 1.0:
        raise InvalidInputError(f"confidence level must lie in (0, 1), got {level}")
    mean = float(v.mean())
    if v.size == 1:
        return mean, 0.0
    s = float(v.std(ddof=1))
    if s == 0.0:
        return mean, 0.0
    t = float(stats.t.ppf(0.5 * (1.0 + level), df=v.size - 1))
    return mean, t * s / math.sqrt(v.size)
