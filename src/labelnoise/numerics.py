"""Deterministic numeric primitives shared by the rest of the toolkit.

Everything here is a pure function of its inputs. Randomness starts at
:class:`RngStream`, a splittable seeded stream held only by ``train`` and
the harness: the same ``(seed, stream_id)`` pair always reproduces the same
draws, distinct stream ids yield independent sequences, ``child(i)`` derives
a sub-stream without mutating the parent, and ``generator()`` starts a new
generator at the stream's start. Every function below them that draws takes
the ``np.random.Generator`` it draws from and advances it: ``train`` builds
one per concern (split, weights, shuffles, partners, mixup) and draws each
in order over a run, so one epoch's draws reproduce only by re-running the
run from its start.

All arithmetic is 64-bit floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _integer, check_fields, json_text, within

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

    def __post_init__(self):
        check_fields(self)

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(
            entropy=self.seed & _MASK64, spawn_key=(self.stream_id & _MASK64,)
        )
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, index: int) -> "RngStream":
        """Derive the ``index``-th sub-stream of this stream."""
        index = _integer("stream index", index)
        if index < 0:
            raise InvalidInputError(f"stream index must be non-negative, got {json_text(index)}")
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
    """Row-wise stable softmax for a 2-D array of logits (shape N x K).

    The row max comes from K - 1 column ``np.maximum`` calls, which cost less
    than ``max(axis=1)`` on short rows. The bits are those of ``max(axis=1)``:
    a max does not depend on order, NaN propagates in both, and a max of
    -0.0 in place of 0.0 changes ``z - max`` only for z = -0.0, where exp is 1.
    """
    z = np.asarray(logits, dtype=np.float64)
    row_max = z[:, 0]
    for k in range(1, z.shape[1]):
        row_max = np.maximum(row_max, z[:, k])
    e = z - row_max[:, None]
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
    if not np.isfinite(v).all():
        raise InvalidInputError("percentile requires finite values")
    within("percentile level", level, "[0, 100]")
    return _percentile(v, level)


def _percentile(v: np.ndarray, level: float) -> float:
    """:func:`percentile` of a non-empty finite float array at a level in [0, 100], unchecked."""
    v = np.sort(v)
    idx = (level / 100.0) * (v.size - 1)
    lo = int(math.floor(idx))
    hi = min(lo + 1, v.size - 1)
    frac = idx - lo
    return float(v[lo] + frac * (v[hi] - v[lo]))


def beta_draws(alpha: float, gen: np.random.Generator, size: int) -> np.ndarray:
    """Beta(alpha, alpha) draws as a ratio of two Gamma(alpha, 1) variates.

    The gamma sampler underneath is safe for small shape parameters, so the
    ratio construction is correct for every finite ``alpha > 0`` including the
    heavy-endpoint regime alpha << 1.
    """
    within("beta shape parameter", alpha, "(0, inf)")
    g1 = gen.standard_gamma(alpha, size=size)
    g2 = gen.standard_gamma(alpha, size=size)
    total = g1 + g2
    degenerate = total == 0.0
    if degenerate.any():
        # Both variates underflowed to zero (possible only for tiny alpha);
        # by symmetry the draw is then an endpoint coin flip.
        coin = gen.integers(0, 2, size=size).astype(np.float64)
        g1 = np.where(degenerate, coin, g1)
        total = np.where(degenerate, 1.0, total)
    return g1 / total


def mean_ci(values, level: float = 0.95) -> tuple[float, float]:
    """Arithmetic mean and Student-t confidence half-width of a sample.

    ``half_width = t_{(1+level)/2, N-1} * s / sqrt(N)`` with the sample
    standard deviation ``s``; zero when ``N = 1`` or ``s = 0``. The t quantile
    comes from :func:`_t_quantile`.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise InvalidInputError("mean_ci of an empty sequence")
    within("confidence level", level, "(0, 1)")
    mean = float(v.mean())
    if v.size == 1:
        return mean, 0.0
    s = float(v.std(ddof=1))
    if s == 0.0:
        return mean, 0.0
    t = _t_quantile(0.5 * (1.0 + level), v.size - 1)
    return mean, t * s / math.sqrt(v.size)


# The Student-t quantile for mean_ci's integer degrees of freedom.
#
# With x = df / (df + t^2) = cos^2(theta), theta = atan(t / sqrt(df)) and
# s = sin(theta), c = cos(theta), A(t|df) = P(|T| <= t) is a finite sum
# (Abramowitz & Stegun 26.7.3 and 26.7.4), for even df = 2m and odd df = 2m + 1:
#
#   even: A = s * sum_{k<m} a_k x^k,                      a_k = (2k-1)!! / (2k)!!
#   odd:  A = (2/pi) * (theta + s c * sum_{k<m} b_k x^k), b_k = (2k)!! / (2k+1)!!
#
# Where A is near 1, 1 - A taken from these sums would lose most of its
# digits, so there the tail is evaluated directly as the part the sums leave
# out, sum_{k>=m}. That remainder is the incomplete beta function
# I_x(df/2, 1/2) (A&S 26.7.1), summed by its continued fraction (A&S 26.5.8),
# which converges quickly exactly where the tail is the smaller side.
# Powers of x are taken as exp(k * ln x) with ln x from y = t^2 / (df + t^2),
# not from a rounded x, whose error k-fold powers would multiply.

_EPS = 2.0**-52
_TINY = 1e-300


def _t_quantile(p: float, df: int) -> float:
    """The ``p`` quantile of Student's t with ``df >= 1`` degrees of freedom, ``p`` in [0.5, 1).

    df 1 and 2 have closed forms. Otherwise Newton's method solves
    A(t) = 2p - 1 from t = 0, kept inside the bracket [0, the df 2 quantile]
    (heavier tails put every quantile above 1/2 further out) and bisecting
    whenever a step would leave it.
    """
    q = 1.0 - p  # exact for p >= 1/2
    if q == 0.5:
        return 0.0
    if df == 1:
        # tan near its pole loses digits to the rounding of its argument
        return math.tan(math.pi * (p - 0.5)) if q > 0.25 else 1.0 / math.tan(math.pi * q)
    hi = (2.0 * p - 1.0) / math.sqrt(2.0 * p * q)
    if df == 2:
        return hi
    coefs = _t_sum_coefficients(df)
    lo = t = 0.0
    for _ in range(200):
        excess, slope = _t_excess(t, df, p, coefs)
        if excess < 0.0:
            lo = t
        else:
            hi = t
        new = t - excess / slope if slope > 0.0 else hi
        if abs(new - t) <= 4.0 * _EPS * new:
            return new
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
            if hi - lo <= 4.0 * _EPS * new:
                return new
        t = new
    raise ArithmeticError(f"t quantile did not converge at p={p}, df={df}")


def _t_sum_coefficients(df: int) -> np.ndarray:
    """The A&S sum coefficients c_0 .. c_m: a_k for even ``df``, b_k for odd."""
    k = np.arange(1, (df - 1) // 2 + 1 if df % 2 else df // 2 + 1)
    ratios = (2 * k) / (2 * k + 1) if df % 2 else (2 * k - 1) / (2 * k)
    return np.cumprod(np.concatenate(([1.0], ratios)))


def _t_excess(t: float, df: int, p: float, coefs: np.ndarray) -> tuple[float, float]:
    """``A(t) - (2p - 1)`` and dA/dt at ``t``.

    Below the switch to the tail the difference is taken from A; above it,
    as ``2(1 - p) - (1 - A)`` with the tail ``1 - A`` evaluated directly.
    """
    r2 = df + t * t
    x = df / r2
    y = t * t / r2
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    s = math.sqrt(y)
    m = coefs.size - 1
    odd = df % 2
    # the density is norm * x^((df+1)/2), and 1/(a B(a, 1/2)) with a = df/2 is
    # a_m for even df and (2/pi) b_m for odd df
    c_m = float(coefs[m])
    norm = c_m * math.sqrt(df) / math.pi if odd else c_m * math.sqrt(m / 2.0)
    slope = 2.0 * norm * math.exp(0.5 * (df + 1) * log_x)
    # the fraction converges where x < (a + 1) / (a + 5/2), a = df/2, that is
    # t^2 (df + 2) > 3 df; it is taken only well inside, where it converges fast
    if t * t * (df + 2) > 6.0 * df:
        beta = 2.0 / math.pi * c_m if odd else c_m
        tail = beta * math.exp(0.5 * df * log_x) * s * _beta_fraction(0.5 * df, x, y)
        return 2.0 * (1.0 - p) - tail, slope
    head = float((coefs[:m] * np.exp(np.arange(m) * log_x)).sum())
    if odd:
        A = 2.0 / math.pi * (math.atan2(t, math.sqrt(df)) + s * math.sqrt(x) * head)
    else:
        A = s * head
    return A - (2.0 * p - 1.0), slope


def _beta_fraction(a: float, x: float, y: float) -> float:
    """The continued fraction of I_x(a, 1/2) over x^a y^(1/2) / (a B(a, 1/2)), for y = 1 - x.

    Modified Lentz evaluation of A&S 26.5.8 with b = 1/2; the first
    denominator is written in y, where 1 - (a + 1/2) x / (a + 1) cancels.
    """
    b = 0.5
    c = 1.0
    d = (a + 1.0) / (b + (a + b) * y)
    h = d
    for i in range(1, 100_000):
        for coef in (
            i * (b - i) * x / ((a + 2 * i - 1) * (a + 2 * i)),
            -(a + i) * (a + b + i) * x / ((a + 2 * i) * (a + 2 * i + 1)),
        ):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + coef / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, x={x}")
