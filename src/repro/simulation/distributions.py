"""Heavy-tailed and bounded distribution helpers.

The paper's workload is dominated by skewed distributions: broadcast
durations (lognormal, 85% under 10 minutes), audience sizes (power law with
a 100K-viewer tail), and per-user activity (Zipf-like, top 15% of viewers
watching 10x the median).  These helpers wrap numpy generators with the
parameterizations used throughout :mod:`repro.workload`.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

ArrayOrFloat = Union[float, np.ndarray]


def lognormal_from_median(
    rng: np.random.Generator,
    median: ArrayOrFloat,
    sigma: float,
    size: Union[int, None] = None,
) -> ArrayOrFloat:
    """Sample a lognormal parameterized by its *median* rather than ``mu``.

    ``median`` is easier to calibrate against the paper's CDF figures: the
    lognormal median is ``exp(mu)``, so ``mu = ln(median)``.  ``median``
    may be an array (broadcast against ``size``) for batched sampling with
    a per-sample median.
    """
    if isinstance(median, np.ndarray):
        if len(median) and float(median.min()) <= 0:
            raise ValueError("all medians must be positive")
        mu: ArrayOrFloat = np.log(median)
    else:
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        mu = math.log(median)
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    return rng.lognormal(mean=mu, sigma=sigma, size=size)


def bounded_pareto(
    rng: np.random.Generator,
    alpha: float,
    lower: float,
    upper: float,
    size: Union[int, None] = None,
) -> ArrayOrFloat:
    """Sample a Pareto truncated to ``[lower, upper]`` via inverse transform.

    Audience sizes use this: a pure Pareto occasionally produces absurd
    values, while the bounded variant keeps the 100K-viewer ceiling the paper
    observed.
    """
    if not 0 < lower < upper:
        raise ValueError(f"need 0 < lower < upper, got lower={lower}, upper={upper}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    u = rng.random(size)
    la = lower**alpha
    ha = upper**alpha
    return (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / alpha)


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalized Zipf weights over ranks ``1..n``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-exponent
    return weights / weights.sum()


def guide_table(cdf: np.ndarray) -> np.ndarray:
    """Chen & Asau's guide table for exact inverse-CDF draws from ``cdf``.

    ``cdf`` is non-decreasing, starts at or above 0 and ends at exactly
    1.0.  The table splits ``[0, 1)`` into ``K`` equal buckets, ``K`` the
    least power of two of at least ``2 * len(cdf)``: entry ``j < K`` is
    ``#{cdf < j / K}``, the index a draw in bucket ``j`` starts its search
    from.  The one extra entry ``K`` is the pass count
    :func:`guide_draw` runs: the most ``cdf`` entries any bucket holds.
    Built in O(N + K); scaling by a power of two is exact, so each
    entry's bucket is exact too.
    """
    n = len(cdf)
    if n == 0 or cdf[0] < 0 or cdf[-1] != 1.0:
        raise ValueError("cdf must be non-empty, start at >= 0 and end at exactly 1.0")
    k = 1 << (2 * n - 1).bit_length()
    # Entry i lands in bucket floor(cdf[i] * K), so it counts toward every
    # table entry past that bucket: one bincount, one cumsum.
    bins = (cdf * k).astype(np.int64) + 1
    table = np.cumsum(np.bincount(bins, minlength=k + 2)[: k + 1])
    # table[K] is now #{cdf < 1}, the end of the last bucket.
    table[k] = np.diff(table).max()
    return table


def guide_draw(cdf: np.ndarray, table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u)`` for every ``u`` in ``[0, 1)``, in O(1) each.

    ``table`` is :func:`guide_table` of ``cdf``.  A draw starts at its
    bucket's first index and steps past every entry below ``u``: the
    answer lies in the bucket, so the table's pass count always suffices,
    and an index never passes ``len(cdf) - 1``, whose entry is 1.0.
    """
    k = len(table) - 1
    index = table[(u * k).astype(np.int64)]
    for _ in range(int(table[k])):
        index += cdf[index] < u
    return index
