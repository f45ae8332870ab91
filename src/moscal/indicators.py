"""Quality indicators and the paired statistical test used for comparisons.

R measure: mean over a fixed weight set of the best weighted-chebycheff value
any archive point achieves against a shared reference point (lower is better).
Hypervolume: exact Lebesgue measure of the region dominated by the archive up
to a reference point strictly dominated by every archive point, for 2 or 3
objectives (sorted sweep, and slicing along the third objective).

Exactness contract: the order of float operations in both scores is fixed,
so a seed gives the same R and HV bits (and results.csv bytes) in every
version:
- R: each chebycheff value lambda_j * (z_j - ref_j) is one elementwise
  product, maxed one objective at a time; per chunk of weights the minima
  go through `sum`, and the chunk totals are added in Python.
- HV: the 2-D staircase terms (next_x - x) * (ref_y - y) are summed left to
  right (`cumsum`), never pairwise (`sum`); in 3-D one staircase per distinct
  third-objective level, an O(M^2) loop for M points.

Wilcoxon signed-rank: two-sided paired test, exact for up to 20 nonzero
differences, normal approximation with tie and continuity corrections beyond.
"""

from __future__ import annotations

from functools import cache
from statistics import NormalDist
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .scalarizing import ObjectivePoint, generate_uniform_weights, granularity_for_count, uniform_weight_count

__all__ = [
    "R_WEIGHT_GRANULARITY",
    "SCORED_OBJECTIVES",
    "WilcoxonResult",
    "hypervolume",
    "r_measure",
    "r_weight_set",
    "union_reference_points",
    "wilcoxon_signed_rank",
]

# Granularity of the evaluation weight set per objective count; the resulting
# counts are 1000 (2 objectives) and 7626 (3 objectives).
R_WEIGHT_GRANULARITY = {2: 999, 3: 122}

# The objective counts that R and hypervolume score
SCORED_OBJECTIVES = frozenset(R_WEIGHT_GRANULARITY)

_CHUNK = 256


def _as_matrix(points, name: str) -> np.ndarray:
    if isinstance(points, np.ndarray):
        mat = np.asarray(points, dtype=float)
    else:
        rows = [tuple(p) for p in points]
        mat = np.asarray(rows, dtype=float)
    if mat.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if mat.ndim != 2:
        raise ValueError(f"{name} must be a set of equal-length points")
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} contains non-finite values")
    return mat


def _as_reference(reference: ObjectivePoint) -> np.ndarray:
    ref = np.asarray(tuple(reference), dtype=float)
    if not np.isfinite(ref).all():
        raise ValueError(f"reference contains non-finite values: {tuple(ref.tolist())}")
    return ref


@cache
def r_weight_set(n_objectives: int, count: int | None = None) -> np.ndarray:
    """The uniform weight set evaluating the R measure, as a read-only (K, J)
    matrix built once per argument pair.

    By default the lattice of `R_WEIGHT_GRANULARITY`; `count` picks another
    simplex-lattice size.
    """
    if count is not None:
        granularity = granularity_for_count(n_objectives, count)
        if granularity < 1:  # the one-vector lattice of granularity 0
            smallest = uniform_weight_count(n_objectives, 1)
            raise ValueError(
                f"R weight count {count} is too small: the smallest simplex lattice for "
                f"{n_objectives} objectives has {smallest} weights"
            )
    elif n_objectives in R_WEIGHT_GRANULARITY:
        granularity = R_WEIGHT_GRANULARITY[n_objectives]
    else:
        raise ValueError(f"R weight set defined for 2 or 3 objectives, got {n_objectives}")
    weights = np.array([w.lambdas for w in generate_uniform_weights(n_objectives, granularity)])
    weights.flags.writeable = False
    return weights


def r_measure(points, weights: np.ndarray, reference: ObjectivePoint) -> float:
    """Mean over the (K, J) `weights` rows of the best chebycheff value over `points`."""
    mat = _as_matrix(points, "points")
    lam = np.asarray(weights, dtype=float)
    if lam.size == 0:
        raise ValueError("weights must be nonempty")
    ref = _as_reference(reference)
    if lam.ndim != 2 or lam.shape[1] != mat.shape[1] or ref.shape != (mat.shape[1],):
        raise ValueError("points, weights and reference disagree on objective count")
    cols = np.ascontiguousarray((mat - ref).T)
    total = 0.0
    for start in range(0, lam.shape[0], _CHUNK):
        chunk = lam[start : start + _CHUNK]
        values = chunk[:, 0, None] * cols[0]
        for j in range(1, cols.shape[0]):
            np.maximum(values, chunk[:, j, None] * cols[j], out=values)
        total += float(values.min(axis=1).sum())
    return total / lam.shape[0]


def _staircase_area(pts: np.ndarray, ref: np.ndarray) -> float:
    """Exact dominated area for 2-D minimization points against `ref`."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    x, y = pts[order, 0], pts[order, 1]
    # a point counts when its y is strictly below every earlier y
    earlier_min = np.concatenate(([np.inf], np.minimum.accumulate(y)[:-1]))
    kept = y < earlier_min
    x, y = x[kept], y[kept]
    next_x = np.append(x[1:], ref[0])
    return float(np.cumsum((next_x - x) * (ref[1] - y))[-1])


def hypervolume(points, reference: ObjectivePoint) -> float:
    """Exact hypervolume dominated by `points` up to `reference` (2 or 3 objectives)."""
    mat = _as_matrix(points, "points")
    ref = _as_reference(reference)
    n_obj = mat.shape[1]
    if n_obj not in SCORED_OBJECTIVES:
        raise ValueError(f"hypervolume supports 2 or 3 objectives, got {n_obj}")
    if ref.shape != (n_obj,):
        raise ValueError("reference dimension mismatch")
    if not (mat < ref).all():
        raise ValueError("every point must strictly dominate the reference")
    if n_obj == 2:
        return float(_staircase_area(mat, ref))
    levels = np.unique(mat[:, 2])
    volume = 0.0
    for t, level in enumerate(levels):
        upper = levels[t + 1] if t + 1 < levels.size else float(ref[2])
        layer = mat[mat[:, 2] <= level, :2]
        volume += _staircase_area(layer, ref[:2]) * (float(upper) - float(level))
    return float(volume)


def union_reference_points(point_sets: Iterable) -> tuple[ObjectivePoint, ObjectivePoint]:
    """Shared reference points over several archives' objective points.

    Returns (chebycheff reference = componentwise minimum, hypervolume
    reference = componentwise maximum widened by 1% of the span, or by 1 where
    the span is zero).
    """
    mats = [_as_matrix(ps, "point set") for ps in point_sets]
    if not mats:
        raise ValueError("need at least one point set")
    widths = {m.shape[1] for m in mats}
    if len(widths) != 1:
        raise ValueError("point sets disagree on objective count")
    union = np.vstack(mats)
    lows = union.min(axis=0)
    highs = union.max(axis=0)
    span = highs - lows
    pad = np.where(span > 0, 0.01 * span, 1.0)
    return tuple(float(v) for v in lows), tuple(float(v) for v in highs + pad)


class WilcoxonResult(NamedTuple):
    statistic: float
    p_value: float
    significant: bool


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def _exact_two_sided_p(ranks: np.ndarray, w_plus: float) -> float:
    # Doubled tie-averaged ranks are integers, so the full distribution of
    # W+ over all 2^m sign assignments fits in one integer-indexed table.
    doubled = np.rint(2 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for step in doubled:
        shifted = np.zeros_like(counts)
        shifted[step:] = counts[: counts.size - step]
        counts += shifted
    assignments = 2.0 ** ranks.size
    observed = int(round(2 * w_plus))
    p_low = counts[: observed + 1].sum() / assignments
    p_high = counts[observed:].sum() / assignments
    return 2.0 * min(p_low, p_high)


def _approx_two_sided_p(ranks: np.ndarray, w_plus: float) -> float:
    m = ranks.size
    mean = m * (m + 1) / 4.0
    _, tie_sizes = np.unique(ranks, return_counts=True)
    variance = m * (m + 1) * (2 * m + 1) / 24.0 - float(
        ((tie_sizes**3 - tie_sizes) / 48.0).sum()
    )
    if variance <= 0:
        return 1.0
    z = max(0.0, abs(w_plus - mean) - 0.5) / np.sqrt(variance)
    return 2.0 * (1.0 - NormalDist().cdf(z))


def check_alpha(alpha: float) -> None:
    """Reject a significance level outside (0, 1), nan included."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def wilcoxon_signed_rank(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> WilcoxonResult:
    """Two-sided paired signed-rank test on samples `a` and `b`.

    Zero differences are dropped and tied absolute differences share averaged
    ranks.  The statistic is the positive-rank sum W+.  Exact for up to 20
    nonzero differences; all differences zero yields the no-decision result
    (p = 1).
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("samples must be 1-D and equally long")
    if x.size < 5:
        raise ValueError(f"need at least 5 pairs, got {x.size}")
    check_alpha(alpha)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("samples must be finite")
    diff = x - y
    diff = diff[diff != 0.0]
    if diff.size == 0:
        return WilcoxonResult(0.0, 1.0, False)
    ranks = _average_ranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    if diff.size <= 20:
        p = _exact_two_sided_p(ranks, w_plus)
    else:
        p = _approx_two_sided_p(ranks, w_plus)
    p = min(1.0, p)
    return WilcoxonResult(w_plus, p, p <= alpha)
