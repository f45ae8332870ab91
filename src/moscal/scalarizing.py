"""Weight vectors and scalarizing functions.

All objectives are minimized; maximized quantities are negated by the owning
problem before they get here.  A scalarizing function collapses an objective
point to a single value, lower is better:

    linear       s(z) = sum_j lambda_j * z_j
    chebycheff   s(z) = max_j lambda_j * (z_j - z_ref_j)
    mixed        w_linear * linear + w_cheby * chebycheff

The linear sum is taken left to right, one objective at a time:
z_0*lambda_0 + z_1*lambda_1 (+ z_2*lambda_2 ...).  Every operation is
elementwise, so a point gets the same bits whatever the shape or memory
layout of the array that holds it, and on every machine; a BLAS dot product
would not guarantee that.

`Scalarizer._terms` is the one implementation of the kinds.  It runs on one
column per objective: the columns of an array of points, or the components
of a single point, Python floats then.  The weights of a single weight vector
are Python floats too; an array times a Python float is the same float64
product, so a point gets the same bits either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ObjectivePoint",
    "WeightVector",
    "ScalarizerSpec",
    "Scalarizer",
    "as_point",
    "check_integer",
    "generate_uniform_weights",
    "draw_random_weight",
    "uniform_weight_count",
    "granularity_for_count",
]

ObjectivePoint = tuple[float, ...]

WEIGHT_SUM_TOL = 1e-9

KINDS = ("linear", "chebycheff", "mixed")

# (w_linear, w_cheby): the fixed pairs of linear and chebycheff, the default of mixed
_MIX_WEIGHTS = {"linear": (1.0, 0.0), "chebycheff": (0.0, 1.0), "mixed": (0.5, 0.5)}


def check_integer(value: Any, what: str) -> None:
    """Reject a count or seed that is no Python or numpy integer; a float
    such as 1.5 would fail later, deep inside a loop or numpy."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def as_point(values: Iterable[float]) -> ObjectivePoint:
    """Validate and freeze an objective point (length >= 2, all finite)."""
    point = tuple(float(v) for v in values)
    if len(point) < 2:
        raise ValueError(f"objective point needs at least 2 components, got {len(point)}")
    if not all(math.isfinite(v) for v in point):
        raise ValueError(f"objective point has non-finite component: {point}")
    return point


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights summing to 1 (within tolerance)."""

    lambdas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lambdas) < 2:
            raise ValueError("weight vector needs at least 2 components")
        if any(l < 0.0 for l in self.lambdas):
            raise ValueError(f"negative weight in {self.lambdas}")
        total = sum(self.lambdas)
        if not math.isfinite(total):  # none is negative, so a nan or inf weight
            raise ValueError(f"weights must be finite, got {self.lambdas}")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")

    def __len__(self) -> int:
        return len(self.lambdas)

    def __getitem__(self, i: int) -> float:
        return self.lambdas[i]


@dataclass(frozen=True)
class ScalarizerSpec:
    """Scalarizing-function template: the kind and its mix weights.

    Only the mixed kind takes mix weights; linear and chebycheff keep their
    fixed pairs (1, 0) and (0, 1).  The reference point is bound with the
    weights, by `Scalarizer`, because the engine moves it during a run.
    """

    kind: str = "linear"
    w_linear: float | None = None
    w_cheby: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scalarizer kind {self.kind!r}")
        w_lin, w_che = self.w_linear, self.w_cheby
        if w_lin is None and w_che is None:
            w_lin, w_che = _MIX_WEIGHTS[self.kind]
        elif w_lin is None:
            w_lin = 1.0 - w_che
        elif w_che is None:
            w_che = 1.0 - w_lin
        object.__setattr__(self, "w_linear", float(w_lin))
        object.__setattr__(self, "w_cheby", float(w_che))
        if not (math.isfinite(self.w_linear) and math.isfinite(self.w_cheby)):
            raise ValueError(f"mix weights must be finite, got ({self.w_linear}, {self.w_cheby})")
        if self.kind != "mixed" and (self.w_linear, self.w_cheby) != _MIX_WEIGHTS[self.kind]:
            raise ValueError(
                f"{self.kind} scalarizer has fixed mix weights {_MIX_WEIGHTS[self.kind]}; "
                "other mix weights need kind 'mixed'"
            )
        if self.w_linear < 0.0 or self.w_cheby < 0.0:
            raise ValueError("mix weights must be nonnegative")
        if abs(self.w_linear + self.w_cheby - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"mix weights sum to {self.w_linear + self.w_cheby!r}, expected 1")


class Scalarizer:
    """A scalarizing function bound to one weight vector and reference point.

    `reference` is needed by the chebycheff and mixed kinds and ignored by
    linear.  `transform`, when given, maps raw objective points into the
    space the function is defined on (e.g. range normalization); the
    reference point is expressed in that transformed space.

    `weights` may also be a sequence of N weight vectors, held stacked as
    an (N, J) array: `value` then scores points of shape (..., J), whose
    leading shape broadcasts against (N,), each under its own row.  The
    terms index `weights[..., j]`, so every row gets the operations, in the
    order, of a scalarizer bound to that row alone, and the same bits.
    `__call__` scores one point under one weight vector, through the same
    terms on the point's components, and returns the bits of `value`.

    The transform must be elementwise and nondecreasing in each objective,
    as `ObjectiveRanges.normalize` is.  Then the value is nondecreasing in
    each objective, in floats too: every step (a correctly rounded difference,
    a product with a weight >= 0, the left-to-right sum, `np.maximum`, the
    mix with shares >= 0) keeps the order of its inputs.  `tspwp_local_search`
    and `scp_local_search` rely on this.
    """

    def __init__(
        self,
        weights: WeightVector | Sequence[float] | Sequence[WeightVector],
        spec: ScalarizerSpec,
        reference: Sequence[float] | np.ndarray | None = None,
        transform: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if isinstance(weights, WeightVector):
            self.weights = np.asarray(weights.lambdas, dtype=float)
        elif len(weights) and isinstance(weights[0], WeightVector):
            if any(len(w) != len(weights[0]) for w in weights):
                raise ValueError("stacked weight vectors disagree on dimension")
            self.weights = np.array([w.lambdas for w in weights], dtype=float)
        else:
            nested = next((v for v in weights if np.ndim(v)), None)
            if nested is not None:
                raise ValueError(
                    "weights must be one weight vector (a WeightVector or a flat sequence of numbers) "
                    f"or a sequence of WeightVectors; got an entry of shape {np.shape(nested)}"
                )
            self.weights = np.asarray(WeightVector(tuple(float(v) for v in weights)).lambdas, dtype=float)
        self.spec = spec
        self.transform = transform
        self.reference = None
        if spec.kind != "linear":
            if reference is None:
                raise ValueError(f"{spec.kind} scalarizer needs a reference point")
            self.reference = np.array(reference, dtype=float)
            if self.reference.shape != self.weights.shape[-1:]:
                raise ValueError("reference point and weights disagree on dimension")
        self._reference = None if self.reference is None else self.reference.tolist()
        # per objective: the weight as a Python float, or the column weights[:, j] of stacked weights
        self._weight_columns = self.weights.tolist() if self.weights.ndim == 1 else list(self.weights.T)

    @property
    def is_plain_linear(self) -> bool:
        """True when the value is a plain dot product of raw objectives."""
        return self.spec.kind == "linear" and self.transform is None

    def value(self, z: np.ndarray) -> np.ndarray:
        """Scalarize an array of points, shape (..., J) -> (...)."""
        z = np.asarray(z, dtype=float)
        if z.ndim == 0:
            raise ValueError(f"points must have shape (..., {self.weights.shape[-1]}), got a scalar")
        if z.shape[-1] != self.weights.shape[-1]:
            raise ValueError(f"point dimension {z.shape[-1]} != weight dimension {self.weights.shape[-1]}")
        if self.transform is not None:
            z = self.transform(z)
        return self._terms([z[..., j] for j in range(z.shape[-1])])

    def value_columns(self, *columns: np.ndarray | float) -> np.ndarray:
        """Scalarize points given one objective per argument -> (...).

        The columns broadcast to one shape (...), and against the leading
        shape of stacked weights; each is an array of real numbers or a
        Python number.  Without a transform the kind's terms run on the
        columns themselves and no stacked (..., J) copy is built: each
        element gets the operations of `value`, in the same order, and an
        int column is converted to float inside each operation that reads
        it, by the cast an assignment into a float array makes.  So the
        result equals `value` of the stacked array bit for bit.  A transform
        maps whole points, so with one the columns are stacked first.
        """
        j_count = len(self._weight_columns)
        if len(columns) != j_count:
            raise ValueError(f"{len(columns)} objective columns != weight dimension {j_count}")
        if self.transform is None:
            return self._terms(columns)
        z = np.empty(np.broadcast(*columns).shape + (j_count,))
        for j, column in enumerate(columns):
            z[..., j] = column
        return self.value(z)

    def _terms(self, columns: Sequence[np.ndarray | float]) -> np.ndarray:
        """The kind's terms and their mix, one objective per column.

        The linear kind has the shares (1, 0) and chebycheff (0, 1), so a
        zero share skips its term for every kind.
        """
        spec = self.spec
        if spec.w_cheby == 0.0:
            return self._linear(columns)
        if spec.w_linear == 0.0:
            return self._chebycheff(columns)
        return spec.w_linear * self._linear(columns) + spec.w_cheby * self._chebycheff(columns)

    def _linear(self, columns: Sequence[np.ndarray | float]) -> np.ndarray:
        """sum_j lambda_j * z_j, added left to right."""
        w = self._weight_columns
        lin = columns[0] * w[0]
        for j in range(1, len(w)):
            lin = lin + columns[j] * w[j]
        return lin

    def _chebycheff(self, columns: Sequence[np.ndarray | float]) -> np.ndarray:
        """max_j lambda_j * (z_j - z_ref_j), taken one objective at a time.

        These are the elementwise operations of `(weights * (z -
        reference)).max(axis=-1)`, so the result is the same bit for bit;
        numpy broadcasts and reduces over a short last axis far more slowly.
        """
        w, ref = self._weight_columns, self._reference
        cheby = w[0] * (columns[0] - ref[0])
        for j in range(1, len(w)):
            cheby = np.maximum(cheby, w[j] * (columns[j] - ref[j]))
        return cheby

    def __call__(self, z: Sequence[float]) -> float:
        """Scalarize one point: `value_columns` of its components, as a float."""
        if len(z) != len(self._weight_columns):
            raise ValueError(f"point dimension {len(z)} != weight dimension {len(self._weight_columns)}")
        return self.score(z)

    def score(self, z: Sequence[float]) -> float:
        """`__call__` for a point whose dimension the caller has checked.

        Without a transform the kind's terms run on the point's components
        directly, as `value_columns` runs them, so the bits are those of
        `__call__`; a loop that rescores many points of one dimension, such
        as 2-opt's after each move, skips the check and a layer per point.
        """
        if self.transform is None:
            return float(self._terms(z))
        return float(self.value_columns(*z))


def uniform_weight_count(n_objectives: int, granularity: int) -> int:
    """Number of simplex-lattice vectors: C(H + J - 1, J - 1)."""
    return math.comb(granularity + n_objectives - 1, n_objectives - 1)


def granularity_for_count(n_objectives: int, count: int) -> int:
    """Invert uniform_weight_count; raises if `count` is not a lattice size."""
    h = 0
    while uniform_weight_count(n_objectives, h) < count:
        h += 1
    if uniform_weight_count(n_objectives, h) != count:
        raise ValueError(f"{count} is not a simplex-lattice count for {n_objectives} objectives")
    return h


def generate_uniform_weights(n_objectives: int, granularity: int) -> list[WeightVector]:
    """All weight vectors with components k/H, in lexicographic order."""
    if n_objectives < 2:
        raise ValueError("need at least 2 objectives")
    if granularity < 1:
        raise ValueError("granularity must be >= 1")
    h = granularity
    out: list[WeightVector] = []

    def rec(prefix: list[float], left: int, units: int) -> None:
        if left == 1:
            out.append(WeightVector(tuple(prefix + [units / h])))
            return
        for k in range(units + 1):
            rec(prefix + [k / h], left - 1, units - k)

    rec([], n_objectives, h)
    return out


def draw_random_weight(n_objectives: int, rng: np.random.Generator) -> WeightVector:
    """Uniform draw from the simplex via sorted uniform spacings."""
    if n_objectives < 2:
        raise ValueError("need at least 2 objectives")
    cuts = np.sort(rng.random(n_objectives - 1))
    gaps = np.diff(np.concatenate(([0.0], cuts, [1.0])))
    # renormalize away the last-bit float error so the invariant holds exactly
    gaps = gaps / gaps.sum()
    return WeightVector(tuple(float(g) for g in gaps))
