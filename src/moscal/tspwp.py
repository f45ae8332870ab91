"""TSP with profits: collect profit while keeping the sub-tour short.

Solutions are sub-tours: numpy int arrays of distinct cities (any nonempty
subset, cyclic order).  Objectives are (tour length, -total profit), both
minimized.  Search operates on range-normalized objectives; archives keep the
raw values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .engine import IMPROVEMENT_EPS, ArchiveEntry, ProblemAdapter, check_exact_integers
from .scalarizing import ObjectivePoint, Scalarizer, ScalarizerSpec
from .tsp import _city_ids, _common_fragments, _edge_set, _exchange_deltas, _invalid_pairs

__all__ = [
    "TspwpInstance",
    "ObjectiveRanges",
    "tspwp_evaluate",
    "random_subtour",
    "estimate_ranges",
    "tspwp_local_search",
    "dpx_wp_recombine",
    "TspwpAdapter",
]

RANGE_PADDING = 0.01

# the two extreme weight vectors used for range estimation
_BOUNDARY_WEIGHTS = ((0.999, 0.001), (0.001, 0.999))

# the scalarizer of range estimation and of the adapter's runs
_MIXED = ScalarizerSpec("mixed", w_linear=0.001, w_cheby=0.999)

# the length change given to 2-opt pairs that are no move: above every real one
_NO_MOVE = np.iinfo(np.int64).max


@dataclass(frozen=True)
class TspwpInstance:
    """Symmetric integer travel costs plus a nonnegative profit per city."""

    costs: np.ndarray
    profits: np.ndarray

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(np.asarray(self.costs, dtype=np.int64))
        p = np.ascontiguousarray(np.asarray(self.profits, dtype=np.int64))
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("cost matrix must be square")
        n = c.shape[0]
        if n < 4:
            raise ValueError("instance needs at least 4 cities")
        if p.shape != (n,):
            raise ValueError("profit vector length must match the city count")
        if (c < 0).any() or (p < 0).any():
            raise ValueError("costs and profits must be nonnegative")
        if (c != c.T).any():
            raise ValueError("cost matrix must be symmetric")
        if np.diagonal(c).any():
            raise ValueError("self-distances must be zero")
        check_exact_integers(n * int(c.max()), "n x max cost")
        check_exact_integers(sum(p.tolist()), "the total profit")
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "profits", p)

    @property
    def n(self) -> int:
        return self.costs.shape[0]

    @property
    def n_objectives(self) -> int:
        return 2


@dataclass(frozen=True)
class ObjectiveRanges:
    """Per-objective [low, high) brackets used for normalization."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lows) != len(self.highs):
            raise ValueError("range bounds disagree on dimension")
        if not all(math.isfinite(v) for v in (*self.lows, *self.highs)):
            raise ValueError(f"range bounds must be finite, got lows={self.lows} highs={self.highs}")
        if any(h <= l for l, h in zip(self.lows, self.highs)):
            raise ValueError("each range must have high > low")

    def normalize(self, points: np.ndarray) -> np.ndarray:
        """(points - lows) / (highs - lows), shape (..., J) -> (..., J).

        Computed one objective at a time into a C-contiguous array: the same
        elementwise operations, without numpy's slow broadcasting over a
        short last axis.
        """
        z = np.asarray(points, dtype=float)
        if z.shape[-1] != len(self.lows):
            raise ValueError(f"point dimension {z.shape[-1]} != range dimension {len(self.lows)}")
        out = np.empty(z.shape)
        for j, (low, high) in enumerate(zip(self.lows, self.highs)):
            column = out[..., j]
            np.subtract(z[..., j], low, out=column)
            column /= high - low
        return out


def _check_subtour(instance: TspwpInstance, subtour: Sequence[int]) -> np.ndarray:
    t = _city_ids(subtour, instance.n, "sub-tour")
    if t.size == 0:
        raise ValueError("sub-tour must be a nonempty city sequence")
    if np.bincount(t).max() != 1:
        raise ValueError("sub-tour must list distinct cities")
    return t


def tspwp_evaluate(instance: TspwpInstance, subtour: Sequence[int]) -> ObjectivePoint:
    """(cyclic length, -collected profit); a single city has length 0."""
    t = _check_subtour(instance, subtour)
    if t.size == 1:
        length = 0
    else:
        nxt = np.roll(t, -1)
        length = int(instance.costs[t, nxt].sum())
    return (float(length), -float(instance.profits[t].sum()))


def random_subtour(instance: TspwpInstance, rng: np.random.Generator) -> np.ndarray:
    size = int(rng.integers(1, instance.n + 1))
    return rng.choice(instance.n, size=size, replace=False)


def tspwp_local_search(
    instance: TspwpInstance,
    subtour: Sequence[int],
    scalarizer: Scalarizer,
    value_trace: list[float] | None = None,
) -> tuple[np.ndarray, ObjectivePoint]:
    """Steepest descent over four move families.

    Per step, the best of: 2-opt edge exchange inside the sub-tour, insertion
    of an absent city at its cheapest position, exchange of a present city
    for an absent one in place, deletion of a present city.  The first
    strictly improving best move is applied; stops at a local optimum of the
    union neighborhood.

    The start sub-tour is validated once.  A step keeps the sub-tour closed on
    both sides, te = (t[m-1], t[0], ..., t[m-1], t[0]), gathers the cost rows
    of te once and reads every move's integer length change from them: the
    columns of te for 2-opt, the columns of the absent cities for insertion
    and exchange.  Each family writes its (length, -profit) points into the
    next row block of one (N, 2) array, in the order edge, insert (k,), swap
    (m, k), delete (m,) for m present and k absent cities, and one
    `Scalarizer.value` call scores them all.  The move is the global argmin,
    so ties go to the first of edge, insert, swap, delete and, within a
    family, to the lowest index.

    Every 2-opt pair keeps the sub-tour's profit, and the scalarizer is
    nondecreasing in length (see `Scalarizer`), so the edge block holds two
    points only: the pair e with the least integer length change dmin (the
    first in row-major order, after the pairs that are no move are set to
    `_NO_MOVE`), and a probe at dmin + 1.  No pair's change lies between the
    two, so when the probe scores higher, e is the family's only best pair
    and the probe is never picked.  When it does not, the scalarizer is flat
    in length at dmin (a zero length weight, or a chebycheff term that the
    profit dominates); the whole (m, m) block is then scored, as one more
    `value` call, and its first minimum replaces e.

    Every row of the array is the exact integer point of its move, with the
    profit -(new total) signed as `tspwp_evaluate` signs it (-0.0 when
    zero), so `value` of the row is the value of the sub-tour the move
    makes, bit for bit.  Only the start is scored with `scalarizer(point)`;
    each later step carries the value of the move that led to it, and the
    search returns the last step's point.
    """
    t = _check_subtour(instance, subtour).copy()
    costs, profits = instance.costs, instance.profits
    present = np.zeros(instance.n, dtype=bool)
    present[t] = True
    value = None
    while True:
        m = t.size
        te = np.concatenate((t[-1:], t, t[:1]))
        # edges[i] = cost of <te[i], te[i+1]>: t's edge into position i is
        # edges[i], its edge out of it edges[i + 1]
        edges = costs[te[:-1], te[1:]]
        gained = profits[t]
        through = edges[:-1] + edges[1:]  # both edges at each position
        length, total = int(edges[1:].sum()), int(gained.sum())
        point = (float(length), -float(total))
        if value is None:
            value = scalarizer(point)
        if value_trace is not None:
            value_trace.append(value)
        absent = np.flatnonzero(~present)
        k = absent.size
        rows = costs[te]
        # the row blocks of the families: edge [0, ins) (its best pair, then
        # the probe), insert [ins, swp), swap [swp, dele), delete [dele, end);
        # with n >= 4 cities some family always has a move
        ins = 2 if m >= 4 else 0
        swp = ins + k
        dele = swp + m * k
        z = np.empty((dele + (m if m >= 2 else 0), 2))

        if m >= 4:
            # 2-opt inside the sub-tour (length changes only)
            deltas = _exchange_deltas(rows[1:, te[1:]])
            deltas[_invalid_pairs(m)] = _NO_MOVE
            edge = int(deltas.argmin())
            dmin = int(deltas.flat[edge])
            z[0] = length + dmin, point[1]
            z[1] = length + dmin + 1, point[1]

        if k:
            to_absent = rows[:, absent]
            absent_profits = profits[absent]
            # insertion: each absent city at its best (cheapest) position
            if m == 1:
                inc = 2 * to_absent[1]
                best_pos = np.zeros(k, dtype=np.int64)
            else:
                inc_all = to_absent[1:-1] + to_absent[2:]
                inc_all -= edges[1:, None]
                best_pos = inc_all.argmin(axis=0)
                inc = inc_all[best_pos, np.arange(k)]
            np.add(point[0], inc, out=z[ins:swp, 0])
            np.subtract(point[1], absent_profits, out=z[ins:swp, 1])

            # exchange: absent city replaces a present one at its position
            zs = z[swp:dele].reshape(m, k, 2)
            if m == 1:
                zs[..., 0] = point[0]  # a single city has length 0 before and after
            else:
                d_len_x = to_absent[:-2] + to_absent[2:]
                d_len_x -= through[:, None]
                np.add(point[0], d_len_x, out=zs[..., 0])
            # -0.0 - x is -float(x), -0.0 for a zero total as in tspwp_evaluate;
            # -total + x would give +0.0
            np.subtract(-0.0, (total - gained)[:, None] + absent_profits, out=zs[..., 1])

        if m >= 2:
            # deletion of a present city
            np.add(point[0], costs[te[:-2], te[2:]] - through, out=z[dele:, 0])
            np.subtract(-0.0, total - gained, out=z[dele:, 1])

        vals = scalarizer.value(z)
        if m >= 4 and not vals[1] > vals[0]:
            # flat in length at dmin: the first best pair may lie above it
            block = np.empty((m * m, 2))
            np.add(point[0], deltas.ravel(), out=block[:, 0])
            block[:, 1] = point[1]
            block_vals = scalarizer.value(block)
            block_vals[_invalid_pairs(m).ravel()] = np.inf
            edge = int(block_vals.argmin())
            vals[:2] = block_vals[edge], np.inf
        best = int(vals.argmin())
        if not vals[best] < value - IMPROVEMENT_EPS:
            return t, point
        value = float(vals[best])
        if best < ins:
            i, j = divmod(edge, m)
            t[i + 1 : j + 1] = t[i + 1 : j + 1][::-1]
        elif best < swp:
            v = best - ins
            pos, city = int(best_pos[v]), absent[v]
            t = np.concatenate((t[: pos + 1], [city], t[pos + 1 :]))
            present[city] = True
        elif best < dele:
            pos, v = divmod(best - swp, k)
            present[t[pos]] = False
            present[absent[v]] = True
            t[pos] = absent[v]
        else:
            pos = best - dele
            present[t[pos]] = False
            t = np.concatenate((t[:pos], t[pos + 1 :]))


def estimate_ranges(instance: TspwpInstance, rng: np.random.Generator) -> ObjectiveRanges:
    """Bracket each objective from two boundary local searches.

    One search per extreme weight vector (0.999, 0.001) / (0.001, 0.999),
    run on unnormalized objectives; the componentwise min/max of the two
    resulting points, padded by 1% (or widened by 1 when degenerate), gives
    the normalization ranges.
    """
    results = []
    for lam in _BOUNDARY_WEIGHTS:
        start = random_subtour(instance, rng)
        _, point = tspwp_local_search(instance, start, Scalarizer(lam, _MIXED, tspwp_evaluate(instance, start)))
        results.append(point)
    pts = np.array(results, dtype=float)
    lows, highs = pts.min(axis=0), pts.max(axis=0)
    span = highs - lows
    pad = np.where(span > 0, RANGE_PADDING * span, 1.0)
    return ObjectiveRanges(tuple(lows - pad), tuple(highs + pad))


def dpx_wp_recombine(
    parent_a: Sequence[int],
    parent_b: Sequence[int],
    rng: np.random.Generator,
    n_cities: int,
) -> np.ndarray:
    """Extended distance-preserving crossover for sub-tours.

    comSet = edges and nodes common to both parents; every other city joins
    with probability (expected node count - |comSet nodes|) / |remSet|, where
    the expected node count is the parents' average size and remSet is the
    set of cities outside comSet.  Common-edge fragments, isolated common
    nodes and the sampled cities are then chained randomly into a cycle.
    """
    pa, pb = (_city_ids(p, n_cities, "parent") for p in (parent_a, parent_b))
    nodes_a, nodes_b = set(pa.tolist()), set(pb.tolist())
    if len(nodes_a) != pa.size or len(nodes_b) != pb.size:
        raise ValueError("parents must visit each city at most once")
    ea, eb = _edge_set(pa), _edge_set(pb)
    common_edges = ea & eb
    common_nodes = nodes_a & nodes_b

    fragments = _common_fragments(sorted(common_nodes), common_edges)
    if fragments is None:
        return pa.copy()  # identical cyclic sequences

    expected = (pa.size + pb.size) / 2.0
    rem = [c for c in range(n_cities) if c not in common_nodes]
    if rem:
        p_add = min(1.0, max(0.0, (expected - len(common_nodes)) / len(rem)))
    else:
        p_add = 0.0
    added = [c for c in rem if rng.random() < p_add]

    fragments.extend([c] for c in added)
    if not fragments:
        # degenerate: nothing common and nothing sampled; keep one random city
        fragments = [[int(rem[int(rng.integers(len(rem)))])]]

    order = rng.permutation(len(fragments))
    chain: list[int] = []
    for idx in order:
        frag = fragments[int(idx)]
        if len(frag) > 1 and rng.random() < 0.5:
            frag = frag[::-1]
        chain.extend(frag)
    return np.asarray(chain, dtype=np.int64)


class TspwpAdapter(ProblemAdapter):
    """Engine adapter; estimates normalization ranges at the start of each run."""

    def __init__(self, instance: TspwpInstance):
        self.instance = instance
        self.n_objectives = 2
        self.ranges: ObjectiveRanges | None = None

    def begin_run(self, rng: np.random.Generator) -> None:
        self.ranges = estimate_ranges(self.instance, rng)

    def random_solution(self, rng: np.random.Generator) -> np.ndarray:
        return random_subtour(self.instance, rng)

    def evaluate(self, solution: np.ndarray) -> ObjectivePoint:
        return tspwp_evaluate(self.instance, solution)

    def local_search(self, solution: np.ndarray, scalarizer: Scalarizer) -> ArchiveEntry:
        return tspwp_local_search(self.instance, solution, scalarizer)

    def recombine(self, parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return dpx_wp_recombine(parent_a, parent_b, rng, n_cities=self.instance.n)

    def scalarizing_transform(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.ranges is None:
            raise ValueError("normalization ranges not estimated; begin_run was not called")
        return self.ranges.normalize

    def default_scalarizer(self) -> ScalarizerSpec:
        return _MIXED
