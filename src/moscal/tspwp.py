"""TSP with profits: collect profit while keeping the sub-tour short.

Solutions are sub-tours: numpy int arrays of distinct cities (any nonempty
subset, cyclic order).  Objectives are (tour length, -total profit), both
minimized.  Search operates on range-normalized objectives; archives keep the
raw values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .engine import IMPROVEMENT_EPS, ArchiveEntry, ProblemAdapter, check_exact_integers, integer_array, integer_ids
from .scalarizing import ObjectivePoint, Scalarizer, ScalarizerSpec
from .tsp import _check_costs, _common_fragments, _edge_set, _exchange_deltas, _invalid_bias, _invalid_pairs

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


@dataclass(frozen=True)
class TspwpInstance:
    """Symmetric integer travel costs plus a nonnegative profit per city."""

    costs: np.ndarray
    profits: np.ndarray

    def __post_init__(self) -> None:
        c = integer_array(self.costs, "cost matrix")
        p = integer_array(self.profits, "profit vector")
        n = _check_costs(c)
        if p.shape != (n,):
            raise ValueError("profit vector length must match the city count")
        if (p < 0).any():
            raise ValueError("profits must be nonnegative")
        check_exact_integers(sum(p.tolist()), "the total profit")
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "profits", p)

    @property
    def n(self) -> int:
        return self.costs.shape[0]

    @property
    def n_objectives(self) -> int:
        return 2

    @cached_property
    def _float_costs(self) -> np.ndarray:
        """`costs` as floats, exact: every cost is an integer and n x max
        cost < 2**53.  Built on first use, so set-up does not pay for it."""
        return self.costs.astype(float)

    @cached_property
    def _float_profits(self) -> np.ndarray:
        """`profits` as floats, exact: the total profit is below 2**53."""
        return self.profits.astype(float)


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

        Computed one objective at a time into an array of the input's memory
        layout: the same elementwise operations, without numpy's slow
        broadcasting over a short last axis, and on contiguous columns when
        the input's are (as in `tspwp_local_search`).
        """
        z = np.asarray(points, dtype=float)
        if z.ndim == 0:
            raise ValueError(f"points must have shape (..., {len(self.lows)}), got a scalar")
        if z.shape[-1] != len(self.lows):
            raise ValueError(f"point dimension {z.shape[-1]} != range dimension {len(self.lows)}")
        out = np.empty_like(z)
        for j, (low, high) in enumerate(zip(self.lows, self.highs)):
            column = out[..., j]
            np.subtract(z[..., j], low, out=column)
            column /= high - low
        return out


def _check_subtour(instance: TspwpInstance, subtour: Sequence[int]) -> np.ndarray:
    t = integer_ids(subtour, "sub-tour", "city", instance.n)
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

    The start sub-tour is validated once.  A step lists the m present cities
    closed on both sides, then the k absent ones: te = (t[m-1], t[0], ...,
    t[m-1], t[0], absent...), n + 2 ids.  One row `take` and one column
    `take` of the instance's float costs (`TspwpInstance._float_costs`) into
    buffers reused by the whole search give the (m+2, n+2) costs between the
    closed tour and te: Q, its first m+2 columns, is the closed tour against
    itself, and A, the rest, the closed tour against the absent cities.  Every
    length change is read from them: the tour's edges are `Q.diagonal(1)`, the
    edge a deletion adds is `Q.diagonal(2)`, 2-opt reads Q and insertion and
    exchange read A.  The costs are integers and n x max cost < 2**53 (checked
    by `TspwpInstance`), so every float sum and difference here is the exact
    integer, in any order.

    Each family writes its moves' (length, -profit) points into the next
    column block of one reused (2, N) buffer, in the order edge, insert (k,),
    swap (m, k), delete (m,), and one `Scalarizer.value` call scores the
    column-major (N, 2) view of it, whose per-objective columns are contiguous
    (`ObjectiveRanges.normalize` keeps that layout).  The move is the global
    argmin, so ties go to the first of edge, insert, swap, delete and, within
    a family, to the lowest index.  An absent city's insertion is scored at
    its cheapest position, `min` over the positions; the position, the first
    of the cheapest, is found only for the insertion that is applied.

    Every 2-opt pair keeps the sub-tour's profit, and the scalarizer is
    nondecreasing in length (see `Scalarizer`), so the edge block holds two
    points only: the pair e with the least length change dmin, and a probe at
    dmin + 1.  e is the first minimum in row-major order of the changes plus
    the read-only 0/inf bias of the pairs that are no move (`_invalid_bias`);
    adding 0.0 to an integer change leaves it exact.  No pair's change lies
    between dmin and the probe, so when the probe scores higher, e is the
    family's only best pair and the probe is never picked.  When it does not,
    the scalarizer is flat in length at dmin (a zero length weight, or a
    chebycheff term that the profit dominates); the whole (m, m) block of
    unbiased changes is then scored, as one more `value` call (the biased ones
    would put inf into the scalarizer, whose zero weight makes it a nan), and
    its first minimum among the moves replaces e.

    Every column of the buffer is the exact integer point of its move, with
    the profit -(new total) signed as `tspwp_evaluate` signs it (-0.0 when
    zero), so `value` of the column is the value of the sub-tour the move
    makes, bit for bit.  Only the start is summed and scored with
    `scalarizer(point)`; each later step carries the point and value of the
    move that led to it, and the search returns the last step's point.
    """
    t = _check_subtour(instance, subtour).copy()
    n = instance.n
    costs, profits = instance._float_costs, instance._float_profits
    present = np.zeros(n, dtype=bool)
    present[t] = True
    rows = np.empty((n + 2, n))
    closed = np.empty((n + 2, n + 2))
    z = np.empty((2, n + 2 + n * n // 4))  # N <= 2 + k + m*k + m, m + k = n
    point = value = None
    while True:
        m = t.size
        absent = (~present).nonzero()[0]
        k = absent.size
        te = np.concatenate((t[-1:], t, t[:1], absent))
        # mode="clip" is safe only because every id is a city; with the
        # default mode numpy writes through a buffer
        costs.take(te[: m + 2], axis=0, out=rows[: m + 2], mode="clip")
        g = rows[: m + 2].take(te, axis=1, out=closed[: m + 2], mode="clip")
        q, a = g[:, : m + 2], g[:, m + 2 :]
        # edges[i] = cost of <te[i], te[i+1]>: t's edge into position i is
        # edges[i], its edge out of it edges[i + 1]
        edges = q.diagonal(1)
        gained = profits[t]
        if point is None:
            point = (float(edges[1:].sum()), -float(gained.sum()))
            value = scalarizer(point)
        if value_trace is not None:
            value_trace.append(value)
        length = point[0]
        left = -point[1] - gained  # the total profit without each present city
        through = edges[:-1] + edges[1:]  # both edges at each position
        # the column blocks of the families: edge [0, ins) (its best pair,
        # then the probe), insert [ins, swp), swap [swp, dele), delete
        # [dele, end); with n >= 4 cities some family always has a move
        ins = 2 if m >= 4 else 0
        swp = ins + k
        dele = swp + m * k
        end = dele + (m if m >= 2 else 0)

        if m >= 4:
            # 2-opt inside the sub-tour (length changes only)
            deltas = _exchange_deltas(q[1:, 1:])
            edge = int((deltas + _invalid_bias(m)).argmin())
            z[0, 0] = length + deltas.flat[edge]
            z[0, 1] = z[0, 0] + 1.0
            z[1, :2] = point[1]

        if k:
            absent_profits = profits[absent]
            # insertion: each absent city at its cheapest position
            inc_all = a[1:-1] + a[2:]
            inc_all -= edges[1:, None]
            np.add(length, inc_all.min(axis=0), out=z[0, ins:swp])
            np.subtract(point[1], absent_profits, out=z[1, ins:swp])

            # exchange: absent city replaces a present one at its position
            swap_length = z[0, swp:dele].reshape(m, k)
            if m == 1:
                swap_length[...] = length  # a single city has length 0 before and after
            else:
                np.add(a[:-2], a[2:], out=swap_length)
                swap_length -= (through - length)[:, None]
            # -0.0 - x is -x, -0.0 for a zero total as in tspwp_evaluate;
            # -total + x would give +0.0
            np.subtract(-0.0, left[:, None] + absent_profits, out=z[1, swp:dele].reshape(m, k))

        if m >= 2:
            # deletion of a present city
            np.subtract(q.diagonal(2), through, out=z[0, dele:end])
            z[0, dele:end] += length
            np.subtract(-0.0, left, out=z[1, dele:end])

        vals = scalarizer.value(z[:, :end].T)
        if m >= 4 and not vals[1] > vals[0]:
            # flat in length at dmin: the first best pair may lie above it
            block = np.empty((2, m * m))
            np.add(length, deltas.ravel(), out=block[0])
            block[1] = point[1]
            block_vals = scalarizer.value(block.T)
            block_vals[_invalid_pairs(m).ravel()] = np.inf
            edge = int(block_vals.argmin())
            vals[:2] = block_vals[edge], np.inf
            z[0, 0] = block[0, edge]
        best = int(vals.argmin())
        if not vals[best] < value - IMPROVEMENT_EPS:
            return t, point
        value = float(vals[best])
        point = (float(z[0, best]), float(z[1, best]))
        if best < ins:
            i, j = divmod(edge, m)
            t[i + 1 : j + 1] = t[i + 1 : j + 1][::-1]
        elif best < swp:
            v = best - ins
            pos, city = int(inc_all[:, v].argmin()), absent[v]
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
    pa, pb = (integer_ids(p, "parent", "city", n_cities) for p in (parent_a, parent_b))
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
    """Engine adapter; estimates normalization ranges at the start of each run.

    Its searches never read the `memo`: its scalarizer carries the run's own
    ranges as a transform, which a memo never keys.
    """

    ranges: ObjectiveRanges | None = None

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
