"""Multiobjective symmetric TSP: evaluation, 2-opt local search, DPX.

Tours are numpy int arrays holding a permutation of 0..n-1 (visiting order,
closed cyclically).  Cost matrices are symmetric nonnegative integers, one per
objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain
from typing import Sequence

import numpy as np

from .engine import (
    IMPROVEMENT_EPS, ArchiveEntry, ProblemAdapter, SearchMemo, check_exact_integers, integer_array, integer_ids
)
from .scalarizing import ObjectivePoint, Scalarizer

__all__ = [
    "TspInstance",
    "CandidateLists",
    "tsp_evaluate",
    "random_tour",
    "build_candidate_lists",
    "two_opt_local_search",
    "dpx_recombine",
    "TspAdapter",
]

_DPX_ATTEMPTS = 30
MIN_CITIES = 4  # the fewest cities with two nonadjacent edges, so a 2-opt move


@dataclass(frozen=True)
class TspInstance:
    """J symmetric integer cost matrices over the same n >= 4 cities."""

    costs: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.costs) < 1:
            raise ValueError("instance needs at least one cost matrix")
        mats = tuple(integer_array(c, f"objective {j + 1}'s cost matrix") for j, c in enumerate(self.costs))
        if len({_check_costs(m) for m in mats}) != 1:
            raise ValueError("cost matrices disagree on size")
        object.__setattr__(self, "costs", mats)

    @property
    def n(self) -> int:
        return self.costs[0].shape[0]

    @property
    def n_objectives(self) -> int:
        return len(self.costs)

    @cached_property
    def _float_costs(self) -> tuple[np.ndarray, ...]:
        """`costs` as floats, exact: every cost is an integer and n x max
        cost < 2**53.  Built on first use, so set-up does not pay for it."""
        return tuple(c.astype(float) for c in self.costs)


def _check_costs(m: np.ndarray) -> int:
    """The city count n of an int64 cost matrix; a ValueError names the first
    rule it breaks: square, n >= 4, nonnegative, symmetric, zero diagonal,
    n x max cost below 2**53 (so every tour length is an exact float)."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("cost matrix must be square")
    n = m.shape[0]
    if n < MIN_CITIES:
        raise ValueError(f"instance needs at least {MIN_CITIES} cities")
    if (m < 0).any():
        raise ValueError("costs must be nonnegative")
    if (m != m.T).any():
        raise ValueError("cost matrix must be symmetric")
    if np.diagonal(m).any():
        raise ValueError("self-distances must be zero")
    check_exact_integers(n * int(m.max()), "n x max cost")
    return n


def _check_tour(instance: TspInstance, tour: Sequence[int]) -> np.ndarray:
    n = instance.n
    t = integer_ids(tour, "tour", "city", n)
    if t.size != n or np.bincount(t, minlength=n).max() != 1:
        raise ValueError("tour must be a permutation of all cities")
    return t


def tsp_evaluate(instance: TspInstance, tour: Sequence[int]) -> ObjectivePoint:
    """Cyclic edge-sum per objective."""
    t = _check_tour(instance, tour)
    edges = t * instance.n  # flat index of each edge <t[i], t[i+1]>
    edges[:-1] += t[1:]
    edges[-1] += t[0]
    return tuple(float(c.take(edges).sum()) for c in instance.costs)


def random_tour(instance: TspInstance, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(instance.n)


@dataclass(frozen=True)
class CandidateLists:
    """Per-city candidate neighbours: c in members[a] lets 2-opt add <a,c>.

    Lists built from tours are symmetric; hand-made lists may be directed and
    are read as given.  Every id must be a city 0..n-1, n = len(members);
    others are rejected here.

    `two_opt_local_search` with lists follows bit for bit the trajectory of
    the full scan masked by the lists.  Sparse lists score only the moves
    built from their P directed pairs (`pairs`, `own_edges`); lists with
    more than n²/2 moves take the dense scan, which looks its winning move's
    two added edges up in `bias` and gathers `bias` as a mask only when
    neither is listed.  Each of these arrays is built once per lists object
    and read-only, so a run that shares one `CandidateLists` across its
    local searches builds it once.
    """

    members: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        n = len(self.members)
        for a, cands in enumerate(self.members):
            for c in cands:
                if not 0 <= c < n:
                    raise ValueError(f"candidate list of city {a} holds id {c}, outside the cities 0..{n - 1}")

    def matrix(self) -> np.ndarray:
        """Directed boolean matrix: [a, c] is True when c is in cand(a)."""
        n = len(self.members)
        rows = np.repeat(np.arange(n), [len(cands) for cands in self.members])
        cols = np.fromiter(chain.from_iterable(self.members), dtype=np.int64, count=rows.size)
        m = np.zeros((n, n), dtype=bool)
        m[rows, cols] = True
        return m

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The P directed pairs (a, c), c in cand(a), in row-major order.

        Two read-only arrays of 2P entries, one per side of the pair: its P
        cities, then the same cities plus n.  The move list indexes per-city
        arrays of length 2n with them; the first half gives the moves that
        add <a,c> as their first new edge, the second those that add it as
        their second.
        """
        n = len(self.members)
        a, c = np.nonzero(self.matrix())
        out = (np.concatenate((a, a + n)), np.concatenate((c, c + n)))
        for arr in out:
            arr.setflags(write=False)
        return out

    @cached_property
    def own_edges(self) -> np.ndarray:
        """Flat index a*n + c of each pair's edge <a,c>, once per side of
        `pairs` (2P entries, read-only): every move's new edge <a,c>."""
        n = len(self.members)
        pa, pc = self.pairs
        half = pa.size // 2
        own = np.tile(pa[:half] * n + pc[:half], 2)
        own.setflags(write=False)
        return own

    @cached_property
    def bias(self) -> np.ndarray:
        """(n, n) float, 0.0 where c is in cand(a) and inf elsewhere
        (read-only): the candidate mask of the masked dense scan."""
        bias = np.where(self.matrix(), 0.0, np.inf)
        bias.setflags(write=False)
        return bias


def build_candidate_lists(tours: Sequence[Sequence[int]]) -> CandidateLists:
    """Union of tour adjacencies over the given tours: c is in cand(a) when
    some tour visits a and c one after the other."""
    if not len(tours):
        raise ValueError("need at least one tour to build candidate lists")
    n = len(tours[0])
    if any(len(tour) != n for tour in tours):
        raise ValueError("tours disagree on city count")
    stacked = integer_ids(np.ravel(tours), "tour", "city", n).reshape(len(tours), n)
    wrong = np.flatnonzero((np.sort(stacked, axis=1) != np.arange(n)).any(axis=1))
    if wrong.size:
        raise ValueError(f"tour {wrong[0]} is not a permutation of the cities 0..{n - 1}")
    nxt = np.roll(stacked, -1, axis=1)
    mask = np.zeros((n, n), dtype=bool)
    mask[np.concatenate((stacked, nxt)), np.concatenate((nxt, stacked))] = True
    return CandidateLists(tuple(frozenset(np.flatnonzero(row).tolist()) for row in mask))


@lru_cache(maxsize=128)
def _invalid_pairs(n: int) -> np.ndarray:
    """2-opt position pairs (i, k) that are no move: k < i + 2, or the two
    edges share a city; read-only, one array per n."""
    i = np.arange(n)
    bad = (i[None, :] - i[:, None]) < 2
    bad[0, n - 1] = True  # edges (t[0],t[1]) and (t[n-1],t[0]) share city t[0]
    bad.setflags(write=False)
    return bad


@lru_cache(maxsize=128)
def _invalid_bias(n: int) -> np.ndarray:
    """inf where `_invalid_pairs(n)` marks a pair, 0.0 elsewhere; read-only."""
    bias = np.where(_invalid_pairs(n), np.inf, 0.0)
    bias.setflags(write=False)
    return bias


@lru_cache(maxsize=128)
def _padded_bias(n: int) -> np.ndarray:
    """`_invalid_bias(n)` in rows of stride n+1, the pad column inf: the
    flat n*(n+1) bias of `_DenseMoves`; read-only, one array per n."""
    bias = np.full((n, n + 1), np.inf)
    bias[:, :n] = _invalid_bias(n)
    bias = bias.ravel()
    bias.setflags(write=False)
    return bias


class _TourOrder:
    """A reused buffer holding a matrix in tour order with row stride n+1.

    After `gather(m, te)`, flat[i*(n+1) + k] = m[te[i], te[k]] for i, k in
    0..n (te closed: te[n] == te[0]), and the last entry is a pad that stays
    0.  The stride puts m[te[i+1], te[k+1]] n+2 entries after m[te[i],
    te[k]], so `first[f]` and `second[f]`, f = i*(n+1) + k < n*(n+1), are
    the two edges that move (i, k) adds, and the same stride from entry 1
    walks the edges the tour holds, ending on the pad (`removed`).
    """

    def __init__(self, n: int, dtype: np.dtype):
        self.flat = np.zeros((n + 1) ** 2 + 1, dtype=dtype)
        self.square = self.flat[:-1].reshape(n + 1, n + 1)
        self.rows = np.empty((n + 1, n), dtype=dtype)
        self.first, self.second = self.flat[: n * (n + 1)], self.flat[n + 2 :]
        # m[te[i], te[i+1]] for i < n, the edge leaving position i, then the pad
        self.removed = self.flat[1 :: n + 2]

    def gather(self, m: np.ndarray, te: np.ndarray) -> None:
        # mode="clip" is safe only because `_check_tour` has validated the
        # ids; with the default mode numpy writes through a buffer
        m.take(te, axis=0, out=self.rows, mode="clip")
        self.rows.take(te, axis=1, out=self.square, mode="clip")


@lru_cache(maxsize=128)
def _positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions 0..n-1 and (pos - 1) mod n; read-only, one pair per n."""
    positions = np.arange(n)
    before = np.roll(positions, 1)
    for arr in (positions, before):
        arr.setflags(write=False)
    return positions, before


def _exchange_deltas(p: np.ndarray) -> np.ndarray:
    """Change of an edge weight sum under every 2-opt exchange (i, k).

    `p` is the weight matrix permuted by the closed tour te (te[n] = te[0]):
    p[i, k] = m[te[i], te[k]].  The exchange adds edges <te[i],te[k]> and
    <te[i+1],te[k+1]> and removes <te[i],te[i+1]> and <te[k],te[k+1]>; the
    terms are summed in that order.
    """
    removed = p.diagonal(1)
    d = p[:-1, :-1] + p[1:, 1:]
    d -= removed[:, None]
    d -= removed[None, :]
    return d


class _Moves:
    """2-opt moves scored per step under one scalarizer.

    A plain linear scalarizer scores the weighted cost sum: the move's float
    delta plus the current value.  Any other scores the point plus the
    move's integer deltas, one column per objective, with
    `Scalarizer.value_columns`, which equals `Scalarizer.value` of the
    stacked (..., J) array bit for bit.  Either way each matrix's deltas get
    an offset added last: the value to the plain kind's one matrix, else
    each objective's component of the point.
    """

    def __init__(self, instance: TspInstance, scalarizer: Scalarizer):
        self.n = instance.n
        self.scalarizer = scalarizer
        self.plain = scalarizer.is_plain_linear
        if self.plain:
            self.costs = [scalarizer.value_columns(*instance._float_costs)]
        else:
            self.costs = list(instance.costs)


class _DenseMoves(_Moves):
    """Every position pair (i, k): the search without candidate lists, and
    the masked scan for lists that list many moves (see `_moves`).

    A step gathers each matrix into tour order (`_TourOrder`, one flat
    buffer of row stride n+1, reused across steps) and scores the moves in
    n rows of n+1 entries, column n a pad: one contiguous add of the two
    added edges, then the removed edges subtracted per row and per column
    through `_TourOrder.removed`, a view of n+1 entries (its pad 0) into the
    same buffer.  A cached 0/inf bias (`_padded_bias`), inf where
    `_invalid_pairs` marks the pair and on the pad column, is added to the
    scalarized values: x + 0.0 == x, so each valid move keeps its bits and
    every other entry reads inf.

    The plain linear kind scores its one weighted matrix (`_plain_values`):
    a step is two `take`s, the add, the two subtractions, the value and bias
    adds and an argmin, on arrays bound once in `__init__`.  At n = 30 these
    eight numpy calls take about 7 us (numpy 2.4, a 2-core x86 host), so the
    plain step keeps the Python around them to one method call, with no
    per-matrix loop.  The other kinds gather and offset one integer matrix
    per objective and scalarize the J delta columns with
    `Scalarizer.value_columns` (`_values`).

    With a candidate bias (`CandidateLists.bias`: 0 where c is in cand(a),
    inf elsewhere), the mask is the bias gathered into tour order with the
    same offsets: `np.minimum` of a move's two added edges reads 0 exactly
    when c is in cand(a) or d is in cand(b), and is added last, so every
    allowed move keeps the bits the move list gives it.  `values` always
    adds it.  `best` first takes the argmin without it and looks the
    winner's two added edges up in the bias; only when neither is listed
    does it gather the mask, add it and take the argmin again.  A listed
    first minimum of the unmasked values is also the first minimum of the
    masked ones, since masking adds 0 to it and 0 or inf elsewhere, so both
    give the same move and value.  The mask buffers are allocated at the
    first step that needs them.

    The arrays that `values` and `best` read are reused, and belong to this
    scorer alone: a returned view is valid only until its next call.
    """

    def __init__(self, instance: TspInstance, scalarizer: Scalarizer, candidate_bias: np.ndarray | None = None):
        super().__init__(instance, scalarizer)
        n = self.n
        self.bias = _padded_bias(n)
        self.order = order = _TourOrder(n, self.costs[0].dtype)
        self.removed = order.removed
        self.removed_col = self.removed[:n, None]
        self.deltas = [np.empty(n * (n + 1), dtype=c.dtype) for c in self.costs]
        self.grids = [d.reshape(n, n + 1) for d in self.deltas]
        self.candidate_bias = candidate_bias
        self.mask_order: _TourOrder | None = None
        self.mask: np.ndarray | None = None
        # what a plain step reads, bound once
        self.plain_scan = (
            self.costs[0], order.rows, order.square, order.first, order.second,
            self.deltas[0], self.grids[0], self.removed_col, self.removed, self.bias,
        )

    def _plain_values(self, te: np.ndarray, value: float) -> np.ndarray:
        """The unmasked values of the plain linear kind, in padded rows: move
        (i, k) at i*(n+1) + k."""
        c, rows, square, first, second, d, grid, removed_col, removed, bias = self.plain_scan
        # mode "clip" is safe only because `_check_tour` has validated the ids
        c.take(te, 0, rows, "clip")
        rows.take(te, 1, square, "clip")
        np.add(first, second, d)
        grid -= removed_col
        grid -= removed
        d += value
        d += bias
        return d

    def _values(self, te: np.ndarray, point: list[int]) -> np.ndarray:
        """The unmasked values of a kind other than plain linear, in padded
        rows: move (i, k) at i*(n+1) + k."""
        order, removed, removed_col = self.order, self.removed, self.removed_col
        first, second = order.first, order.second
        for c, d, grid, offset in zip(self.costs, self.deltas, self.grids, point):
            order.gather(c, te)
            np.add(first, second, out=d)
            grid -= removed_col
            grid -= removed
            d += offset
        vals = self.scalarizer.value_columns(*self.deltas)
        vals += self.bias
        return vals

    def _add_mask(self, vals: np.ndarray, te: np.ndarray) -> None:
        """Add the candidate mask, gathered into tour order, to `vals`."""
        if self.mask is None:
            self.mask_order = _TourOrder(self.n, self.candidate_bias.dtype)
            self.mask = np.empty(self.n * (self.n + 1))
        masks = self.mask_order
        masks.gather(self.candidate_bias, te)
        np.minimum(masks.first, masks.second, out=self.mask)
        vals += self.mask

    def values(self, te: np.ndarray, point: list[int], value: float) -> np.ndarray:
        """The (n, n) value of every move (i, k), inf where `_invalid_pairs`
        marks it or the candidate bias masks it; a view of a reused array."""
        n = self.n
        vals = self._plain_values(te, value) if self.plain else self._values(te, point)
        if self.candidate_bias is not None:
            self._add_mask(vals, te)
        return vals.reshape(n, n + 1)[:, :n]

    def best(self, te: np.ndarray, point: list[int], value: float) -> tuple[int, float]:
        """The best move's flat index i*n + k and its value; ties go to the
        lowest i*n + k, since the pad column reads inf."""
        n = self.n
        vals = self._plain_values(te, value) if self.plain else self._values(te, point)
        at = int(vals.argmin())
        i, k = divmod(at, n + 1)
        bias = self.candidate_bias
        if bias is not None and bias.item(te.item(i), te.item(k)) and bias.item(te.item(i + 1), te.item(k + 1)):
            self._add_mask(vals, te)  # neither added edge is listed
            at = int(vals.argmin())
            i, k = divmod(at, n + 1)
        return i * n + k, vals.item(at)


class _MoveList(_Moves):
    """The moves that candidate lists allow.

    Each directed pair (a, c) gives two moves: (i, k) = (pos a, pos c),
    which adds <a,c> as its first new edge, and ((pos a - 1) mod n,
    (pos c - 1) mod n), which adds it as its second, <b,d>.  A move's delta
    takes the dense kernel's operations in its order: ((m[a,c] + m[b,d]) -
    m[a,b]) - m[c,d].
    """

    def __init__(self, instance: TspInstance, scalarizer: Scalarizer, candidates: CandidateLists):
        super().__init__(instance, scalarizer)
        n = self.n
        self.pa, self.pc = candidates.pairs
        self.flat_costs = [c.ravel() for c in self.costs]
        self.fixed = [c.take(candidates.own_edges) for c in self.flat_costs]
        self.bias = _invalid_bias(n).ravel()
        self.positions, self.before = _positions(n)
        self.pos2 = np.empty(2 * n, dtype=np.int64)  # pos of each city, then pos - 1
        self.nb2 = np.empty(2 * n, dtype=np.int64)  # successor of each city, then predecessor

    def values(self, te: np.ndarray, point: list[int], value: float) -> tuple[np.ndarray, np.ndarray]:
        """(flat, vals): each move's i*n + k and its value, inf where
        `_invalid_pairs` marks it."""
        n, pa, pc, pos2, nb2 = self.n, self.pa, self.pc, self.pos2, self.nb2
        t, succ = te[:-1], te[1:]
        pos2[t] = self.positions
        pos2[n:][t] = self.before
        nb2[t] = succ
        nb2[n:][succ] = t
        i, k = pos2[pa], pos2[pc]
        flat = i * n
        flat += k
        new = nb2[pa] * n
        new += nb2[pc]  # flat index of the move's other new edge
        out = t * n
        out += succ  # flat index of the edge leaving each position
        deltas = []
        for c, fixed, offset in zip(self.flat_costs, self.fixed, (value,) if self.plain else point):
            removed = c[out]
            d = c[new]
            d += fixed
            d -= removed[i]
            d -= removed[k]
            d += offset
            deltas.append(d)
        vals = deltas[0] if self.plain else self.scalarizer.value_columns(*deltas)
        vals += self.bias[flat]
        return flat, vals

    def best(self, te: np.ndarray, point: list[int], value: float) -> tuple[int, float]:
        """As `_DenseMoves.best`: ties go to the lowest i*n + k.  An empty
        move list is a local optimum."""
        if not self.pa.size:
            return 0, np.inf
        flat, vals = self.values(te, point, value)
        best = vals.item(vals.argmin())
        return min(flat[vals == best].tolist()), best


def _moves(instance: TspInstance, scalarizer: Scalarizer, candidates: CandidateLists | None) -> _Moves:
    """The scorer of one search, chosen from the lists and n.

    Without lists, the dense scan.  With lists of P directed pairs, 2P
    listed moves: the masked dense scan, n*(n+1) entries per step, when 2P
    exceeds n²/2; else the move list.  The masked scan gathers its mask only
    at steps whose unmasked winner is unlisted, so its cost per step
    depends on that winner.  Per step under the plain linear scalarizer at
    2P = n²/2 (n = 20..100, 2 and 3 objectives, 2 cores, numpy 2.4), it
    costs 0.50-0.66 of the list when the winner is listed, as at nearly
    every step of a search from a DPX offspring, and 0.71-1.01 when it is
    not.
    """
    if candidates is None:
        return _DenseMoves(instance, scalarizer)
    n = instance.n
    if 2 * candidates.pairs[0].size > n * n:
        return _DenseMoves(instance, scalarizer, candidates.bias)
    return _MoveList(instance, scalarizer, candidates)


def two_opt_local_search(
    instance: TspInstance,
    tour: Sequence[int],
    scalarizer: Scalarizer,
    candidates: CandidateLists | None = None,
    value_trace: list[float] | None = None,
    memo: SearchMemo | None = None,
) -> tuple[np.ndarray, ObjectivePoint]:
    """Steepest-descent 2-opt under a fixed scalarizing function.

    Each step scores the nonadjacent edge pairs, applies the best strictly
    improving exchange, and stops at a local optimum.  With candidate lists
    only the moves whose first new edge <a,c> has c in cand(a), or whose
    second <b,d> has d in cand(b), are allowed.

    Without lists (the engine's initial phase) a step scores all n² position
    pairs.  With lists that give few moves it scores only the moves built
    from the lists' directed pairs, 2 per pair; lists with no pairs make
    every tour a local optimum.  Lists that give many moves (see `_moves`
    for the switch, which nothing else sets) take the dense scan masked by
    the lists; a step masks only when the unmasked winner adds no listed
    edge, since a listed winner is also the masked scan's.  Every path
    gives every move the same float value, from the same elementwise
    operations in the same order, and picks the same move: the minimum,
    ties to the lowest position pair (i, k) in row-major order.  So a
    search with lists follows, bit for bit, the trajectory of the dense
    scan masked by the lists.  The exact integer objective point is updated
    by the chosen move's integer deltas, read as Python ints through
    memoryviews of the cost matrices, and returned with the tour.
    Each step calls the scorer's bound `best` once and rescores the new
    point with `Scalarizer.score`, which gives the bits of the checked
    `scalarizer(point)` that scores the start.

    A `memo` (see `SearchMemo`) keys the search by the tour, the lists and
    the scalarizer: all it reads besides the instance.
    """
    t = _check_tour(instance, tour)
    if memo is not None:
        run = partial(_two_opt, instance, t, scalarizer, candidates)
        return memo.search((t.tobytes(), candidates), scalarizer, value_trace, run)
    return _two_opt(instance, t, scalarizer, candidates, value_trace)


def _two_opt(instance: TspInstance, t: np.ndarray, scalarizer: Scalarizer, candidates, value_trace) -> ArchiveEntry:
    """`two_opt_local_search` from the checked tour `t`."""
    n = instance.n
    te = np.empty(n + 1, dtype=np.int64)  # closed tour: te[n] == te[0]
    te[:n], te[n] = t, t[0]
    t = te[:n]
    if candidates is not None and len(candidates.members) != n:
        raise ValueError(f"candidate lists cover {len(candidates.members)} cities, the instance has {n}")
    edges = t * n  # flat index of each edge <t[i], t[i+1]>
    edges += te[1:]
    point = [int(c.take(edges).sum()) for c in instance.costs]
    value = scalarizer(point)
    if value_trace is not None:
        value_trace.append(value)
    step, rescore = _moves(instance, scalarizer, candidates).best, scalarizer.score
    # zero-copy views of the tour and the flat int64 matrices: indexing one
    # gives a Python int, and the views see every reversal of the tour
    cities, flat_costs = memoryview(te), [memoryview(c.reshape(-1)) for c in instance.costs]
    while True:
        flat, best = step(te, point, value)
        if not best < value - IMPROVEMENT_EPS:
            break
        i, k = divmod(flat, n)
        a, b, c, d = cities[i], cities[i + 1], cities[k], cities[k + 1]
        # reversed through the memoryview, which copies an overlapping
        # slice via a buffer; t[0] never moves, so te[n] stays equal to it
        cities[i + 1 : k + 1] = cities[k:i:-1]
        ac, bd, ab, cd = a * n + c, b * n + d, a * n + b, c * n + d
        point = [z + m[ac] + m[bd] - m[ab] - m[cd] for z, m in zip(point, flat_costs)]
        value = rescore(point)
        if value_trace is not None:
            value_trace.append(value)
    return t.copy(), tuple(map(float, point))


def _edge_set(tour: np.ndarray) -> set[tuple[int, int]]:
    """Undirected edges (a < b) of a closed tour; empty for fewer than 2 cities."""
    t = tour.tolist()
    if len(t) < 2:
        return set()
    return {(a, b) if a < b else (b, a) for a, b in zip(t, t[1:] + t[:1])}


def _common_fragments(n_cities: Sequence[int], common_edges: set[tuple[int, int]]) -> list[list[int]] | None:
    """Split cities into paths of common edges plus singletons.

    Returns None when the common edges already form a full cycle (identical
    parents).
    """
    adj: dict[int, list[int]] = {c: [] for c in n_cities}
    for a, b in common_edges:
        adj[a].append(b)
        adj[b].append(a)
    if common_edges and all(len(adj[c]) == 2 for c in n_cities):
        return None
    fragments: list[list[int]] = []
    seen: set[int] = set()
    for c in n_cities:
        if c in seen or len(adj[c]) == 2:
            continue
        # c is a path endpoint (degree <= 1): walk to the other end
        frag = [c]
        seen.add(c)
        prev, cur = None, c
        while True:
            nbrs = [x for x in adj[cur] if x != prev]
            if not nbrs:
                break
            prev, cur = cur, nbrs[0]
            frag.append(cur)
            seen.add(cur)
        fragments.append(frag)
    return fragments


def _chain_fragments_avoiding(
    fragments: list[list[int]],
    forbidden: set[tuple[int, int]],
    rng: np.random.Generator,
    attempts: int,
) -> list[int] | None:
    """Randomly chain fragments into a cycle using only connectors outside
    `forbidden`; None if every attempt dead-ends.

    A step's options are the ends of the remaining fragments in ascending
    fragment order, each head before its tail, less those that `forbidden`
    joins to the chain's last city; one option is drawn uniformly.
    """
    blocked: dict[int, set[int]] = {c: set() for frag in fragments for c in frag}
    for a, b in forbidden:
        blocked[a].add(b)
        blocked[b].add(a)
    heads = [frag[0] for frag in fragments]
    tails = [frag[-1] if len(frag) > 1 else None for frag in fragments]

    m = len(fragments)
    for _ in range(attempts):
        order = rng.permutation(m).tolist()
        first = fragments[order[0]]
        if len(first) > 1 and rng.random() < 0.5:
            first = first[::-1]
        chain = list(first)
        remaining = sorted(order[1:])
        while remaining:
            shut = blocked[chain[-1]]
            options = []
            for idx in remaining:
                if heads[idx] not in shut:
                    options.append((idx, False))
                if tails[idx] is not None and tails[idx] not in shut:
                    options.append((idx, True))
            if not options:
                break
            idx, flip = options[int(rng.integers(len(options)))]
            chain.extend(fragments[idx][::-1] if flip else fragments[idx])
            remaining.remove(idx)
        else:
            if m == 1 or chain[0] not in blocked[chain[-1]]:
                return chain
    return None


def dpx_recombine(
    parent_a: Sequence[int],
    parent_b: Sequence[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """Distance-preserving crossover.

    The offspring keeps every edge common to both parents; the remaining
    connections are chosen randomly among edges present in neither parent
    (falling back to parent edges only if repeated attempts dead-end), which
    leaves the offspring at equal edge distance from both parents.
    """
    n = np.size(parent_a)
    pa, pb = (integer_ids(p, "parent", "city", n) for p in (parent_a, parent_b))
    cities = pa.tolist()
    ordered = sorted(cities)
    if ordered != sorted(pb.tolist()):
        raise ValueError("parents must visit the same cities")
    if ordered != list(range(n)):
        raise ValueError("parents must visit each city once")
    ea, eb = _edge_set(pa), _edge_set(pb)
    common = ea & eb
    fragments = _common_fragments(cities, common)
    if fragments is None:
        return pa.copy()
    chain = _chain_fragments_avoiding(fragments, ea | eb, rng, _DPX_ATTEMPTS)
    if chain is None:
        chain = _chain_fragments_avoiding(fragments, common, rng, 1)
    return np.asarray(chain, dtype=np.int64)


class TspAdapter(ProblemAdapter):
    """Engine adapter; candidate lists are built after the initial phase and
    restrict 2-opt for the rest of the run."""

    candidates: CandidateLists | None = None

    def random_solution(self, rng: np.random.Generator) -> np.ndarray:
        return random_tour(self.instance, rng)

    def evaluate(self, solution: np.ndarray) -> ObjectivePoint:
        return tsp_evaluate(self.instance, solution)

    def local_search(self, solution: np.ndarray, scalarizer: Scalarizer) -> ArchiveEntry:
        return two_opt_local_search(self.instance, solution, scalarizer, self.candidates, memo=self.memo)

    def recombine(self, parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return dpx_recombine(parent_a, parent_b, rng)

    def end_initial_phase(self, solutions: Sequence[np.ndarray]) -> None:
        super().end_initial_phase(solutions)
        self.candidates = build_candidate_lists(solutions)
