"""Multiobjective symmetric TSP: evaluation, 2-opt local search, DPX.

Tours are numpy int arrays holding a permutation of 0..n-1 (visiting order,
closed cyclically).  Cost matrices are symmetric nonnegative integers, one per
objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .engine import IMPROVEMENT_EPS, ProblemAdapter
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


@dataclass(frozen=True)
class TspInstance:
    """J symmetric integer cost matrices over the same n >= 4 cities."""

    costs: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.costs) < 1:
            raise ValueError("instance needs at least one cost matrix")
        mats = tuple(np.ascontiguousarray(np.asarray(c, dtype=np.int64)) for c in self.costs)
        n = mats[0].shape[0]
        if n < 4:
            raise ValueError("instance needs at least 4 cities")
        for m in mats:
            if m.shape != (n, n):
                raise ValueError("cost matrices disagree on size")
            if (m < 0).any():
                raise ValueError("costs must be nonnegative")
            if (m != m.T).any():
                raise ValueError("cost matrices must be symmetric")
            if np.diagonal(m).any():
                raise ValueError("self-distances must be zero")
        object.__setattr__(self, "costs", mats)

    @property
    def n(self) -> int:
        return self.costs[0].shape[0]

    @property
    def n_objectives(self) -> int:
        return len(self.costs)


def _check_tour(instance: TspInstance, tour: np.ndarray) -> np.ndarray:
    t = np.asarray(tour, dtype=np.int64)
    if t.shape != (instance.n,) or len(np.unique(t)) != instance.n:
        raise ValueError("tour must be a permutation of all cities")
    return t


def tsp_evaluate(instance: TspInstance, tour: Sequence[int]) -> ObjectivePoint:
    """Cyclic edge-sum per objective."""
    t = _check_tour(instance, tour)
    nxt = np.roll(t, -1)
    return tuple(float(c[t, nxt].sum()) for c in instance.costs)


def random_tour(instance: TspInstance, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(instance.n)


@dataclass(frozen=True)
class CandidateLists:
    """Per-city candidate neighbors; symmetric when built from tours.

    2-opt reads the lists as a directed boolean matrix (`mask`): `matrix()`
    builds it on first use and the lists keep it, so a run that shares one
    `CandidateLists` across its local searches builds it once.
    """

    members: tuple[frozenset[int], ...]

    def matrix(self) -> np.ndarray:
        n = len(self.members)
        m = np.zeros((n, n), dtype=bool)
        for a, cands in enumerate(self.members):
            for b in cands:
                m[a, b] = True
        return m

    @cached_property
    def mask(self) -> np.ndarray:
        """`matrix()`, built once and read-only."""
        m = self.matrix()
        m.setflags(write=False)
        return m


def build_candidate_lists(tours: Sequence[Sequence[int]]) -> CandidateLists:
    """Union of tour adjacencies over the given tours."""
    if not len(tours):
        raise ValueError("need at least one tour to build candidate lists")
    first = np.asarray(tours[0])
    n = len(first)
    sets: list[set[int]] = [set() for _ in range(n)]
    for tour in tours:
        t = np.asarray(tour, dtype=np.int64)
        if len(t) != n:
            raise ValueError("tours disagree on city count")
        nxt = np.roll(t, -1)
        for a, b in zip(t, nxt):
            sets[int(a)].add(int(b))
            sets[int(b)].add(int(a))
    return CandidateLists(tuple(frozenset(s) for s in sets))


@lru_cache(maxsize=128)
def _invalid_pairs(n: int) -> np.ndarray:
    """2-opt position pairs (i, k) that are no move: k < i + 2, or the two
    edges share a city; read-only, one array per n."""
    i = np.arange(n)
    bad = (i[None, :] - i[:, None]) < 2
    bad[0, n - 1] = True  # edges (t[0],t[1]) and (t[n-1],t[0]) share city t[0]
    bad.setflags(write=False)
    return bad


def _exchange_deltas(p: np.ndarray) -> np.ndarray:
    """Change of an edge weight sum under every 2-opt exchange (i, k).

    `p` is the weight matrix permuted by the closed tour te (te[n] = te[0]):
    p[i, k] = m[te[i], te[k]].  The exchange adds edges <te[i],te[k]> and
    <te[i+1],te[k+1]> and removes <te[i],te[i+1]> and <te[k],te[k+1]>; the
    terms are summed in that order.
    """
    removed = np.diagonal(p, 1)
    d = p[:-1, :-1] + p[1:, 1:]
    d -= removed[:, None]
    d -= removed[None, :]
    return d


def two_opt_local_search(
    instance: TspInstance,
    tour: Sequence[int],
    scalarizer: Scalarizer,
    candidates: CandidateLists | None = None,
    value_trace: list[float] | None = None,
) -> np.ndarray:
    """Steepest-descent 2-opt under a fixed scalarizing function.

    Each step scans all nonadjacent edge pairs (restricted to moves whose
    first new edge <a,c> has c in cand(a) or whose second <b,d> has d in
    cand(b), when candidate lists are given), applies the best strictly
    improving exchange, and stops at a local optimum.

    A step gathers each weight matrix once, permuted into tour order, and
    reads every exchange's delta from it; the candidate mask comes from
    `CandidateLists.mask`, built once per lists object, and is permuted the
    same way.  Among equal best moves the lowest position pair (i, k) in
    row-major order wins.
    """
    t = _check_tour(instance, tour)
    n = instance.n
    te = np.empty(n + 1, dtype=np.int64)  # closed tour: te[n] == te[0]
    te[:n], te[n] = t, t[0]
    t = te[:n]
    if candidates is not None and len(candidates.members) != n:
        raise ValueError(f"candidate lists cover {len(candidates.members)} cities, the instance has {n}")
    invalid = _invalid_pairs(n)
    cand = candidates.mask if candidates is not None else None
    point = np.array([c[t, te[1:]].sum() for c in instance.costs], dtype=np.int64)
    value = scalarizer(point)
    if value_trace is not None:
        value_trace.append(value)
    plain = scalarizer.is_plain_linear
    w = None
    if plain:
        w = sum(float(l) * c for l, c in zip(scalarizer.weights, instance.costs))
    while True:
        if plain:
            cand_vals = _exchange_deltas(w[te][:, te])
            cand_vals += value
        else:
            deltas = np.empty((n, n, len(instance.costs)), dtype=np.int64)
            for j, c in enumerate(instance.costs):
                deltas[:, :, j] = _exchange_deltas(c[te][:, te])
            cand_vals = scalarizer.value(point[None, None, :] + deltas)
        if cand is None:
            cand_vals[invalid] = np.inf
        else:
            ok = cand[te][:, te]
            excluded = ~(ok[:-1, :-1] | ok[1:, 1:])
            excluded |= invalid
            cand_vals[excluded] = np.inf
        flat = int(np.argmin(cand_vals))
        i, k = divmod(flat, n)
        best = cand_vals[i, k]
        if not best < value - IMPROVEMENT_EPS:
            break
        t[i + 1 : k + 1] = t[i + 1 : k + 1][::-1]  # t[0] never moves, so te[n] stays equal to it
        if plain:
            # resync the exact integer objective point after the reversal
            point = np.array([c[t, te[1:]].sum() for c in instance.costs], dtype=np.int64)
        else:
            point = point + deltas[i, k]
        value = scalarizer(point)
        if value_trace is not None:
            value_trace.append(value)
    return t.copy()


def _edge_set(tour: np.ndarray) -> set[tuple[int, int]]:
    """Undirected edges (a < b) of a closed tour; empty for fewer than 2 cities."""
    if tour.size < 2:
        return set()
    nxt = np.roll(tour, -1)
    return {(int(a), int(b)) if a < b else (int(b), int(a)) for a, b in zip(tour, nxt)}


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
    `forbidden`; None if every attempt dead-ends."""

    def edge(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    m = len(fragments)
    for _ in range(attempts):
        order = list(rng.permutation(m))
        first = fragments[order[0]]
        if len(first) > 1 and rng.random() < 0.5:
            first = first[::-1]
        chain = list(first)
        remaining = set(order[1:])
        dead = False
        while remaining:
            tail = chain[-1]
            options = []
            for idx in remaining:
                frag = fragments[idx]
                if edge(tail, frag[0]) not in forbidden:
                    options.append((idx, False))
                if len(frag) > 1 and edge(tail, frag[-1]) not in forbidden:
                    options.append((idx, True))
            if not options:
                dead = True
                break
            idx, flip = options[int(rng.integers(len(options)))]
            frag = fragments[idx][::-1] if flip else fragments[idx]
            chain.extend(frag)
            remaining.discard(idx)
        if dead:
            continue
        if m > 1 and edge(chain[-1], chain[0]) in forbidden:
            continue
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
    pa = np.asarray(parent_a, dtype=np.int64)
    pb = np.asarray(parent_b, dtype=np.int64)
    if sorted(pa.tolist()) != sorted(pb.tolist()):
        raise ValueError("parents must visit the same cities")
    ea, eb = _edge_set(pa), _edge_set(pb)
    common = ea & eb
    fragments = _common_fragments(pa.tolist(), common)
    if fragments is None:
        return pa.copy()
    chain = _chain_fragments_avoiding(fragments, ea | eb, rng, _DPX_ATTEMPTS)
    if chain is None:
        chain = _chain_fragments_avoiding(fragments, common, rng, 1)
    return np.asarray(chain, dtype=np.int64)


class TspAdapter(ProblemAdapter):
    """Engine adapter; candidate lists are built after the initial phase and
    restrict 2-opt for the rest of the run."""

    def __init__(self, instance: TspInstance):
        self.instance = instance
        self.n_objectives = instance.n_objectives
        self.candidates: CandidateLists | None = None

    def random_solution(self, rng: np.random.Generator) -> np.ndarray:
        return random_tour(self.instance, rng)

    def evaluate(self, solution: np.ndarray) -> ObjectivePoint:
        return tsp_evaluate(self.instance, solution)

    def local_search(self, solution: np.ndarray, scalarizer: Scalarizer) -> np.ndarray:
        return two_opt_local_search(self.instance, solution, scalarizer, self.candidates)

    def recombine(self, parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return dpx_recombine(parent_a, parent_b, rng)

    def end_initial_phase(self, solutions: Sequence[np.ndarray]) -> None:
        self.candidates = build_candidate_lists(solutions)
