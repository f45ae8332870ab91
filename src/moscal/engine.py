"""Shared evolutionary engine for the four scalarizing-function methods.

Every method runs the same two-phase skeleton: an initial phase of K
independent local searches from random solutions, then G*K main iterations
that each draw a weight vector, pick parents, recombine, local-search the
offspring and update the Pareto archive.  The methods differ only in the
weight schedule and the parent-selection rule:

    momsls   random weights, no recombination (fresh random solution each time)
    mogls    random weights, tournament selection from the archive
    umogls   cyclic uniform weights, tournament selection from the archive
    moead    cyclic uniform weights, neighborhood mating + incumbent updates
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .archive import ArchiveEntry, ParetoArchive
from .scalarizing import (
    ObjectivePoint,
    Scalarizer,
    ScalarizerSpec,
    WeightVector,
    draw_random_weight,
    generate_uniform_weights,
    granularity_for_count,
)

__all__ = [
    "METHODS",
    "MethodConfig",
    "MoeadState",
    "RunResult",
    "ProblemAdapter",
    "RandomWeightSchedule",
    "CyclicWeightSchedule",
    "tournament_size",
    "get_parents_tournament",
    "get_parents_neighborhood",
    "moead_update",
    "run_method",
]

METHODS = ("momsls", "mogls", "umogls", "moead")
_UNIFORM_METHODS = ("umogls", "moead")

IMPROVEMENT_EPS = 1e-9


class ProblemAdapter:
    """Per-run adapter a problem exposes to the engine.

    One instance per run: it may hold run-local state (candidate lists,
    objective ranges) while the underlying problem instance stays immutable
    and shared.  Objective points follow the minimization convention.
    """

    n_objectives: int

    def begin_run(self, rng: np.random.Generator) -> None:
        """Run-start hook (e.g. objective-range estimation)."""

    def random_solution(self, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def evaluate(self, solution: Any) -> ObjectivePoint:
        raise NotImplementedError

    def local_search(self, solution: Any, scalarizer: Scalarizer) -> Any:
        raise NotImplementedError

    def recombine(self, parent_a: Any, parent_b: Any, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def end_initial_phase(self, solutions: Sequence[Any]) -> None:
        """Called once with the local-search results of the initial phase."""

    def normalize_points(self, points: np.ndarray) -> np.ndarray:
        """Map raw objective points into scalarization space (default: identity)."""
        return points

    def default_scalarizer(self) -> ScalarizerSpec:
        return ScalarizerSpec("linear")


@dataclass(frozen=True)
class MethodConfig:
    """Everything one run needs besides the problem itself.

    Every method takes `weight_count` K; for the uniform-weight methods K
    must be a simplex-lattice size C(H+J-1, J-1) with H >= 1.  `main_iterations`
    overrides the G*K main-phase length when experiments need an exact total
    iteration budget across different K.
    """

    method: str
    objectives: int
    generations: int
    weight_count: int | None = None
    scalarizer: ScalarizerSpec | None = None
    expected_rank: float = 10.0
    neighborhood_size: int = 20
    mating_probability: float = 0.9
    max_replacements: int = 2
    seed: int = 0
    main_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.objectives < 2:
            raise ValueError("need at least 2 objectives")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.weight_count is None or self.weight_count < 1:
            raise ValueError(f"{self.method} needs weight_count >= 1")
        if self.method in _UNIFORM_METHODS and granularity_for_count(self.objectives, self.weight_count) < 1:
            raise ValueError(f"{self.method} needs at least {self.objectives} weights, got {self.weight_count}")
        if self.expected_rank < 1:
            raise ValueError("expected_rank must be >= 1")
        if self.neighborhood_size < 2:
            raise ValueError("neighborhood_size must be >= 2")
        if self.method == "moead" and self.neighborhood_size > self.weight_count:
            raise ValueError(
                f"moead neighborhood_size {self.neighborhood_size} exceeds weight count {self.weight_count}"
            )
        if not 0.0 <= self.mating_probability <= 1.0:
            raise ValueError("mating_probability must be in [0, 1]")
        if self.max_replacements < 1:
            raise ValueError("max_replacements must be >= 1")
        if self.main_iterations is not None and self.main_iterations < 0:
            raise ValueError("main_iterations must be >= 0")

    def total_iterations(self) -> int:
        k = self.weight_count
        return k + (self.main_iterations if self.main_iterations is not None else self.generations * k)


@dataclass
class RunResult:
    archive: ParetoArchive
    iteration_count: int
    wallclock_s: float
    config: MethodConfig


class RandomWeightSchedule:
    """Fresh uniform-simplex weight vector on every call."""

    def __init__(self, n_objectives: int, rng: np.random.Generator):
        self.n_objectives = n_objectives
        self._rng = rng

    def next_weight(self) -> WeightVector:
        return draw_random_weight(self.n_objectives, self._rng)


class CyclicWeightSchedule:
    """Cycles through a fixed weight list; wraps around past the end."""

    def __init__(self, vectors: Sequence[WeightVector]):
        if not vectors:
            raise ValueError("cyclic schedule needs at least one weight vector")
        self.vectors = list(vectors)
        self._calls = 0

    @property
    def index(self) -> int:
        """Index of the weight returned by the most recent next_weight call."""
        return (self._calls - 1) % len(self.vectors)

    def next_weight(self) -> WeightVector:
        w = self.vectors[self._calls % len(self.vectors)]
        self._calls += 1
        return w


def tournament_size(archive_size: int, expected_rank: float) -> int:
    """T = round(3M / (2 Er)), clamped to [2, M].

    Derived from Er ~= 3|X_E| / (2T): drawing T of M archive members and
    keeping the two best gives the winners expected ranks (M+1)/(T+1) and
    2(M+1)/(T+1), i.e. an average close to the requested expected rank.
    """
    if archive_size < 2:
        raise ValueError("tournament needs an archive of at least 2")
    if expected_rank < 1:
        raise ValueError("expected_rank must be >= 1")
    t = round(3.0 * archive_size / (2.0 * expected_rank))
    return max(2, min(int(t), archive_size))


def get_parents_tournament(
    archive: ParetoArchive,
    scalarizer: Scalarizer,
    expected_rank: float,
    rng: np.random.Generator,
) -> tuple[ArchiveEntry, ArchiveEntry]:
    """Draw T distinct archive entries, return the two best under `scalarizer`."""
    m = len(archive)
    if m < 2:
        raise ValueError(f"archive has {m} entries, tournament needs at least 2")
    t = tournament_size(m, expected_rank)
    idx = rng.choice(m, size=t, replace=False)
    values = scalarizer.value(archive.points_matrix()[idx])
    order = np.argsort(values, kind="stable")
    return archive.entry(int(idx[order[0]])), archive.entry(int(idx[order[1]]))


@dataclass
class MoeadState:
    """Subproblem weights, their neighborhoods, and one incumbent per weight."""

    weights: list[WeightVector]
    neighbors: np.ndarray  # (K, N) indices, row i sorted by distance then index
    incumbents: list[ArchiveEntry | None] = field(default_factory=list)

    @classmethod
    def build(cls, weights: Sequence[WeightVector], neighborhood_size: int) -> "MoeadState":
        k = len(weights)
        if neighborhood_size > k:
            raise ValueError(f"neighborhood_size {neighborhood_size} exceeds weight count {k}")
        mat = np.array([w.lambdas for w in weights])
        cols = np.ascontiguousarray(mat.T)
        neigh = np.empty((k, neighborhood_size), dtype=np.int64)
        chunk = max(1, 2_000_000 // max(k, 1))
        for start in range(0, k, chunk):
            block = mat[start : start + chunk]
            # squared distances summed one objective at a time, left to right
            d2 = (block[:, 0, None] - cols[0]) ** 2
            for j in range(1, cols.shape[0]):
                d2 += (block[:, j, None] - cols[j]) ** 2
            for r in range(block.shape[0]):
                order = np.lexsort((np.arange(k), d2[r]))
                neigh[start + r] = order[:neighborhood_size]
        return cls(list(weights), neigh, [None] * k)


def get_parents_neighborhood(
    state: MoeadState,
    index: int,
    mating_probability: float,
    rng: np.random.Generator,
) -> tuple[ArchiveEntry, ArchiveEntry, np.ndarray]:
    """Mating scope is B(index) with probability delta, else all subproblems.

    Returns two distinct incumbents drawn uniformly from the scope, plus the
    scope itself (moead_update reuses it).
    """
    k = len(state.weights)
    if rng.random() < mating_probability:
        scope = state.neighbors[index]
    else:
        scope = np.arange(k)
    a, b = rng.choice(scope, size=2, replace=False)
    pa, pb = state.incumbents[int(a)], state.incumbents[int(b)]
    if pa is None or pb is None:
        raise ValueError("moead incumbents not initialized")
    return pa, pb, scope


def moead_update(
    state: MoeadState,
    offspring: ArchiveEntry,
    scope: np.ndarray,
    spec: ScalarizerSpec,
    nr: int,
    rng: np.random.Generator,
    reference: np.ndarray | None = None,
    transform: Any = None,
) -> int:
    """Visit the scope in random order, replacing incumbents the offspring
    strictly improves under their own weights; stop after nr replacements."""
    _, off_point = offspring
    replaced = 0
    for pos in rng.permutation(len(scope)):
        j = int(scope[pos])
        s_j = _bind(state.weights[j], spec, reference, transform)
        inc = state.incumbents[j]
        if inc is None:
            raise ValueError("moead incumbents not initialized")
        if s_j(off_point) < s_j(inc[1]):
            state.incumbents[j] = offspring
            replaced += 1
            if replaced >= nr:
                break
    return replaced


def _bind(
    weights: WeightVector,
    spec: ScalarizerSpec,
    reference: np.ndarray | None,
    transform: Any,
) -> Scalarizer:
    return Scalarizer(weights, spec, reference, transform)


def _streams(seed: int) -> dict[str, np.random.Generator]:
    names = ("weights", "construct", "select", "recombine", "problem")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.default_rng(ss) for name, ss in zip(names, children)}


def run_method(config: MethodConfig, problem: ProblemAdapter) -> RunResult:
    """Run one method once; fully deterministic given config.seed."""
    if config.objectives != problem.n_objectives:
        raise ValueError(
            f"config expects {config.objectives} objectives, problem has {problem.n_objectives}"
        )
    t0 = time.perf_counter()
    rngs = _streams(config.seed)
    problem.begin_run(rngs["problem"])
    spec = config.scalarizer if config.scalarizer is not None else problem.default_scalarizer()
    transform = None if type(problem).normalize_points is ProblemAdapter.normalize_points else problem.normalize_points

    if config.method in _UNIFORM_METHODS:
        granularity = granularity_for_count(config.objectives, config.weight_count)
        vectors = generate_uniform_weights(config.objectives, granularity)
        schedule: RandomWeightSchedule | CyclicWeightSchedule = CyclicWeightSchedule(vectors)
    else:
        schedule = RandomWeightSchedule(config.objectives, rngs["weights"])
    k_init = config.weight_count

    state = MoeadState.build(schedule.vectors, config.neighborhood_size) if config.method == "moead" else None
    archive = ParetoArchive(config.objectives)
    reference: np.ndarray | None = None

    def image(point: ObjectivePoint) -> np.ndarray:
        arr = np.asarray(point, dtype=float)
        return transform(arr) if transform is not None else arr

    initial_solutions = []
    for k in range(k_init):
        lam = schedule.next_weight()
        x0 = problem.random_solution(rngs["construct"])
        if reference is None:
            reference = image(problem.evaluate(x0)).copy()
        s = _bind(lam, spec, reference, transform)
        x = problem.local_search(x0, s)
        z = problem.evaluate(x)
        reference = np.minimum(reference, image(z))
        archive.update(x, z)
        if state is not None:
            state.incumbents[k] = (x, z)
        initial_solutions.append(x)
    problem.end_initial_phase(initial_solutions)

    n_main = config.main_iterations if config.main_iterations is not None else config.generations * k_init
    for _ in range(n_main):
        lam = schedule.next_weight()
        s = _bind(lam, spec, reference, transform)
        scope = None
        if config.method == "momsls":
            x0 = problem.random_solution(rngs["construct"])
        elif config.method == "moead":
            pa, pb, scope = get_parents_neighborhood(
                state, schedule.index, config.mating_probability, rngs["select"]
            )
            x0 = problem.recombine(pa[0], pb[0], rngs["recombine"])
        else:  # mogls / umogls
            if len(archive) >= 2:
                ea, eb = get_parents_tournament(archive, s, config.expected_rank, rngs["select"])
            else:
                ea = eb = archive.entry(0)
            x0 = problem.recombine(ea[0], eb[0], rngs["recombine"])
        x = problem.local_search(x0, s)
        z = problem.evaluate(x)
        reference = np.minimum(reference, image(z))
        archive.update(x, z)
        if state is not None:
            moead_update(
                state, (x, z), scope, spec, config.max_replacements, rngs["select"], reference, transform
            )
    return RunResult(archive, k_init + n_main, time.perf_counter() - t0, config)
