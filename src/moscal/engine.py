"""Shared evolutionary engine for the four scalarizing-function methods.

Every method runs one loop of K + G*K iterations (K initial, then the main
phase).  Iteration t takes a weight vector, builds a starting solution,
local-searches it under that weight, and updates the reference point and the
Pareto archive with the returned pair.  The methods differ only in two rules:

    weight rule   random: a fresh uniform draw from the simplex (momsls, mogls)
                  uniform: lattice[t % K] (umogls, moead)
    start rule    a random solution while t < K, and always for momsls;
                  otherwise recombined parents: tournament from the archive
                  (mogls, umogls) or the neighborhood of subproblem t % K
                  (moead, which then updates the incumbents it mated from)

After iteration K-1 the adapter's `end_initial_phase` sees the K initial
local optima.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

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
    "tournament_size",
    "get_parents_tournament",
    "get_parents_neighborhood",
    "moead_update",
    "run_method",
]

METHODS = ("momsls", "mogls", "umogls", "moead")
_UNIFORM_METHODS = ("umogls", "moead")

IMPROVEMENT_EPS = 1e-9

# objective values are floats, which hold every integer below 2**53 exactly
EXACT_INT_LIMIT = 2**53


def check_exact_integers(bound: int, what: str) -> None:
    """Reject an instance whose integer objective sums may reach 2**53."""
    if bound >= EXACT_INT_LIMIT:
        raise ValueError(f"{what} is {bound}, at or above 2**53, where float objectives skip integers")


def check_integer(value: Any, what: str) -> None:
    """Reject a count or seed that is no Python or numpy integer; a float
    such as 1.5 would fail later, deep inside a loop or numpy."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _is_int64(v: Any) -> bool:
    """True for a Python or numpy integer, or an integral finite float, that
    int64 holds."""
    if isinstance(v, (int, np.integer)):
        return -(2**63) <= v < 2**63
    if isinstance(v, (float, np.floating)):
        return math.isfinite(v) and v == math.floor(v) and -(2.0**63) <= v < 2.0**63
    return False


def integer_array(values: Any, what: str) -> np.ndarray:
    """`values` as a C-contiguous int64 array of the same shape.

    Integral floats such as 2.0 pass.  A ValueError names the first entry,
    in row-major order, that int64 does not hold exactly: a fraction, nan,
    inf, 2**63 or more, or no number at all.  A plain int64 cast would
    truncate 1.7 to 1, and fail on inf inside numpy."""
    a = np.asarray(values)
    kind = a.dtype.kind
    if kind in "bi":
        bad = None
    elif kind == "u":
        bad = a >= 2**63
    elif kind == "f":
        bad = ~((a == np.floor(a)) & (a >= -(2.0**63)) & (a < 2.0**63))
    else:  # Python ints beyond uint64, or other objects
        bad = np.array([not _is_int64(v) for v in a.ravel().tolist()], dtype=bool).reshape(a.shape)
    if bad is not None and bad.any():
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        index = at[0] if len(at) == 1 else at
        raise ValueError(f"{what} holds {a[at]} at index {index}, which is not an int64 integer")
    return np.ascontiguousarray(a, dtype=np.int64)


def integer_ids(seq: Sequence[int], what: str, noun: str) -> np.ndarray:
    """A 1-D int or float array of integer ids; a ValueError names the first
    id that is not a finite integer.  Int arrays take no per-element pass."""
    t = np.asarray(seq)
    if t.ndim != 1:
        raise ValueError(f"{what} must be a flat sequence of {noun} ids")
    if t.dtype.kind in "iu":
        return t
    if t.dtype.kind != "f":
        raise ValueError(f"{what} must hold integer {noun} ids, not {t.dtype}")
    fractional = np.flatnonzero((t != np.floor(t)) | np.isinf(t))
    if fractional.size:
        raise ValueError(f"{what} holds id {t[fractional[0]]}, which is not an integer {noun} id")
    return t


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

    def local_search(self, solution: Any, scalarizer: Scalarizer) -> ArchiveEntry:
        """(local optimum, its objective point), the point equal to `evaluate` of the optimum."""
        raise NotImplementedError

    def recombine(self, parent_a: Any, parent_b: Any, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def end_initial_phase(self, solutions: Sequence[Any]) -> None:
        """Called once with the local optima of the initial phase."""

    def scalarizing_transform(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """Map from raw objective points into scalarization space, or None for
        the identity; read once per run, after `begin_run`.

        The map must be elementwise and nondecreasing in each objective, as
        `ObjectiveRanges.normalize` is: local searches rely on a scalarizer
        that never falls when an objective grows (see `Scalarizer`)."""
        return None

    def default_scalarizer(self) -> ScalarizerSpec:
        return ScalarizerSpec("linear")


# the counts and the seed of a run; weight_count and main_iterations may be None
_INTEGER_FIELDS = (
    "objectives", "generations", "weight_count", "neighborhood_size", "max_replacements", "seed", "main_iterations"
)


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
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if value is not None:
                check_integer(value, name)
        if self.objectives < 2:
            raise ValueError("need at least 2 objectives")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.weight_count is None or self.weight_count < 1:
            raise ValueError(f"{self.method} needs weight_count >= 1")
        if self.method in _UNIFORM_METHODS and granularity_for_count(self.objectives, self.weight_count) < 1:
            raise ValueError(f"{self.method} needs at least {self.objectives} weights, got {self.weight_count}")
        if not self.expected_rank >= 1:  # nan fails this too
            raise ValueError(f"expected_rank must be >= 1, got {self.expected_rank}")
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def total_iterations(self) -> int:
        k = self.weight_count
        return k + (self.main_iterations if self.main_iterations is not None else self.generations * k)


@dataclass
class RunResult:
    archive: ParetoArchive
    iteration_count: int
    wallclock_s: float


def tournament_size(archive_size: int, expected_rank: float) -> int:
    """T = round(3M / (2 Er)), clamped to [2, M].

    Derived from Er ~= 3|X_E| / (2T): drawing T of M archive members and
    keeping the two best gives the winners expected ranks (M+1)/(T+1) and
    2(M+1)/(T+1), i.e. an average close to the requested expected rank.
    """
    if archive_size < 2:
        raise ValueError("tournament needs an archive of at least 2")
    if not expected_rank >= 1:  # nan fails this too
        raise ValueError(f"expected_rank must be >= 1, got {expected_rank}")
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
    strictly improves under their own weights; stop after nr replacements.

    The scope holds distinct subproblems, as `get_parents_neighborhood`
    returns it.  One scalarizer over the visited weights, stacked, scores
    the offspring and every incumbent before the visit; each row has the
    bits of a scalarizer bound to that weight alone.
    """
    visit = scope[rng.permutation(len(scope))].tolist()
    incumbents = [state.incumbents[j] for j in visit]
    if any(inc is None for inc in incumbents):
        raise ValueError("moead incumbents not initialized")
    s = _bind([state.weights[j] for j in visit], spec, reference, transform)
    better = s.value(offspring[1]) < s.value([inc[1] for inc in incumbents])
    hits = np.flatnonzero(better)[:nr].tolist()
    for r in hits:
        state.incumbents[visit[r]] = offspring
    return len(hits)


def _bind(
    weights: WeightVector | Sequence[WeightVector],
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
    transform = problem.scalarizing_transform()
    spec = config.scalarizer if config.scalarizer is not None else problem.default_scalarizer()
    k = config.weight_count
    lattice = None
    if config.method in _UNIFORM_METHODS:
        lattice = generate_uniform_weights(config.objectives, granularity_for_count(config.objectives, k))
    state = MoeadState.build(lattice, config.neighborhood_size) if config.method == "moead" else None
    archive = ParetoArchive(config.objectives)
    reference: np.ndarray | None = None
    initial_solutions = []

    def image(point: ObjectivePoint) -> np.ndarray:
        arr = np.asarray(point, dtype=float)
        return transform(arr) if transform is not None else arr

    n_iterations = config.total_iterations()
    for t in range(n_iterations):
        if lattice is not None:
            lam = lattice[t % k]
        else:
            lam = draw_random_weight(config.objectives, rngs["weights"])
        random_start = t < k or config.method == "momsls"
        if random_start:
            x0 = problem.random_solution(rngs["construct"])
            if reference is None:
                reference = image(problem.evaluate(x0)).copy()
        s = _bind(lam, spec, reference, transform)
        if not random_start:
            if state is not None:
                pa, pb, scope = get_parents_neighborhood(
                    state, t % k, config.mating_probability, rngs["select"]
                )
            elif len(archive) >= 2:
                pa, pb = get_parents_tournament(archive, s, config.expected_rank, rngs["select"])
            else:
                pa = pb = archive.entry(0)
            x0 = problem.recombine(pa[0], pb[0], rngs["recombine"])
        entry = x, z = problem.local_search(x0, s)
        reference = np.minimum(reference, image(z))
        archive.update(x, z)
        if t < k:
            initial_solutions.append(x)
            if state is not None:
                state.incumbents[t] = entry
            if t == k - 1:
                problem.end_initial_phase(initial_solutions)
        elif state is not None:
            moead_update(
                state, entry, scope, spec, config.max_replacements, rngs["select"], reference, transform
            )
    return RunResult(archive, n_iterations, time.perf_counter() - t0)
