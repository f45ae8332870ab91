"""Multiobjective set covering: evaluation, greedy repair, local search, crossover.

Solutions are frozensets of selected column indices.  The local-search
neighborhood removes one selected column at a time and greedily repairs the
cover with that column excluded, so every move yields a genuinely different
solution; the best strictly-improving repaired neighbor is applied (steepest
descent).  A step scores all removals with one batched scalarizer call and
reuses each scored point's value: the scalarizer's values do not depend on
the shape of the array, so a row of a batch equals the point scored alone.
Recombination keeps the parents' common columns, adds each
single-parent column with probability 1/2, then covers any remaining rows
with uniformly random covering columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .engine import IMPROVEMENT_EPS, ProblemAdapter, check_exact_integers
from .scalarizing import ObjectivePoint, Scalarizer

__all__ = [
    "CoverSolution",
    "RepairError",
    "ScpAdapter",
    "ScpInstance",
    "greedy_repair",
    "random_cover",
    "scp_evaluate",
    "scp_local_search",
    "scp_recombine",
]

CoverSolution = frozenset


class RepairError(RuntimeError):
    """No admissible column can cover a remaining uncovered row."""


@dataclass(frozen=True)
class ScpInstance:
    """Set covering instance: `coverage[l, i]` is True when column i covers row l.

    `costs` has one row per objective and one entry per column; all costs are
    strictly positive and every row must be coverable.
    """

    costs: np.ndarray
    coverage: np.ndarray

    def __post_init__(self) -> None:
        costs = np.ascontiguousarray(np.asarray(self.costs, dtype=np.int64))
        coverage = np.ascontiguousarray(np.asarray(self.coverage, dtype=bool))
        if costs.ndim != 2 or coverage.ndim != 2:
            raise ValueError("costs and coverage must be 2-D")
        if costs.shape[1] != coverage.shape[1]:
            raise ValueError(
                f"costs describe {costs.shape[1]} columns, coverage {coverage.shape[1]}"
            )
        if costs.shape[0] < 1 or costs.shape[1] < 1 or coverage.shape[0] < 1:
            raise ValueError("need at least one objective, column and row")
        if not (costs > 0).all():
            raise ValueError("column costs must be strictly positive")
        if not coverage.any(axis=1).all():
            raise ValueError("every row must be covered by at least one column")
        for j, row in enumerate(costs.tolist()):
            check_exact_integers(sum(row), f"the sum of objective {j + 1}'s column costs")
        costs.setflags(write=False)
        coverage.setflags(write=False)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "coverage", coverage)

    @property
    def n_rows(self) -> int:
        return self.coverage.shape[0]

    @property
    def n_columns(self) -> int:
        return self.coverage.shape[1]

    @property
    def n_objectives(self) -> int:
        return self.costs.shape[0]

    def row_covers(self, row: int) -> np.ndarray:
        """Indices of the columns covering `row`, ascending."""
        return self._row_covers[row]

    @cached_property
    def _row_covers(self) -> tuple[np.ndarray, ...]:
        return tuple(np.flatnonzero(line) for line in self.coverage)

    @cached_property
    def _column_costs(self) -> np.ndarray:
        """(n_columns, J) float costs; `take` of its rows is a fast gather."""
        return np.ascontiguousarray(self.costs.T, dtype=float)


def _as_columns(instance: ScpInstance, solution: Iterable[int]) -> np.ndarray:
    cols = np.asarray(sorted(solution), dtype=np.int64)
    if cols.size and (cols[0] < 0 or cols[-1] >= instance.n_columns):
        raise ValueError("column index out of range")
    if cols.size != len(set(cols.tolist())):
        raise ValueError("duplicate column in solution")
    return cols


def _covered_rows(instance: ScpInstance, cols: np.ndarray) -> np.ndarray:
    if cols.size == 0:
        return np.zeros(instance.n_rows, dtype=bool)
    return instance.coverage[:, cols].any(axis=1)


def scp_evaluate(instance: ScpInstance, solution: Iterable[int]) -> ObjectivePoint:
    """Per-objective cost sums of a feasible cover."""
    cols = _as_columns(instance, solution)
    if not _covered_rows(instance, cols).all():
        raise ValueError("infeasible cover: some rows are uncovered")
    return tuple(float(v) for v in instance.costs[:, cols].sum(axis=1))


def _repair(
    instance: ScpInstance,
    scalarizer: Scalarizer,
    point: np.ndarray,
    value: float,
    uncovered: np.ndarray,
    allowed: np.ndarray,
) -> tuple[list[int], float]:
    """Greedy insertions that cover the `uncovered` rows.

    `value` is the scalarizing value of `point` (float cost sums).  Returns
    the insertions in order and the value of the repaired point; `point` is
    advanced in place to the repaired cover's sums and `uncovered` is used
    up.  Each insertion scores its candidates with one `value` call, and the
    value of the point it picks is the next insertion's base.  The
    per-column count of newly covered rows is computed once and then reduced
    by the rows each insertion gains.  Returns only once the uncovered-row
    count reaches zero, so the extended selection is always a cover.
    """
    picks: list[int] = []
    remaining = int(np.count_nonzero(uncovered))
    if not remaining:
        return picks, value
    coverage, column_costs = instance.coverage, instance._column_costs
    newly = coverage[uncovered].sum(axis=0)
    while True:
        candidates = ((newly > 0) & allowed).nonzero()[0]
        if candidates.size == 0:
            raise RepairError("no admissible column covers the remaining rows")
        vals = scalarizer.value(column_costs.take(candidates, axis=0) + point)
        best = int(((vals - value) / newly[candidates]).argmin())
        pick = int(candidates[best])
        picks.append(pick)
        point += column_costs[pick]
        value = vals[best]
        remaining -= int(newly[pick])
        if remaining <= 0:
            return picks, float(value)
        gained = uncovered & coverage[:, pick]
        uncovered ^= gained
        newly -= coverage[gained].sum(axis=0)


def greedy_repair(
    instance: ScpInstance,
    partial: Iterable[int],
    scalarizer: Scalarizer,
    excluded: int | None = None,
) -> CoverSolution:
    """Extend `partial` to a feasible cover, never inserting `excluded`.

    While uncovered rows remain, insert the column with the lowest ratio of
    scalarizing-value increase to number of newly covered rows (ties go to
    the lowest column index).
    """
    cols = _as_columns(instance, partial)
    allowed = np.ones(instance.n_columns, dtype=bool)
    if excluded is not None:
        if not 0 <= excluded < instance.n_columns:
            raise ValueError("excluded column out of range")
        allowed[excluded] = False
    point = instance.costs[:, cols].sum(axis=1).astype(float)
    uncovered = ~_covered_rows(instance, cols)
    picks, _ = _repair(instance, scalarizer, point, scalarizer(point), uncovered, allowed)
    return frozenset(cols.tolist()).union(picks)


def scp_local_search(
    instance: ScpInstance,
    solution: Iterable[int],
    scalarizer: Scalarizer,
    value_trace: list[float] | None = None,
) -> CoverSolution:
    """Steepest-descent removal-and-repair search from a feasible cover.

    Each step tentatively removes every selected column in turn, repairs the
    cover with that column excluded, and applies the best repaired neighbor
    if it strictly improves the scalarizing value: the removals are walked
    in column order, and a neighbor is taken only when its value is below
    the best so far by more than `IMPROVEMENT_EPS`.

    Per step, the per-row cover counts and the integer cost sums of the
    current cover are computed once.  Every removal's point, the sums minus
    the column's costs, is one row of a (c, J) array, scored with one
    `Scalarizer.value` call.  A removal that leaves no row uncovered is then
    scored.  One that uncovers a single row takes that row's other covering
    columns as candidates, each covering one new row, so the insertion is
    the argmin of the value increases and the neighbor's value is that of
    the point it picks.  One that uncovers more rows runs the greedy repair,
    whose last insertion gives the neighbor's value.  Costs are integers, so
    every float point equals `scp_evaluate` of its cover exactly.
    """
    coverage, costs, column_costs = instance.coverage, instance.costs, instance._column_costs
    current = frozenset(_as_columns(instance, solution).tolist())
    value = scalarizer(scp_evaluate(instance, current))
    if value_trace is not None:
        value_trace.append(value)
    allowed = np.ones(instance.n_columns, dtype=bool)
    while True:
        cols = np.asarray(sorted(current), dtype=np.int64)
        selected = coverage[:, cols]
        counts = selected.sum(axis=1)
        # recounted from scratch: guards the repair's incremental bookkeeping
        if not counts.all():
            raise RuntimeError("local search reached an infeasible cover")
        # lonely[:, i]: the rows that removing cols[i] uncovers
        lonely = selected & (counts == 1)[:, None]
        n_lonely = lonely.sum(axis=0).tolist()
        first = lonely.argmax(axis=0).tolist()
        chosen = costs[:, cols]
        points = (chosen.sum(axis=1) - chosen.T).astype(float)
        removal_values = scalarizer.value(points)
        best_value = value
        best: tuple[int, list[int]] | None = None
        for i, col in enumerate(cols.tolist()):
            if n_lonely[i] == 0:
                picks, neighbor_value = [], removal_values[i]
            elif n_lonely[i] == 1:
                candidates = instance.row_covers(first[i])
                candidates = candidates[candidates != col]
                if candidates.size == 0:
                    continue
                vals = scalarizer.value(column_costs.take(candidates, axis=0) + points[i])
                pick = int((vals - removal_values[i]).argmin())
                picks, neighbor_value = [int(candidates[pick])], vals[pick]
            else:
                allowed[col] = False
                try:
                    picks, neighbor_value = _repair(
                        instance, scalarizer, points[i], removal_values[i], lonely[:, i].copy(), allowed
                    )
                except RepairError:
                    continue
                finally:
                    allowed[col] = True
            if neighbor_value < best_value - IMPROVEMENT_EPS:
                best_value = float(neighbor_value)
                best = (col, picks)
        if best is None:
            return current
        col, picks = best
        current, value = (current - {col}).union(picks), best_value
        if value_trace is not None:
            value_trace.append(value)


def scp_recombine(
    parent_a: Iterable[int],
    parent_b: Iterable[int],
    rng: np.random.Generator,
    instance: ScpInstance,
) -> CoverSolution:
    """Common columns, plus each single-parent column with probability 1/2,
    plus uniformly random covering columns for any rows still uncovered."""
    a = frozenset(_as_columns(instance, parent_a).tolist())
    b = frozenset(_as_columns(instance, parent_b).tolist())
    selected = set(a & b)
    for col in sorted(a ^ b):
        if rng.random() < 0.5:
            selected.add(col)
    covered = _covered_rows(instance, np.asarray(sorted(selected), dtype=np.int64))
    return _cover_remaining(instance, range(instance.n_rows), selected, covered, rng)


def random_cover(instance: ScpInstance, rng: np.random.Generator) -> CoverSolution:
    """Visit rows in random order; cover each still-uncovered row with a
    uniformly random covering column."""
    covered = np.zeros(instance.n_rows, dtype=bool)
    return _cover_remaining(instance, rng.permutation(instance.n_rows), set(), covered, rng)


def _cover_remaining(
    instance: ScpInstance,
    rows: Iterable[int],
    selected: set[int],
    covered: np.ndarray,
    rng: np.random.Generator,
) -> CoverSolution:
    """Visit `rows` in order and cover each one `covered` does not mark yet
    with a uniformly random covering column; updates `selected` and `covered`."""
    for row in rows:
        if covered[row]:
            continue
        pick = int(rng.choice(instance.row_covers(int(row))))
        selected.add(pick)
        covered |= instance.coverage[:, pick]
    return frozenset(selected)


class ScpAdapter(ProblemAdapter):
    """Engine adapter for a set covering instance."""

    def __init__(self, instance: ScpInstance) -> None:
        self.instance = instance
        self.n_objectives = instance.n_objectives

    def random_solution(self, rng: np.random.Generator) -> CoverSolution:
        return random_cover(self.instance, rng)

    def evaluate(self, solution: CoverSolution) -> ObjectivePoint:
        return scp_evaluate(self.instance, solution)

    def local_search(self, solution: CoverSolution, scalarizer: Scalarizer) -> CoverSolution:
        return scp_local_search(self.instance, solution, scalarizer)

    def recombine(
        self, parent_a: CoverSolution, parent_b: CoverSolution, rng: np.random.Generator
    ) -> CoverSolution:
        return scp_recombine(parent_a, parent_b, rng, self.instance)
