"""Multiobjective set covering: evaluation, greedy repair, local search, crossover.

Solutions are frozensets of selected column indices.  The local-search
neighborhood removes one selected column at a time and greedily repairs the
cover with that column excluded, so every move yields a genuinely different
solution; the best strictly-improving repaired neighbor is applied (steepest
descent).  A step scores all removals with one batched scalarizer call, and
the first repair insertion of every removal with a second one, and reuses
each scored point's value: the scalarizer's values do not depend on the
shape of the array, so an entry of a batch equals the point scored alone.
Recombination keeps the parents' common columns, adds each
single-parent column with probability 1/2, then covers any remaining rows
with uniformly random covering columns.

The search skips work that cannot change its choice.  Column costs are
strictly positive and the `Scalarizer` is nondecreasing in each objective
in floats, so each insertion of a repair scores at least the value before
it, and every neighbor of a removal scores at least the removal itself.  A
removal whose own value is not below the walk's bound (the best value so
far minus `IMPROVEMENT_EPS`) is skipped, and a repair stops at the first
insertion that reaches the bound.  The walk would reject both neighbors, so
covers and value traces are the same as with every neighbor repaired in
full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable

import numpy as np

from .engine import (
    IMPROVEMENT_EPS, ArchiveEntry, ProblemAdapter, SearchMemo, check_exact_integers, integer_array, integer_ids
)
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
        costs = integer_array(self.costs, "cost matrix")
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

    @cached_property
    def _objective_costs(self) -> tuple[np.ndarray, ...]:
        """One (n_columns,) float cost row per objective."""
        return tuple(np.asarray(self.costs, dtype=float))

    @cached_property
    def _coverage_float(self) -> np.ndarray:
        """`coverage` as 0.0/1.0; a matmul with it counts covered rows exactly."""
        return self.coverage.astype(float)


def _as_columns(instance: ScpInstance, solution: Iterable[int]) -> np.ndarray:
    cols = integer_ids(sorted(solution), "solution", "column", instance.n_columns)
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
    bound: float = math.inf,
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

    The one exception: after the first insertion whose value is not below
    `bound`, returns no insertions and that value, with `point` advanced
    only that far.  Costs are positive and the scalarizer is nondecreasing
    in each objective, so the later insertions could only raise the value:
    the finished repair would not be below `bound` either.  The default
    bound never stops a repair.

    `scp_local_search` makes the first insertion of every removal itself, in
    one batch per step, by this rule: the same integer row counts, the same
    elementwise values, the lowest column of tied ratios and the same bound.
    It calls `_repair` only to go on from a first insertion that stays below
    the bound and leaves rows uncovered.
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
        if value >= bound:
            return [], float(value)
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
    memo: SearchMemo | None = None,
) -> tuple[CoverSolution, ObjectivePoint]:
    """Steepest-descent removal-and-repair search from a feasible cover.

    Each step tentatively removes every selected column in turn, repairs the
    cover with that column excluded, and applies the best repaired neighbor
    if it strictly improves the scalarizing value: the removals are walked
    in column order, and a neighbor is taken only when its value is below
    the best so far by more than `IMPROVEMENT_EPS`.

    Per step, the per-row cover counts and the integer cost sums of the
    current cover are computed once; on the first step they also check that
    the start is a cover and give its point.  Every removal's point, the
    sums minus the column's costs, is one row of a (c, J) array, scored with
    one `Scalarizer.value` call.  The first greedy insertion of every
    removal is then scored in one batch, with the ratio rule of `_repair`:
    - the newly covered row counts of all (removal, column) pairs are one
      matmul of the 0/1 matrix of the rows each removal uncovers with the
      0/1 float coverage; every count is an integer no larger than the row
      count, so the float sums are exact in any order;
    - the values of all (removal, column) insertions are one
      `Scalarizer.value_columns` call on per-objective (c, N) columns, whose
      elementwise operations give each point the bits of `_repair`'s `value`
      call;
    - the ratios start from `np.where(newly > 0, vals, inf)` with inf also
      on the removed column, so columns that cover no uncovered row and the
      removed one stay inf through the subtraction and the division (inf / 0
      is inf), and the others get the expression of `_repair`; each
      removal's first pick is its row's `argmin`, which takes the lowest
      column of tied ratios as `_repair` does, and an inf minimum means that
      no admissible column covers the rows.

    A removal that leaves no row uncovered is scored by its own value.  For
    any other, the batch's first pick gives the neighbor when it covers
    every uncovered row, as it always does for a single one; otherwise
    `_repair` continues from it, and its last insertion gives the
    neighbor's value.  Costs are integers, so every point, the returned one
    too, equals `scp_evaluate` of its cover.

    Each removal is held to the bound `best_value - IMPROVEMENT_EPS` of the
    walk at that point.  Its neighbor is the removal's point plus positive
    costs, and the scalarizer is nondecreasing in each objective in floats,
    so the neighbor scores at least the removal's value, and at least the
    value after any of its repair's insertions.  A removal whose value is
    not below the bound is therefore skipped, one whose first insertion
    reaches the bound is dropped without a repair, and a longer repair
    stops once it reaches the bound (see `_repair`).  The walk rejects
    exactly these neighbors, so every decision is the same as with all
    neighbors repaired in full.

    A `memo` keys the search by the start cover and the scalarizer.
    """
    current = frozenset(_as_columns(instance, solution).tolist())
    if memo is not None:
        return memo.search(current, scalarizer, value_trace, partial(_scp_search, instance, current, scalarizer))
    return _scp_search(instance, current, scalarizer, value_trace)


def _scp_search(instance: ScpInstance, current: CoverSolution, scalarizer: Scalarizer, value_trace) -> ArchiveEntry:
    """`scp_local_search` from the checked start `current`."""
    coverage, costs, column_costs = instance.coverage, instance.costs, instance._column_costs
    value = None
    allowed = np.ones(instance.n_columns, dtype=bool)
    while True:
        cols = np.asarray(sorted(current), dtype=np.int64)
        selected = coverage[:, cols]
        counts = selected.sum(axis=1)
        if not counts.all():
            if value is None:
                raise ValueError("infeasible cover: some rows are uncovered")
            # recounted from scratch: guards the repair's incremental bookkeeping
            raise RuntimeError("local search reached an infeasible cover")
        chosen = costs[:, cols]
        sums = chosen.sum(axis=1)
        if value is None:
            value = scalarizer(sums.tolist())
            if value_trace is not None:
                value_trace.append(value)
        # lonely[:, i]: the rows that removing cols[i] uncovers
        lonely = selected & (counts == 1)[:, None]
        points = (sums - chosen.T).astype(float)
        removal_values = scalarizer.value(points)
        # the first insertion of every removal, in one batch: newly[i, k] is
        # the number of the rows of lonely[:, i] that column k covers
        newly = lonely.T @ instance._coverage_float
        vals = scalarizer.value_columns(*(p[:, None] + c for p, c in zip(points.T, instance._objective_costs)))
        ratios = np.where(newly > 0.0, vals, math.inf)
        ratios[np.arange(cols.size), cols] = math.inf
        ratios -= removal_values[:, None]
        ratios /= newly
        firsts = ratios.argmin(axis=1).tolist()
        n_lonely = lonely.sum(axis=0).tolist()
        removal_values = removal_values.tolist()
        best_value = value
        best: tuple[int, list[int]] | None = None
        for i, col in enumerate(cols.tolist()):
            bound = best_value - IMPROVEMENT_EPS
            if not removal_values[i] < bound:
                continue
            if n_lonely[i] == 0:
                picks, neighbor_value = [], removal_values[i]
            else:
                pick = firsts[i]
                neighbor_value = vals[i, pick]
                # an inf ratio: no admissible column covers the rows
                if not (ratios[i, pick] < math.inf and neighbor_value < bound):
                    continue
                picks = [pick]
                if newly[i, pick] < n_lonely[i]:
                    allowed[col] = False
                    try:
                        more, neighbor_value = _repair(
                            instance, scalarizer, points[i] + column_costs[pick], neighbor_value,
                            lonely[:, i] & ~coverage[:, pick], allowed, bound,
                        )
                    except RepairError:
                        continue
                    finally:
                        allowed[col] = True
                    picks += more
            if neighbor_value < bound:
                best_value = float(neighbor_value)
                best = (col, picks)
        if best is None:
            return current, tuple(float(v) for v in sums)
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

    def random_solution(self, rng: np.random.Generator) -> CoverSolution:
        return random_cover(self.instance, rng)

    def evaluate(self, solution: CoverSolution) -> ObjectivePoint:
        return scp_evaluate(self.instance, solution)

    def local_search(self, solution: CoverSolution, scalarizer: Scalarizer) -> ArchiveEntry:
        return scp_local_search(self.instance, solution, scalarizer, memo=self.memo)

    def recombine(
        self, parent_a: CoverSolution, parent_b: CoverSolution, rng: np.random.Generator
    ) -> CoverSolution:
        return scp_recombine(parent_a, parent_b, rng, self.instance)
