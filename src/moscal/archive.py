"""Unbounded Pareto archive of mutually nondominated objective points."""

from __future__ import annotations

from itertools import compress
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from .scalarizing import ObjectivePoint, as_point, check_integer

__all__ = ["dominates", "ParetoArchive", "ArchiveEntry", "write_points_csv", "read_points_csv"]

ArchiveEntry = tuple[Any, ObjectivePoint]

_INITIAL_CAPACITY = 16  # rows of the point buffer at the first insert


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff a is componentwise <= b and strictly < in at least one place."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


class ParetoArchive:
    """Mutually nondominated (solution, point) pairs, in insertion order.

    A candidate equal (in objectives) to a stored point is rejected even if its
    solution differs, so the archive never holds duplicate points.  Entries
    keep the order they were inserted in as dominated ones drop out;
    `entry(i)`, `points()`, `solutions()` and `points_matrix()` all give that
    order, and the engine's tournament draws by index from it.

    The points fill the first rows of a (capacity, J) float buffer whose
    capacity doubles when it is full, so an insert writes one row instead of
    copying the archive.  Dominance is tested one objective column at a
    time, since numpy reduces over a short last axis far more slowly.
    """

    def __init__(self, n_objectives: int | None = None):
        if n_objectives is not None:
            check_integer(n_objectives, "n_objectives")
            if n_objectives < 2:
                raise ValueError(f"n_objectives must be None or at least 2, got {n_objectives}")
        self.n_objectives = n_objectives
        self._solutions: list[Any] = []
        self._rows = np.empty((0, n_objectives or 0))

    def __len__(self) -> int:
        return len(self._solutions)

    def update(self, solution: Any, point: Sequence[float]) -> bool:
        """Insert unless dominated-or-equal; drop newly dominated entries.

        Returns True iff the stored point set changed.
        """
        pt = as_point(point)
        if self.n_objectives is None:
            self.n_objectives = len(pt)
            self._rows = self._rows.reshape(0, len(pt))
        elif len(pt) != self.n_objectives:
            raise ValueError(f"point has {len(pt)} objectives, archive expects {self.n_objectives}")
        m = len(self._solutions)
        if m:
            stored = self._rows[:m]
            columns = [stored[:, j] for j in range(len(pt))]
            # an entry componentwise <= the candidate either dominates or equals it
            if _everywhere(np.less_equal, columns, pt).any():
                return False
            above = _everywhere(np.greater_equal, columns, pt)
            if above.any():
                keep = ~above
                kept = stored[keep]
                m = len(kept)
                self._rows[:m] = kept
                self._solutions = list(compress(self._solutions, keep.tolist()))
        if m == len(self._rows):
            grown = np.empty((max(2 * m, _INITIAL_CAPACITY), len(pt)))
            grown[:m] = self._rows[:m]
            self._rows = grown
        self._rows[m] = pt
        self._solutions.append(solution)
        return True

    def points_matrix(self) -> np.ndarray:
        """(M, J) array of stored points, a view valid until the next
        `update`; treat as read-only."""
        return self._rows[: len(self._solutions)]

    def points(self) -> list[ObjectivePoint]:
        return [tuple(row) for row in self.points_matrix().tolist()]

    def solutions(self) -> list[Any]:
        return list(self._solutions)

    def entry(self, i: int) -> ArchiveEntry:
        return self._solutions[i], tuple(self.points_matrix()[i].tolist())

    def __iter__(self) -> Iterator[ArchiveEntry]:
        for i in range(len(self._solutions)):
            yield self.entry(i)


def _everywhere(compare: np.ufunc, columns: list[np.ndarray], point: ObjectivePoint) -> np.ndarray:
    """Which rows pass `compare(column, value)` in every objective."""
    passed = compare(columns[0], point[0])
    for column, v in zip(columns[1:], point[1:]):
        passed &= compare(column, v)
    return passed


def _format_value(v: float) -> str:
    # integers stay integers; floats keep full round-trip precision
    v = float(v)
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def write_points_csv(points: Sequence[Sequence[float]] | ParetoArchive, path: str | Path) -> None:
    """CSV export: header obj1..objJ, one point per line, full precision."""
    if isinstance(points, ParetoArchive):
        rows = points.points()
    else:
        rows = [as_point(p) for p in points]
    if not rows:
        raise ValueError("refusing to write an empty point set")
    n_obj = len(rows[0])
    lines = [",".join(f"obj{j + 1}" for j in range(n_obj))]
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_points_csv(path: str | Path) -> list[ObjectivePoint]:
    """Inverse of write_points_csv (round-trips exactly)."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty archive file")
    header = lines[0].split(",")
    if not all(h.strip().startswith("obj") for h in header):
        raise ValueError(f"{path}:1: expected an obj1,...,objJ header, got {lines[0]!r}")
    n_obj = len(header)
    out = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_obj:
            raise ValueError(f"{path}:{i}: expected {n_obj} values, got {len(parts)}")
        try:
            out.append(as_point(float(p) for p in parts))
        except ValueError as exc:
            raise ValueError(f"{path}:{i}: {exc}") from None
    if not out:
        raise ValueError(f"{path}: archive file holds no points")
    return out
