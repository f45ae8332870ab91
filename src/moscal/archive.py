"""Unbounded Pareto archive of mutually nondominated objective points."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from .scalarizing import ObjectivePoint, as_point

__all__ = ["dominates", "ParetoArchive", "ArchiveEntry", "write_points_csv", "read_points_csv"]

ArchiveEntry = tuple[Any, ObjectivePoint]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff a is componentwise <= b and strictly < in at least one place."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


class ParetoArchive:
    """Flat list of (solution, point) pairs, kept mutually nondominated.

    A candidate equal (in objectives) to a stored point is rejected even if its
    solution differs, so the archive never holds duplicate points.
    """

    def __init__(self, n_objectives: int | None = None):
        self.n_objectives = n_objectives
        self._solutions: list[Any] = []
        self._points = np.empty((0, n_objectives or 0), dtype=float)

    def __len__(self) -> int:
        return len(self._solutions)

    def update(self, solution: Any, point: Sequence[float]) -> bool:
        """Insert unless dominated-or-equal; drop newly dominated entries.

        Returns True iff the stored point set changed.
        """
        pt = as_point(point)
        if self.n_objectives is None:
            self.n_objectives = len(pt)
            self._points = self._points.reshape(0, len(pt))
        elif len(pt) != self.n_objectives:
            raise ValueError(f"point has {len(pt)} objectives, archive expects {self.n_objectives}")
        row = np.asarray(pt, dtype=float)
        if len(self._solutions):
            # an entry componentwise <= the candidate either dominates or equals it
            if bool(((self._points <= row).all(axis=1)).any()):
                return False
            keep = ~(self._points >= row).all(axis=1)
            if not keep.all():
                self._points = self._points[keep]
                self._solutions = [s for s, k in zip(self._solutions, keep) if k]
        self._points = np.vstack([self._points, row[None, :]])
        self._solutions.append(solution)
        return True

    def points_matrix(self) -> np.ndarray:
        """(M, J) array of stored points; treat as read-only."""
        return self._points

    def points(self) -> list[ObjectivePoint]:
        return [tuple(float(v) for v in row) for row in self._points]

    def solutions(self) -> list[Any]:
        return list(self._solutions)

    def entry(self, i: int) -> ArchiveEntry:
        return self._solutions[i], tuple(float(v) for v in self._points[i])

    def __iter__(self) -> Iterator[ArchiveEntry]:
        for i in range(len(self._solutions)):
            yield self.entry(i)


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
