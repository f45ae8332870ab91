"""Instance file formats, loaders and random generators.

Formats (plain text, newline-separated):

* TSP objective file: first line `n`, then n lines `x y`.  Costs are
  nearest-integer Euclidean distances; a J-objective instance is J files.
* Profit file: first line `n`, then n lines of one integer each.
* Set covering file: first line `L I J` (rows, columns, objectives), then J
  blocks of I column costs, then L row blocks `k c_1 ... c_k` of 1-based
  covering-column indices.  Tokens may wrap across lines after the header.

Generators reproduce instance classes (uniform or clustered cities, uniform
profits, random coverage), not any particular published file.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import EXACT_INT_LIMIT
from .scp import ScpInstance
from .tsp import TspInstance
from .tspwp import TspwpInstance

__all__ = [
    "combine_scp3",
    "euclidean_cost_matrix",
    "generate_cluster_coords",
    "generate_euclidean_coords",
    "generate_instance",
    "generate_profits",
    "generate_scp",
    "load_tsp_instance",
    "load_tspwp_instance",
    "ParseError",
    "parse_profits",
    "parse_scp",
    "parse_tsp_objective",
    "write_profits",
    "write_scp",
    "write_tsp_objective",
]

DEFAULT_COORD_RANGE = 3000.0
DEFAULT_CLUSTERS = 6
DEFAULT_PROFIT_RANGE = (1, 100)
GENERATED_OBJECTIVES = 2
_WRAP = 12  # integers per line in set-covering files
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class ParseError(ValueError):
    """Malformed instance file."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line
        self.message = message

    def __reduce__(self):  # pool workers send errors back pickled
        return type(self), (self.path, self.line, self.message)


def _read_lines(path) -> list[str]:
    return Path(path).read_text().splitlines()


def _body_lines(lines: list[str]) -> list[tuple[int, str]]:
    """The nonblank lines after the header, with their 1-based line numbers."""
    return [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]


def _check_int64(path, lineno: int, value: int) -> int:
    """`value` when numpy's int64 holds it, else a ParseError."""
    if _INT64_MIN <= value <= _INT64_MAX:
        return value
    raise ParseError(path, lineno, f"integer {value} is outside the 64-bit range")


def parse_tsp_objective(path) -> np.ndarray:
    """City coordinates from a TSP objective file, shape (n, 2)."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(path, 1, f"expected a city count, got {lines[0]!r}") from None
    if n < 1:
        raise ParseError(path, 1, f"city count must be positive, got {n}")
    body = _body_lines(lines)
    if len(body) != n:
        raise ParseError(path, len(lines), f"expected {n} coordinate lines, found {len(body)}")
    coords = np.empty((n, 2), dtype=float)
    for i, (lineno, line) in enumerate(body):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 'x y', got {line!r}")
        try:
            coords[i] = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise ParseError(path, lineno, f"non-numeric coordinate in {line!r}") from None
    if not np.isfinite(coords).all():
        i, j = np.argwhere(~np.isfinite(coords))[0]
        lineno, line = body[i]
        raise ParseError(path, lineno, f"coordinate {line.split()[j]!r} is not finite")
    return coords


def write_tsp_objective(path, coords) -> Path:
    coords = np.asarray(coords, dtype=float)
    out = Path(path)
    lines = [str(coords.shape[0])]
    lines += [f"{repr(float(x))} {repr(float(y))}" for x, y in coords]
    out.write_text("\n".join(lines) + "\n")
    return out


def euclidean_cost_matrix(coords) -> np.ndarray:
    """Nearest-integer Euclidean distance matrix (TSPLIB EUC_2D rounding)."""
    coords = np.asarray(coords, dtype=float)
    with np.errstate(over="ignore"):  # far-apart cities give inf, rejected below
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
    if dist.size and not dist.max() < EXACT_INT_LIMIT:
        raise ValueError(f"cities lie {dist.max():.6g} apart; distances must stay below 2**53")
    costs = np.floor(dist + 0.5).astype(np.int64)
    np.fill_diagonal(costs, 0)
    return costs


def parse_profits(path) -> np.ndarray:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(path, 1, f"expected a profit count, got {lines[0]!r}") from None
    body = _body_lines(lines)
    if len(body) != n:
        raise ParseError(path, len(lines), f"expected {n} profit lines, found {len(body)}")
    profits = np.empty(n, dtype=np.int64)
    for i, (lineno, line) in enumerate(body):
        try:
            value = int(line)
        except ValueError:
            raise ParseError(path, lineno, f"expected one integer, got {line!r}") from None
        if value < 0:
            raise ParseError(path, lineno, f"profit {value} is negative")
        profits[i] = _check_int64(path, lineno, value)
    return profits


def write_profits(path, profits) -> Path:
    profits = np.asarray(profits, dtype=np.int64)
    out = Path(path)
    out.write_text("\n".join([str(profits.size)] + [str(int(p)) for p in profits]) + "\n")
    return out


def parse_scp(path) -> ScpInstance:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty file")
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError(path, 1, f"expected 'L I J', got {lines[0]!r}")
    try:
        n_rows, n_cols, n_obj = (int(v) for v in header)
    except ValueError:
        raise ParseError(path, 1, f"non-integer header {lines[0]!r}") from None
    if min(n_rows, n_cols, n_obj) < 1:
        raise ParseError(path, 1, f"header values must be positive: {lines[0]!r}")
    tokens: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        tokens += [(lineno, tok) for tok in line.split()]
    cursor = 0

    def take() -> int:
        nonlocal cursor
        if cursor >= len(tokens):
            raise ParseError(path, len(lines), "unexpected end of file")
        lineno, tok = tokens[cursor]
        cursor += 1
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(path, lineno, f"expected an integer, got {tok!r}") from None
        return _check_int64(path, lineno, value)

    costs = np.empty((n_obj, n_cols), dtype=np.int64)
    for j in range(n_obj):
        for i in range(n_cols):
            cost = take()
            if cost < 1:
                raise ParseError(
                    path, tokens[cursor - 1][0],
                    f"objective {j + 1} gives column {i + 1} cost {cost}; costs must be strictly positive",
                )
            costs[j, i] = cost
    coverage = np.zeros((n_rows, n_cols), dtype=bool)
    for row in range(n_rows):
        k = take()
        if k < 1:
            raise ParseError(path, tokens[cursor - 1][0], f"row {row + 1} covered by {k} columns")
        for _ in range(k):
            lineno = tokens[cursor][0] if cursor < len(tokens) else len(lines)
            col = take()
            if not 1 <= col <= n_cols:
                raise ParseError(path, lineno, f"column index {col} out of 1..{n_cols}")
            if coverage[row, col - 1]:
                raise ParseError(path, lineno, f"row {row + 1} lists column {col} twice")
            coverage[row, col - 1] = True
    if cursor != len(tokens):
        raise ParseError(path, tokens[cursor][0], "trailing tokens after last row block")
    try:
        return ScpInstance(costs, coverage)
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def write_scp(path, instance: ScpInstance) -> Path:
    out = Path(path)
    lines = [f"{instance.n_rows} {instance.n_columns} {instance.n_objectives}"]

    def wrapped(values):
        values = [str(int(v)) for v in values]
        for start in range(0, len(values), _WRAP):
            lines.append(" ".join(values[start : start + _WRAP]))

    for j in range(instance.n_objectives):
        wrapped(instance.costs[j])
    for row in range(instance.n_rows):
        cols = instance.row_covers(row)
        wrapped([cols.size] + [int(c) + 1 for c in cols])
    out.write_text("\n".join(lines) + "\n")
    return out


def _load_cost_matrix(path) -> np.ndarray:
    coords = parse_tsp_objective(path)
    try:
        return euclidean_cost_matrix(coords)
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def load_tsp_instance(paths: Sequence) -> TspInstance:
    """A multiobjective TSP instance from one coordinate file per objective."""
    if not paths:
        raise ValueError("need at least one objective file")
    matrices = tuple(_load_cost_matrix(p) for p in paths)
    if len({m.shape[0] for m in matrices}) != 1:
        counts = ", ".join(f"{p} has {m.shape[0]}" for p, m in zip(paths, matrices))
        raise ValueError(f"objective files disagree on city count: {counts}")
    return TspInstance(matrices)


def load_tspwp_instance(coords_path, profits_path) -> TspwpInstance:
    costs = _load_cost_matrix(coords_path)
    profits = parse_profits(profits_path)
    if profits.size != costs.shape[0]:
        raise ValueError(
            f"{profits_path} has {profits.size} profits, which does not match "
            f"the {costs.shape[0]} cities of {coords_path}"
        )
    return TspwpInstance(costs, profits)


def _check_coord_range(coord_range: float) -> None:
    if not (math.isfinite(coord_range) and coord_range > 0):
        raise ValueError(f"coord_range must be positive and finite, got {coord_range}")


def generate_euclidean_coords(
    n: int, rng: np.random.Generator, coord_range: float = DEFAULT_COORD_RANGE
) -> np.ndarray:
    if n < 1:
        raise ValueError("need n >= 1")
    _check_coord_range(coord_range)
    return rng.uniform(0.0, coord_range, size=(n, 2))


def generate_cluster_coords(
    n: int,
    rng: np.random.Generator,
    clusters: int = DEFAULT_CLUSTERS,
    coord_range: float = DEFAULT_COORD_RANGE,
    spread: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clustered cities: uniform centers, normal scatter around a random center.

    Returns (coords, cluster label per city, cluster centers).
    """
    if n < 1 or clusters < 1:
        raise ValueError("need n >= 1 and clusters >= 1")
    _check_coord_range(coord_range)
    if spread is None:
        spread = coord_range / 40.0
    if not (math.isfinite(spread) and spread >= 0):
        raise ValueError(f"spread must be nonnegative and finite, got {spread}")
    centers = rng.uniform(0.0, coord_range, size=(clusters, 2))
    labels = rng.integers(clusters, size=n)
    coords = centers[labels] + rng.normal(0.0, spread, size=(n, 2))
    return coords, labels, centers


def generate_profits(
    n: int,
    rng: np.random.Generator,
    low: int = DEFAULT_PROFIT_RANGE[0],
    high: int = DEFAULT_PROFIT_RANGE[1],
) -> np.ndarray:
    if n < 1 or not 0 < low <= high:
        raise ValueError("need n >= 1 and 0 < low <= high")
    return rng.integers(low, high + 1, size=n)


def generate_scp(
    n_rows: int,
    n_cols: int,
    rng: np.random.Generator,
    density: float = 0.2,
    cost_low: int = 1,
    cost_high: int = 100,
    n_objectives: int = GENERATED_OBJECTIVES,
    min_cover: int = 2,
) -> ScpInstance:
    """Random coverage at the given density; every row ends up covered by at
    least `min_cover` columns (random columns are added to short rows)."""
    if n_rows < 1 or n_cols < min_cover or min_cover < 1:
        raise ValueError("need n_rows >= 1 and n_cols >= min_cover >= 1")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    if not 0 < cost_low <= cost_high:
        raise ValueError("need 0 < cost_low <= cost_high")
    coverage = rng.random((n_rows, n_cols)) < density
    for row in range(n_rows):
        missing = min_cover - int(coverage[row].sum())
        if missing > 0:
            off = np.flatnonzero(~coverage[row])
            coverage[row, rng.choice(off, size=missing, replace=False)] = True
    costs = rng.integers(cost_low, cost_high + 1, size=(n_objectives, n_cols))
    return ScpInstance(costs, coverage)


def combine_scp3(first: ScpInstance, second: ScpInstance) -> ScpInstance:
    """Three-objective instance: objectives 1 and 2 and the coverage come from
    `first`; objective 3 is `second`'s first cost vector."""
    if second.n_columns != first.n_columns:
        raise ValueError(
            f"column counts differ: {first.n_columns} vs {second.n_columns}"
        )
    costs = np.vstack([first.costs, second.costs[:1]])
    return ScpInstance(costs, first.coverage)


def generate_instance(kind: str, out, seed: int, **params) -> list[Path]:
    """Generate and write one instance of the given kind; returns written paths.

    Kinds: `euclidean` and `cluster` write one coordinate file per objective
    (suffix `_objK.tsp`); `profits` writes one profit file; `scp` writes one
    2-objective covering file; `scp3` writes one 3-objective covering file
    built from two generated 2-objective instances sharing the first one's
    coverage.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if kind in ("euclidean", "cluster"):
        n = int(params.pop("n"))
        objectives = int(params.pop("objectives", GENERATED_OBJECTIVES))
        if objectives < 1:
            raise ValueError("need at least one objective")
        paths = []
        for j in range(objectives):
            if kind == "euclidean":
                coords = generate_euclidean_coords(n, rng, **params)
            else:
                coords, _, _ = generate_cluster_coords(n, rng, **params)
            paths.append(write_tsp_objective(f"{out}_obj{j + 1}.tsp", coords))
        return paths
    if kind == "profits":
        n = int(params.pop("n"))
        return [write_profits(f"{out}.profits", generate_profits(n, rng, **params))]
    if kind == "scp":
        rows = int(params.pop("rows"))
        cols = int(params.pop("cols"))
        return [write_scp(f"{out}.scp", generate_scp(rows, cols, rng, **params))]
    if kind == "scp3":
        rows = int(params.pop("rows"))
        cols = int(params.pop("cols"))
        first = generate_scp(rows, cols, rng, **params)
        second = generate_scp(rows, cols, rng, **params)
        return [write_scp(f"{out}.scp", combine_scp3(first, second))]
    raise ValueError(f"unknown instance kind {kind!r}")
