import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moscal.archive import ParetoArchive, dominates, read_points_csv, write_points_csv


def brute_force_nondominated(points):
    """Oracle: distinct points not dominated by any other point in the list."""
    distinct = sorted(set(points))
    out = set()
    for p in distinct:
        if not any(dominates(q, p) for q in distinct if q != p):
            out.add(p)
    return out


def test_dominates_basics():
    assert dominates((1.0, 2.0), (2.0, 2.0))
    assert dominates((1.0, 2.0), (1.5, 3.0))
    assert not dominates((1.0, 2.0), (1.0, 2.0))  # equal: no strict component
    assert not dominates((1.0, 3.0), (2.0, 2.0))  # incomparable
    assert not dominates((2.0, 2.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        dominates((1.0, 2.0), (1.0, 2.0, 3.0))


def test_update_keeps_mutually_nondominated_points():
    a = ParetoArchive()
    assert a.update("s1", (2.0, 3.0)) is True
    assert a.update("s2", (3.0, 2.0)) is True
    assert len(a) == 2
    # dominated candidate: rejected, archive untouched
    assert a.update("s3", (4.0, 4.0)) is False
    assert set(a.points()) == {(2.0, 3.0), (3.0, 2.0)}
    # dominating candidate sweeps out both
    assert a.update("s4", (1.0, 1.0)) is True
    assert a.points() == [(1.0, 1.0)]
    assert a.solutions() == ["s4"]


def test_duplicate_points_rejected_even_with_new_solution():
    a = ParetoArchive()
    assert a.update("x", (5.0, 1.0)) is True
    assert a.update("y", (5.0, 1.0)) is False
    assert len(a) == 1
    assert a.entry(0) == ("x", (5.0, 1.0))


def test_incomparable_point_inserted_without_removals():
    a = ParetoArchive()
    a.update(0, (1.0, 5.0))
    a.update(1, (5.0, 1.0))
    assert a.update(2, (3.0, 3.0)) is True
    assert len(a) == 3


def test_update_dimension_mismatch():
    a = ParetoArchive()
    a.update(0, (1.0, 2.0))
    with pytest.raises(ValueError):
        a.update(1, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        a.update(1, (1.0, float("nan")))


def test_archive_matches_brute_force_on_random_sequences():
    rng = np.random.default_rng(42)
    for trial in range(200):
        j = int(rng.integers(2, 4))
        m = int(rng.integers(1, 60))
        # small integer grid to force plenty of duplicates and dominance
        pts = [tuple(float(v) for v in rng.integers(0, 8, size=j)) for _ in range(m)]
        a = ParetoArchive()
        seen = set()
        for i, p in enumerate(pts):
            before = set(a.points())
            changed = a.update(i, p)
            after = set(a.points())
            assert changed == (before != after)  # return value means "set changed"
            seen.add(p)
        result = set(a.points())
        assert result == brute_force_nondominated(pts)
        # invariants: mutual nondominance, no duplicates
        assert len(result) == len(a)
        for p, q in itertools.combinations(result, 2):
            assert not dominates(p, q) and not dominates(q, p)


class FrozenVstackArchive:
    """Oracle: the archive as first written, every point row stacked anew
    with `np.vstack` on each insert and compacted with a boolean index."""

    def __init__(self, n_objectives):
        self.solutions = []
        self.points = np.empty((0, n_objectives))

    def update(self, solution, point):
        row = np.asarray(point, dtype=float)
        if self.solutions:
            if bool(((self.points <= row).all(axis=1)).any()):
                return False
            keep = ~(self.points >= row).all(axis=1)
            if not keep.all():
                self.points = self.points[keep]
                self.solutions = [s for s, k in zip(self.solutions, keep) if k]
        self.points = np.vstack([self.points, row[None, :]])
        self.solutions.append(solution)
        return True


def archive_order_sequences(rng):
    """(J, points) insert sequences: random grids full of duplicates and
    exact ties, a front long enough to grow the buffer several times,
    dominance chains up and down, a front cut by two points, and points
    equal in all objectives but one."""
    for j in (2, 3):
        pad = (0,) * (j - 2)
        for _ in range(40):
            grid = int(rng.integers(2, 9))
            yield j, [tuple(rng.integers(0, grid, size=j).tolist()) for _ in range(int(rng.integers(1, 80)))]
        front = [(i, 150 - i) + (i % 7,) * (j - 2) for i in range(150)]
        yield j, [front[i] for i in rng.permutation(150)]
        chain = [(k,) * j for k in range(40)]
        yield j, chain  # every point dominated by the first
        yield j, chain[::-1]  # every point dominates the archive
        cut = [(i, 60 - i) + pad for i in range(60)]
        yield j, cut + [(20, 20) + pad, (10, 10) + pad] + cut
        yield j, [(3,) * j] + [tuple(3 - (i == pos) for i in range(j)) for pos in range(j)] + [(3,) * j, (2,) * j]


def test_archive_keeps_the_order_and_bytes_of_the_frozen_vstack_archive():
    # the tournament draws archive entries by index, so the stored order,
    # not only the point set, decides every later run of the engine
    rng = np.random.default_rng(25)
    compactions = grown = 0
    for j, sequence in archive_order_sequences(rng):
        for archive in (ParetoArchive(), ParetoArchive(j)):
            frozen = FrozenVstackArchive(j)
            for i, point in enumerate(sequence):
                point = tuple(float(v) for v in point)
                before = len(frozen.solutions)
                changed = archive.update(i, point)
                assert changed is frozen.update(i, point), (j, i, point)
                compactions += len(frozen.solutions) < before + changed
                assert archive.solutions() == frozen.solutions, (j, i)
                assert archive.points() == [tuple(row) for row in frozen.points.tolist()], (j, i)
                matrix = archive.points_matrix()
                assert matrix.shape == frozen.points.shape and matrix.tobytes() == frozen.points.tobytes(), (j, i)
                assert len(archive) == len(frozen.solutions)
            assert list(archive) == [archive.entry(i) for i in range(len(archive))]
            grown = max(grown, len(archive))
    assert compactions > 100 and grown >= 150


@pytest.mark.parametrize("n_objectives", [0, 1, -3, 2.5, 2.0, True, "3", (2,)], ids=repr)
def test_archive_rejects_an_objective_count_below_two_or_not_an_integer(n_objectives):
    with pytest.raises(ValueError, match="n_objectives"):
        ParetoArchive(n_objectives)


def test_archive_takes_numpy_integer_objective_counts():
    a = ParetoArchive(np.int64(3))
    assert a.update("s", (1.0, 2.0, 3.0)) and a.points() == [(1.0, 2.0, 3.0)]


def test_csv_round_trip(tmp_path):
    a = ParetoArchive()
    a.update(0, (1500.0, 2250.5))
    a.update(1, (1600.0, 2100.0))
    path = tmp_path / "archive.csv"
    write_points_csv(a, path)
    text = path.read_text()
    assert text.splitlines()[0] == "obj1,obj2"
    assert "1500," in text  # integral values written as integers
    assert read_points_csv(path) == a.points()


def test_csv_round_trip_full_precision(tmp_path):
    pts = [(0.1 + 0.2, 7.0), (1e-17, 123456789.125)]
    path = tmp_path / "p.csv"
    write_points_csv(pts, path)
    assert read_points_csv(path) == [tuple(p) for p in pts]


def test_csv_empty_archive_is_an_error(tmp_path):
    with pytest.raises(ValueError):
        write_points_csv(ParetoArchive(), tmp_path / "nope.csv")


def test_csv_malformed_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("obj1,obj2\n1,2,3\n")
    with pytest.raises(ValueError):
        read_points_csv(p)
    p.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        read_points_csv(p)
    p.write_text("obj1,obj2\n")
    with pytest.raises(ValueError, match="bad.csv: archive file holds no points"):
        read_points_csv(p)
    # a bad value names its file and line
    for text, line, message in (
        ("obj1,obj2\n1.0,2.0\n1.0,x\n", 3, "could not convert string to float: 'x'"),
        ("obj1,obj2\n\n1.0,inf\n", 3, "objective point has non-finite component: (1.0, inf)"),
        ("obj1\n1.0\n", 2, "objective point needs at least 2 components, got 1"),
    ):
        p.write_text(text)
        with pytest.raises(ValueError) as info:
            read_points_csv(p)
        assert str(info.value) == f"{p}:{line}: {message}"


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=120, deadline=None)
def test_archive_property_equals_oracle(int_points):
    pts = [tuple(float(v) for v in p) for p in int_points]
    a = ParetoArchive()
    for i, p in enumerate(pts):
        a.update(i, p)
    assert set(a.points()) == brute_force_nondominated(pts)


@given(st.lists(st.floats(0, 100), min_size=2, max_size=4), st.data())
@settings(max_examples=80, deadline=None)
def test_dominates_properties(a, data):
    a = tuple(a)
    assert not dominates(a, a)
    b = tuple(data.draw(st.lists(st.floats(0, 100), min_size=len(a), max_size=len(a))))
    if dominates(a, b):
        assert not dominates(b, a)  # antisymmetry
