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
