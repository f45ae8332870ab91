import itertools

import numpy as np
import pytest

from moscal.indicators import (
    R_WEIGHT_GRANULARITY,
    WilcoxonResult,
    hypervolume,
    r_measure,
    r_weight_set,
    union_reference_points,
    wilcoxon_signed_rank,
)
from moscal.scalarizing import generate_uniform_weights


def oracle_r(points, weights, ref):
    values = []
    for w in weights:
        values.append(
            min(max(w[j] * (p[j] - ref[j]) for j in range(len(ref))) for p in points)
        )
    return sum(values) / len(values)


def grid_hv(points, ref):
    """Exact dominated volume for integer points by unit-cell counting."""
    dims = len(ref)
    count = 0
    for cell in itertools.product(*(range(int(ref[d])) for d in range(dims))):
        if any(all(p[d] <= cell[d] for d in range(dims)) for p in points):
            count += 1
    return float(count)


def oracle_wilcoxon(diffs):
    """Brute-force two-sided p over all sign assignments."""
    n = len(diffs)
    abs_d = sorted((abs(d), i) for i, d in enumerate(diffs))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs_d[j + 1][0] == abs_d[i][0]:
            j += 1
        for k in range(i, j + 1):
            ranks[abs_d[k][1]] = (i + j) / 2 + 1
        i = j + 1
    observed = sum(r for r, d in zip(ranks, diffs) if d > 0)
    stats = []
    for signs in itertools.product((0, 1), repeat=n):
        stats.append(sum(r for r, s in zip(ranks, signs) if s))
    p_low = sum(1 for s in stats if s <= observed) / len(stats)
    p_high = sum(1 for s in stats if s >= observed) / len(stats)
    return observed, min(1.0, 2 * min(p_low, p_high))


def frozen_r_measure(points, weights, reference):
    """R with the chebycheff max taken by one broadcast over all objectives."""
    diff = np.asarray(points, dtype=float) - np.asarray(reference, dtype=float)
    lam = np.asarray(weights, dtype=float)
    total = 0.0
    for start in range(0, lam.shape[0], 256):
        chunk = lam[start : start + 256]
        values = (chunk[:, None, :] * diff[None, :, :]).max(axis=2)
        total += float(values.min(axis=1).sum())
    return total / lam.shape[0]


def frozen_staircase(pts, ref):
    """The kept staircase points and their area terms, from a plain loop."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    kept = []
    best_y = np.inf
    for i in order:
        x, y = pts[i]
        if y < best_y:
            kept.append((float(x), float(y)))
            best_y = y
    terms = []
    for i, (x, y) in enumerate(kept):
        next_x = kept[i + 1][0] if i + 1 < len(kept) else float(ref[0])
        terms.append((next_x - x) * (float(ref[1]) - y))
    return terms


def frozen_area(pts, ref):
    area = 0.0
    for term in frozen_staircase(pts, ref):
        area += term
    return area


def frozen_hypervolume(points, ref):
    mat = np.asarray(points, dtype=float)
    if mat.shape[1] == 2:
        return frozen_area(mat, ref)
    levels = np.unique(mat[:, 2])
    volume = 0.0
    for t, level in enumerate(levels):
        upper = levels[t + 1] if t + 1 < levels.size else float(ref[2])
        layer = mat[mat[:, 2] <= level, :2]
        volume += frozen_area(layer, ref[:2]) * (float(upper) - float(level))
    return float(volume)


def exactness_cases(n_objectives):
    """Seeded point sets with exact ties in each coordinate, duplicates, a
    single point, one-point layers (distinct third objectives) and values
    whose float sums depend on their order."""
    rng = np.random.default_rng(20 + n_objectives)
    cases = [rng.uniform(0.0, 1.0, size=(1, n_objectives))]
    for size in (2, 9, 40, 150):
        cases.append(rng.uniform(-3e3, 7e5, size=(size, n_objectives)))
    for size in (12, 60):
        cases.append(rng.integers(0, 6, size=(size, n_objectives)).astype(float))
    for d in range(n_objectives):
        # few distinct values in coordinate d, arbitrary floats elsewhere
        pts = rng.uniform(1.0, 9.0, size=(50, n_objectives)) * 1.37e4
        pts[:, d] = rng.choice(rng.uniform(1.0, 9.0, size=4) * 1.37e4, size=50)
        cases.append(pts)
    base = rng.uniform(0.0, 1e3, size=(25, n_objectives))
    cases.append(np.vstack([base, base[::3], base[:1]]))  # duplicate points
    if n_objectives == 2:
        # a front of 60 mutually nondominated points
        x = np.sort(rng.uniform(0.0, 1e4, size=60))
        cases.append(np.column_stack([x, np.sort(rng.uniform(0.0, 1e4, size=60))[::-1]]))
    else:
        # distinct third objectives: the first layers hold one point each
        cases.append(rng.uniform(0.0, 1e4, size=(30, 3)))
    return cases


@pytest.mark.parametrize("n_objectives", [2, 3])
def test_r_measure_bit_equal_to_frozen_oracle(n_objectives):
    rng = np.random.default_rng(30 + n_objectives)
    lattice = r_weight_set(n_objectives)  # > 256 rows
    drawn = rng.dirichlet(np.ones(n_objectives), size=600)  # arbitrary float weights
    for pts in exactness_cases(n_objectives):
        for ref in (pts.min(axis=0), pts.min(axis=0) - rng.uniform(0.0, 50.0, n_objectives)):
            for weights in (lattice, drawn, drawn[:7]):
                assert r_measure(pts, weights, tuple(ref)) == frozen_r_measure(pts, weights, ref)


@pytest.mark.parametrize("n_objectives", [2, 3])
def test_hypervolume_bit_equal_to_frozen_oracle(n_objectives):
    rng = np.random.default_rng(40 + n_objectives)
    for pts in exactness_cases(n_objectives):
        for pad in (1.0, rng.uniform(0.1, 5e3)):
            ref = pts.max(axis=0) + pad
            assert hypervolume(pts, tuple(ref)) == frozen_hypervolume(pts, ref)


def test_staircase_keeps_sequential_summation_order():
    # the area is summed left to right; numpy's pairwise sum of the same
    # terms changes the last bits on these inputs, so the order is pinned
    rng = np.random.default_rng(43)
    reordered = 0
    for _ in range(20):
        size = int(rng.integers(9, 80))  # numpy sums 8 or more terms pairwise
        x = np.sort(rng.uniform(0.0, 1e4, size=size))
        pts = np.column_stack([x, np.sort(rng.uniform(0.0, 1e4, size=size))[::-1]])
        ref = pts.max(axis=0) + rng.uniform(0.1, 10.0)
        terms = frozen_staircase(pts, ref)
        assert hypervolume(pts, tuple(ref)) == frozen_area(pts, ref)
        reordered += float(np.sum(terms)) != frozen_area(pts, ref)
    assert reordered >= 10  # the inputs do tell the two orders apart


def test_r_weight_set_counts():
    two = r_weight_set(2)
    three = r_weight_set(3)
    assert isinstance(three, np.ndarray) and three.dtype == float
    assert two.shape == (1000, 2)
    assert three.shape == (7626, 3)
    assert np.array_equal(three, [w.lambdas for w in generate_uniform_weights(3, R_WEIGHT_GRANULARITY[3])])
    assert not three.flags.writeable
    assert r_weight_set(3) is three  # built once
    assert r_weight_set(2, 101).shape == (101, 2)
    with pytest.raises(ValueError):
        r_weight_set(4)
    with pytest.raises(ValueError, match="not a simplex-lattice count"):
        r_weight_set(2, 0)
    # count 1 is the lattice of granularity 0, which failed with "granularity must be >= 1"
    for n_obj in (2, 3):
        message = f"R weight count 1 is too small: the smallest simplex lattice for {n_obj} objectives has {n_obj} weights"
        with pytest.raises(ValueError, match=message):
            r_weight_set(n_obj, 1)
        assert r_weight_set(n_obj, n_obj).shape == (n_obj, n_obj)


def test_r_measure_hand_examples():
    pts = [(0.0, 10.0), (10.0, 0.0)]
    psi = [(0.5, 0.5)]
    assert r_measure(pts, np.array(psi), (0.0, 0.0)) == pytest.approx(5.0)
    pts_plus = pts + [(1.0, 1.0)]
    assert r_measure(pts_plus, np.array(psi), (0.0, 0.0)) == pytest.approx(0.5)


def test_r_measure_zero_when_reference_in_set():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 50, size=(12, 2))
    ref = tuple(pts.min(axis=0))
    with_ref = np.vstack([pts, ref])
    weights = r_weight_set(2)
    assert r_measure(with_ref, weights, ref) == pytest.approx(0.0)


def test_r_measure_matches_oracle_and_chunking():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-5, 40, size=(30, 2))
    ref = pts.min(axis=0) - 1.0
    weights = r_weight_set(2)  # 1000 > chunk size
    got = r_measure(pts, weights, tuple(ref))
    want = oracle_r([tuple(p) for p in pts], weights.tolist(), tuple(ref))
    assert got == pytest.approx(want, rel=1e-10)
    # three objectives, a few weights
    pts3 = rng.uniform(0, 20, size=(15, 3))
    ref3 = tuple(pts3.min(axis=0))
    small = [(0.2, 0.3, 0.5), (1.0, 0.0, 0.0), (1 / 3, 1 / 3, 1 / 3)]
    got3 = r_measure(pts3, np.asarray(small), ref3)
    assert got3 == pytest.approx(oracle_r([tuple(p) for p in pts3], small, ref3), rel=1e-10)


def test_r_measure_monotone_in_point_set():
    rng = np.random.default_rng(3)
    weights = r_weight_set(2)
    for _ in range(20):
        pts = rng.uniform(0, 30, size=(10, 2))
        extra = rng.uniform(0, 30, size=(4, 2))
        ref = (-1.0, -1.0)
        base = r_measure(pts, weights, ref)
        grown = r_measure(np.vstack([pts, extra]), weights, ref)
        assert grown <= base + 1e-12


def test_r_measure_validation():
    with pytest.raises(ValueError):
        r_measure([], np.array([(0.5, 0.5)]), (0.0, 0.0))
    with pytest.raises(ValueError):
        r_measure([(1.0, 2.0)], np.empty((0, 2)), (0.0, 0.0))
    with pytest.raises(ValueError):
        r_measure([(1.0, 2.0)], np.array([(0.5, 0.5)]), (0.0, 0.0, 0.0))
    # a non-finite reference used to score nan or inf
    for ref in ((np.nan, 0.0), (0.0, -np.inf), (np.inf, 0.0)):
        with pytest.raises(ValueError, match="reference contains non-finite values"):
            r_measure([(1.0, 2.0)], np.array([(0.5, 0.5)]), ref)


def test_hypervolume_hand_examples():
    assert hypervolume([(0.0, 0.0)], (1.0, 1.0)) == pytest.approx(1.0)
    assert hypervolume([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)], (4.0, 4.0)) == pytest.approx(6.0)
    assert hypervolume([(0.0, 0.0, 0.0)], (1.0, 1.0, 1.0)) == pytest.approx(1.0)


def test_hypervolume_2d_matches_grid_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pts = rng.integers(0, 11, size=(int(rng.integers(1, 12)), 2))
        ref = (11.0, 11.0)
        assert hypervolume(pts.astype(float), ref) == pytest.approx(
            grid_hv(pts.tolist(), ref)
        )


def test_hypervolume_3d_matches_grid_oracle():
    rng = np.random.default_rng(6)
    for _ in range(25):
        pts = rng.integers(0, 9, size=(int(rng.integers(1, 10)), 3))
        ref = (9.0, 9.0, 9.0)
        assert hypervolume(pts.astype(float), ref) == pytest.approx(
            grid_hv(pts.tolist(), ref)
        )


def test_hypervolume_objective_permutation_invariance():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 5, size=(20, 3))
    ref = (6.0, 7.0, 8.0)
    base = hypervolume(pts, ref)
    for perm in itertools.permutations(range(3)):
        assert hypervolume(pts[:, perm], tuple(ref[d] for d in perm)) == pytest.approx(base)


def test_hypervolume_dominated_point_no_change():
    pts = [(1.0, 3.0), (3.0, 1.0)]
    ref = (5.0, 5.0)
    base = hypervolume(pts, ref)
    assert hypervolume(pts + [(4.0, 4.0)], ref) == pytest.approx(base)
    assert hypervolume(pts + [(2.0, 2.0)], ref) > base


def test_hypervolume_validation():
    with pytest.raises(ValueError):
        hypervolume([(1.0, 1.0)], (1.0, 2.0))  # not strictly dominating
    with pytest.raises(ValueError):
        hypervolume([(0.0, 0.0, 0.0, 0.0)], (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        hypervolume([], (1.0, 1.0))
    # an infinite reference used to give an infinite volume
    for ref in ((np.inf, 1e9), (1e9, 1e9, np.inf), (np.nan, 1e9)):
        with pytest.raises(ValueError, match="reference contains non-finite values"):
            hypervolume([(0.0, 0.0, 0.0)[: len(ref)]], ref)


def test_union_reference_points():
    z_star, hv_ref = union_reference_points([[(0.0, 10.0), (4.0, 2.0)], [(2.0, 3.0)]])
    assert z_star == (0.0, 2.0)
    assert hv_ref == pytest.approx((4.0 + 0.04, 10.0 + 0.08))
    z_d, hv_d = union_reference_points([[(1.0, 5.0)]])
    assert z_d == (1.0, 5.0)
    assert hv_d == (2.0, 6.0)  # zero span widens by 1
    with pytest.raises(ValueError):
        union_reference_points([])
    with pytest.raises(ValueError):
        union_reference_points([[(1.0, 2.0)], [(1.0, 2.0, 3.0)]])


def test_wilcoxon_all_positive():
    a = [float(i + 10) for i in range(10)]
    b = [float(i) for i in range(10)]
    res = wilcoxon_signed_rank(a, b)
    assert isinstance(res, WilcoxonResult)
    assert res.statistic == pytest.approx(55.0)
    assert res.p_value == pytest.approx(2 / 1024)
    assert res.significant


def test_wilcoxon_identical_samples():
    a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    res = wilcoxon_signed_rank(a, a)
    assert res.p_value == 1.0
    assert not res.significant


def test_wilcoxon_antisymmetry():
    rng = np.random.default_rng(11)
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    assert wilcoxon_signed_rank(a, b).p_value == pytest.approx(
        wilcoxon_signed_rank(b, a).p_value
    )


def test_wilcoxon_matches_enumeration_oracle():
    rng = np.random.default_rng(13)
    nonzero = np.array([-4, -3, -2, -1, 1, 2, 3, 4], dtype=float)
    for _ in range(40):
        n = int(rng.integers(5, 13))
        d = rng.choice(nonzero, size=n)
        a = rng.integers(0, 100, size=n).astype(float)
        b = a - d  # integer-valued, so the differences reproduce d exactly
        want_stat, want_p = oracle_wilcoxon(d.tolist())
        res = wilcoxon_signed_rank(a, b)
        assert res.statistic == pytest.approx(want_stat)
        assert res.p_value == pytest.approx(want_p, rel=1e-12)


def test_wilcoxon_drops_zero_differences():
    a = [1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
    b = [1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    res = wilcoxon_signed_rank(a, b)
    want_stat, want_p = oracle_wilcoxon([10.0] * 6)
    assert res.statistic == pytest.approx(want_stat)
    assert res.p_value == pytest.approx(want_p)


def test_wilcoxon_large_sample_normal_path():
    n = 25
    a = [float(i + 3) for i in range(n)]
    b = [float(i) for i in range(n)]
    res = wilcoxon_signed_rank(a, b)
    assert 0.0 < res.p_value < 1e-3
    assert res.significant
    close_a = [float(i) + (0.5 if i % 2 else -0.5) for i in range(n)]
    close_b = [float(i) for i in range(n)]
    res2 = wilcoxon_signed_rank(close_a, close_b)
    assert res2.p_value > 0.2


def test_wilcoxon_validation():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0] * 6, [1.0] * 5)
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0] * 6, [2.0] * 6, alpha=1.5)
