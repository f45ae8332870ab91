import itertools
import math

import numpy as np
import pytest

from moscal.engine import IMPROVEMENT_EPS, MethodConfig, run_method
from moscal.scalarizing import Scalarizer, ScalarizerSpec
from moscal.tspwp import (
    ObjectiveRanges,
    TspwpAdapter,
    TspwpInstance,
    dpx_wp_recombine,
    estimate_ranges,
    random_subtour,
    tspwp_evaluate,
    tspwp_local_search,
)


def euclid_matrix(coords):
    coords = np.asarray(coords, dtype=float)
    d = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    return np.floor(d + 0.5).astype(np.int64)


def small_instance(n, rng, profit_hi=100):
    coords = rng.uniform(0, 1000, size=(n, 2))
    profits = rng.integers(1, profit_hi + 1, size=n)
    return TspwpInstance(euclid_matrix(coords), profits)


def cycle_edges(t):
    t = list(t)
    if len(t) < 2:
        return set()
    return {tuple(sorted((t[i], t[(i + 1) % len(t)]))) for i in range(len(t))}


def all_subtours(n):
    for size in range(1, n + 1):
        for cities in itertools.combinations(range(n), size):
            if size <= 2:
                yield list(cities)
                continue
            first = cities[0]
            for rest in itertools.permutations(cities[1:]):
                if size > 2 and rest[0] > rest[-1]:
                    continue  # one direction per cyclic order
                yield [first, *rest]


def test_instance_validation():
    c = np.array([[0, 2, 3, 4], [2, 0, 5, 6], [3, 5, 0, 7], [4, 6, 7, 0]])
    p = np.array([1, 2, 3, 4])
    inst = TspwpInstance(c, p)
    assert inst.n == 4 and inst.n_objectives == 2
    with pytest.raises(ValueError):
        TspwpInstance(c, p[:3])
    with pytest.raises(ValueError):
        TspwpInstance(c - 1, p)
    asym = c.copy()
    asym[0, 1] = 9
    with pytest.raises(ValueError):
        TspwpInstance(asym, p)


@pytest.mark.parametrize(
    "costs_entry, profits, message",
    [
        (None, [1.7, 2, 3, 4], "profit vector holds 1.7 at index 0, which is not an int64 integer"),  # was 1
        (None, np.array([1, 2, 3, 2**63], dtype=np.uint64),
         "profit vector holds 9223372036854775808 at index 3, which is not an int64 integer"),
        (1.5, [1, 2, 3, 4], "cost matrix holds 1.5 at index \\(0, 3\\), which is not an int64 integer"),  # was 1
        (np.inf, [1, 2, 3, 4], "cost matrix holds inf at index \\(0, 3\\), which is not an int64 integer"),
    ],
    ids=["fractional_profit", "profit_2_pow_63", "fractional_cost", "inf_cost"],
)
def test_instance_rejects_entries_that_are_no_integer_by_name(costs_entry, profits, message):
    good = np.array([[0, 2, 3, 4], [2, 0, 5, 6], [3, 5, 0, 7], [4, 6, 7, 0]], dtype=float)
    c = good.copy()
    if costs_entry is not None:
        c[0, 3] = c[3, 0] = costs_entry
    with pytest.raises(ValueError, match=f"^{message}$"):
        TspwpInstance(c, profits)
    # integral floats are integers
    inst = TspwpInstance(good, [1.0, 2, 3, 4])
    assert inst.costs.dtype == inst.profits.dtype == np.int64 and inst.profits.tolist() == [1, 2, 3, 4]


def test_instance_rejects_objective_sums_that_may_reach_2_pow_53():
    c = np.array([[0, 2, 3, 4], [2, 0, 5, 6], [3, 5, 0, 7], [4, 6, 7, 0]])
    with pytest.raises(ValueError, match="the total profit is 9007199254740992"):
        TspwpInstance(c, np.array([2**51, 2**51, 2**51, 2**51]))
    assert TspwpInstance(c, np.array([2**51, 2**51, 2**51, 2**51 - 1])).n == 4
    far = np.full((4, 4), 2**51) - np.diag(np.full(4, 2**51))
    with pytest.raises(ValueError, match="n x max cost is 9007199254740992"):
        TspwpInstance(far, np.ones(4, dtype=np.int64))


def test_evaluate_subtours():
    c = np.array([[0, 2, 3, 4], [2, 0, 5, 6], [3, 5, 0, 7], [4, 6, 7, 0]])
    p = np.array([10, 20, 30, 40])
    inst = TspwpInstance(c, p)
    assert tspwp_evaluate(inst, [0]) == (0.0, -10.0)  # single city: no travel
    assert tspwp_evaluate(inst, [0, 2]) == (6.0, -40.0)  # out and back
    assert tspwp_evaluate(inst, [0, 1, 2]) == (2 + 5 + 3, -60.0)
    assert tspwp_evaluate(inst, [0, 1, 2, 3]) == (2 + 5 + 7 + 4, -100.0)
    with pytest.raises(ValueError):
        tspwp_evaluate(inst, [])
    with pytest.raises(ValueError):
        tspwp_evaluate(inst, [0, 0])
    with pytest.raises(ValueError):
        tspwp_evaluate(inst, [0, 9])


@pytest.mark.parametrize(
    "subtour, message",
    [
        ([2, -1], "sub-tour holds id -1, outside the cities 0..3"),
        ([2, 4], "sub-tour holds id 4, outside the cities 0..3"),
        ([0, 1.7, 3], "sub-tour holds id 1.7, which is not an integer city id"),  # was truncated to city 1
    ],
    ids=["negative", "beyond_n", "fractional"],
)
def test_subtour_ids_that_are_no_city_are_rejected_by_name(subtour, message):
    c = np.array([[0, 2, 3, 4], [2, 0, 5, 6], [3, 5, 0, 7], [4, 6, 7, 0]])
    inst = TspwpInstance(c, np.array([10, 20, 30, 40]))
    s = Scalarizer((0.5, 0.5), ScalarizerSpec("linear"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        tspwp_evaluate(inst, subtour)
    with pytest.raises(ValueError, match=f"^{message}$"):
        tspwp_local_search(inst, subtour, s)


def test_evaluate_against_oracle():
    rng = np.random.default_rng(2)
    inst = small_instance(8, rng)
    for t in [[3], [1, 4], [0, 5, 2], [7, 1, 6, 3, 0]]:
        length = sum(int(inst.costs[t[i], t[(i + 1) % len(t)]]) for i in range(len(t))) if len(t) > 1 else 0
        assert tspwp_evaluate(inst, t) == (float(length), -float(inst.profits[t].sum()))


def test_random_subtour_valid():
    rng = np.random.default_rng(3)
    inst = small_instance(10, rng)
    sizes = set()
    for _ in range(300):
        t = random_subtour(inst, rng)
        assert 1 <= t.size <= 10
        assert len(set(t.tolist())) == t.size
        sizes.add(t.size)
    assert sizes == set(range(1, 11))


def wp_has_improving_move(inst, t, s, eps=1e-9):
    """Independent scan over all four move families, all positions."""
    t = list(t)
    m = len(t)
    base = s(tspwp_evaluate(inst, t))
    absent = [v for v in range(inst.n) if v not in t]

    def better(cand):
        return s(tspwp_evaluate(inst, cand)) < base - eps

    for i in range(m - 1):  # edge exchange
        for k in range(i + 2, m):
            if i == 0 and k == m - 1:
                continue
            if better(t[: i + 1] + t[i + 1 : k + 1][::-1] + t[k + 1 :]):
                return True
    for v in absent:  # insertion anywhere
        for pos in range(m):
            if better(t[: pos + 1] + [v] + t[pos + 1 :]):
                return True
    if m >= 2:  # deletion
        for pos in range(m):
            if better(t[:pos] + t[pos + 1 :]):
                return True
    for v in absent:  # exchange in place
        for pos in range(m):
            if better(t[:pos] + [v] + t[pos + 1 :]):
                return True
    return False


def test_local_search_monotone_and_locally_optimal():
    rng = np.random.default_rng(4)
    inst = small_instance(9, rng)
    spec = ScalarizerSpec("mixed", w_linear=0.001, w_cheby=0.999)
    for trial in range(8):
        start = random_subtour(inst, rng)
        s = Scalarizer((0.4, 0.6), spec, tspwp_evaluate(inst, start))
        trace = []
        out, _ = tspwp_local_search(inst, start, s, value_trace=trace)
        assert all(b < a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert len(set(out.tolist())) == out.size
        assert not wp_has_improving_move(inst, out, s)


def test_length_dominant_weight_collapses_to_exhaustive_optimum():
    # weight (~1, ~0): length rules, equal profits; oracle enumerates all sub-tours
    rng = np.random.default_rng(6)
    coords = rng.uniform(0, 1000, size=(6, 2))
    inst = TspwpInstance(euclid_matrix(coords), np.ones(6, dtype=np.int64))
    s = Scalarizer((0.999, 0.001), ScalarizerSpec("linear"))
    best = min(s(tspwp_evaluate(inst, t)) for t in all_subtours(6))
    for _ in range(10):
        out, _ = tspwp_local_search(inst, random_subtour(inst, rng), s)
        assert s(tspwp_evaluate(inst, out)) == pytest.approx(best)
    assert best == pytest.approx(s((0.0, -1.0)))  # a lone city collects profit 1 at length 0


def test_profit_dominant_weight_keeps_all_cities():
    rng = np.random.default_rng(7)
    inst = small_instance(8, rng, profit_hi=100)
    s = Scalarizer((0.001, 0.999), ScalarizerSpec("linear"))
    start = np.arange(8)
    out, _ = tspwp_local_search(inst, start, s)
    assert set(out.tolist()) == set(range(8))
    assert tspwp_evaluate(inst, out)[1] == -float(inst.profits.sum())


def test_metric_deletion_never_increases_length():
    # exhaustive over every sub-tour of a metric instance (rounding can break
    # the triangle inequality by 1, so close the matrix under shortest paths)
    rng = np.random.default_rng(9)
    coords = rng.uniform(0, 1000, size=(6, 2))
    costs = euclid_matrix(coords)
    for k in range(6):
        costs = np.minimum(costs, costs[:, k, None] + costs[None, k, :])
    inst = TspwpInstance(costs, np.ones(6, dtype=np.int64))
    for t in all_subtours(6):
        if len(t) < 2:
            continue
        base_len = tspwp_evaluate(inst, t)[0]
        for pos in range(len(t)):
            shorter = t[:pos] + t[pos + 1 :]
            assert tspwp_evaluate(inst, shorter)[0] <= base_len


def test_normalize_and_value_reject_a_scalar_by_shape():
    # both used to fail with "IndexError: tuple index out of range"
    r = ObjectiveRanges((0.0, -100.0), (50.0, 0.0))
    with pytest.raises(ValueError, match=r"^points must have shape \(\.\.\., 2\), got a scalar$"):
        r.normalize(5.0)
    s = Scalarizer((0.5, 0.5), ScalarizerSpec("linear"), transform=r.normalize)
    with pytest.raises(ValueError, match=r"^points must have shape \(\.\.\., 2\), got a scalar$"):
        s.value(5.0)


def test_objective_ranges_validation_and_normalize():
    r = ObjectiveRanges((0.0, -100.0), (50.0, 0.0))
    pts = r.normalize(np.array([[25.0, -50.0], [0.0, 0.0]]))
    assert pts.tolist() == [[0.5, 0.5], [0.0, 1.0]]
    with pytest.raises(ValueError):
        ObjectiveRanges((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError, match="point dimension"):
        r.normalize(np.zeros((4, 3)))


@pytest.mark.parametrize(
    "lows, highs",
    [
        ((math.nan, 0.0), (1.0, 1.0)),
        ((0.0, 0.0), (math.inf, 1.0)),
        ((-math.inf, 0.0), (1.0, 1.0)),
        ((0.0, 0.0), (1.0, math.nan)),
    ],
)
def test_objective_ranges_reject_non_finite_bounds(lows, highs):
    with pytest.raises(ValueError, match="finite"):
        ObjectiveRanges(lows, highs)


def test_estimate_ranges_brackets_boundary_solutions():
    rng = np.random.default_rng(11)
    inst = small_instance(12, rng)
    r = estimate_ranges(inst, np.random.default_rng(5))
    assert len(r.lows) == 2 and len(r.highs) == 2
    assert all(h > l for l, h in zip(r.lows, r.highs))
    # deterministic given the same stream
    r2 = estimate_ranges(inst, np.random.default_rng(5))
    assert r.lows == r2.lows and r.highs == r2.highs


def test_estimate_ranges_degenerate_profit_padded():
    rng = np.random.default_rng(12)
    coords = rng.uniform(0, 1000, size=(6, 2))
    inst = TspwpInstance(euclid_matrix(coords), np.zeros(6, dtype=np.int64))
    r = estimate_ranges(inst, np.random.default_rng(0))
    # profit objective is constant 0: range widened by 1 on both sides
    assert r.lows[1] == -1.0 and r.highs[1] == 1.0


def test_dpx_wp_identical_parents():
    rng = np.random.default_rng(0)
    p = np.array([4, 1, 7, 2])
    off = dpx_wp_recombine(p, p, rng, n_cities=10)
    assert cycle_edges(off) == cycle_edges(p)
    assert set(off.tolist()) == set(p.tolist())


def test_dpx_wp_rejects_repeated_cities():
    # a repeated city used to pass unnoticed, or to hang the fragment walk
    rng = np.random.default_rng(0)
    for pa, pb in (([0, 0, 1], [0, 1]), ([0, 1, 2, 2], [2, 0, 1, 2])):
        with pytest.raises(ValueError, match="parents must visit each city at most once"):
            dpx_wp_recombine(np.array(pa), np.array(pb), rng, n_cities=6)


@pytest.mark.parametrize(
    "pa, pb, message",
    [
        ([0, 1, 7], [0, 1, 2], "parent holds id 7, outside the cities 0..5"),  # was kept in the offspring
        ([0, 1, 2], [-1, 1, 2], "parent holds id -1, outside the cities 0..5"),
        ([0, 1, 2], [0, 1.5, 2], "parent holds id 1.5, which is not an integer city id"),  # was read as city 1
    ],
    ids=["beyond_n", "negative", "fractional"],
)
def test_dpx_wp_rejects_ids_that_are_no_city_by_name(pa, pb, message):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        dpx_wp_recombine(pa, pb, rng, n_cities=6)


def test_dpx_wp_preserves_common_edges_and_nodes():
    rng = np.random.default_rng(1)
    p1 = np.array([0, 1, 2, 3, 4, 5])
    p2 = np.array([0, 1, 2, 5, 4, 8])
    common_e = cycle_edges(p1) & cycle_edges(p2)
    common_n = set(p1.tolist()) & set(p2.tolist())
    assert (0, 1) in common_e and (1, 2) in common_e
    for _ in range(50):
        off = dpx_wp_recombine(p1, p2, rng, n_cities=10)
        assert len(set(off.tolist())) == off.size >= 1
        assert common_e <= cycle_edges(off)
        assert common_n <= set(off.tolist())


def test_dpx_wp_disjoint_parents_expected_size():
    # oracle: comSet empty, remSet = all 20 cities, p = 5/20; mean size 5
    rng = np.random.default_rng(17)
    p1 = np.array([0, 1, 2, 3])
    p2 = np.array([10, 11, 12, 13, 14, 15])
    trials = 2000
    sizes = []
    for _ in range(trials):
        off = dpx_wp_recombine(p1, p2, rng, n_cities=20)
        assert len(set(off.tolist())) == off.size >= 1
        sizes.append(off.size)
    mean = np.mean(sizes)
    sigma = np.sqrt(20 * 0.25 * 0.75 / trials)
    assert abs(mean - 5.0) <= 3 * sigma + 0.05


def test_adapter_run_archives_raw_objectives():
    rng = np.random.default_rng(31)
    inst = small_instance(10, rng)
    adapter = TspwpAdapter(inst)
    cfg = MethodConfig(method="mogls", objectives=2, generations=2, weight_count=6, seed=9)
    res = run_method(cfg, adapter)
    assert adapter.ranges is not None
    assert len(res.archive) >= 1
    for sol, point in res.archive:
        assert tspwp_evaluate(inst, sol) == point
        assert point[1] <= 0.0  # profit stored negated


def test_adapter_transform_needs_begin_run():
    adapter = TspwpAdapter(small_instance(8, np.random.default_rng(32)))
    with pytest.raises(ValueError, match="begin_run was not called"):
        adapter.scalarizing_transform()
    adapter.begin_run(np.random.default_rng(0))
    assert adapter.scalarizing_transform() == adapter.ranges.normalize


def test_adapter_default_scalarizer_is_mixed():
    rng = np.random.default_rng(33)
    inst = small_instance(8, rng)
    spec = TspwpAdapter(inst).default_scalarizer()
    assert spec.kind == "mixed"
    assert spec.w_cheby == pytest.approx(0.999)
    assert spec.w_linear == pytest.approx(0.001)


def fixed_order_dot(z, w):
    """`z @ w` summed left to right over the last axis.  It equals `z @ w`
    under a BLAS kernel without fused multiply-add, which
    `tests/test_blas.py` checks on the shapes of this file's oracles."""
    out = z[..., 0] * w[0]
    for j in range(1, w.size):
        out = out + z[..., j] * w[j]
    return out


def frozen_value(weights, spec, reference, ranges, z):
    """Oracle: `Scalarizer.value` and `ObjectiveRanges.normalize` as first
    written, broadcasting over the last axis and reducing it with `max`; the
    linear term is the fixed-order sum."""
    z = np.asarray(z, dtype=float)
    if ranges is not None:
        lows = np.asarray(ranges.lows)
        z = (z - lows) / (np.asarray(ranges.highs) - lows)
    w = np.asarray(weights, dtype=float)
    if spec.kind == "linear":
        return fixed_order_dot(z, w)
    cheby = (w * (z - np.asarray(reference))).max(axis=-1)
    if spec.kind == "chebycheff":
        return cheby
    if spec.w_cheby == 0.0:
        return fixed_order_dot(z, w)
    if spec.w_linear == 0.0:
        return cheby
    return spec.w_linear * fixed_order_dot(z, w) + spec.w_cheby * cheby


TIE_KINDS = ("edge", "insert", "swap", "delete", "between", "edge dmin", "insert position")


def frozen_local_search(instance, subtour, weights, spec, reference, ranges, value_trace, ties, slopes):
    """Oracle: the four-family descent as first written, re-deriving every
    step from scratch (setdiff1d, np.roll, np.stack, tspwp_evaluate).

    `ties` counts the steps where the minimum of a family is attained more
    than once ("edge", "insert", "swap", "delete") and where the best move
    value is shared by more than one family ("between"); the steps where two
    or more 2-opt pairs share the least length change dmin ("edge dmin");
    and the applied insertions whose cheapest position is reached at two or
    more positions ("insert position").  `slopes` counts
    the 2-opt steps where the value at the least length change dmin equals
    the value at dmin + 1 ("flat") and where it is below it ("rising")."""

    def value_of(cand):
        return frozen_value(weights, spec, reference, ranges, cand)

    def family_min(name, vals):
        ok = vals[np.isfinite(vals)]
        if ok.size and (ok == ok.min()).sum() > 1:
            ties[name] += 1
        return vals

    t = np.asarray(subtour, dtype=np.int64).copy()
    costs, profits = instance.costs, instance.profits
    n = instance.n
    point = np.array(tspwp_evaluate(instance, t))
    value = float(value_of(point))
    value_trace.append(value)
    while True:
        m = t.size
        absent = np.setdiff1d(np.arange(n), t)
        moves = []
        prv = np.roll(t, 1)
        nxt = np.roll(t, -1)
        if m >= 2:
            base_edges = costs[prv, t] + costs[t, nxt]
        if m >= 4:
            rem = costs[t, nxt]
            d_len = costs[t[:, None], t[None, :]] + costs[nxt[:, None], nxt[None, :]]
            d_len -= rem[:, None]
            d_len += -rem[None, :]
            i = np.arange(m)
            ok = (i[None, :] - i[:, None]) >= 2
            ok[0, m - 1] = False
            cand = np.stack([point[0] + d_len, np.full((m, m), point[1])], axis=-1)
            vals = value_of(cand)
            dmin = d_len[ok].min()
            if (d_len[ok] == dmin).sum() > 1:
                ties["edge dmin"] += 1
            at_min, above = value_of([[point[0] + dmin, point[1]], [point[0] + dmin + 1, point[1]]])
            slopes["flat" if at_min == above else "rising"] += 1
            vals[~ok] = np.inf
            flat = int(np.argmin(family_min("edge", vals)))
            bi, bk = divmod(flat, m)
            if vals[bi, bk] < np.inf:
                moves.append((float(vals[bi, bk]), ("edge", bi, bk)))
        if absent.size:
            if m == 1:
                inc = 2 * costs[t[0], absent]
                best_pos = np.zeros(absent.size, dtype=np.int64)
                pos_tied = np.zeros(absent.size, dtype=bool)
            else:
                inc_all = costs[t[:, None], absent[None, :]] + costs[nxt[:, None], absent[None, :]]
                inc_all -= costs[t, nxt][:, None]
                best_pos = inc_all.argmin(axis=0)
                inc = inc_all[best_pos, np.arange(absent.size)]
                pos_tied = (inc_all == inc).sum(axis=0) > 1
            cand = np.stack([point[0] + inc, point[1] - profits[absent].astype(float)], axis=-1)
            vals = value_of(cand)
            v = int(np.argmin(family_min("insert", vals)))
            moves.append((float(vals[v]), ("insert", int(absent[v]), int(best_pos[v]), bool(pos_tied[v]))))
            if m == 1:
                d_len_x = np.zeros((1, absent.size))
            else:
                d_len_x = costs[prv[:, None], absent[None, :]] + costs[nxt[:, None], absent[None, :]]
                d_len_x -= base_edges[:, None]
            d_prof = profits[t][:, None] - profits[absent][None, :]
            cand = np.stack([point[0] + d_len_x, point[1] + d_prof.astype(float)], axis=-1)
            vals = value_of(cand)
            flat = int(np.argmin(family_min("swap", vals)))
            xi, xv = divmod(flat, absent.size)
            moves.append((float(vals[xi, xv]), ("swap", xi, int(absent[xv]))))
        if m >= 2:
            if m == 2:
                d_len_d = -2.0 * costs[t[0], t[1]] * np.ones(2)
            else:
                d_len_d = costs[prv, nxt] - base_edges
            cand = np.stack([point[0] + d_len_d, point[1] + profits[t].astype(float)], axis=-1)
            vals = value_of(cand)
            di = int(np.argmin(family_min("delete", vals)))
            moves.append((float(vals[di]), ("delete", di)))
        if not moves:
            break
        best_val, move = min(moves, key=lambda mv: mv[0])
        if sum(v == best_val for v, _ in moves) > 1:
            ties["between"] += 1
        if not best_val < value - IMPROVEMENT_EPS:
            break
        kind = move[0]
        if kind == "edge":
            _, i, k = move
            t[i + 1 : k + 1] = t[i + 1 : k + 1][::-1]
        elif kind == "insert":
            _, city, pos, pos_tied = move
            ties["insert position"] += pos_tied
            t = np.insert(t, pos + 1, city)
        elif kind == "swap":
            _, pos, city = move
            t = t.copy()
            t[pos] = city
        else:
            _, pos = move
            t = np.delete(t, pos)
        point = np.array(tspwp_evaluate(instance, t))
        value = float(value_of(point))
        value_trace.append(value)
    return t


def assert_exact_point(point, expected, case):
    """`point` is a tuple of Python floats with the bytes of `expected`,
    so a profit of -0.0 keeps its sign."""
    assert type(point) is tuple and all(type(v) is float for v in point), case
    assert np.array(point).tobytes() == np.array(expected).tobytes(), case


def tied_instance(n, rng):
    """Costs of 1-3 and profits of 1-2, so that equal moves are common."""
    upper = np.triu(rng.integers(1, 4, size=(n, n)), 1)
    return TspwpInstance(upper + upper.T, rng.integers(1, 3, size=n))


def test_local_search_matches_frozen_oracle():
    # reps 4 and 5 take the lattice extremes (1, 0) and (0, 1)
    kinds = ("linear", "chebycheff", "mixed")
    ties = dict.fromkeys(TIE_KINDS, 0)
    slopes = dict.fromkeys(("flat", "rising"), 0)
    cases = itertools.product(range(6), (False, True), kinds, (False, True), (1, 2, 3, 4, None))
    for case, (rep, tied, kind, normalized, size) in enumerate(cases):
        rng = np.random.default_rng(case)
        n = int(rng.integers(4, 41))
        inst = tied_instance(n, rng) if tied else small_instance(n, rng)
        ranges = None
        if normalized:
            total = float(inst.profits.sum())
            ranges = ObjectiveRanges((0.0, -total - 1.0), (float(inst.costs.max()) * n + 1.0, 1.0))
        if rep >= 4:
            weights = ((1.0, 0.0), (0.0, 1.0))[rep - 4]
        else:
            weights = (0.5, 0.5) if tied and rep % 2 else tuple(rng.dirichlet(np.ones(2)))
        ref = None
        if kind != "linear":
            ref_point = np.array(tspwp_evaluate(inst, random_subtour(inst, rng)))
            ref = tuple(float(v) for v in (ranges.normalize(ref_point) if ranges else ref_point))
        w_linear = (0.001, 0.5)[rep % 2] if kind == "mixed" else None
        spec = ScalarizerSpec(kind, w_linear=w_linear)
        s = Scalarizer(weights, spec, ref, transform=ranges.normalize if ranges else None)
        start = rng.choice(n, size=n if size is None else size, replace=False)
        expected_trace, trace = [], []
        expected = frozen_local_search(inst, start, weights, spec, ref, ranges, expected_trace, ties, slopes)
        out, point = tspwp_local_search(inst, start, s, value_trace=trace)
        assert out.tolist() == expected.tolist(), case
        assert np.array(trace).tobytes() == np.array(expected_trace).tobytes(), case
        assert_exact_point(point, tspwp_evaluate(inst, out), case)
    assert case + 1 >= 360
    assert all(count > 0 for count in ties.values()), ties
    assert all(count > 0 for count in slopes.values()), slopes


def test_local_search_trace_keeps_the_sign_of_a_zero_value():
    # Mostly zero profits and a chebycheff reference of zero profit: a sub-tour
    # that collects nothing has profit -0.0 (as tspwp_evaluate writes it), and
    # its value can be -0.0 where a profit of +0.0 would give +0.0.  The
    # trace must keep the sign the oracle gives.
    ties = dict.fromkeys(TIE_KINDS, 0)
    slopes = dict.fromkeys(("flat", "rising"), 0)
    negative_zeros = zero_profits = 0
    for case in range(200):
        rng = np.random.default_rng(case)
        n = int(rng.integers(4, 12))
        upper = np.triu(rng.integers(1, 20, size=(n, n)), 1)
        profits = (rng.random(n) < 0.3) * rng.integers(1, 5, size=n)
        inst = TspwpInstance(upper + upper.T, profits)
        weights = tuple(rng.dirichlet(np.ones(2)))
        ref = (float(rng.integers(0, 60)), 0.0)
        spec = (ScalarizerSpec("chebycheff"), ScalarizerSpec("mixed", w_linear=0.0))[case % 2]
        start = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        expected_trace, trace = [], []
        expected = frozen_local_search(inst, start, weights, spec, ref, None, expected_trace, ties, slopes)
        out, point = tspwp_local_search(inst, start, Scalarizer(weights, spec, ref), value_trace=trace)
        assert out.tolist() == expected.tolist(), case
        assert np.array(trace).tobytes() == np.array(expected_trace).tobytes(), case
        assert_exact_point(point, tspwp_evaluate(inst, out), case)
        negative_zeros += sum(v == 0.0 and math.copysign(1.0, v) < 0 for v in trace)
        zero_profits += point[1] == 0.0 and math.copysign(1.0, point[1]) < 0
    assert negative_zeros > 0
    assert zero_profits > 0


def test_value_columns_bit_matches_value_on_search_shapes():
    # the four families score (m, m), (k,), (m, k) and (m,) candidate arrays
    rng = np.random.default_rng(17)
    ranges = ObjectiveRanges((-3.0e3, -7.0e2), (2.9e4, 11.0))
    for case in range(60):
        m, k = (int(v) for v in rng.integers(1, 41, size=2))
        length = float(rng.integers(0, 30000))
        profit = -float(rng.integers(0, 700))
        shapes = {
            "edge": (length + rng.integers(-900, 900, size=(m, m)), profit),
            "insert": (length + rng.integers(0, 900, size=k), profit - rng.integers(0, 99, size=k)),
            "swap": (length + rng.integers(-900, 900, size=(m, k)), profit + rng.integers(-99, 99, size=(m, k))),
            "delete": (length - rng.integers(0, 900, size=m), profit + rng.integers(0, 99, size=m)),
        }
        kind = ("linear", "chebycheff", "mixed")[case % 3]
        normalized = case % 2 == 1
        ref = tuple(float(v) for v in rng.uniform(-0.1, 0.5, size=2)) if kind != "linear" else None
        spec = ScalarizerSpec(kind, w_linear=0.001) if kind == "mixed" else ScalarizerSpec(kind)
        weights = tuple(rng.dirichlet(np.ones(2)))
        s = Scalarizer(weights, spec, ref, transform=ranges.normalize if normalized else None)
        for name, columns in shapes.items():
            stacked = np.stack(np.broadcast_arrays(*columns), axis=-1)
            expected = frozen_value(weights, spec, ref, ranges if normalized else None, stacked)
            assert s.value(stacked).tobytes() == expected.tobytes(), (case, name)
            assert s.value_columns(*columns).tobytes() == expected.tobytes(), (case, name)


def test_value_of_flat_array_bit_matches_value_columns_per_family():
    # tspwp_local_search scores the families as blocks of one (N, 2) array
    # (the column-major view of a reused (2, N') buffer): edge (m, m) when
    # m >= 4, insert (k,) and swap (m, k) when k > 0, delete (m,) when
    # m >= 2; each block of `value` of the flat array must score as its
    # family alone
    rng = np.random.default_rng(23)
    specs = (
        ScalarizerSpec("linear"),
        ScalarizerSpec("chebycheff"),
        ScalarizerSpec("mixed", w_linear=0.001),
        ScalarizerSpec("mixed", w_linear=1.0, w_cheby=0.0),
        ScalarizerSpec("mixed", w_linear=0.0, w_cheby=1.0),
    )
    sizes = [(1, 5), (2, 7), (3, 1), (3, 40), (4, 0), (17, 0), (4, 3), (1, 49)]
    sizes += [tuple(int(v) for v in rng.integers(1, 41, size=2)) for _ in range(32)]
    covered = set()
    for case, (spec, normalized, (m, k)) in enumerate(itertools.product(specs, (False, True), sizes)):
        cost = int(10.0 ** rng.uniform(1, 7))  # travel costs up to about 1e7
        length = float(rng.integers(0, cost * max(m, 2)))
        profit = -float(rng.integers(0, 700 * m))
        families = []
        if m >= 4:
            families.append(("edge", (length + rng.integers(-2 * cost, 2 * cost, size=(m, m)), profit)))
        if k:
            families.append(("insert", (length + rng.integers(0, 2 * cost, size=k),
                                        profit - rng.integers(0, 99, size=k))))
            families.append(("swap", (length + rng.integers(-2 * cost, 2 * cost, size=(m, k)),
                                      profit + rng.integers(-99, 99, size=(m, k)))))
        if m >= 2:
            families.append(("delete", (length - rng.integers(0, 2 * cost, size=m),
                                        profit + rng.integers(0, 99, size=m))))
        covered.update(name for name, _ in families)
        ranges = ObjectiveRanges((-0.1 * cost, -700.0 * m - 100.0), (cost * (m + 2), 1.0)) if normalized else None
        ref = None
        if spec.kind != "linear":
            ref = tuple(float(v) for v in rng.uniform(-0.1, 0.5, size=2) * (1.0 if normalized else cost))
        weights = tuple(rng.dirichlet(np.ones(2)))
        s = Scalarizer(weights, spec, ref, transform=ranges.normalize if ranges else None)
        shapes = [np.broadcast(*columns).shape for _, columns in families]
        z = np.empty((sum(math.prod(shape) for shape in shapes), 2))
        start = 0
        for (_, columns), shape in zip(families, shapes):
            stop = start + math.prod(shape)
            for j, column in enumerate(columns):
                z[start:stop].reshape(shape + (2,))[..., j] = column
            start = stop
        vals = s.value(z)
        assert vals.shape == (z.shape[0],)
        # the search scores the column-major view of a wider (2, N') buffer:
        # normalize keeps its layout, and both score as the C-contiguous copy
        buf = np.full((2, z.shape[0] + case % 3), np.nan)
        buf[:, : z.shape[0]] = z.T
        columns = buf[:, : z.shape[0]].T
        assert vals.tobytes() == s.value(columns).tobytes(), case
        assert vals.tobytes() == frozen_value(weights, spec, ref, ranges, z).tobytes(), case
        if ranges is not None:
            normalized_columns, normalized_rows = ranges.normalize(columns), ranges.normalize(z)
            assert normalized_columns.flags.f_contiguous and normalized_rows.flags.c_contiguous, case
            assert np.array_equal(normalized_columns, normalized_rows), case
            assert normalized_columns.tobytes(order="C") == normalized_rows.tobytes(), case
        start = 0
        for (name, columns), shape in zip(families, shapes):
            stop = start + math.prod(shape)
            block = vals[start:stop].tobytes()
            assert block == s.value_columns(*columns).tobytes(), (case, name)
            assert block == s.value(np.stack(np.broadcast_arrays(*columns), axis=-1)).tobytes(), (case, name)
            start = stop
    assert covered == {"edge", "insert", "swap", "delete"}


def test_value_rejects_flat_arrays_of_the_wrong_dimension():
    s = Scalarizer((0.5, 0.5), ScalarizerSpec("linear"))
    with pytest.raises(ValueError, match="point dimension 3 != weight dimension 2"):
        s.value(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="point dimension 1 != weight dimension 2"):
        s.value(np.zeros((5, 1)))
    with pytest.raises(ValueError, match="3 objective columns"):
        s.value_columns(np.zeros(4), np.zeros(4), np.zeros(4))
