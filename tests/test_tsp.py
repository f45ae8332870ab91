import itertools

import numpy as np
import pytest

from moscal.engine import IMPROVEMENT_EPS, MethodConfig, run_method
from moscal.scalarizing import Scalarizer, ScalarizerSpec
from moscal.tsp import (
    CandidateLists,
    TspAdapter,
    TspInstance,
    _exchange_deltas,
    build_candidate_lists,
    dpx_recombine,
    random_tour,
    tsp_evaluate,
    two_opt_local_search,
)


def euclid_matrix(coords):
    coords = np.asarray(coords, dtype=float)
    d = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    return np.floor(d + 0.5).astype(np.int64)


def random_instance(n, n_obj, rng, scale=1000):
    mats = []
    for _ in range(n_obj):
        coords = rng.uniform(0, scale, size=(n, 2))
        mats.append(euclid_matrix(coords))
    return TspInstance(tuple(mats))


def edge_set(tour):
    t = list(tour)
    return {tuple(sorted((t[i], t[(i + 1) % len(t)]))) for i in range(len(t))}


LIN = Scalarizer((1.0, 0.0), ScalarizerSpec("linear"))


def test_instance_validation():
    good = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])
    inst = TspInstance((good,))
    assert inst.n == 4 and inst.n_objectives == 1
    with pytest.raises(ValueError):
        TspInstance((good[:3, :3],))  # fewer than 4 cities
    with pytest.raises(ValueError):
        TspInstance((good, good[:3, :3]))  # size mismatch
    bad = good.copy()
    bad[0, 1] = 9
    with pytest.raises(ValueError):
        TspInstance((bad,))  # asymmetric
    neg = good.copy()
    neg[0, 1] = neg[1, 0] = -1
    with pytest.raises(ValueError):
        TspInstance((neg,))


def test_evaluate_cyclic_edge_sum():
    c1 = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])
    c2 = np.array([[0, 7, 1, 2], [7, 0, 3, 1], [1, 3, 0, 5], [2, 1, 5, 0]])
    inst = TspInstance((c1, c2))
    assert tsp_evaluate(inst, [0, 1, 2, 3]) == (1 + 4 + 6 + 3, 7 + 3 + 5 + 2)
    # rotation and direction reversal leave the value unchanged
    assert tsp_evaluate(inst, [1, 2, 3, 0]) == tsp_evaluate(inst, [0, 1, 2, 3])
    assert tsp_evaluate(inst, [3, 2, 1, 0]) == tsp_evaluate(inst, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        tsp_evaluate(inst, [0, 1, 2, 2])
    with pytest.raises(ValueError):
        tsp_evaluate(inst, [0, 1, 2])


def test_evaluate_against_plain_python_oracle():
    rng = np.random.default_rng(0)
    inst = random_instance(9, 2, rng)
    for _ in range(25):
        t = random_tour(inst, rng)
        expected = tuple(
            float(sum(int(c[t[i], t[(i + 1) % len(t)]]) for i in range(len(t))))
            for c in inst.costs
        )
        assert tsp_evaluate(inst, t) == expected


def test_candidate_lists_union_of_adjacencies():
    lists = build_candidate_lists([[0, 1, 2, 3]])
    assert lists.members == (
        frozenset({1, 3}),
        frozenset({0, 2}),
        frozenset({1, 3}),
        frozenset({0, 2}),
    )
    both = build_candidate_lists([[0, 1, 2, 3], [0, 2, 1, 3]])
    assert both.members[0] == frozenset({1, 2, 3})
    # symmetric closure: b in cand(a) iff a in cand(b)
    m = both.matrix()
    assert (m == m.T).all()
    with pytest.raises(ValueError):
        build_candidate_lists([])


def two_opt_has_improving_move(inst, tour, s, cand=None, eps=1e-9):
    """Independent scan: any nonadjacent pair whose exchange strictly improves."""
    t = list(tour)
    n = len(t)
    base = s(tsp_evaluate(inst, t))
    for i in range(n - 1):
        for k in range(i + 2, n):
            if i == 0 and k == n - 1:
                continue
            a, b, c, d = t[i], t[i + 1], t[k], t[(k + 1) % n]
            if cand is not None and not (c in cand.members[a] or d in cand.members[b]):
                continue
            cand_tour = t[: i + 1] + t[i + 1 : k + 1][::-1] + t[k + 1 :]
            if s(tsp_evaluate(inst, cand_tour)) < base - eps:
                return True
    return False


def test_two_opt_uncrosses_and_terminates_at_local_optimum():
    # a deliberately crossed tour over points on a rectangle
    coords = [(0, 0), (100, 0), (200, 0), (200, 100), (100, 100), (0, 100)]
    m = euclid_matrix(coords)
    inst = TspInstance((m, m))
    crossed = [0, 4, 2, 3, 1, 5]
    trace = []
    out = two_opt_local_search(inst, crossed, LIN, value_trace=trace)
    assert LIN(tsp_evaluate(inst, out)) < LIN(tsp_evaluate(inst, crossed))
    assert trace == sorted(trace, reverse=True)
    assert all(b < a - 1e-9 for a, b in zip(trace, trace[1:]))
    assert not two_opt_has_improving_move(inst, out, LIN)
    # the perimeter tour is the unique 2-opt optimum here
    assert LIN(tsp_evaluate(inst, out)) == LIN(tsp_evaluate(inst, [0, 1, 2, 3, 4, 5]))


def test_two_opt_fixed_point_is_stable():
    rng = np.random.default_rng(5)
    inst = random_instance(10, 2, rng)
    s = Scalarizer((0.4, 0.6), ScalarizerSpec("linear"))
    out = two_opt_local_search(inst, random_tour(inst, rng), s)
    again = two_opt_local_search(inst, out, s)
    assert tsp_evaluate(inst, again) == tsp_evaluate(inst, out)


def test_two_opt_output_sorted_permutation():
    rng = np.random.default_rng(6)
    inst = random_instance(12, 2, rng)
    for _ in range(5):
        out = two_opt_local_search(inst, random_tour(inst, rng), LIN)
        assert sorted(out.tolist()) == list(range(12))


def test_two_opt_respects_candidate_lists():
    rng = np.random.default_rng(11)
    inst = random_instance(12, 2, rng)
    # a deliberately skimpy candidate set: adjacency of two random tours
    lists = build_candidate_lists([random_tour(inst, rng), random_tour(inst, rng)])
    for _ in range(10):
        start = random_tour(inst, rng)
        out = two_opt_local_search(inst, start, LIN, candidates=lists)
        assert not two_opt_has_improving_move(inst, out, LIN, cand=lists)
    # lists for another city count are rejected, not read out of bounds
    for count in (11, 13):
        wrong = CandidateLists((frozenset({1}),) * count)
        with pytest.raises(ValueError, match="candidate lists"):
            two_opt_local_search(inst, random_tour(inst, rng), LIN, candidates=wrong)


def test_two_opt_nonlinear_scalarizer_monotone():
    rng = np.random.default_rng(21)
    inst = random_instance(10, 2, rng)
    start = random_tour(inst, rng)
    ref = tuple(float(v) for v in tsp_evaluate(inst, start))
    s = Scalarizer((0.5, 0.5), ScalarizerSpec("chebycheff"), ref)
    trace = []
    out = two_opt_local_search(inst, start, s, value_trace=trace)
    assert all(b < a - 1e-9 for a, b in zip(trace, trace[1:]))
    assert not two_opt_has_improving_move(inst, out, s)


def test_two_opt_reaches_exhaustive_optimum_on_6_cities():
    # single-objective check realized as two identical matrices with weight (1, 0)
    rng = np.random.default_rng(8)
    coords = rng.uniform(0, 100, size=(6, 2))
    m = euclid_matrix(coords)
    inst = TspInstance((m, m))
    best = min(
        LIN(tsp_evaluate(inst, (0,) + perm)) for perm in itertools.permutations(range(1, 6))
    )
    hits = 0
    for _ in range(20):
        out = two_opt_local_search(inst, random_tour(inst, rng), LIN)
        hits += LIN(tsp_evaluate(inst, out)) == best
    assert hits >= 15


def frozen_two_opt(instance, tour, scalarizer, candidates=None, value_trace=None):
    """Oracle: the dense 2-opt as first written, two fancy gathers per
    matrix per step and the candidate matrix rebuilt on every call."""
    t = np.asarray(tour, dtype=np.int64).copy()
    n = instance.n
    i_ = np.arange(n)
    pair_ok = (i_[None, :] - i_[:, None]) >= 2
    pair_ok[0, n - 1] = False
    bad_pairs = ~pair_ok
    cand = candidates.matrix() if candidates is not None else None
    nxt = np.empty_like(t)
    nxt[:-1], nxt[-1] = t[1:], t[0]
    point = np.array([c[t, nxt].sum() for c in instance.costs], dtype=np.int64)
    value = scalarizer(point)
    if value_trace is not None:
        value_trace.append(value)
    plain = scalarizer.is_plain_linear
    w = None
    if plain:
        w = sum(float(l) * c for l, c in zip(scalarizer.weights, instance.costs))
    while True:
        nxt[:-1], nxt[-1] = t[1:], t[0]
        ti, tk = t[:, None], t[None, :]
        ni, nk = nxt[:, None], nxt[None, :]
        if plain:
            removed = w[t, nxt]
            cand_vals = w[ti, tk]
            cand_vals += w[ni, nk]
            cand_vals -= removed[:, None]
            cand_vals -= removed[None, :]
            cand_vals += value
        else:
            deltas = np.empty((n, n, len(instance.costs)), dtype=np.int64)
            for j, c in enumerate(instance.costs):
                rem = c[t, nxt]
                d = c[ti, tk]
                d += c[ni, nk]
                d -= rem[:, None]
                d -= rem[None, :]
                deltas[:, :, j] = d
            cand_vals = scalarizer.value(point[None, None, :] + deltas)
        if cand is None:
            cand_vals[bad_pairs] = np.inf
        else:
            ok = cand[ti, tk]
            ok |= cand[ni, nk]
            cand_vals[bad_pairs | ~ok] = np.inf
        flat = int(np.argmin(cand_vals))
        i, k = divmod(flat, n)
        best = cand_vals[i, k]
        if not best < value - IMPROVEMENT_EPS:
            break
        t[i + 1 : k + 1] = t[i + 1 : k + 1][::-1]
        if plain:
            nxt[:-1], nxt[-1] = t[1:], t[0]
            point = np.array([c[t, nxt].sum() for c in instance.costs], dtype=np.int64)
        else:
            point = point + deltas[i, k]
        value = scalarizer(point)
        if value_trace is not None:
            value_trace.append(value)
    return t


def small_int_instance(n, n_obj, rng, high=10):
    """Symmetric costs from a narrow range, so that equal deltas are common."""
    mats = []
    for _ in range(n_obj):
        upper = np.triu(rng.integers(0, high, size=(n, n)), 1)
        mats.append(upper + upper.T)
    return TspInstance(tuple(mats))


def test_two_opt_matches_frozen_dense_oracle():
    rng = np.random.default_rng(2002)
    kinds = ("linear", "chebycheff", "mixed")
    list_kinds = ("none", "tours", "asymmetric")
    for case in range(216):
        n = int(rng.integers(5, 61))
        n_obj = int(rng.integers(2, 4))
        if case % 2:
            inst = small_int_instance(n, n_obj, rng)
        else:
            inst = random_instance(n, n_obj, rng)
        kind = kinds[case % 3]
        ref = tuple(float(v) for v in rng.uniform(0, 50, size=n_obj)) if kind != "linear" else None
        s = Scalarizer(tuple(rng.dirichlet(np.ones(n_obj))), ScalarizerSpec(kind), ref)
        lists = None
        list_kind = list_kinds[(case // 3) % 3]
        if list_kind == "tours":
            lists = build_candidate_lists([random_tour(inst, rng) for _ in range(int(rng.integers(1, 4)))])
        elif list_kind == "asymmetric":
            directed = rng.random((n, n)) < 0.2
            np.fill_diagonal(directed, False)
            assert (directed != directed.T).any()
            lists = CandidateLists(tuple(frozenset(np.flatnonzero(row).tolist()) for row in directed))
        start = random_tour(inst, rng)
        expected_trace, trace = [], []
        expected = frozen_two_opt(inst, start, s, lists, expected_trace)
        out = two_opt_local_search(inst, start, s, candidates=lists, value_trace=trace)
        assert out.tolist() == expected.tolist(), case
        assert trace == expected_trace, case


def test_exchange_deltas_keep_summation_order():
    # ((p[i,k] + p[i+1,k+1]) - removed_i) - removed_k, bit for bit: with
    # float-weighted costs of about 1e7, another order changes the last bit
    rng = np.random.default_rng(41)
    reordered = 0
    for _ in range(20):
        n = int(rng.integers(5, 40))
        inst = random_instance(n, 2, rng, scale=10**7)
        w = 0.3713 * inst.costs[0] + 0.6287 * inst.costs[1]
        t = random_tour(inst, rng)
        te = np.append(t, t[0])
        p = w[te][:, te]
        removed = np.diagonal(p, 1)
        expected = ((p[:-1, :-1] + p[1:, 1:]) - removed[:, None]) - removed[None, :]
        assert _exchange_deltas(p).tobytes() == expected.tobytes()
        swapped = ((p[:-1, :-1] + p[1:, 1:]) - removed[None, :]) - removed[:, None]
        reordered += swapped.tobytes() != expected.tobytes()
    assert reordered >= 15  # the inputs do tell the two orders apart


def test_dpx_identical_parents_returns_copy():
    rng = np.random.default_rng(0)
    p = np.array([3, 1, 4, 0, 2])
    off = dpx_recombine(p, p, rng)
    assert edge_set(off) == edge_set(p)
    off[0] = 99  # returned copy must not alias the parent
    assert p[0] == 3


def test_dpx_preserves_common_edges_small_example():
    rng = np.random.default_rng(1)
    p1 = np.array([0, 1, 2, 3, 4])
    p2 = np.array([0, 2, 1, 3, 4])
    common = edge_set(p1) & edge_set(p2)
    assert common == {(1, 2), (3, 4), (0, 4)}
    for _ in range(20):
        off = dpx_recombine(p1, p2, rng)
        assert sorted(off.tolist()) == [0, 1, 2, 3, 4]
        assert common <= edge_set(off)


def test_dpx_equal_edge_distance_on_random_pairs():
    rng = np.random.default_rng(2024)
    n = 20
    for _ in range(100):
        p1 = rng.permutation(n)
        p2 = rng.permutation(n)
        e1, e2 = edge_set(p1), edge_set(p2)
        off = dpx_recombine(p1, p2, rng)
        assert sorted(off.tolist()) == list(range(n))
        eo = edge_set(off)
        assert (e1 & e2) <= eo
        assert len(eo - e1) == len(eo - e2)


def test_dpx_rejects_mismatched_city_sets():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        dpx_recombine(np.array([0, 1, 2, 3]), np.array([0, 1, 2, 4]), rng)


def test_adapter_full_run_builds_candidates_and_archive():
    rng = np.random.default_rng(77)
    inst = random_instance(15, 2, rng)
    adapter = TspAdapter(inst)
    cfg = MethodConfig(method="mogls", objectives=2, generations=2, weight_count=6, seed=3)
    res = run_method(cfg, adapter)
    assert res.iteration_count == 6 + 2 * 6
    assert adapter.candidates is not None
    assert len(res.archive) >= 1
    # archived points are honest evaluations of archived solutions
    for sol, point in res.archive:
        assert tsp_evaluate(inst, sol) == point


def test_adapter_momsls_matches_engine_counts():
    rng = np.random.default_rng(78)
    inst = random_instance(10, 2, rng)
    res = run_method(
        MethodConfig(method="momsls", objectives=2, generations=0, weight_count=4, seed=1),
        TspAdapter(inst),
    )
    assert res.iteration_count == 4
