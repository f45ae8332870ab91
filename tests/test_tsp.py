import itertools
import re
from collections import Counter

import numpy as np
import pytest

from moscal import tsp, tspwp
from moscal.engine import IMPROVEMENT_EPS, MethodConfig, run_method
from moscal.scalarizing import Scalarizer, ScalarizerSpec
from moscal.tsp import (
    CandidateLists,
    TspAdapter,
    TspInstance,
    _DenseMoves,
    _MoveList,
    _exchange_deltas,
    _invalid_bias,
    _invalid_pairs,
    _padded_bias,
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
    five = np.ones((5, 5), dtype=np.int64) - np.eye(5, dtype=np.int64)
    with pytest.raises(ValueError, match="^cost matrices disagree on size$"):
        TspInstance((good, five))


def _with_entries(entries):
    """A valid 4-city cost matrix with the given {(i, j): value} entries."""
    costs = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])
    for at, value in entries.items():
        costs[at] = value
    return costs


@pytest.mark.parametrize(
    "costs, message",
    [
        (np.zeros((4, 5), dtype=np.int64), "cost matrix must be square"),
        (_with_entries({})[:3, :3], "instance needs at least 4 cities"),
        (_with_entries({(0, 1): -1, (1, 0): -1}), "costs must be nonnegative"),
        (_with_entries({(0, 1): 9}), "cost matrix must be symmetric"),
        (_with_entries({(2, 2): 1}), "self-distances must be zero"),
        (np.full((4, 4), 2**51) - np.diag(np.full(4, 2**51)),
         "n x max cost is 9007199254740992, at or above 2**53, where float objectives skip integers"),
    ],
    ids=["not_square", "three_cities", "negative", "asymmetric", "nonzero_diagonal", "n_max_cost_2_pow_53"],
)
def test_both_instance_types_apply_one_cost_matrix_rule(costs, message):
    # each matrix breaks one rule only, so without that rule neither type
    # raises this message
    profits = np.ones(len(costs), dtype=np.int64)
    for make in (lambda: TspInstance((costs,)), lambda: tspwp.TspwpInstance(costs, profits)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


@pytest.mark.parametrize(
    "entry, shown",
    [
        (1.5, "1.5"),  # was read as 1
        (np.inf, "inf"),
        (np.nan, "nan"),
        (2.0**63, "9.223372036854776e\\+18"),
    ],
    ids=["fractional", "inf", "nan", "2_pow_63"],
)
def test_instance_rejects_costs_that_are_no_integer_by_name(entry, shown):
    good = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])
    bad = good.astype(float)
    bad[1, 2] = bad[2, 1] = entry
    message = f"objective 2's cost matrix holds {shown} at index \\(1, 2\\), which is not an int64 integer"
    with pytest.raises(ValueError, match=f"^{message}$"):
        TspInstance((good, bad))
    # integral floats are integers
    assert TspInstance((good.astype(float),)).costs[0].tolist() == good.tolist()


def test_instance_rejects_tour_lengths_that_may_reach_2_pow_53():
    # a tour has n = 4 edges, so 4 x max cost bounds its length
    costs = np.full((4, 4), 2**51)
    np.fill_diagonal(costs, 0)
    with pytest.raises(ValueError, match="n x max cost is 9007199254740992, at or above 2\\*\\*53"):
        TspInstance((np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64), costs))
    costs[costs > 0] -= 1
    assert TspInstance((costs,)).n == 4


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


@pytest.mark.parametrize(
    "tour, message",
    [
        ([-1, 1, 2, 3], "tour holds id -1, outside the cities 0..3"),  # was read as city 3
        ([0, 1, 2, 7], "tour holds id 7, outside the cities 0..3"),  # was an IndexError deep in numpy
        ([0, 1.7, 2, 3], "tour holds id 1.7, which is not an integer city id"),  # was truncated to city 1
    ],
    ids=["negative", "beyond_n", "fractional"],
)
def test_tour_ids_that_are_no_city_are_rejected_by_name(tour, message):
    c = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])
    inst = TspInstance((c, c))
    with pytest.raises(ValueError, match=f"^{message}$"):
        tsp_evaluate(inst, tour)
    with pytest.raises(ValueError, match=f"^{message}$"):
        two_opt_local_search(inst, tour, LIN)
    # integral floats and unsigned ids are still city ids
    assert tsp_evaluate(inst, [0.0, 1.0, 2.0, 3.0]) == tsp_evaluate(inst, np.arange(4, dtype=np.uint8)) == (14.0, 14.0)


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
    with pytest.raises(ValueError, match="^tour holds id 4, outside the cities 0..3$"):
        build_candidate_lists([[0, 1, 2, 4]])


@pytest.mark.parametrize(
    "tours, message",
    [
        ([[0, 0, 1, 2]], "tour 0 is not a permutation of the cities 0..3"),  # city 0 was its own candidate
        ([[0, 1, 2, 3], [3, 1, 2, 1]], "tour 1 is not a permutation of the cities 0..3"),
        ([[0.5, 1, 2, 3]], "tour holds id 0.5, which is not an integer city id"),  # was read as city 0
    ],
    ids=["repeated", "second_tour", "fractional"],
)
def test_candidate_list_tours_that_are_no_tour_are_rejected_by_name(tours, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_candidate_lists(tours)
    # integral floats are still city ids
    assert build_candidate_lists([[0.0, 1.0, 2.0, 3.0]]) == build_candidate_lists([[0, 1, 2, 3]])


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
    out, _ = two_opt_local_search(inst, crossed, LIN, value_trace=trace)
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
    out, _ = two_opt_local_search(inst, random_tour(inst, rng), s)
    again, _ = two_opt_local_search(inst, out, s)
    assert tsp_evaluate(inst, again) == tsp_evaluate(inst, out)


def test_two_opt_output_sorted_permutation():
    rng = np.random.default_rng(6)
    inst = random_instance(12, 2, rng)
    for _ in range(5):
        out, _ = two_opt_local_search(inst, random_tour(inst, rng), LIN)
        assert sorted(out.tolist()) == list(range(12))


def test_two_opt_respects_candidate_lists():
    rng = np.random.default_rng(11)
    inst = random_instance(12, 2, rng)
    # a deliberately skimpy candidate set: adjacency of two random tours
    lists = build_candidate_lists([random_tour(inst, rng), random_tour(inst, rng)])
    for _ in range(10):
        start = random_tour(inst, rng)
        out, _ = two_opt_local_search(inst, start, LIN, candidates=lists)
        assert not two_opt_has_improving_move(inst, out, LIN, cand=lists)
    # lists for another city count are rejected, not read out of bounds
    for count in (11, 13):
        wrong = CandidateLists((frozenset({1}),) * count)
        with pytest.raises(ValueError, match="candidate lists"):
            two_opt_local_search(inst, random_tour(inst, rng), LIN, candidates=wrong)
    # ids that are no city are rejected when the lists are made, not read
    # as another city (-1) or out of bounds (n)
    for bad in (-1, 12):
        members = [frozenset({(a + 1) % 12}) for a in range(12)]
        members[5] = frozenset({3, bad})
        with pytest.raises(ValueError, match=f"city 5 holds id {bad},"):
            CandidateLists(tuple(members))
    # lists without pairs allow no move: every tour is a local optimum
    start = random_tour(inst, rng)
    out, _ = two_opt_local_search(inst, start, LIN, candidates=CandidateLists((frozenset(),) * 12))
    assert out.tolist() == start.tolist()


def test_two_opt_nonlinear_scalarizer_monotone():
    rng = np.random.default_rng(21)
    inst = random_instance(10, 2, rng)
    start = random_tour(inst, rng)
    ref = tuple(float(v) for v in tsp_evaluate(inst, start))
    s = Scalarizer((0.5, 0.5), ScalarizerSpec("chebycheff"), ref)
    trace = []
    out, _ = two_opt_local_search(inst, start, s, value_trace=trace)
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
        out, _ = two_opt_local_search(inst, random_tour(inst, rng), LIN)
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


def assert_exact_point(point, expected, case):
    """`point` is a tuple of Python floats with the bytes of `expected`."""
    assert type(point) is tuple and all(type(v) is float for v in point), case
    assert np.array(point).tobytes() == np.array(expected).tobytes(), case


def assert_follows_frozen_oracle(inst, start, s, lists, case):
    expected_trace, trace = [], []
    expected = frozen_two_opt(inst, start, s, lists, expected_trace)
    out, point = two_opt_local_search(inst, start, s, candidates=lists, value_trace=trace)
    assert out.tolist() == expected.tolist(), case
    assert trace == expected_trace, case
    assert_exact_point(point, tsp_evaluate(inst, out), case)


def record_paths(monkeypatch):
    """The path each search takes, in call order, with its scalarizer kind:
    "dense" (no lists), "masked" (the dense scan masked by the lists) or
    "list"."""
    taken = []
    choose = tsp._moves

    def recording(instance, scalarizer, candidates):
        moves = choose(instance, scalarizer, candidates)
        if isinstance(moves, _MoveList):
            path = "list"
        else:
            path = "dense" if moves.candidate_bias is None else "masked"
        taken.append((path, scalarizer.spec.kind))
        return moves

    monkeypatch.setattr(tsp, "_moves", recording)
    return taken


def record_fallbacks(monkeypatch):
    """The scalarizer kind of each masked step whose unmasked winner is
    unlisted, so that `best` gathers and adds the candidate mask."""
    kinds = []
    add_mask = _DenseMoves._add_mask

    def recording(self, vals, te):
        kinds.append(self.scalarizer.spec.kind)
        return add_mask(self, vals, te)

    monkeypatch.setattr(_DenseMoves, "_add_mask", recording)
    return kinds


def directed_lists(n, count, rng):
    """Lists of exactly `count` directed pairs (a, c), a != c, drawn at random."""
    off_diagonal = np.flatnonzero(~np.eye(n, dtype=bool))
    listed = np.zeros(n * n, dtype=bool)
    listed[rng.choice(off_diagonal, size=count, replace=False)] = True
    return CandidateLists(tuple(frozenset(np.flatnonzero(row).tolist()) for row in listed.reshape(n, n)))


def test_two_opt_matches_frozen_dense_oracle(monkeypatch):
    taken = record_paths(monkeypatch)
    fallbacks = record_fallbacks(monkeypatch)
    rng = np.random.default_rng(2002)
    kinds = ("linear", "chebycheff", "mixed")
    list_kinds = ("none", "tours", "asymmetric")

    def scalarizer(kind, n_obj):
        ref = tuple(float(v) for v in rng.uniform(0, 50, size=n_obj)) if kind != "linear" else None
        return Scalarizer(tuple(rng.dirichlet(np.ones(n_obj))), ScalarizerSpec(kind), ref)

    for case in range(216):
        n = int(rng.integers(5, 61))
        n_obj = int(rng.integers(2, 4))
        if case % 2:
            inst = small_int_instance(n, n_obj, rng)
        else:
            inst = random_instance(n, n_obj, rng)
        s = scalarizer(kinds[case % 3], n_obj)
        lists = None
        list_kind = list_kinds[(case // 3) % 3]
        if list_kind == "tours":
            lists = build_candidate_lists([random_tour(inst, rng) for _ in range(int(rng.integers(1, 4)))])
        elif list_kind == "asymmetric":
            directed = rng.random((n, n)) < 0.2
            np.fill_diagonal(directed, False)
            assert (directed != directed.T).any()
            lists = CandidateLists(tuple(frozenset(np.flatnonzero(row).tolist()) for row in directed))
        assert_follows_frozen_oracle(inst, random_tour(inst, rng), s, lists, case)
    # the engine's lists: adjacencies of 2-opt local optima, searched from
    # DPX offspring of two optima, on tie-heavy costs at up to 100 cities
    for case in range(24):
        n = int(rng.integers(30, 101))
        n_obj = int(rng.integers(2, 4))
        inst = small_int_instance(n, n_obj, rng)
        optima = [
            two_opt_local_search(inst, random_tour(inst, rng), scalarizer("linear", n_obj))[0]
            for _ in range(int(rng.integers(2, 6)))
        ]
        lists = build_candidate_lists(optima)
        s = scalarizer(kinds[case % 3], n_obj)
        for start in (random_tour(inst, rng), dpx_recombine(optima[0], optima[1], rng)):
            assert_follows_frozen_oracle(inst, start, s, lists, ("optima", case))
    # dense lists take the masked scan: from many tours, or random directed
    # pairs, on tie-heavy costs under every scalarizer kind
    for case in range(36):
        n = int(rng.integers(5, 41))
        n_obj = int(rng.integers(2, 4))
        inst = small_int_instance(n, n_obj, rng, high=int(rng.choice([3, 10])))
        s = scalarizer(kinds[case % 3], n_obj)
        if case % 2:
            lists = build_candidate_lists([random_tour(inst, rng) for _ in range(n)])
        else:
            lists = directed_lists(n, int(rng.integers(n * n // 2 + 1, n * (n - 1) + 1)), rng)
        assert_follows_frozen_oracle(inst, random_tour(inst, rng), s, lists, ("dense lists", case))
    # just either side of the switch: the scan is masked when the lists give
    # more than n²/2 moves, two per directed pair
    for case in range(24):
        n = 2 * int(rng.integers(3, 21))
        n_obj = int(rng.integers(2, 4))
        inst = small_int_instance(n, n_obj, rng)
        kind = kinds[case % 3]
        s = scalarizer(kind, n_obj)
        for count, path in ((n * n // 4, "list"), (n * n // 4 + 1, "masked")):
            lists = directed_lists(n, count, rng)
            assert_follows_frozen_oracle(inst, random_tour(inst, rng), s, lists, ("switch", case, count))
            assert taken[-1] == (path, kind), ("switch", case, count)
    counts = Counter(taken)
    for path in ("dense", "masked", "list"):
        for kind in kinds:
            assert counts[path, kind] >= 20, counts
    # the masked steps whose unmasked winner no list holds, under every kind
    fallback_counts = Counter(fallbacks)
    for kind in kinds:
        assert fallback_counts[kind] >= 20, fallback_counts


def test_exchange_deltas_keep_summation_order():
    # ((p[i,k] + p[i+1,k+1]) - removed_i) - removed_k, bit for bit: with
    # float-weighted costs of about 1e7, another order changes the last bit.
    # The move list and the dense search score their moves with the same
    # bits as the dense kernel.
    rng = np.random.default_rng(41)
    s = Scalarizer((0.3713, 0.6287), ScalarizerSpec("linear"))
    reordered = listed_reordered = 0
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

        lists = build_candidate_lists([random_tour(inst, rng) for _ in range(3)])
        moves = _MoveList(inst, s, lists)
        point = np.array([c[t, te[1:]].sum() for c in inst.costs])
        flat, deltas = moves.values(te, point, 0.0)
        valid = ~_invalid_pairs(n).ravel()[flat]
        assert np.isinf(deltas[~valid]).all()
        assert deltas[valid].tobytes() == expected.ravel()[flat[valid]].tobytes()
        listed_reordered += swapped.ravel()[flat[valid]].tobytes() != deltas[valid].tobytes()
        value = s(point)
        flat, vals = moves.values(te, point, value)
        assert vals[valid].tobytes() == (expected.ravel()[flat[valid]] + value).tobytes()
        # the dense search adds a 0/inf bias to its values; each move keeps its bits
        dense = _DenseMoves(inst, s)
        dense_vals = dense.values(te, point, value)
        invalid = _invalid_pairs(n)
        assert np.isinf(dense_vals[invalid]).all()
        assert dense_vals[~invalid].tobytes() == (expected + value)[~invalid].tobytes()
        best_flat, best = dense.best(te, point, value)
        assert best_flat == int(np.argmin(dense_vals)) and best == dense_vals.flat[best_flat]
        # the masked scan: the dense bits on the moves the lists allow, inf elsewhere
        cand = lists.matrix()
        allowed = ~invalid & (cand[te[:-1]][:, te[:-1]] | cand[te[1:]][:, te[1:]])
        masked = _DenseMoves(inst, s, lists.bias)
        masked_vals = masked.values(te, point, value)
        assert np.isinf(masked_vals[~allowed]).all()
        assert masked_vals[allowed].tobytes() == dense_vals[allowed].tobytes()
        best_flat, best = masked.best(te, point, value)
        assert best_flat == int(np.argmin(masked_vals)) and best == masked_vals.flat[best_flat]
    assert reordered >= 15  # the inputs do tell the two orders apart
    assert listed_reordered >= 10  # also on the moves the lists allow


def test_plain_linear_cost_matrix_bit_matches_the_frozen_in_place_sum():
    # a plain linear scalarizer scores 2-opt moves on `value_columns` of the
    # cost matrices; every entry keeps the bits of the in-place weighted sum
    # the search built before, objectives added left to right
    rng = np.random.default_rng(47)
    reordered = 0
    for case in range(40):
        n_obj = 2 + case % 2
        inst = random_instance(int(rng.integers(5, 40)), n_obj, rng, scale=int(rng.choice([10, 10**4, 10**7])))
        lam = rng.dirichlet(np.ones(n_obj))
        if case % 4 == 0:
            lam[0], lam[1] = 0.0, lam[0] + lam[1]
        s = Scalarizer(tuple(lam), ScalarizerSpec("linear"))
        w = s.weights.tolist()
        frozen = inst.costs[0] * w[0]
        for l, c in zip(w[1:], inst.costs[1:]):
            frozen += c * l
        (weighted,) = tsp._Moves(inst, s).costs
        assert weighted.dtype == np.float64 and weighted.tobytes() == frozen.tobytes(), case
        if n_obj == 3:
            backwards = inst.costs[2] * w[2] + inst.costs[1] * w[1] + inst.costs[0] * w[0]
            reordered += backwards.tobytes() != frozen.tobytes()
    assert reordered >= 10  # the inputs do tell the summation orders apart


def test_move_list_scalarizes_like_the_dense_path():
    # chebycheff and mixed moves are scalarized from one column per
    # objective; each value equals the entry `Scalarizer.value` gives its
    # move on the dense (n, n, J) array, bit for bit
    rng = np.random.default_rng(43)
    for case in range(300):
        n = int(rng.integers(5, 121))
        n_obj = int(rng.integers(2, 4))
        inst = random_instance(n, n_obj, rng, scale=int(rng.choice([10, 10**4, 10**7])))
        kind = ("chebycheff", "mixed")[case % 2]
        spec = ScalarizerSpec(kind, w_linear=float(rng.uniform(0.05, 0.95))) if kind == "mixed" else ScalarizerSpec(kind)
        t = random_tour(inst, rng)
        te = np.append(t, t[0])
        point = np.array([c[t, te[1:]].sum() for c in inst.costs])
        ref = tuple(float(v) for v in point * rng.uniform(0.5, 1.0, size=n_obj))
        s = Scalarizer(tuple(rng.dirichlet(np.ones(n_obj))), spec, ref)
        deltas = np.stack([_exchange_deltas(c[te][:, te]) for c in inst.costs], axis=-1)
        dense = s.value(point + deltas).ravel()
        lists = build_candidate_lists([random_tour(inst, rng) for _ in range(int(rng.integers(1, 5)))])
        flat, vals = _MoveList(inst, s, lists).values(te, point, s(point))
        valid = ~_invalid_pairs(n).ravel()[flat]
        assert vals[valid].tobytes() == dense[flat[valid]].tobytes(), case


def test_move_lists_share_the_read_only_index_arrays_of_their_lists():
    # every list search of a run builds its `_MoveList` or masked
    # `_DenseMoves` from one `CandidateLists`: the pair, own-edge and
    # position indices and the candidate bias are built once and shared
    # read-only; only the per-search buffers are new
    rng = np.random.default_rng(44)
    inst = random_instance(30, 3, rng)
    lists = build_candidate_lists([random_tour(inst, rng) for _ in range(4)])
    specs = (ScalarizerSpec("linear"), ScalarizerSpec("chebycheff"))
    first, second = (_MoveList(inst, Scalarizer((0.2, 0.3, 0.5), spec, (0.0, 0.0, 0.0)), lists) for spec in specs)
    for name in ("pa", "pc", "positions", "before"):
        shared = getattr(first, name)
        assert shared is getattr(second, name), name
        assert not shared.flags.writeable, name
    own = lists.own_edges
    assert own is lists.own_edges and not own.flags.writeable
    half = first.pa.size // 2
    assert np.array_equal(own, np.tile(first.pa[:half] * 30 + first.pc[:half], 2))
    assert np.shares_memory(first.bias, second.bias) and not first.bias.flags.writeable
    for name in ("pos2", "nb2"):
        assert not np.shares_memory(getattr(first, name), getattr(second, name)), name
    for c, fixed in zip(inst.costs, second.fixed):
        assert np.array_equal(fixed, c.ravel()[own])
    # the masked scan shares its lists' candidate bias, and every dense scan
    # the padded bias of its n; only the step buffers are per search
    bias = lists.bias
    assert bias is lists.bias and not bias.flags.writeable
    assert np.array_equal(bias == 0.0, lists.matrix()) and np.isinf(bias[bias != 0.0]).all()
    first, second = (_DenseMoves(inst, Scalarizer((0.2, 0.3, 0.5), spec, (0.0, 0.0, 0.0)), bias) for spec in specs)
    padded = _padded_bias(30)
    assert padded is _padded_bias(30) and not padded.flags.writeable
    assert first.candidate_bias is second.candidate_bias is bias
    assert first.bias is second.bias is padded
    grid = padded.reshape(30, 31)
    assert np.isinf(grid[:, 30]).all()  # the pad column
    assert np.array_equal(grid[:, :30], _invalid_bias(30))
    # the mask buffers wait for the first step that masks
    assert first.mask is None and first.mask_order is None
    t = random_tour(inst, rng)
    te = np.append(t, t[0])
    point = [int(c[t, te[1:]].sum()) for c in inst.costs]
    for moves in (first, second):
        moves.values(te, point, 0.0)
    for name in ("removed", "mask"):
        assert not np.shares_memory(getattr(first, name), getattr(second, name)), name
    assert not np.shares_memory(first.order.flat, second.order.flat)
    assert not np.shares_memory(first.mask_order.flat, second.mask_order.flat)


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
    # a repeated city used to drop a city from the offspring, or to hang the
    # fragment walk
    for pa, pb in (([0, 0, 1, 2], [0, 1, 0, 2]), ([0, 1, 2, 3, 3], [3, 0, 1, 2, 3])):
        with pytest.raises(ValueError, match="parents must visit each city once"):
            dpx_recombine(np.array(pa), np.array(pb), rng)
    # ids outside 0..n-1 used to reach the offspring: [2 1 9 0]
    for pa, pb, bad in (([0, 1, 2, 9], [9, 0, 2, 1], 9), ([-1, 0, 1, 2], [2, 1, 0, -1], -1)):
        with pytest.raises(ValueError, match=f"^parent holds id {bad}, outside the cities 0..3$"):
            dpx_recombine(pa, pb, rng)


def test_dpx_rejects_ids_that_are_no_integer():
    rng = np.random.default_rng(0)
    # 3.5 was read as city 3
    with pytest.raises(ValueError, match="^parent holds id 3.5, which is not an integer city id$"):
        dpx_recombine([0, 1, 2, 3], [0, 1, 2, 3.5], rng)
    with pytest.raises(ValueError, match="^parent holds id nan, which is not an integer city id$"):
        dpx_recombine([0, 1, 2, np.nan], [0, 1, 2, 3], rng)
    with pytest.raises(ValueError, match="^parent must hold integer city ids, not <U1$"):
        dpx_recombine(list("abcd"), list("abcd"), rng)
    # integral floats are still city ids, and the offspring holds int64 ids
    off = dpx_recombine([0.0, 1.0, 2.0, 3.0, 4.0], [0, 2, 1, 3, 4], rng)
    assert off.dtype == np.int64 and sorted(off.tolist()) == [0, 1, 2, 3, 4]


def frozen_edge_set(tour):
    """Oracle: `_edge_set` as first written, over numpy scalars."""
    if tour.size < 2:
        return set()
    nxt = np.roll(tour, -1)
    return {(int(a), int(b)) if a < b else (int(b), int(a)) for a, b in zip(tour, nxt)}


def frozen_common_fragments(n_cities, common_edges):
    """Oracle: `_common_fragments` as first written."""
    adj = {c: [] for c in n_cities}
    for a, b in common_edges:
        adj[a].append(b)
        adj[b].append(a)
    if common_edges and all(len(adj[c]) == 2 for c in n_cities):
        return None
    fragments = []
    seen = set()
    for c in n_cities:
        if c in seen or len(adj[c]) == 2:
            continue
        frag = [c]
        seen.add(c)
        prev, cur = None, c
        while True:
            nbrs = [x for x in adj[cur] if x != prev]
            if not nbrs:
                break
            prev, cur = cur, nbrs[0]
            frag.append(cur)
            seen.add(cur)
        fragments.append(frag)
    return fragments


def frozen_chain_fragments_avoiding(fragments, forbidden, rng, attempts, counts):
    """Oracle: the chaining as first written, rescanning a set of the
    remaining fragments at every step; counts its dead ends."""

    def edge(a, b):
        return (a, b) if a < b else (b, a)

    m = len(fragments)
    for _ in range(attempts):
        order = list(rng.permutation(m))
        first = fragments[order[0]]
        if len(first) > 1 and rng.random() < 0.5:
            first = first[::-1]
        chain = list(first)
        remaining = set(order[1:])
        dead = False
        while remaining:
            tail = chain[-1]
            options = []
            for idx in remaining:
                frag = fragments[idx]
                if edge(tail, frag[0]) not in forbidden:
                    options.append((idx, False))
                if len(frag) > 1 and edge(tail, frag[-1]) not in forbidden:
                    options.append((idx, True))
            if not options:
                dead = True
                break
            idx, flip = options[int(rng.integers(len(options)))]
            frag = fragments[idx][::-1] if flip else fragments[idx]
            chain.extend(frag)
            remaining.discard(idx)
        if dead or (m > 1 and edge(chain[-1], chain[0]) in forbidden):
            counts["dead ends"] += 1
            continue
        return chain
    return None


def frozen_dpx_recombine(parent_a, parent_b, rng, counts):
    """Oracle: `dpx_recombine` as first written; counts identical parents
    and fallbacks to parent edges."""
    pa = np.asarray(parent_a, dtype=np.int64)
    pb = np.asarray(parent_b, dtype=np.int64)
    ea, eb = frozen_edge_set(pa), frozen_edge_set(pb)
    common = ea & eb
    fragments = frozen_common_fragments(pa.tolist(), common)
    if fragments is None:
        counts["identical"] += 1
        return pa.copy()
    chain = frozen_chain_fragments_avoiding(fragments, ea | eb, rng, 30, counts)
    if chain is None:
        counts["fallbacks"] += 1
        chain = frozen_chain_fragments_avoiding(fragments, common, rng, 1, counts)
    return np.asarray(chain, dtype=np.int64)


def test_dpx_matches_frozen_oracle(monkeypatch):
    # Same offspring and same RNG draws as the first DPX, whose chaining
    # iterated a set of small ints (ascending in CPython): over identical
    # parents, pairs one 2-opt move apart, random pairs (dead ends and the
    # fallback) and pairs of 2-opt local optima at n = 4..100, and over
    # dpx_wp_recombine, which shares the edge and fragment helpers.
    rng = np.random.default_rng(1996)
    counts = Counter()

    def check(recombine, frozen, pa, pb, case):
        seed = int(rng.integers(2**32))
        expected_rng, out_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = frozen(pa, pb, expected_rng)
        out = recombine(pa, pb, out_rng)
        assert out.tolist() == expected.tolist(), case
        assert out_rng.random() == expected_rng.random(), case
        counts["pairs"] += 1

    def tsp_check(pa, pb, case):
        check(dpx_recombine, lambda a, b, r: frozen_dpx_recombine(a, b, r, counts), pa, pb, case)

    for case in range(20):
        n = int(rng.integers(4, 101))
        p = rng.permutation(n)
        tsp_check(p, p, ("identical", case))
        tsp_check(p, np.roll(p[::-1], int(rng.integers(n))), ("mirrored", case))
    for case in range(40):
        n = int(rng.integers(5, 101))
        p = rng.permutation(n)
        i = int(rng.integers(n - 3))
        k = int(rng.integers(i + 2, n - 1))
        q = np.concatenate((p[: i + 1], p[i + 1 : k + 1][::-1], p[k + 1 :]))
        tsp_check(p, q, ("one 2-opt move apart", case))
    for case in range(80):
        n = int(rng.integers(4, 101)) if case % 2 else int(rng.integers(4, 9))
        tsp_check(rng.permutation(n), rng.permutation(n), ("random", case))
    for case in range(40):
        n = int(rng.integers(10, 101))
        inst = random_instance(n, 2, rng)
        s = Scalarizer(tuple(rng.dirichlet(np.ones(2))), ScalarizerSpec("linear"))
        pa, pb = (two_opt_local_search(inst, random_tour(inst, rng), s)[0] for _ in range(2))
        tsp_check(pa, pb, ("local optima", case))

    def frozen_wp(pa, pb, r):
        with monkeypatch.context() as m:
            m.setattr(tspwp, "_edge_set", frozen_edge_set)
            m.setattr(tspwp, "_common_fragments", frozen_common_fragments)
            return tspwp.dpx_wp_recombine(pa, pb, r, n)

    for case in range(40):
        n = int(rng.integers(4, 101))
        pa = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        pb = pa.copy() if case % 4 == 0 else rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        check(lambda a, b, r: tspwp.dpx_wp_recombine(a, b, r, n), frozen_wp, pa, pb, ("dpx_wp", case))
    assert counts["pairs"] >= 200
    assert counts["identical"] >= 40 and counts["dead ends"] >= 1000 and counts["fallbacks"] >= 20, counts


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
