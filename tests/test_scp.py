import itertools

import numpy as np
import pytest

from moscal.engine import IMPROVEMENT_EPS, MethodConfig, run_method
from moscal.scalarizing import Scalarizer, ScalarizerSpec
from moscal.scp import (
    RepairError,
    ScpAdapter,
    ScpInstance,
    greedy_repair,
    random_cover,
    scp_evaluate,
    scp_local_search,
    scp_recombine,
)

# Half-integer weights keep every scalarized quantity an exact dyadic float,
# so tie behaviour is reproducible across independent implementations.
HALF = Scalarizer((0.5, 0.5), ScalarizerSpec("linear"))


def random_scp(n_rows, n_cols, rng, density=0.3, cost_hi=50):
    coverage = rng.random((n_rows, n_cols)) < density
    for row in range(n_rows):
        if not coverage[row].any():
            coverage[row, rng.integers(n_cols)] = True
    costs = rng.integers(1, cost_hi + 1, size=(2, n_cols))
    return ScpInstance(costs, coverage)


def is_feasible(inst, cols):
    return all(any(inst.coverage[row, c] for c in cols) for row in range(inst.n_rows))


def oracle_repair(inst, partial, weights, excluded=None):
    """Plain-python greedy repair with the same ratio rule."""
    selected = set(partial)
    point = [
        float(sum(inst.costs[j, c] for c in selected)) for j in range(inst.n_objectives)
    ]
    while True:
        uncovered = [
            row
            for row in range(inst.n_rows)
            if not any(inst.coverage[row, c] for c in selected)
        ]
        if not uncovered:
            return frozenset(selected)
        best = None
        for col in range(inst.n_columns):
            if col == excluded or col in selected:
                continue
            newly = sum(1 for row in uncovered if inst.coverage[row, col])
            if newly == 0:
                continue
            base = sum(w * z for w, z in zip(weights, point))
            grown = sum(
                w * (z + inst.costs[j, col]) for j, (w, z) in enumerate(zip(weights, point))
            )
            ratio = (grown - base) / newly
            if best is None or ratio < best[0]:
                best = (ratio, col)
        if best is None:
            raise RepairError("oracle: stuck")
        col = best[1]
        selected.add(col)
        for j in range(inst.n_objectives):
            point[j] += inst.costs[j, col]


def test_instance_validation():
    costs = np.array([[3, 4], [7, 2]])
    coverage = np.array([[True, False], [False, True]])
    inst = ScpInstance(costs, coverage)
    assert inst.n_rows == 2 and inst.n_columns == 2 and inst.n_objectives == 2
    assert inst.row_covers(0).tolist() == [0]
    with pytest.raises(ValueError):
        ScpInstance(np.array([[0, 4], [7, 2]]), coverage)  # zero cost
    with pytest.raises(ValueError):
        ScpInstance(costs, np.array([[False, False], [True, True]]))  # row 0 bare
    with pytest.raises(ValueError):
        ScpInstance(costs[:, :1], coverage)  # column count mismatch


@pytest.mark.parametrize(
    "entry, message",
    [
        (2.5, "cost matrix holds 2.5 at index \\(1, 0\\), which is not an int64 integer"),  # was 2
        (np.inf, "cost matrix holds inf at index \\(1, 0\\), which is not an int64 integer"),
        (2**64, "cost matrix holds 18446744073709551616 at index \\(1, 0\\), which is not an int64 integer"),
    ],
    ids=["fractional", "inf", "2_pow_64"],
)
def test_instance_rejects_costs_that_are_no_integer_by_name(entry, message):
    coverage = np.array([[True, False], [False, True]])
    with pytest.raises(ValueError, match=f"^{message}$"):
        ScpInstance([[3, 4], [entry, 2]], coverage)
    assert ScpInstance([[3.0, 4.0], [7.0, 2.0]], coverage).costs.tolist() == [[3, 4], [7, 2]]


def test_instance_rejects_cost_sums_that_may_reach_2_pow_53():
    coverage = np.array([[True, False], [False, True]])
    with pytest.raises(ValueError, match="sum of objective 2's column costs is 9007199254740992"):
        ScpInstance(np.array([[3, 4], [2**52, 2**52]]), coverage)
    assert ScpInstance(np.array([[3, 4], [2**52, 2**52 - 1]]), coverage).n_objectives == 2


def test_evaluate_examples():
    costs = np.array([[3, 2, 9], [7, 1, 4]])
    coverage = np.array([[True, True, False], [True, False, True]])
    inst = ScpInstance(costs, coverage)
    assert scp_evaluate(inst, {0}) == (3.0, 7.0)  # single all-covering column
    assert scp_evaluate(inst, {0, 1, 2}) == (14.0, 12.0)  # everything selected
    with pytest.raises(ValueError):
        scp_evaluate(inst, {1})  # row 1 uncovered
    with pytest.raises(ValueError):
        scp_evaluate(inst, {0, 5})


@pytest.mark.parametrize(
    "solution, message",
    [
        ({1.5}, "solution holds id 1.5, which is not an integer column id"),  # was scored as column 1
        ({0.2, 2.9}, "solution holds id 0.2, which is not an integer column id"),  # as columns 0 and 2
        ([0, 2.5], "solution holds id 2.5, which is not an integer column id"),
        ({"a"}, "solution must hold integer column ids, not <U1"),
        ({0, 5}, "solution holds id 5, outside the columns 0..2"),  # was "column index out of range"
        ({-1, 0}, "solution holds id -1, outside the columns 0..2"),
    ],
    ids=["fractional", "two_fractional", "mixed", "string", "beyond_n", "negative"],
)
def test_column_ids_that_are_no_column_are_rejected_by_name(solution, message):
    # every column covers every row, so each truncated id made a cover
    inst = ScpInstance(np.array([[3, 4, 5], [1, 2, 3]]), np.ones((2, 3), dtype=bool))
    rng = np.random.default_rng(0)
    calls = (
        lambda: scp_evaluate(inst, solution),
        lambda: scp_local_search(inst, solution, HALF),
        lambda: greedy_repair(inst, solution, HALF),
        lambda: scp_recombine(solution, {0}, rng, inst),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    # integral floats are still column ids
    assert scp_evaluate(inst, {1.0}) == scp_evaluate(inst, {1}) == (4.0, 2.0)


def test_evaluate_matches_resummation():
    rng = np.random.default_rng(1)
    inst = random_scp(10, 20, rng)
    for _ in range(20):
        cols = set(
            int(c) for c in rng.choice(20, size=int(rng.integers(5, 15)), replace=False)
        )
        if not is_feasible(inst, cols):
            continue
        expected = tuple(
            float(sum(int(inst.costs[j, c]) for c in cols)) for j in range(2)
        )
        assert scp_evaluate(inst, cols) == expected


def test_repair_feasible_input_unchanged():
    rng = np.random.default_rng(2)
    inst = random_scp(8, 15, rng)
    full = frozenset(range(15))
    assert greedy_repair(inst, full, HALF) == full


def test_repair_single_step_picks_best_ratio():
    # one uncovered row; ratios 5/1 vs 4/1 -> column 1 wins
    costs = np.array([[5, 4], [5, 4]])
    coverage = np.array([[True, True]])
    inst = ScpInstance(costs, coverage)
    assert greedy_repair(inst, frozenset(), HALF) == {1}
    # exact ratio tie -> lowest index
    tie = ScpInstance(np.array([[4, 4], [4, 4]]), coverage)
    assert greedy_repair(tie, frozenset(), HALF) == {0}


def test_repair_ratio_divides_by_coverage_count():
    # column 0: cost 6 covering both rows (ratio 3); column 1: cost 4, one row (ratio 4)
    costs = np.array([[6, 4, 4], [6, 4, 4]])
    coverage = np.array([[True, True, False], [True, False, True]])
    inst = ScpInstance(costs, coverage)
    assert greedy_repair(inst, frozenset(), HALF) == {0}


def test_repair_never_inserts_excluded():
    costs = np.array([[1, 30], [1, 30]])
    coverage = np.array([[True, True]])
    inst = ScpInstance(costs, coverage)
    assert greedy_repair(inst, frozenset(), HALF, excluded=0) == {1}
    only = ScpInstance(np.array([[1], [1]]), np.array([[True]]))
    with pytest.raises(RepairError):
        greedy_repair(only, frozenset(), HALF, excluded=0)


def test_repair_random_trials_feasible_and_match_oracle():
    rng = np.random.default_rng(3)
    for trial in range(100):
        inst = random_scp(10, 20, rng)
        size = int(rng.integers(0, 6))
        partial = frozenset(int(c) for c in rng.choice(20, size=size, replace=False))
        out = greedy_repair(inst, partial, HALF)
        assert is_feasible(inst, out)
        assert partial <= out
        assert out == oracle_repair(inst, partial, (0.5, 0.5))


def test_local_search_removes_redundant_expensive_column():
    # exhaustive check: {0, 1} is the unique global optimum; the start holds a
    # redundant expensive column 4 whose removal repairs to nothing extra
    costs = np.array([[1, 1, 40, 3, 50], [1, 1, 40, 3, 50]])
    coverage = np.array(
        [
            [True, False, True, False, True],
            [True, False, True, True, False],
            [False, True, True, True, False],
            [False, True, True, False, False],
        ]
    )
    inst = ScpInstance(costs, coverage)
    best = min(
        (
            HALF(scp_evaluate(inst, set(sub)))
            for r in range(1, 6)
            for sub in itertools.combinations(range(5), r)
            if is_feasible(inst, sub)
        ),
    )
    assert best == HALF(scp_evaluate(inst, {0, 1}))
    trace = []
    out, _ = scp_local_search(inst, {0, 1, 4}, HALF, value_trace=trace)
    assert out == {0, 1}
    assert 4 not in out
    assert all(b < a for a, b in zip(trace, trace[1:]))


def test_local_search_checks_its_start_without_scp_evaluate(monkeypatch):
    # the first step's row counts and cost sums check the start and give its
    # point; the engine evaluates only its reference point
    def no_evaluate(*args):
        raise AssertionError("scp_evaluate called")

    monkeypatch.setattr("moscal.scp.scp_evaluate", no_evaluate)
    inst = ScpInstance(np.array([[3, 2, 9], [7, 1, 4]]), np.array([[True, True, False], [True, False, True]]))
    for start in ({1}, set(), {2}):
        with pytest.raises(ValueError, match="^infeasible cover: some rows are uncovered$"):
            scp_local_search(inst, start, HALF)
    trace = []
    assert scp_local_search(inst, {0, 1, 2}, HALF, value_trace=trace) == ({0}, (3.0, 7.0))
    assert trace[0] == HALF((14.0, 12.0)) and trace[-1] == HALF((3.0, 7.0))


def test_local_search_fixed_point():
    costs = np.array([[2, 9, 9], [2, 9, 9]])
    coverage = np.array(
        [[True, True, False], [True, False, True], [True, True, True]]
    )
    inst = ScpInstance(costs, coverage)
    assert scp_local_search(inst, {0}, HALF)[0] == {0}


def test_local_search_results_are_oracle_local_optima():
    # every feasible subset of a 10-column instance maps into the local-optima
    # set found by exhaustive neighborhood enumeration with an independent repair
    rng = np.random.default_rng(7)
    inst = random_scp(6, 10, rng, density=0.35, cost_hi=30)
    feasible_sets = [
        frozenset(sub)
        for r in range(1, 11)
        for sub in itertools.combinations(range(10), r)
        if is_feasible(inst, sub)
    ]
    assert feasible_sets

    def oracle_is_local_optimum(sol):
        value = HALF(scp_evaluate(inst, sol))
        for col in sol:
            try:
                neighbor = oracle_repair(inst, sol - {col}, (0.5, 0.5), excluded=col)
            except RepairError:
                continue
            if HALF(scp_evaluate(inst, neighbor)) < value - 1e-9:
                return False
        return True

    optima = {sol for sol in feasible_sets if oracle_is_local_optimum(sol)}
    assert optima
    for start in feasible_sets:
        out, _ = scp_local_search(inst, start, HALF)
        assert is_feasible(inst, out)
        assert out in optima
        assert HALF(scp_evaluate(inst, out)) <= HALF(scp_evaluate(inst, start))


def frozen_scp_local_search(instance, solution, scalarizer, value_trace=None, counts=None):
    """Oracle: removal-and-repair search as first written, every neighbour
    rebuilt from scratch by a full repair and re-evaluated.  `counts` counts
    exact ties in the repair's ratio argmin and in the best neighbour value;
    near ties: a later neighbour below the best so far by at most
    IMPROVEMENT_EPS, which the column-order walk does not take; removals
    whose own value is not below the walk's bound (the best so far minus
    IMPROVEMENT_EPS), which the search skips; and repairs of the other
    removals that reach the bound with rows still uncovered, which the
    search stops there; and, among the removals not skipped, the `BRANCHES`
    of their repairs' first insertions, which the search scores in one
    batch per step."""

    def as_columns(solution):
        cols = np.asarray(sorted(solution), dtype=np.int64)
        if cols.size and (cols[0] < 0 or cols[-1] >= instance.n_columns):
            raise ValueError("column index out of range")
        if cols.size != len(set(cols.tolist())):
            raise ValueError("duplicate column in solution")
        return cols

    def covered_rows(cols):
        if cols.size == 0:
            return np.zeros(instance.n_rows, dtype=bool)
        return instance.coverage[:, cols].any(axis=1)

    def evaluate(solution):
        cols = as_columns(solution)
        if not covered_rows(cols).all():
            raise ValueError("infeasible cover: some rows are uncovered")
        return tuple(float(v) for v in instance.costs[:, cols].sum(axis=1))

    def repair(partial, excluded, bound=None):
        cols = as_columns(partial)
        selected = set(cols.tolist())
        covered = covered_rows(cols)
        point = instance.costs[:, cols].sum(axis=1).astype(float)
        allowed = np.ones(instance.n_columns, dtype=bool)
        allowed[excluded] = False
        lonely = int((~covered).sum())
        first = bound is not None
        if first and lonely == 1:
            counts["one_row"] += 1
        while not covered.all():
            newly = instance.coverage[~covered].sum(axis=0)
            candidates = np.flatnonzero((newly > 0) & allowed)
            if candidates.size == 0:
                if first:
                    counts["uncoverable"] += 1
                raise RepairError("no admissible column covers the remaining rows")
            base = scalarizer.value(point)
            increase = scalarizer.value(point[None, :] + instance.costs[:, candidates].T) - base
            ratios = increase / newly[candidates]
            if counts is not None:
                counts["ratio"] += int((ratios == ratios.min()).sum() > 1)
            pick = int(candidates[np.argmin(ratios)])
            selected.add(pick)
            covered |= instance.coverage[:, pick]
            point += instance.costs[:, pick]
            if first and lonely > 1:
                if scalarizer.value(point) >= bound:
                    counts["first_stopped"] += 1
                elif covered.all():
                    counts["first_covers"] += 1
                else:
                    counts["continued"] += 1
            first = False
            if bound is not None and not covered.all() and scalarizer.value(point) >= bound:
                counts["stopped"] += 1
                bound = None
        return frozenset(selected)

    current = frozenset(as_columns(solution).tolist())
    value = scalarizer(evaluate(current))
    if value_trace is not None:
        value_trace.append(value)
    while True:
        best_value = value
        best = None
        for col in sorted(current):
            bound = None
            if counts is not None:
                bound = best_value - IMPROVEMENT_EPS
                removal = instance.costs[:, as_columns(current - {col})].sum(axis=1).astype(float)
                if not scalarizer.value(removal) < bound:
                    counts["skipped"] += 1
                    bound = None
            try:
                neighbor = repair(current - {col}, col, bound)
            except RepairError:
                continue
            neighbor_value = scalarizer(evaluate(neighbor))
            if counts is not None and best is not None and neighbor_value == best_value:
                counts["value"] += 1
            if counts is not None and best is not None and best_value - IMPROVEMENT_EPS <= neighbor_value < best_value:
                counts["near"] += 1
            if neighbor_value < best_value - IMPROVEMENT_EPS:
                best_value = neighbor_value
                best = neighbor
        if best is None:
            return current
        current, value = best, best_value
        if value_trace is not None:
            value_trace.append(value)


def padded_cover(inst, rng):
    """A random cover plus a few redundant columns, so the search has work."""
    extra = rng.choice(inst.n_columns, size=int(rng.integers(0, 6)), replace=False)
    return random_cover(inst, rng) | frozenset(extra.tolist())


def oracle_scalarizer(kind, n_obj, rng):
    ref = tuple(float(v) for v in rng.uniform(0, 20, size=n_obj)) if kind != "linear" else None
    return Scalarizer(tuple(rng.dirichlet(np.ones(n_obj))), ScalarizerSpec(kind), ref)


# the branches of the search's batched first insertion, as the oracle counts
# them among the removals that are not skipped: no admissible column covers
# the rows; one row; and, with more rows, a first insertion that reaches the
# bound, one below it that covers every row, and one below it that leaves
# rows for the rest of the repair
BRANCHES = ("uncoverable", "one_row", "first_stopped", "first_covers", "continued")


def oracle_counts():
    return dict.fromkeys(("ratio", "value", "near", "skipped", "stopped", *BRANCHES), 0)


def assert_exact_point(inst, out, point):
    """`point` is a tuple of Python floats with the bytes of `scp_evaluate(out)`."""
    assert type(point) is tuple and all(type(v) is float for v in point)
    assert np.array(point).tobytes() == np.array(scp_evaluate(inst, out)).tobytes()


def assert_matches_frozen_search(inst, start, scalarizer, counts=None):
    expected_trace, trace = [], []
    expected = frozen_scp_local_search(inst, start, scalarizer, expected_trace, counts)
    out, point = scp_local_search(inst, start, scalarizer, value_trace=trace)
    assert out == expected
    assert np.array(trace).tobytes() == np.array(expected_trace).tobytes()
    assert_exact_point(inst, out, point)


def test_local_search_never_reinserts_the_removed_column():
    # chebycheff is subadditive: removing column 0 (cost (10, 10), rows 0
    # and 1) scores 0, and reinserting it would have the lowest first ratio,
    # (5 - 0) / 2 against 3 for columns 1 and 2; yet columns 1 and 2 together
    # score 3.5, below the start's 5
    inst = ScpInstance(
        np.array([[10, 1, 6, 1], [10, 6, 1, 1]]),
        np.array([[True, True, False, False], [True, False, True, False], [False, False, False, True]]),
    )
    s = Scalarizer((0.5, 0.5), ScalarizerSpec("chebycheff"), (1.0, 1.0))
    trace = []
    out, point = scp_local_search(inst, {0, 3}, s, value_trace=trace)
    assert out == {1, 2, 3} and trace == [5.0, 3.5]
    assert_exact_point(inst, out, point)
    assert_matches_frozen_search(inst, {0, 3}, s)


def test_local_search_matches_frozen_oracle():
    rng = np.random.default_rng(2004)
    kinds = ("linear", "chebycheff", "mixed")
    counts = oracle_counts()
    for case in range(60):
        n_obj = 2 + case % 2
        n_rows, n_cols = int(rng.integers(5, 31)), int(rng.integers(8, 61))
        coverage = rng.random((n_rows, n_cols)) < rng.uniform(0.1, 0.4)
        coverage[np.arange(n_rows), rng.integers(n_cols, size=n_rows)] = True
        inst = ScpInstance(rng.integers(1, 40, size=(n_obj, n_cols)), coverage)
        s = oracle_scalarizer(kinds[(case // 2) % 3], n_obj, rng)
        assert_matches_frozen_search(inst, padded_cover(inst, rng), s, counts)
    assert counts["skipped"] > 0 and counts["stopped"] > 0, counts
    assert all(counts[branch] > 0 for branch in BRANCHES), counts


def test_local_search_matches_frozen_oracle_on_ties():
    # duplicated columns with all costs equal, or with costs of 1 or 2, make
    # exact ties in the repair's ratio argmin and among equally good
    # neighbours; with two cost levels, repairs that swap one expensive column
    # for a cheap one improve, so those ties decide the result
    rng = np.random.default_rng(131)
    kinds = ("linear", "chebycheff", "mixed")
    ties = oracle_counts()
    for case in range(40):
        n_obj = 2 + case % 2
        n_rows, n_base = int(rng.integers(6, 21)), int(rng.integers(6, 21))
        base = rng.random((n_rows, n_base)) < 0.3
        base[np.arange(n_rows), rng.integers(n_base, size=n_rows)] = True
        base_costs = np.full((n_obj, n_base), 3) if case % 4 < 2 else rng.integers(1, 3, size=(n_obj, n_base))
        cols = np.concatenate([np.arange(n_base), rng.choice(n_base, size=n_base // 2, replace=False)])
        cols = cols[rng.permutation(cols.size)]
        inst = ScpInstance(base_costs[:, cols], base[:, cols])
        s = oracle_scalarizer(kinds[case % 3], n_obj, rng)
        assert_matches_frozen_search(inst, padded_cover(inst, rng), s, ties)
    # lattice weights u/H and integer costs: each column gets a twin that
    # covers the same rows at costs shifted by (u_1, -u_0, 0): sum_j u_j c_j is
    # unchanged, so the twins' neighbours have equal values in exact
    # arithmetic and often differ by an ulp in floats.  Starts hold a few twin
    # pairs.  Taking the global argmin of the neighbour values instead of
    # walking them in column order changes the search on such near ties.
    rng = np.random.default_rng(137)
    for case in range(60):
        n_obj = 2 + case % 2
        h = (3, 10, 30)[case % 3]
        units = rng.multinomial(h - n_obj, np.ones(n_obj) / n_obj) + 1
        n_rows, n_base = int(rng.integers(6, 21)), int(rng.integers(8, 25))
        coverage = rng.random((n_rows, n_base)) < 0.3
        coverage[np.arange(n_rows), rng.integers(n_base, size=n_rows)] = True
        costs = rng.integers(1, 8, size=(n_obj, n_base)) + units[0]
        shift = np.zeros((n_obj, 1), dtype=np.int64)
        shift[:2, 0] = units[1], -units[0]
        inst = ScpInstance(np.hstack([costs, costs + shift]), np.hstack([coverage, coverage]))
        pairs = rng.choice(n_base, size=3, replace=False)
        start = padded_cover(inst, rng) | frozenset(pairs.tolist()) | frozenset((pairs + n_base).tolist())
        kind = kinds[(case // 6) % 3]
        ref = tuple(float(v) for v in rng.integers(0, 10, size=n_obj)) if kind != "linear" else None
        s = Scalarizer(tuple(units / h), ScalarizerSpec(kind), ref)
        assert_matches_frozen_search(inst, start, s, ties)
    assert ties["ratio"] > 0 and ties["value"] > 0 and ties["near"] > 0, ties
    assert all(ties[branch] > 0 for branch in BRANCHES), ties


def test_local_search_matches_frozen_oracle_near_the_bound():
    # weights (1 - 3e-9, 3e-9) and twin columns of equal first cost whose
    # second costs differ by 1 to 3: the twins' neighbours differ by a few
    # IMPROVEMENT_EPS, so a bound off by a few of them skips or stops a
    # neighbour that the walk takes
    weights = {2: (1 - 3e-9, 3e-9), 3: (1 - 3e-9, 2e-9, 1e-9)}
    linear = Scalarizer(weights[2], ScalarizerSpec("linear"))
    # the start's two redundant columns have equal first costs, and removing
    # the later one gives a value 3 IMPROVEMENT_EPS lower than the earlier
    inst = ScpInstance(np.array([[5, 5, 4], [2, 3, 1]]), np.ones((1, 3), dtype=bool))
    trace = []
    out, point = scp_local_search(inst, {0, 1, 2}, linear, value_trace=trace)
    assert out == {2}
    assert trace == [linear((14, 6)), linear((9, 3)), linear((4, 1))]
    assert_exact_point(inst, out, point)
    # removing column 0 uncovers both rows; the repair inserts 1, then 2,
    # and the neighbour is 9 IMPROVEMENT_EPS below the start
    inst = ScpInstance(np.array([[10, 4, 6], [5, 1, 1]]), np.array([[True, True, False], [True, False, True]]))
    out, point = scp_local_search(inst, {0}, linear)
    assert out == {1, 2}
    assert_exact_point(inst, out, point)
    rng = np.random.default_rng(151)
    kinds = ("linear", "mixed")
    counts = oracle_counts()
    for case in range(40):
        n_obj = 2 + case % 2
        n_rows, n_base = int(rng.integers(6, 21)), int(rng.integers(8, 25))
        coverage = rng.random((n_rows, n_base)) < 0.3
        coverage[np.arange(n_rows), rng.integers(n_base, size=n_rows)] = True
        costs = rng.integers(1, 20, size=(n_obj, n_base))
        twin = costs.copy()
        twin[1] += rng.integers(1, 4, size=n_base)
        inst = ScpInstance(np.hstack([costs, twin]), np.hstack([coverage, coverage]))
        pairs = rng.choice(n_base, size=3, replace=False)
        start = padded_cover(inst, rng) | frozenset(pairs.tolist()) | frozenset((pairs + n_base).tolist())
        kind = kinds[(case // 2) % 2]
        ref = tuple(float(v) for v in rng.integers(0, 10, size=n_obj)) if kind != "linear" else None
        s = Scalarizer(weights[n_obj], ScalarizerSpec(kind), ref)
        assert_matches_frozen_search(inst, start, s, counts)
    assert counts["skipped"] > 0 and counts["stopped"] > 0 and counts["near"] > 0, counts
    # a twin covers the rows of its column, so every removal's rows stay coverable
    assert all(counts[branch] > 0 for branch in BRANCHES if branch != "uncoverable"), counts


def test_recombine_identical_parents():
    rng = np.random.default_rng(11)
    inst = random_scp(8, 12, rng)
    p = random_cover(inst, rng)
    assert scp_recombine(p, p, rng, inst) == p


def test_recombine_single_parent_columns_half_probability():
    # column 0 covers everything and is common, so the random-cover step never
    # fires and each single-parent column is a pure coin flip
    coverage = np.zeros((3, 7), dtype=bool)
    coverage[:, 0] = True
    coverage[0, 1:] = True
    inst = ScpInstance(np.ones((2, 7), dtype=np.int64), coverage)
    p1 = frozenset({0, 1, 2, 3})
    p2 = frozenset({0, 4, 5, 6})
    rng = np.random.default_rng(13)
    trials = 10_000
    counts = {c: 0 for c in range(1, 7)}
    for _ in range(trials):
        child = scp_recombine(p1, p2, rng, inst)
        assert 0 in child
        assert child <= (p1 | p2)
        for c in child - {0}:
            counts[c] += 1
    for c, hits in counts.items():
        assert abs(hits / trials - 0.5) <= 0.02


def test_recombine_always_feasible():
    rng = np.random.default_rng(17)
    for _ in range(200):
        inst = random_scp(9, 14, rng)
        child = scp_recombine(
            random_cover(inst, rng), random_cover(inst, rng), rng, inst
        )
        assert is_feasible(inst, child)


def test_random_cover_forced_and_feasible():
    forced = ScpInstance(np.array([[2], [3]]), np.ones((4, 1), dtype=bool))
    rng = np.random.default_rng(19)
    for _ in range(10):
        assert random_cover(forced, rng) == {0}
    inst = random_scp(10, 18, rng)
    for _ in range(100):
        assert is_feasible(inst, random_cover(inst, rng))
    a = random_cover(inst, np.random.default_rng(5))
    b = random_cover(inst, np.random.default_rng(5))
    assert a == b


def test_adapter_run_smoke():
    rng = np.random.default_rng(23)
    inst = random_scp(12, 25, rng)
    adapter = ScpAdapter(inst)
    assert adapter.default_scalarizer().kind == "linear"
    cfg = MethodConfig(method="umogls", objectives=2, generations=2, weight_count=8, seed=4)
    res = run_method(cfg, adapter)
    assert res.iteration_count == 8 * 3
    assert len(res.archive) >= 1
    for sol, point in res.archive:
        assert is_feasible(inst, sol)
        assert scp_evaluate(inst, sol) == point
