import re
from collections import Counter

import numpy as np
import pytest

from moscal.archive import ParetoArchive
from moscal.engine import (
    METHODS,
    MethodConfig,
    MoeadState,
    ProblemAdapter,
    get_parents_neighborhood,
    get_parents_tournament,
    moead_update,
    run_method,
    tournament_size,
)
from moscal.scalarizing import Scalarizer, ScalarizerSpec, generate_uniform_weights
from moscal.scp import ScpAdapter, ScpInstance
from moscal.tsp import TspAdapter, TspInstance
from moscal.tspwp import ObjectiveRanges, TspwpAdapter, TspwpInstance


class RecordingProblem(ProblemAdapter):
    """Engine-contract mock: solutions are 2-D integer points, identity
    search; counts the `evaluate` calls."""

    n_objectives = 2

    def __init__(self):
        self.constructed = []
        self.weights_seen = []
        self.ls_inputs = []
        self.ls_outputs = []
        self.recombine_parents = []
        self.initial_phase_calls = []
        self.evaluate_calls = 0

    def random_solution(self, rng):
        v = tuple(int(x) for x in rng.integers(0, 1000, size=2))
        self.constructed.append(v)
        return v

    @staticmethod
    def point(solution):
        return (float(solution[0]), float(solution[1]))

    def evaluate(self, solution):
        self.evaluate_calls += 1
        return self.point(solution)

    def local_search(self, solution, scalarizer):
        self.weights_seen.append(tuple(scalarizer.weights))
        self.ls_inputs.append(solution)
        self.ls_outputs.append(solution)
        return solution, self.point(solution)

    def recombine(self, parent_a, parent_b, rng):
        self.recombine_parents.append((parent_a, parent_b))
        return parent_a if rng.random() < 0.5 else parent_b

    def end_initial_phase(self, solutions):
        self.initial_phase_calls.append((len(self.ls_outputs), list(solutions)))


def momsls_config(**kw):
    base = dict(method="momsls", objectives=2, generations=2, weight_count=5, seed=1)
    base.update(kw)
    return MethodConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        MethodConfig(method="nope", objectives=2, generations=1, weight_count=5)
    with pytest.raises(ValueError):
        MethodConfig(method="momsls", objectives=2, generations=1)  # missing K
    with pytest.raises(ValueError):
        MethodConfig(method="umogls", objectives=2, generations=1)  # missing K
    with pytest.raises(ValueError):
        momsls_config(expected_rank=0.5)
    with pytest.raises(ValueError):
        momsls_config(mating_probability=1.5)
    # G = 0 is allowed: initial phase only
    assert momsls_config(generations=0).total_iterations() == 5


def test_config_rejects_nan_expected_rank_and_negative_seed():
    # nan passed the `< 1` check, and the run then failed in tournament_size
    # with "cannot convert float NaN to integer"; a negative seed reached
    # numpy's SeedSequence
    with pytest.raises(ValueError, match="expected_rank must be >= 1, got nan"):
        momsls_config(expected_rank=float("nan"))
    with pytest.raises(ValueError, match="expected_rank must be >= 1, got nan"):
        tournament_size(10, float("nan"))
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        momsls_config(seed=-1)
    assert momsls_config(seed=0).seed == 0


@pytest.mark.parametrize(
    "field, value",
    [
        ("objectives", 2.0),
        ("generations", 1.5),
        ("weight_count", 6.0),
        ("neighborhood_size", 2.5),
        ("max_replacements", 1.5),
        ("seed", 1.5),
        ("main_iterations", 2.5),
        ("generations", "1"),
    ],
)
def test_config_rejects_counts_and_seeds_that_are_no_integer(field, value):
    # each was accepted; the run then failed deep inside with "'float' object
    # cannot be interpreted as an integer" or in numpy's SeedSequence, and a
    # fractional main_iterations made total_iterations() fractional
    config = dict(method="moead", objectives=2, generations=1, weight_count=6, neighborhood_size=3)
    config[field] = value
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        MethodConfig(**config)
    config[field] = np.int64(int(float(value)))  # numpy integers pass
    MethodConfig(**config)


def test_config_rejects_moead_neighborhood_beyond_weights():
    # K=4 weight vectors, so at most 4 neighbors per subproblem
    with pytest.raises(ValueError, match="neighborhood_size 5 exceeds weight count 4"):
        MethodConfig(method="moead", objectives=2, generations=1, weight_count=4, neighborhood_size=5)
    assert MethodConfig(
        method="moead", objectives=2, generations=1, weight_count=4, neighborhood_size=4
    ).total_iterations() == 8
    # only moead keeps neighborhoods
    MethodConfig(method="umogls", objectives=2, generations=1, weight_count=4, neighborhood_size=5)


def test_iteration_accounting():
    assert momsls_config(weight_count=101, generations=50).total_iterations() == 5151
    cfg = MethodConfig(method="umogls", objectives=2, generations=3, weight_count=101)
    assert cfg.total_iterations() == 101 + 3 * 101
    cfg3 = MethodConfig(method="moead", objectives=3, generations=5, weight_count=3403)
    assert cfg3.total_iterations() == 3403 + 5 * 3403
    override = momsls_config(weight_count=301, generations=99, main_iterations=911)
    assert override.total_iterations() == 301 + 911


def test_tournament_size_formula():
    assert tournament_size(1000, 10.0) == 150
    assert tournament_size(1000, 5.0) == 300
    # clamped below by 2 and above by the archive size
    assert tournament_size(2, 1000.0) == 2
    assert tournament_size(10, 1.0) == 10
    with pytest.raises(ValueError):
        tournament_size(1, 10.0)


def _rank_archive(m):
    """Archive of m mutually nondominated points whose first objective is the rank-1 value."""
    a = ParetoArchive(2)
    for i in range(m):
        a.update(f"s{i}", (float(i), float(m - 1 - i)))
    return a


def test_tournament_returns_two_best_of_sample():
    a = _rank_archive(10)
    s = Scalarizer((1.0, 0.0), ScalarizerSpec("linear"))
    rng = np.random.default_rng(0)
    e1, e2 = get_parents_tournament(a, s, expected_rank=1.0, rng=rng)  # T = M: deterministic
    assert e1[1][0] == 0.0 and e2[1][0] == 1.0
    with pytest.raises(ValueError):
        get_parents_tournament(_rank_archive(1), s, 10.0, rng)


def test_tournament_expected_ranks():
    # oracle: best/second of T=150 uniform draws from M=1000 have expected ranks
    # (M+1)/(T+1) and 2(M+1)/(T+1); their average is ~9.94 for Er=10
    m = 1000
    a = _rank_archive(m)
    s = Scalarizer((1.0, 0.0), ScalarizerSpec("linear"))
    rng = np.random.default_rng(123)
    trials = 10_000
    acc = 0.0
    for _ in range(trials):
        e1, e2 = get_parents_tournament(a, s, expected_rank=10.0, rng=rng)
        acc += (e1[1][0] + 1 + e2[1][0] + 1) / 2.0
    mean_rank = acc / trials
    assert 9.5 <= mean_rank <= 10.5


def test_uniform_weights_cycle_the_lattice():
    problem = RecordingProblem()
    run_method(MethodConfig(method="umogls", objectives=2, generations=2, weight_count=5, seed=3), problem)
    lattice = [w.lambdas for w in generate_uniform_weights(2, 4)]
    assert problem.weights_seen == lattice * 3  # 3K iterations, wrapping after each K


def test_random_weights_reproducible():
    a, b = RecordingProblem(), RecordingProblem()
    for problem in (a, b):
        run_method(MethodConfig(method="mogls", objectives=2, generations=2, weight_count=5, seed=9), problem)
    assert len(a.weights_seen) == 15 and len(set(a.weights_seen)) == 15
    assert a.weights_seen == b.weights_seen


@pytest.mark.parametrize("generations", [0, 2])
@pytest.mark.parametrize("method", ["momsls", "mogls", "umogls", "moead"])
def test_end_initial_phase_called_once_with_initial_results(method, generations):
    problem = RecordingProblem()
    cfg = MethodConfig(
        method=method, objectives=2, generations=generations, weight_count=5, neighborhood_size=3, seed=4
    )
    run_method(cfg, problem)
    # once, right after the K-th local search, with the K initial results
    assert problem.initial_phase_calls == [(5, problem.ls_outputs[:5])]
    assert len(problem.ls_outputs) == 5 + 5 * generations


def test_moead_state_neighbors():
    vs = generate_uniform_weights(2, 4)  # (0,1), (.25,.75), (.5,.5), (.75,.25), (1,0)
    state = MoeadState.build(vs, 3)
    assert state.neighbors.shape == (5, 3)
    assert list(state.neighbors[0]) == [0, 1, 2]
    # distance tie between indices 1 and 3 broken by index order
    assert list(state.neighbors[2]) == [2, 1, 3]
    assert all(state.neighbors[i][0] == i for i in range(5))
    with pytest.raises(ValueError):
        MoeadState.build(vs, 6)


def frozen_neighbors(weights, neighborhood_size):
    """`MoeadState.build` neighbors with distances from one broadcast sum."""
    k = len(weights)
    mat = np.array([w.lambdas for w in weights])
    neigh = np.empty((k, neighborhood_size), dtype=np.int64)
    chunk = max(1, 2_000_000 // max(k, 1))
    for start in range(0, k, chunk):
        block = mat[start : start + chunk]
        d2 = ((block[:, None, :] - mat[None, :, :]) ** 2).sum(axis=2)
        for r in range(block.shape[0]):
            order = np.lexsort((np.arange(k), d2[r]))
            neigh[start + r] = order[:neighborhood_size]
    return neigh


@pytest.mark.parametrize("objectives,granularity", [(2, 300), (3, 20), (3, 81)])
def test_moead_state_neighbors_match_frozen_build(objectives, granularity):
    # K = 301, 231 and 3403: lattice weights have many exact distance ties
    weights = generate_uniform_weights(objectives, granularity)
    state = MoeadState.build(weights, 20)
    assert np.array_equal(state.neighbors, frozen_neighbors(weights, 20))


def _seeded_state(n=5, neigh=3):
    vs = generate_uniform_weights(2, n - 1)
    state = MoeadState.build(vs, neigh)
    for i in range(n):
        state.incumbents[i] = (f"inc{i}", (float(i + 1), float(n - i)))
    return state


def test_neighborhood_scope_probability():
    state = _seeded_state()
    rng = np.random.default_rng(77)
    # delta = 1: always the neighborhood; delta = 0: always the full set
    for _ in range(200):
        _, _, scope = get_parents_neighborhood(state, 2, 1.0, rng)
        assert list(scope) == [2, 1, 3]
    for _ in range(200):
        _, _, scope = get_parents_neighborhood(state, 2, 0.0, rng)
        assert len(scope) == 5
    hits = 0
    trials = 10_000
    for _ in range(trials):
        _, _, scope = get_parents_neighborhood(state, 0, 0.9, rng)
        hits += len(scope) == 3
    assert abs(hits / trials - 0.9) < 0.01


def test_neighborhood_parents_distinct():
    state = _seeded_state()
    rng = np.random.default_rng(3)
    for _ in range(500):
        pa, pb, _ = get_parents_neighborhood(state, 1, 0.9, rng)
        assert pa[0] != pb[0]


def test_moead_update_replacement_rules():
    spec = ScalarizerSpec("linear")
    rng = np.random.default_rng(0)
    state = _seeded_state()
    scope = np.arange(5)
    # dominated offspring: worse under every weight, nothing replaced
    n = moead_update(state, ("bad", (100.0, 100.0)), scope, spec, nr=2, rng=rng)
    assert n == 0
    assert [state.incumbents[i][0] for i in range(5)] == [f"inc{i}" for i in range(5)]
    # dominating offspring: better everywhere, but capped at nr replacements
    n = moead_update(state, ("good", (0.0, 0.0)), scope, spec, nr=2, rng=rng)
    assert n == 2
    assert sum(state.incumbents[i][0] == "good" for i in range(5)) == 2
    # equal scalarizing value is not an improvement
    state2 = _seeded_state()
    same = ("copy", state2.incumbents[0][1])
    n = moead_update(state2, same, np.array([0]), spec, nr=2, rng=rng)
    assert n == 0
    # an incumbent missing anywhere in the scope fails before any replacement
    state2.incumbents[4] = None
    with pytest.raises(ValueError, match="incumbents not initialized"):
        moead_update(state2, ("good", (0.0, 0.0)), scope, spec, nr=2, rng=rng)
    assert [state2.incumbents[i][0] for i in range(4)] == [f"inc{i}" for i in range(4)]


def _frozen_moead_update(state, offspring, scope, spec, nr, rng, reference=None, transform=None):
    """moead_update as it was: one scalarizer per visited neighbour, two
    per-point calls, replacing in visiting order until nr."""
    _, off_point = offspring
    replaced = 0
    for pos in rng.permutation(len(scope)):
        j = int(scope[pos])
        s_j = Scalarizer(state.weights[j], spec, reference, transform)
        inc = state.incumbents[j]
        if inc is None:
            raise ValueError("moead incumbents not initialized")
        if s_j(off_point) < s_j(inc[1]):
            state.incumbents[j] = offspring
            replaced += 1
            if replaced >= nr:
                break
    return replaced


def test_moead_update_matches_frozen_per_neighbour_loop():
    # 240 seeded cases: 2 and 3 objectives; neighbourhood and full scopes;
    # nr 1..3; linear, chebycheff and mixed, each with and without range
    # normalization; offspring that copy an incumbent's point or move one of
    # its coordinates by 1 (exact ties, also under lattice weights with a
    # zero component), random offspring, dominating ones (capped at nr) and
    # dominated ones
    counts = Counter()
    for case in range(240):
        rng = np.random.default_rng(case)
        j = 2 + case % 2
        kind = ("linear", "chebycheff", "mixed")[(case // 2) % 3]
        normalized = (case // 6) % 2 == 1
        offspring_kind = (case // 12) % 5
        weights = generate_uniform_weights(j, int(rng.integers(4, 13)) if j == 2 else int(rng.integers(3, 7)))
        k = len(weights)
        state = MoeadState.build(weights, int(rng.integers(2, k + 1)))
        # each incumbent the best of 8 random points under its own weight,
        # so that an offspring copying one seldom beats the others
        drawn = rng.integers(0, 40, size=(k, 8, j)).astype(float)
        lam = np.array([w.lambdas for w in weights])
        points = drawn[np.arange(k), (drawn * lam[:, None, :]).sum(axis=2).argmin(axis=1)]
        state.incumbents = [(f"inc{i}", tuple(p)) for i, p in enumerate(points.tolist())]
        spec = ScalarizerSpec(kind, w_linear=float(rng.random())) if kind == "mixed" else ScalarizerSpec(kind)
        transform = None
        if normalized:
            lows = rng.uniform(-20.0, 0.0, size=j)
            transform = ObjectiveRanges(tuple(lows.tolist()), tuple((lows + rng.uniform(40.0, 90.0, size=j)).tolist())).normalize
        image = transform(points) if transform is not None else points
        reference = None if kind == "linear" else image.min(axis=0) - rng.uniform(0.0, 0.5, size=j)
        base = points[int(rng.integers(k))].copy()
        if offspring_kind == 1:
            base[int(rng.integers(j))] += float(rng.choice([-1.0, 1.0]))
        elif offspring_kind == 2:
            base = rng.integers(0, 40, size=j).astype(float)
        elif offspring_kind == 3:
            base = points.min(axis=0) - 1.0
        elif offspring_kind == 4:
            base = points.max(axis=0) + 1.0
        offspring = ("off", tuple(base.tolist()))
        full = rng.random() < 0.5
        scope = np.arange(k) if full else state.neighbors[int(rng.integers(k))]
        nr = int(rng.integers(1, 4))

        for i in scope.tolist():
            s_i = Scalarizer(weights[i], spec, reference, transform)
            counts["ties"] += s_i(offspring[1]) == s_i(state.incumbents[i][1])
        old = MoeadState(state.weights, state.neighbors, list(state.incumbents))
        rng_old, rng_new = np.random.default_rng(1000 + case), np.random.default_rng(1000 + case)
        n_old = _frozen_moead_update(old, offspring, scope, spec, nr, rng_old, reference, transform)
        n_new = moead_update(state, offspring, scope, spec, nr, rng_new, reference, transform)
        assert n_new == n_old, case
        assert [inc[0] for inc in state.incumbents] == [inc[0] for inc in old.incumbents], case
        assert rng_new.random() == rng_old.random(), case
        counts["capped"] += n_old == nr
        counts["none"] += n_old == 0
        counts["full"] += full
    assert counts["ties"] >= 60 and counts["capped"] >= 80 and counts["none"] >= 50, counts
    assert 80 <= counts["full"] <= 160, counts


def test_run_momsls_initial_phase_only():
    problem = RecordingProblem()
    res = run_method(momsls_config(generations=0, weight_count=7), problem)
    assert res.iteration_count == 7
    assert len(problem.ls_inputs) == 7
    assert problem.ls_inputs == problem.constructed  # every start is a fresh random solution
    assert len(res.archive) >= 1
    assert problem.recombine_parents == []


def test_run_iteration_count_matches_formula():
    problem = RecordingProblem()
    res = run_method(momsls_config(weight_count=101, generations=50), problem)
    assert res.iteration_count == 5151
    assert len(problem.ls_inputs) == 5151


def test_equal_local_search_budget_across_methods():
    counts = {}
    for method in ["momsls", "mogls", "umogls", "moead"]:
        problem = RecordingProblem()
        cfg = MethodConfig(
            method=method, objectives=2, generations=3, weight_count=5, neighborhood_size=3, seed=5
        )
        res = run_method(cfg, problem)
        counts[method] = len(problem.ls_inputs)
        assert res.iteration_count == 5 + 3 * 5
    assert set(counts.values()) == {20}


def test_mogls_umogls_differ_only_in_weight_sequence():
    p_mogls, p_umogls = RecordingProblem(), RecordingProblem()
    run_method(MethodConfig(method="mogls", objectives=2, generations=2, weight_count=5, seed=42), p_mogls)
    run_method(
        MethodConfig(method="umogls", objectives=2, generations=2, weight_count=5, seed=42),
        p_umogls,
    )
    # same construction stream: identical initial random solutions
    assert p_mogls.constructed == p_umogls.constructed
    # cyclic uniform weights vs random weights
    assert p_umogls.weights_seen[:5] == [w.lambdas for w in generate_uniform_weights(2, 4)]
    assert p_mogls.weights_seen != p_umogls.weights_seen


def test_tournament_parents_come_from_archive():
    problem = RecordingProblem()
    run_method(MethodConfig(method="mogls", objectives=2, generations=4, weight_count=8, seed=2), problem)
    produced = set(problem.ls_outputs)
    for pa, pb in problem.recombine_parents:
        assert pa in produced and pb in produced


def test_run_deterministic_given_seed():
    res1 = run_method(momsls_config(seed=99), RecordingProblem())
    res2 = run_method(momsls_config(seed=99), RecordingProblem())
    assert res1.archive.points() == res2.archive.points()
    res3 = run_method(momsls_config(seed=100), RecordingProblem())
    assert res1.archive.points() != res3.archive.points()


def test_run_moead_incumbents_seeded_and_updated():
    problem = RecordingProblem()
    cfg = MethodConfig(
        method="moead", objectives=2, generations=2, weight_count=5, neighborhood_size=3, seed=7
    )
    run_method(cfg, problem)
    # every main-phase parent pair comes from incumbents, i.e. previous search results
    produced = set(problem.ls_outputs)
    assert problem.recombine_parents and all(
        pa in produced and pb in produced for pa, pb in problem.recombine_parents
    )


def test_run_chebycheff_reference_bootstraps():
    problem = RecordingProblem()
    cfg = momsls_config(scalarizer=ScalarizerSpec("chebycheff"), generations=1)
    res = run_method(cfg, problem)
    assert len(res.archive) >= 1
    # all scalarizers carried the method's weight dimension
    assert all(len(w) == 2 for w in problem.weights_seen)


@pytest.mark.parametrize("method", METHODS)
def test_run_evaluates_only_the_first_random_start(method):
    # the reference point starts from the first random start; every other
    # point is the one its local search returned
    problem = RecordingProblem()
    cfg = MethodConfig(method=method, objectives=2, generations=3, weight_count=5, neighborhood_size=3, seed=6)
    run_method(cfg, problem)
    assert len(problem.ls_outputs) == 20
    assert problem.evaluate_calls == 1


def small_adapter(problem, rng):
    """A fresh adapter on a small random instance of `problem`."""
    if problem == "mstsp":
        mats = []
        for _ in range(2):
            upper = np.triu(rng.integers(1, 100, size=(12, 12)), 1)
            mats.append(upper + upper.T)
        return TspAdapter(TspInstance(tuple(mats)))
    if problem == "tspwp":
        upper = np.triu(rng.integers(1, 100, size=(10, 10)), 1)
        return TspwpAdapter(TspwpInstance(upper + upper.T, rng.integers(0, 30, size=10)))
    coverage = rng.random((10, 20)) < 0.3
    coverage[np.arange(10), rng.integers(20, size=10)] = True
    return ScpAdapter(ScpInstance(rng.integers(1, 40, size=(2, 20)), coverage))


@pytest.mark.parametrize("kind", ["linear", "chebycheff", "mixed"])
@pytest.mark.parametrize("problem", ["mstsp", "tspwp", "moscp"])
def test_search_points_equal_evaluate_on_every_adapter(problem, kind):
    # the engine archives each search's point as returned, so on the real
    # adapters it must be `evaluate` of the search's solution, as float bytes:
    # mstsp with and without the candidate lists of the main phase, tspwp
    # under its range normalisation
    rng = np.random.default_rng(17)
    listed = []
    for method in ("mogls", "moead"):
        adapter = small_adapter(problem, rng)
        search = adapter.local_search
        results = []

        def local_search(solution, scalarizer):
            entry = search(solution, scalarizer)
            results.append(entry)
            listed.append(getattr(adapter, "candidates", None) is not None)
            return entry

        adapter.local_search = local_search
        cfg = MethodConfig(
            method=method, objectives=2, generations=2, weight_count=6, neighborhood_size=3,
            scalarizer=ScalarizerSpec(kind), seed=5,
        )
        run_method(cfg, adapter)
        assert len(results) == 18
        for solution, point in results:
            assert type(point) is tuple and all(type(v) is float for v in point)
            assert np.array(point).tobytes() == np.array(adapter.evaluate(solution)).tobytes()
    if problem == "mstsp":
        assert listed.count(True) == listed.count(False) * 2


def test_run_rejects_objective_mismatch():
    cfg = MethodConfig(method="momsls", objectives=3, generations=1, weight_count=4)
    with pytest.raises(ValueError):
        run_method(cfg, RecordingProblem())
