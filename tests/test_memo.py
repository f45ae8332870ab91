"""SearchMemo: an initial-phase search is computed once per key, and a hit
equals the search it replaces."""

import numpy as np
import pytest

from moscal import scp, tsp
from moscal.engine import SearchMemo
from moscal.scalarizing import Scalarizer, ScalarizerSpec, WeightVector
from moscal.scp import ScpAdapter, ScpInstance, random_cover, scp_local_search
from moscal.tsp import TspAdapter, TspInstance, two_opt_local_search
from moscal.tspwp import TspwpAdapter, TspwpInstance

CHEBY = ScalarizerSpec("chebycheff")


def tsp_instance(n=12, seed=4):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        c = rng.integers(1, 100, size=(n, n))
        c = np.triu(c, 1)
        mats.append(c + c.T)
    return TspInstance(tuple(mats))


def scp_instance(seed=8):
    rng = np.random.default_rng(seed)
    coverage = rng.random((12, 30)) < 0.3
    coverage[np.arange(12), rng.integers(30, size=12)] = True
    return ScpInstance(rng.integers(1, 40, size=(2, 30)), coverage)


@pytest.fixture
def computed(monkeypatch):
    """Counts the searches that run, per problem, rather than come from a memo."""
    counts = {"tsp": 0, "scp": 0}
    for module, name, key in ((tsp, "_two_opt", "tsp"), (scp, "_scp_search", "scp")):
        def counting(*args, _run=getattr(module, name), _key=key, **kwargs):
            counts[_key] += 1
            return _run(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return counts


def test_hit_appends_the_stored_trace_and_returns_a_copy(computed):
    inst = tsp_instance()
    start = np.random.default_rng(1).permutation(inst.n)
    s = Scalarizer((0.3, 0.7), CHEBY, reference=(10.0, 20.0))
    plain_trace = []
    plain = two_opt_local_search(inst, start, s, value_trace=plain_trace)
    assert computed["tsp"] == 1 and len(plain_trace) > 2

    memo = SearchMemo()
    first_trace = [-1.0]
    first = two_opt_local_search(inst, start, s, value_trace=first_trace, memo=memo)
    assert computed["tsp"] == 2
    assert first_trace == [-1.0] + plain_trace
    first[0][:] = first[0][::-1]  # the memo keeps its own tour

    hit_trace = [-2.0]
    hit = two_opt_local_search(inst, start.tolist(), s, value_trace=hit_trace, memo=memo)
    assert computed["tsp"] == 2
    assert hit_trace == [-2.0] + plain_trace
    assert hit[0].tobytes() == plain[0].tobytes() and hit[1] == plain[1]
    hit[0][:] = 0
    again = two_opt_local_search(inst, start, s, memo=memo)
    assert computed["tsp"] == 2
    assert again[0].tobytes() == plain[0].tobytes() and again[1] == plain[1]


def test_the_key_holds_the_start_and_the_bits_the_scalarizer_reads(computed):
    inst = tsp_instance()
    start = np.random.default_rng(2).permutation(inst.n)
    weights, reference = (0.3, 0.7), (10.0, 20.0)
    memo = SearchMemo()
    two_opt_local_search(inst, start, Scalarizer(weights, CHEBY, reference), memo=memo)
    assert computed["tsp"] == 1
    # the same bits, given otherwise, hit
    two_opt_local_search(inst, list(start), Scalarizer(WeightVector(weights), CHEBY, np.array(reference)), memo=memo)
    assert computed["tsp"] == 1
    one_ulp = np.nextafter(0.3, 1.0)
    misses = [
        (np.roll(start, 1), Scalarizer(weights, CHEBY, reference)),
        (start, Scalarizer((one_ulp, 1.0 - one_ulp), CHEBY, reference)),
        (start, Scalarizer(weights, CHEBY, (np.nextafter(10.0, 11.0), 20.0))),
        (start, Scalarizer(weights, ScalarizerSpec("mixed"), reference)),
    ]
    for i, (tour, s) in enumerate(misses):
        two_opt_local_search(inst, tour, s, memo=memo)
        assert computed["tsp"] == 2 + i
    # linear reads no reference, so its key holds none
    linear = ScalarizerSpec("linear")
    two_opt_local_search(inst, start, Scalarizer(weights, linear, reference), memo=memo)
    two_opt_local_search(inst, start, Scalarizer(weights, linear, (0.0, 0.0)), memo=memo)
    assert computed["tsp"] == 2 + len(misses)


def test_a_scalarizer_with_a_transform_is_never_memoized(computed):
    inst = tsp_instance()
    start = np.random.default_rng(3).permutation(inst.n)
    s = Scalarizer((0.5, 0.5), ScalarizerSpec("linear"), transform=lambda z: z * 2.0)
    memo = SearchMemo()
    traces = [[], []]
    results = [two_opt_local_search(inst, start, s, value_trace=trace, memo=memo) for trace in traces]
    assert computed["tsp"] == 2
    assert traces[0] == traces[1] and results[0][1] == results[1][1]


def test_tsp_adapter_hands_the_memo_only_to_searches_without_lists(computed):
    inst = tsp_instance()
    rng = np.random.default_rng(5)
    starts = [rng.permutation(inst.n) for _ in range(3)]
    s = Scalarizer((0.5, 0.5), ScalarizerSpec("linear"))
    memo = SearchMemo()
    first, second = TspAdapter(inst, memo), TspAdapter(inst, memo)
    optima = [first.local_search(x, s)[0] for x in starts]
    assert computed["tsp"] == 3
    assert [second.local_search(x, s)[0].tobytes() for x in starts] == [t.tobytes() for t in optima]
    assert computed["tsp"] == 3
    second.end_initial_phase(optima)
    assert second.memo is None
    memo.search = None  # any read of the memo would now raise
    second.local_search(starts[0], s)
    assert computed["tsp"] == 4


def test_a_listed_search_misses_the_memo_of_one_without_lists(computed):
    inst = tsp_instance()
    start = np.random.default_rng(7).permutation(inst.n)
    s = Scalarizer((0.5, 0.5), ScalarizerSpec("linear"))
    memo = SearchMemo()
    optimum, _ = two_opt_local_search(inst, start, s, memo=memo)
    assert optimum.tobytes() != start.tobytes()
    # lists that allow no move make the start a local optimum
    no_moves = tsp.CandidateLists(tuple(frozenset() for _ in range(inst.n)))
    listed, point = two_opt_local_search(inst, start, s, candidates=no_moves, memo=memo)
    assert listed.tobytes() == start.tobytes() and point == tsp.tsp_evaluate(inst, start)
    assert computed["tsp"] == 2
    # equal lists, built apart, share one entry
    again = two_opt_local_search(inst, start, s, candidates=tsp.CandidateLists(no_moves.members), memo=memo)
    assert again[0].tobytes() == start.tobytes() and computed["tsp"] == 2


@pytest.mark.parametrize("problem", ["mstsp", "tspwp", "moscp"])
def test_end_initial_phase_drops_the_memo(problem):
    if problem == "moscp":
        adapter = ScpAdapter(scp_instance(), SearchMemo())
    elif problem == "mstsp":
        adapter = TspAdapter(tsp_instance(), SearchMemo())
    else:
        costs = tsp_instance().costs[0]
        adapter = TspwpAdapter(TspwpInstance(costs, np.arange(1, costs.shape[0] + 1)), SearchMemo())
    assert adapter.memo is not None
    rng = np.random.default_rng(9)
    adapter.end_initial_phase([adapter.random_solution(rng) for _ in range(3)])
    assert adapter.memo is None


def test_scp_adapter_drops_the_memo_at_the_end_of_the_initial_phase(computed):
    inst = scp_instance()
    rng = np.random.default_rng(6)
    starts = [random_cover(inst, rng) for _ in range(3)]
    s = Scalarizer((0.25, 0.75), ScalarizerSpec("linear"))
    memo = SearchMemo()
    first, second = ScpAdapter(inst, memo), ScpAdapter(inst, memo)
    plain = [scp_local_search(inst, x, s) for x in starts]
    assert computed["scp"] == 3
    assert [first.local_search(x, s) for x in starts] == plain
    assert computed["scp"] == 6
    assert [second.local_search(x, s) for x in starts] == plain
    assert computed["scp"] == 6
    second.end_initial_phase([x for x, _ in plain])
    assert second.memo is None
    memo.search = None  # any read of the memo would now raise
    assert second.local_search(starts[0], s) == plain[0]
    assert computed["scp"] == 7
