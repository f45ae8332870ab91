"""End-to-end acceptance suite for the moscal package.

Each test covers one numbered acceptance criterion and prints a single
verdict line; run with ``pytest tests/test_acceptance.py -s`` to see them.
The slow experiment-level checks (criteria 7 and 8) run small but real
multi-method studies and take a few minutes each; they and criterion 3 carry
the `slow` marker, so `-m "not slow"` leaves them out of a quick run.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from moscal.archive import ParetoArchive, read_points_csv
from moscal.cli import main as cli_main
from moscal.engine import get_parents_tournament, tournament_size
from moscal.experiment import ExperimentPlan, run_experiment
from moscal.indicators import hypervolume, wilcoxon_signed_rank
from moscal.instances import (
    euclidean_cost_matrix,
    generate_euclidean_coords,
    generate_instance,
    generate_scp,
)
from moscal.scalarizing import (
    Scalarizer,
    ScalarizerSpec,
    draw_random_weight,
    generate_uniform_weights,
    uniform_weight_count,
)
from moscal.scp import ScpInstance, greedy_repair, random_cover, scp_local_search, scp_recombine
from moscal.tsp import TspInstance, dpx_recombine, random_tour, tsp_evaluate, two_opt_local_search
from moscal.tspwp import (
    TspwpInstance,
    dpx_wp_recombine,
    random_subtour,
    tspwp_evaluate,
    tspwp_local_search,
)

LINEAR = ScalarizerSpec("linear")


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _scalar(s: Scalarizer, z) -> float:
    return float(s.value(np.asarray(z, dtype=float)[None, :])[0])


# --------------------------------------------------------------------------
# criterion 1: randomized property suites (archive, weights, uniform counts)
# --------------------------------------------------------------------------


def _oracle_front(stream) -> set[tuple[float, ...]]:
    """Nondominated subset of a point stream, by direct pairwise comparison."""
    uniq = {tuple(float(v) for v in p) for p in stream}
    return {
        p
        for p in uniq
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in uniq)
    }


def _mutually_nondominated(points: np.ndarray) -> bool:
    if len(points) < 2:
        return True
    le = (points[:, None, :] <= points[None, :, :]).all(axis=2)
    np.fill_diagonal(le, False)
    return not bool(le.any())


def test_criterion_1_property_suites():
    start = time.time()
    rng = np.random.default_rng(1001)
    problems: list[str] = []

    n_sequences = 1000
    for case in range(n_sequences):
        n_obj = int(rng.integers(2, 4))
        length = 200 if case % 50 == 0 else int(rng.integers(3, 41))
        if case % 2:
            stream = rng.integers(0, 8, size=(length, n_obj)).astype(float)
        else:
            stream = np.round(rng.random((length, n_obj)) * 10.0, 2)
        archive = ParetoArchive(n_obj)
        check_each_step = case < 100
        for row in stream:
            archive.update(None, tuple(row))
            if check_each_step and not _mutually_nondominated(archive.points_matrix()):
                problems.append(f"sequence {case}: archive holds a dominated point")
                break
        got = set(archive.points())
        want = _oracle_front(stream)
        if got != want:
            problems.append(f"sequence {case}: archive front != brute-force front")
        if len(set(archive.points())) != len(archive):
            problems.append(f"sequence {case}: duplicate point stored")

    n_draws = 1000
    for case in range(n_draws):
        n_obj = int(rng.integers(2, 6))
        w = draw_random_weight(n_obj, rng)
        lam = w.lambdas
        if len(lam) != n_obj or any(v < 0.0 for v in lam):
            problems.append(f"draw {case}: invalid components {lam}")
        if abs(sum(lam) - 1.0) > 1e-9:
            problems.append(f"draw {case}: components sum to {sum(lam)!r}")

    n_lattices = 1000
    highest = {2: 300, 3: 50, 4: 16}
    for case in range(n_lattices):
        n_obj = int(rng.integers(2, 5))
        h = int(rng.integers(1, highest[n_obj] + 1))
        weights = generate_uniform_weights(n_obj, h)
        expected = math.comb(h + n_obj - 1, n_obj - 1)
        if len(weights) != expected or uniform_weight_count(n_obj, h) != expected:
            problems.append(f"lattice {case}: J={n_obj} H={h} wrong count")
            continue
        if len({w.lambdas for w in weights}) != expected:
            problems.append(f"lattice {case}: duplicate weight vectors")
        for w in weights:
            if abs(sum(w.lambdas) - 1.0) > 1e-9:
                problems.append(f"lattice {case}: weight sums to {sum(w.lambdas)!r}")
                break
            if any(abs(v * h - round(v * h)) > 1e-6 for v in w.lambdas):
                problems.append(f"lattice {case}: component not a multiple of 1/H")
                break
    if len(generate_uniform_weights(2, 100)) != 101:
        problems.append("J=2 H=100 should give 101 weight vectors")
    if len(generate_uniform_weights(3, 81)) != 3403:
        problems.append("J=3 H=81 should give 3403 weight vectors")

    elapsed = time.time() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, expected under a minute")
    _verdict(
        1,
        "property suites",
        not problems,
        "; ".join(problems)
        if problems
        else f"{n_sequences} archive streams, {n_draws} weight draws, "
        f"{n_lattices} lattice counts in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 2: tournament size law and realized expected rank
# --------------------------------------------------------------------------


def test_criterion_2_tournament_expected_rank():
    start = time.time()
    problems: list[str] = []
    archive = ParetoArchive(2)
    m = 1000
    for i in range(m):
        archive.update(f"s{i}", (float(i), float(m - 1 - i)))
    if len(archive) != m:
        problems.append(f"archive built with {len(archive)} entries, wanted {m}")
    t = tournament_size(m, 10.0)
    if t != 150:
        problems.append(f"tournament size for M=1000, Er=10 is {t}, wanted 150")

    # under weights (1, 0) the value of entry i is i, so its rank is i + 1
    scal = Scalarizer((1.0, 0.0), LINEAR)
    rng = np.random.default_rng(2002)
    n_tournaments = 100_000
    total = 0.0
    for _ in range(n_tournaments):
        (_, pa), (_, pb) = get_parents_tournament(archive, scal, 10.0, rng)
        total += (pa[0] + pb[0] + 2.0) / 2.0
    mean_rank = total / n_tournaments
    if not 9.5 <= mean_rank <= 10.5:
        problems.append(f"mean selected rank {mean_rank:.3f} outside [9.5, 10.5]")
    elapsed = time.time() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, expected under a minute")
    _verdict(
        2,
        "tournament expected rank",
        not problems,
        "; ".join(problems)
        if problems
        else f"T=150, mean rank {mean_rank:.3f} over {n_tournaments} tournaments",
    )


# --------------------------------------------------------------------------
# criterion 3: hypervolume against a Monte-Carlo oracle
# --------------------------------------------------------------------------


def _mc_hypervolume(points: np.ndarray, reference, n_samples: int, seed: int) -> float:
    """Estimate the dominated volume by uniform sampling of the bounding box."""
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    low = pts.min(axis=0)
    span = ref - low
    box = float(np.prod(span))
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = n_samples
    while remaining:
        m = min(200_000, remaining)
        remaining -= m
        samples = low + rng.random((m, pts.shape[1])) * span
        # one contiguous row per objective: comparing whole rows is exact
        # and much faster than reducing (samples >= p) over its short axis
        columns = np.ascontiguousarray(samples.T)
        dominated = np.zeros(m, dtype=bool)
        for p in pts:
            hit = np.greater_equal(columns[0], p[0])
            for j in range(1, pts.shape[1]):
                hit &= np.greater_equal(columns[j], p[j])
            dominated |= hit
        hits += int(dominated.sum())
    return box * hits / n_samples


@pytest.mark.slow
def test_criterion_3_hypervolume_monte_carlo():
    start = time.time()
    problems: list[str] = []
    exact = hypervolume([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)], (4.0, 4.0))
    if abs(exact - 6.0) > 1e-12:
        problems.append(f"three-step staircase gave {exact!r}, wanted 6.0")

    rng = np.random.default_rng(3003)
    n_samples = 10_000_000
    worst = 0.0
    case = 0
    for n_obj in (2, 3):
        for _ in range(20):
            size = int(rng.integers(3, 13))
            pts = rng.random((size, n_obj)) * 10.0
            ref = (11.0,) * n_obj
            hv = hypervolume(pts, ref)
            mc = _mc_hypervolume(pts, ref, n_samples, seed=7000 + case)
            rel = abs(hv - mc) / hv
            worst = max(worst, rel)
            if rel > 0.01:
                problems.append(
                    f"set {case} (J={n_obj}, {size} pts): hv={hv:.6g} mc={mc:.6g} "
                    f"rel err {rel:.4%}"
                )
            case += 1
    elapsed = time.time() - start
    if elapsed >= 300.0:
        problems.append(f"took {elapsed:.1f}s, expected under five minutes")
    _verdict(
        3,
        "hypervolume vs Monte-Carlo",
        not problems,
        "; ".join(problems)
        if problems
        else f"40 sets at 1e7 samples, worst rel err {worst:.4%} in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 4: exact Wilcoxon path against full sign enumeration
# --------------------------------------------------------------------------


def _enum_wilcoxon(a, b) -> tuple[float, float]:
    """(W+, two-sided p) by enumerating all 2^m sign assignments."""
    diffs = [float(x) - float(y) for x, y in zip(a, b) if x != y]
    order = sorted(range(len(diffs)), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * len(diffs)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and abs(diffs[order[j]]) == abs(diffs[order[i]]):
            j += 1
        avg = (i + 1 + j) / 2.0
        for k in range(i, j):
            ranks[order[k]] = avg
        i = j
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    count_le = count_ge = 0
    total = 2 ** len(diffs)
    for signs in itertools.product((0, 1), repeat=len(diffs)):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= w_plus + 1e-9:
            count_le += 1
        if w >= w_plus - 1e-9:
            count_ge += 1
    p = min(1.0, 2.0 * min(count_le, count_ge) / total)
    return w_plus, p


def test_criterion_4_wilcoxon_exact():
    start = time.time()
    problems: list[str] = []
    a = [float(10 * (i + 1)) for i in range(10)]
    b = [x - (i + 1) for i, x in enumerate(a)]
    res = wilcoxon_signed_rank(a, b)
    if abs(res.statistic - 55.0) > 1e-12:
        problems.append(f"all-positive W+ was {res.statistic!r}, wanted 55")
    if abs(res.p_value - 2.0 / 1024.0) > 1e-9:
        problems.append(f"all-positive p was {res.p_value!r}, wanted 0.001953125")
    if not res.significant:
        problems.append("all-positive case should be significant at alpha=0.05")

    rng = np.random.default_rng(4004)
    checked = 0
    while checked < 50:
        xs = rng.integers(0, 100, size=10).astype(float)
        ys = rng.integers(0, 100, size=10).astype(float)
        if sum(x != y for x, y in zip(xs, ys)) < 5:
            continue
        got = wilcoxon_signed_rank(xs, ys)
        want_w, want_p = _enum_wilcoxon(xs, ys)
        if abs(got.statistic - want_w) > 1e-9 or abs(got.p_value - want_p) > 1e-9:
            problems.append(
                f"sample {checked}: got (W+={got.statistic}, p={got.p_value}) "
                f"enumeration says (W+={want_w}, p={want_p})"
            )
        checked += 1
    elapsed = time.time() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, expected under a minute")
    _verdict(
        4,
        "Wilcoxon exact path",
        not problems,
        "; ".join(problems)
        if problems
        else f"n=10 all-positive p=0.00195; {checked} samples match enumeration",
    )


# --------------------------------------------------------------------------
# criterion 5: recombination and repair operator laws
# --------------------------------------------------------------------------


def _tour_edges(tour) -> set[tuple[int, int]]:
    t = list(tour)
    out = set()
    for i, u in enumerate(t):
        v = t[(i + 1) % len(t)]
        out.add((min(u, v), max(u, v)))
    return out


def _cycle_edges(sub) -> set[tuple[int, int]]:
    t = list(sub)
    if len(t) < 3:
        return set()
    return _tour_edges(t)


def _cover_feasible(instance: ScpInstance, solution) -> bool:
    cols = sorted(solution)
    return bool(cols) and bool(instance.coverage[:, cols].any(axis=1).all())


def test_criterion_5_operator_laws():
    start = time.time()
    problems: list[str] = []

    # distance-preserving crossover on full tours
    rng = np.random.default_rng(5005)
    for case in range(100):
        p1 = rng.permutation(20)
        p2 = rng.permutation(20)
        off = dpx_recombine(p1, p2, rng)
        if sorted(off) != list(range(20)):
            problems.append(f"dpx case {case}: offspring is not a tour")
            continue
        e1, e2, eo = _tour_edges(p1), _tour_edges(p2), _tour_edges(off)
        if not (e1 & e2) <= eo:
            problems.append(f"dpx case {case}: common edge lost")
        if len(eo - e1) != len(eo - e2):
            problems.append(
                f"dpx case {case}: edge distance {len(eo - e1)} vs {len(eo - e2)}"
            )

    # extended crossover on sub-tours: common part kept, size centred on the
    # parents' average (disjoint parents of sizes 4 and 6 over 20 cities give
    # Binomial(20, 1/4) node counts: mean 5, sigma of the mean 0.0194)
    p1 = np.array([0, 1, 2, 3, 4, 5, 6, 7])
    p2 = np.array([4, 5, 6, 7, 8, 9, 0, 1])
    common_edges = _cycle_edges(p1) & _cycle_edges(p2)
    common_nodes = set(p1.tolist()) & set(p2.tolist())
    for case in range(2000):
        off = dpx_wp_recombine(p1, p2, rng, n_cities=20)
        nodes = set(off.tolist())
        if len(nodes) != len(off):
            problems.append(f"subtour case {case}: repeated city")
            break
        if not common_nodes <= nodes:
            problems.append(f"subtour case {case}: common node lost")
            break
        if not common_edges <= _cycle_edges(off):
            problems.append(f"subtour case {case}: common edge lost")
            break
    d1 = np.array([0, 1, 2, 3])
    d2 = np.array([4, 5, 6, 7, 8, 9])
    sizes = [len(dpx_wp_recombine(d1, d2, rng, n_cities=20)) for _ in range(10_000)]
    mean_size = float(np.mean(sizes))
    sigma_mean = math.sqrt(20 * 0.25 * 0.75 / 10_000)
    if abs(mean_size - 5.0) > 3.0 * sigma_mean:
        problems.append(
            f"disjoint sub-tour crossover mean size {mean_size:.4f}, "
            f"wanted 5.0 +- {3.0 * sigma_mean:.4f}"
        )

    # cover crossover: single-parent columns inherited with probability 1/2
    coverage = np.array(
        [
            [True, True, False, False],
            [True, False, True, False],
            [True, False, False, True],
        ]
    )
    costs = np.array([[2, 3, 4, 5], [5, 4, 3, 2]])
    tiny = ScpInstance(costs, coverage)
    pa, pb = frozenset({0, 1}), frozenset({0, 2})
    hits = {1: 0, 2: 0}
    for case in range(10_000):
        child = scp_recombine(pa, pb, rng, tiny)
        if not child <= {0, 1, 2}:
            problems.append(f"cover case {case}: unexpected column in child")
            break
        if 0 not in child:
            problems.append(f"cover case {case}: common column dropped")
            break
        for c in (1, 2):
            hits[c] += c in child
    for c in (1, 2):
        freq = hits[c] / 10_000
        if abs(freq - 0.5) > 0.02:
            problems.append(f"column {c} inherited with frequency {freq:.4f}")

    # every repair output is feasible
    for case in range(100):
        inst = generate_scp(15, 60, rng, density=0.15)
        lam = draw_random_weight(2, rng)
        scal = Scalarizer(lam, LINEAR)
        partial = frozenset(int(c) for c in rng.choice(60, size=8, replace=False))
        repaired = greedy_repair(inst, partial, scal)
        if not _cover_feasible(inst, repaired):
            problems.append(f"repair case {case}: infeasible cover")
        child = scp_recombine(random_cover(inst, rng), random_cover(inst, rng), rng, inst)
        if not _cover_feasible(inst, child):
            problems.append(f"repair case {case}: infeasible crossover child")

    elapsed = time.time() - start
    _verdict(
        5,
        "operator laws",
        not problems,
        "; ".join(problems)
        if problems
        else f"dpx 100/100, sub-tour mean {mean_size:.4f}, "
        f"inherit freq {hits[1] / 10_000:.3f}/{hits[2] / 10_000:.3f} in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 6: local-search contracts
# --------------------------------------------------------------------------


def _monotone(trace) -> bool:
    return all(b <= a for a, b in zip(trace, trace[1:]))


def test_criterion_6_local_search_contracts():
    start = time.time()
    problems: list[str] = []
    rng = np.random.default_rng(6006)

    mats = tuple(
        euclidean_cost_matrix(generate_euclidean_coords(30, rng, coord_range=500))
        for _ in range(2)
    )
    tsp = TspInstance(mats)
    for case in range(10):
        scal = Scalarizer(draw_random_weight(2, rng), LINEAR)
        trace: list[float] = []
        two_opt_local_search(tsp, random_tour(tsp, rng), scal, value_trace=trace)
        if not _monotone(trace):
            problems.append(f"tour search trace {case} not non-increasing")

    coords = generate_euclidean_coords(15, rng, coord_range=500)
    profits = rng.integers(1, 100, size=15)
    wp = TspwpInstance(euclidean_cost_matrix(coords), profits)
    mixed = ScalarizerSpec("mixed", w_linear=0.001, w_cheby=0.999)
    for case in range(10):
        scal = Scalarizer(draw_random_weight(2, rng), mixed, (0.0, -float(profits.sum())))
        trace = []
        tspwp_local_search(wp, random_subtour(wp, rng), scal, value_trace=trace)
        if not _monotone(trace):
            problems.append(f"sub-tour search trace {case} not non-increasing")

    scp = generate_scp(20, 80, rng)
    for case in range(10):
        scal = Scalarizer(draw_random_weight(2, rng), LINEAR)
        trace = []
        scp_local_search(scp, random_cover(scp, rng), scal, value_trace=trace)
        if not _monotone(trace):
            problems.append(f"cover search trace {case} not non-increasing")

    # single-objective sanity: unrestricted 2-opt on six cities finds the
    # exhaustive optimum from most random starts
    m = euclidean_cost_matrix(generate_euclidean_coords(6, rng, coord_range=100))
    six = TspInstance((m, m))
    half = Scalarizer((0.5, 0.5), LINEAR)
    best = min(
        tsp_evaluate(six, (0,) + perm)[0] for perm in itertools.permutations(range(1, 6))
    )
    wins = 0
    for _ in range(20):
        tour = two_opt_local_search(six, random_tour(six, rng), half)
        wins += tsp_evaluate(six, tour)[0] == best
    if wins < 15:
        problems.append(f"six-city optimum reached from {wins}/20 starts, wanted >= 15")

    elapsed = time.time() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, expected under a minute")
    _verdict(
        6,
        "local-search contracts",
        not problems,
        "; ".join(problems)
        if problems
        else f"30 monotone traces, six-city optimum from {wins}/20 starts",
    )


# --------------------------------------------------------------------------
# criterion 7: method ordering on a desk-scale tour study
# --------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_desk_scale_ordering(tmp_path):
    start = time.time()
    problems: list[str] = []
    paths = generate_instance("euclidean", tmp_path / "desk", seed=11, n=100, objectives=2)
    plan = ExperimentPlan(
        problem="mstsp",
        instance_paths=tuple(str(p) for p in paths),
        output_dir=str(tmp_path / "out"),
        generations=10,
        weight_count=101,
        replications=5,
    )
    outcome = run_experiment(plan)
    if outcome.failures:
        problems.append(f"{len(outcome.failures)} runs failed")
    r_by, hv_by = defaultdict(list), defaultdict(list)
    for rec in outcome.records:
        r_by[rec.method].append(rec.R)
        hv_by[rec.method].append(rec.HV)
    mean_r = {m: float(np.mean(v)) for m, v in r_by.items()}
    mean_hv = {m: float(np.mean(v)) for m, v in hv_by.items()}
    if len(mean_r) == 4:
        if mean_r["momsls"] != max(mean_r.values()):
            problems.append(f"momsls not worst on R: {mean_r}")
        if mean_hv["momsls"] != min(mean_hv.values()):
            problems.append(f"momsls not worst on hypervolume: {mean_hv}")
        if not (mean_r["mogls"] < mean_r["moead"] and mean_r["umogls"] < mean_r["moead"]):
            problems.append(f"hybrid methods do not beat moead on R: {mean_r}")
        gap_close = abs(mean_r["mogls"] - mean_r["umogls"])
        gap_far = abs(mean_r["umogls"] - mean_r["moead"])
        if not gap_close < gap_far:
            problems.append(
                f"mogls/umogls gap {gap_close:.6g} not smaller than "
                f"umogls/moead gap {gap_far:.6g}"
            )
    else:
        problems.append(f"records cover methods {sorted(mean_r)}")
    elapsed = time.time() - start
    if elapsed >= 900.0:
        problems.append(f"took {elapsed:.0f}s, expected under fifteen minutes")
    _verdict(
        7,
        "desk-scale method ordering",
        not problems,
        "; ".join(problems)
        if problems
        else "mean R " + ", ".join(f"{m}={mean_r[m]:.4g}" for m in sorted(mean_r))
        + f" in {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# criterion 8: weight-count sensitivity on a desk-scale covering study
# --------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_weight_count_sensitivity(tmp_path):
    start = time.time()
    problems: list[str] = []
    paths = generate_instance("scp", tmp_path / "desk", seed=65, rows=40, cols=200)
    methods = ("mogls", "umogls", "moead")
    means: dict[str, dict[str, float]] = {}
    for label, kwargs in (
        ("K101", dict(generations=11, weight_count=101)),
        ("K301", dict(generations=1, weight_count=301, main_iterations=911)),
    ):
        plan = ExperimentPlan(
            problem="moscp",
            instance_paths=(str(paths[0]),),
            output_dir=str(tmp_path / f"out_{label}"),
            methods=methods,
            replications=5,
            **kwargs,
        )
        outcome = run_experiment(plan)
        if outcome.failures:
            problems.append(f"{label}: {len(outcome.failures)} runs failed")
        acc = defaultdict(list)
        for rec in outcome.records:
            acc[rec.method].append(rec.R)
        means[label] = {m: float(np.mean(v)) for m, v in acc.items()}
    if all(len(means[k]) == 3 for k in means):
        if not means["K301"]["moead"] < means["K101"]["moead"]:
            problems.append(
                f"moead R did not improve with more weights: "
                f"{means['K101']['moead']:.6g} -> {means['K301']['moead']:.6g}"
            )
        gap101 = abs(means["K101"]["umogls"] - means["K101"]["mogls"])
        gap301 = abs(means["K301"]["umogls"] - means["K301"]["mogls"])
        if not gap301 < gap101:
            problems.append(
                f"umogls/mogls gap did not shrink: {gap101:.6g} -> {gap301:.6g}"
            )
    else:
        problems.append(f"incomplete method coverage: { {k: sorted(v) for k, v in means.items()} }")
    elapsed = time.time() - start
    if elapsed >= 900.0:
        problems.append(f"took {elapsed:.0f}s, expected under fifteen minutes")
    _verdict(
        8,
        "weight-count sensitivity",
        not problems,
        "; ".join(problems)
        if problems
        else f"moead R {means['K101']['moead']:.4g}->{means['K301']['moead']:.4g}, "
        f"umogls/mogls gap {abs(means['K101']['umogls'] - means['K101']['mogls']):.4g}"
        f"->{abs(means['K301']['umogls'] - means['K301']['mogls']):.4g} in {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# criterion 9: command-line runs are deterministic under a fixed seed
# --------------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    problems: list[str] = []
    base = tmp_path / "det"
    if cli_main(["gen", "--kind", "euclidean", "--out", str(base), "--seed", "31", "--n", "30", "--objectives", "2"]) != 0:
        problems.append("instance generation failed")
    f1, f2 = str(base) + "_obj1.tsp", str(base) + "_obj2.tsp"
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"arch_{tag}.csv"
        code = cli_main(
            [
                "run",
                "--problem", "mstsp",
                "--method", "moead",
                "--instance", f1, f2,
                "--out", str(out),
                "--generations", "3",
                "--weights", "10",
                "--neigh", "5",
                "--seed", "4242",
            ]
        )
        if code != 0:
            problems.append(f"run {tag} exited with {code}")
        outs.append(out)
    if not problems:
        first, second = (p.read_bytes() for p in outs)
        if first != second:
            problems.append("same seed produced different archive files")
        pts = read_points_csv(outs[0])
        if not pts:
            problems.append("archive file holds no points")
    _verdict(
        9,
        "seeded runs are byte-identical",
        not problems,
        "; ".join(problems) if problems else f"{len(read_points_csv(outs[0]))} archived points",
    )
