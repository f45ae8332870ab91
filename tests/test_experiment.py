import numpy as np
import pytest

from moscal.archive import read_points_csv
from moscal import experiment
from moscal.engine import METHODS, MethodConfig
from moscal.experiment import (
    EXPECTED_RANK_PRESETS,
    PRESETS,
    ExperimentPlan,
    format_table,
    read_results_csv,
    run_experiment,
)
from moscal.instances import generate_instance


@pytest.fixture
def tsp_paths(tmp_path):
    return [str(p) for p in generate_instance("euclidean", tmp_path / "toy", seed=3, n=8)]


def small_plan(tsp_paths, out, **overrides):
    params = dict(
        problem="mstsp",
        instance_paths=tuple(tsp_paths),
        output_dir=str(out),
        generations=1,
        weight_count=6,
        methods=("momsls", "mogls"),
        neighborhood_size=4,
        replications=3,
        seed_base=100,
    )
    params.update(overrides)
    return ExperimentPlan(**params)


def test_parameter_presets_table():
    assert (PRESETS["mstsp2"].generations, PRESETS["mstsp2"].weight_count) == (50, 101)
    assert (PRESETS["mstsp3"].generations, PRESETS["mstsp3"].weight_count) == (5, 3403)
    assert (PRESETS["tspwp"].generations, PRESETS["tspwp"].weight_count) == (17, 301)
    assert (PRESETS["moscp2"].generations, PRESETS["moscp2"].weight_count) == (17, 301)
    assert (PRESETS["moscp3"].generations, PRESETS["moscp3"].weight_count) == (5, 3403)
    assert EXPECTED_RANK_PRESETS["kroab100"] == 10.0
    assert EXPECTED_RANK_PRESETS["clusterab300"] == 5.0
    assert EXPECTED_RANK_PRESETS["euclideanab500"] == 4.0
    assert EXPECTED_RANK_PRESETS["kroabc100"] == 10.0
    assert EXPECTED_RANK_PRESETS["clusterabc300"] == 8.0


def test_method_config_weight_budgets():
    # one weight count K for every method
    same = [
        MethodConfig(method=m, objectives=2, generations=17, weight_count=301).total_iterations()
        for m in METHODS
    ]
    assert same == [301 + 17 * 301] * len(METHODS)
    assert MethodConfig(method="moead", objectives=3, generations=5, weight_count=3403).weight_count == 3403
    with pytest.raises(ValueError, match="not a simplex-lattice count"):
        MethodConfig(method="moead", objectives=3, generations=5, weight_count=3404)
    # uniform weights need a lattice with H >= 1; K=1 would be H=0
    for method in ("umogls", "moead"):
        with pytest.raises(ValueError, match="needs at least 2 weights, got 1"):
            MethodConfig(method=method, objectives=2, generations=5, weight_count=1, neighborhood_size=2)
    for method in ("momsls", "mogls"):
        assert MethodConfig(method=method, objectives=2, generations=5, weight_count=1).total_iterations() == 6


def test_report_budget_counts_main_iterations(tsp_paths, tmp_path):
    plan = small_plan(
        tsp_paths, tmp_path / "out", weight_count=11, main_iterations=5, replications=1
    )
    outcome = run_experiment(plan)
    assert "budget: 11 weights, 11 initial + 5 main = 16 iterations per run\n" in outcome.report


def test_plan_defaults_are_method_config_defaults(tsp_paths, tmp_path):
    config = small_plan(tsp_paths, tmp_path / "out", neighborhood_size=20).config_for("mogls", seed=3)
    default = MethodConfig(method="mogls", objectives=2, generations=1, weight_count=6, seed=3)
    assert config == default


def test_plan_validation(tsp_paths, tmp_path):
    plan = small_plan(tsp_paths, tmp_path / "out")
    assert plan.n_objectives == 2
    assert plan.instance_name == "toy_obj1"
    with pytest.raises(ValueError, match="unknown problem"):
        small_plan(tsp_paths, tmp_path / "o", problem="knapsack")
    with pytest.raises(ValueError, match="methods"):
        small_plan(tsp_paths, tmp_path / "o", methods=())
    with pytest.raises(ValueError, match="duplicate"):
        small_plan(tsp_paths, tmp_path / "o", methods=("mogls", "mogls"))
    with pytest.raises(ValueError, match="replications"):
        small_plan(tsp_paths, tmp_path / "o", replications=0)
    with pytest.raises(ValueError, match="not found"):
        small_plan((tsp_paths[0], str(tmp_path / "missing.tsp")), tmp_path / "o")
    # both used to pass here and fail every run inside numpy
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        small_plan(tsp_paths, tmp_path / "o", seed_base=-1)
    with pytest.raises(ValueError, match="expected_rank must be >= 1, got nan"):
        small_plan(tsp_paths, tmp_path / "o", expected_rank=float("nan"))


@pytest.mark.parametrize(
    "field, value", [("replications", 1.5), ("workers", 1.5), ("seed_base", 1.5), ("generations", 1.5)]
)
def test_plan_rejects_counts_and_seeds_that_are_no_integer(tsp_paths, tmp_path, field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        small_plan(tsp_paths, tmp_path / "o", **{field: value})


@pytest.mark.parametrize(
    "problem, files, message",
    [
        ("tspwp", [("euclidean", dict(n=8, objectives=1))],
         "tspwp needs exactly two files: coordinates then profits"),
        ("moscp", [("scp", dict(rows=6, cols=15))] * 2, "moscp needs exactly one covering file"),
        ("mstsp", [], "mstsp needs one coordinate file per objective"),
    ],
    ids=["tspwp-one-file", "moscp-two-files", "mstsp-no-files"],
)
def test_plan_checks_problem_file_count(tmp_path, problem, files, message):
    # files that exist and parse, but too few or too many for the problem
    paths = [
        str(path)
        for i, (kind, params) in enumerate(files)
        for path in generate_instance(kind, tmp_path / f"f{i}", seed=i, **params)
    ]
    with pytest.raises(ValueError, match=f"^{message}$"):
        small_plan(paths, tmp_path / "o", problem=problem)


def test_plan_rejects_moead_neighborhood_beyond_weights(tsp_paths, tmp_path):
    with pytest.raises(ValueError, match="neighborhood_size 20 exceeds weight count 6"):
        small_plan(tsp_paths, tmp_path / "o", methods=("mogls", "moead"), neighborhood_size=20)
    # the same neighborhood is fine for methods that keep no neighborhoods
    small_plan(tsp_paths, tmp_path / "o", methods=("mogls", "umogls"), neighborhood_size=20)
    assert small_plan(tsp_paths, tmp_path / "o", methods=("moead",), neighborhood_size=6)


def test_run_experiment_records_and_files(tsp_paths, tmp_path):
    plan = small_plan(tsp_paths, tmp_path / "out")
    outcome = run_experiment(plan)
    assert not outcome.failures
    assert len(outcome.records) == 6
    assert [(r.method, r.seed) for r in outcome.records] == [
        ("mogls", 100),
        ("mogls", 101),
        ("mogls", 102),
        ("momsls", 100),
        ("momsls", 101),
        ("momsls", 102),
    ]
    for rec in outcome.records:
        assert rec.iteration_count == 6 * 2
        assert np.isfinite(rec.R) and np.isfinite(rec.HV)
        archived = read_points_csv(
            outcome.archive_dir / f"{rec.method}_{rec.instance}_{rec.seed}.csv"
        )
        assert archived  # nonempty, parseable round trip
    assert outcome.results_csv.is_file()
    assert outcome.timings_csv.is_file()
    assert outcome.table_csv.is_file()
    assert "method" in outcome.report and "momsls" in outcome.report
    assert "n=3 paired runs, no decision" in outcome.report  # below the n >= 5 floor


def test_run_experiment_deterministic_results_csv(tsp_paths, tmp_path):
    first = run_experiment(small_plan(tsp_paths, tmp_path / "a"))
    second = run_experiment(small_plan(tsp_paths, tmp_path / "b"))
    assert first.results_csv.read_bytes() == second.results_csv.read_bytes()
    assert (
        first.archive_dir.joinpath("mogls_toy_obj1_101.csv").read_bytes()
        == second.archive_dir.joinpath("mogls_toy_obj1_101.csv").read_bytes()
    )


def test_run_experiment_degenerate_plan(tsp_paths, tmp_path):
    plan = small_plan(
        tsp_paths, tmp_path / "out", methods=("momsls",), replications=1
    )
    outcome = run_experiment(plan)
    assert len(outcome.records) == 1
    assert "Wilcoxon" not in outcome.report


def test_run_experiment_all_methods_pairwise_sections(tsp_paths, tmp_path):
    plan = small_plan(
        tsp_paths, tmp_path / "out", methods=METHODS, replications=5
    )
    outcome = run_experiment(plan)
    assert len(outcome.records) == 20
    # 6 method pairs per indicator, two indicators
    assert outcome.report.count(" vs ") == 12
    assert outcome.report.count("Wilcoxon signed-rank on") == 2


def test_run_experiment_records_failures(tsp_paths, tmp_path):
    plans = [small_plan(tsp_paths, tmp_path / f"out{w}", workers=w) for w in (1, 2)]
    # corrupt the instance after validation: every run then fails honestly,
    # in this process and in pool workers alike
    with open(tsp_paths[0], "w") as fh:
        fh.write("not a number\n")
    for plan in plans:
        outcome = run_experiment(plan)
        assert not outcome.records
        assert [(f.method, f.seed) for f in outcome.failures] == [
            (m, s) for m in plan.methods for s in (100, 101, 102)
        ]
        assert all(f.error.startswith("ParseError: ") for f in outcome.failures)
        assert "INCOMPLETE" in outcome.report
        assert outcome.results_csv.read_text().strip() == "method,problem,instance,seed,iterations,R,HV"
        assert len(outcome.failures_csv.read_text().splitlines()) == 1 + 6


def test_run_experiment_writes_failures_csv(tsp_paths, tmp_path, monkeypatch):
    clean = run_experiment(small_plan(tsp_paths, tmp_path / "clean"))
    assert clean.failures_csv.read_text() == "instance,method,seed,error\n"

    real_run_method = experiment.run_method

    def flaky_run_method(config, adapter):
        if (config.method, config.seed) == ("mogls", 101):
            raise RuntimeError("injected, with a comma")
        return real_run_method(config, adapter)

    monkeypatch.setattr(experiment, "run_method", flaky_run_method)
    outcome = run_experiment(small_plan(tsp_paths, tmp_path / "out"))
    assert [(f.method, f.seed) for f in outcome.failures] == [("mogls", 101)]
    assert outcome.failures_csv.read_text() == (
        "instance,method,seed,error\n"
        'toy_obj1,mogls,101,"RuntimeError: injected, with a comma"\n'
    )
    assert len(outcome.records) == 5
    assert not (outcome.archive_dir / "mogls_toy_obj1_101.csv").exists()
    for rec in outcome.records:
        name = f"{rec.method}_{rec.instance}_{rec.seed}.csv"
        assert (outcome.archive_dir / name).read_bytes() == (clean.archive_dir / name).read_bytes()


def test_run_experiment_parallel_matches_sequential(tsp_paths, tmp_path):
    seq = run_experiment(small_plan(tsp_paths, tmp_path / "seq"))
    par = run_experiment(small_plan(tsp_paths, tmp_path / "par", workers=2))
    assert [(r.method, r.seed, r.R, r.HV) for r in seq.records] == [
        (r.method, r.seed, r.R, r.HV) for r in par.records
    ]
    assert seq.results_csv.read_bytes() == par.results_csv.read_bytes()


def test_results_csv_round_trip(tsp_paths, tmp_path):
    outcome = run_experiment(small_plan(tsp_paths, tmp_path / "out"))
    back = read_results_csv(outcome.results_csv)
    assert len(back) == len(outcome.records)
    for a, b in zip(back, outcome.records):
        assert (a.method, a.instance, a.seed, a.iteration_count) == (
            b.method,
            b.instance,
            b.seed,
            b.iteration_count,
        )
        assert a.R == pytest.approx(b.R, rel=1e-4)
        assert a.HV == pytest.approx(b.HV, rel=1e-4)
    text, rows = format_table(back)
    assert rows[0][:3] == ["instance", "method", "n"]
    assert {row[1] for row in rows[1:]} == {"momsls", "mogls"}
    assert "toy_obj1" in text
