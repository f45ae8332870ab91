"""Tests of the benchmark's own logic: spans, metric names, output checks.

    python3 -m pytest -q perfbench
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import study  # noqa: E402
import tracing  # noqa: E402
from moscal import engine, experiment, scalarizing  # noqa: E402
from moscal.experiment import ExperimentPlan, run_experiment  # noqa: E402
from moscal.instances import generate_instance  # noqa: E402
from moscal.tsp import TspAdapter  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def nested_spans(clock, tracer):
    """Scalarizer.__call__ -> value -> normalize, with known durations."""

    def normalize():
        clock.advance(1.0)

    def value():
        clock.advance(2.0)
        normalize_span()
        clock.advance(0.5)

    def call():
        clock.advance(4.0)
        value_span()

    normalize_span = tracer.wrap("problem.helper", normalize)
    value_span = tracer.wrap("scalarizing.value", value)
    return tracer.wrap("scalarizing.call", call)


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    call = nested_spans(clock, tracer)
    call()
    call()
    assert dict(tracer.self_s) == {"scalarizing.call": 8.0, "scalarizing.value": 5.0, "problem.helper": 2.0}
    assert dict(tracer.total_s) == {"scalarizing.call": 15.0, "scalarizing.value": 7.0, "problem.helper": 2.0}
    assert dict(tracer.calls) == {"scalarizing.call": 2, "scalarizing.value": 2, "problem.helper": 2}


def test_partition_and_unattributed_add_up_to_study_time():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    nested_spans(clock, tracer)()
    metrics = tracing.layer_metrics(tracer, study_s=7.75, problem="tspwp")
    assert metrics["unattributed_s"] == pytest.approx(0.25)
    assert sum(metrics[m] for m in tracing.PARTITION) + metrics["unattributed_s"] == pytest.approx(7.75)


def test_failing_span_counts_error_and_unwinds():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def repair():
        clock.advance(1.0)
        raise RuntimeError("no cover")

    repair_span = tracer.wrap("problem.helper", repair)

    def search():
        clock.advance(3.0)
        with pytest.raises(RuntimeError):
            repair_span()

    tracer.wrap("problem.ls", search)()
    assert tracer.errors["problem.helper"] == 1
    assert tracer.self_s["problem.ls"] == 3.0
    assert tracer.self_s["problem.helper"] == 1.0
    assert tracer.durations["problem.ls"] == [4.0]


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 90) == 90
    assert tracing.percentile([7.0], 90) == 7.0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(tracing.SELF_TIME_METRICS.values()) <= set(tracing.LAYER_UNITS)


@pytest.fixture
def tiny_plan(tmp_path):
    paths = generate_instance("euclidean", tmp_path / "toy", seed=5, n=10)
    return ExperimentPlan(
        problem="mstsp",
        instance_paths=tuple(str(p) for p in paths),
        output_dir=str(tmp_path / "out"),
        generations=1,
        weight_count=6,
        methods=("momsls", "mogls"),
        neighborhood_size=4,
        replications=2,
        instance_name="toy",
    )


def check(plan, outcome, reference):
    digests = study.file_digests(Path(plan.output_dir))
    return study.failed_runs(plan, outcome, digests, reference, {})


def test_unchanged_study_passes(tiny_plan):
    outcome = run_experiment(tiny_plan)
    reference = study.file_digests(Path(tiny_plan.output_dir))
    assert check(tiny_plan, outcome, reference) == (set(), [])
    assert check(tiny_plan, outcome, None) == (set(), [])


def test_perturbed_archive_is_reported_failed(tiny_plan):
    outcome = run_experiment(tiny_plan)
    reference = study.file_digests(Path(tiny_plan.output_dir))
    archive = Path(tiny_plan.output_dir) / study.archive_name(tiny_plan, "mogls", 1)
    lines = archive.read_text().splitlines()
    first = lines[1].split(",")
    lines[1] = ",".join([str(float(first[0]) + 1.0)] + first[1:])
    archive.write_text("\n".join(lines) + "\n")
    failed, errors = check(tiny_plan, outcome, reference)
    assert failed == {("toy", "mogls", 1)}
    assert "digest differs" in errors[0]


def test_dominated_archive_is_reported_failed_without_reference(tiny_plan):
    outcome = run_experiment(tiny_plan)
    archive = Path(tiny_plan.output_dir) / study.archive_name(tiny_plan, "momsls", 0)
    lines = archive.read_text().splitlines()
    worse = ",".join(str(float(v) + 1.0) for v in lines[1].split(","))
    archive.write_text("\n".join(lines + [worse]) + "\n")
    failed, _ = check(tiny_plan, outcome, None)
    assert failed == {("toy", "momsls", 0)}


def test_perturbed_results_fail_every_run(tiny_plan):
    outcome = run_experiment(tiny_plan)
    reference = study.file_digests(Path(tiny_plan.output_dir))
    reference[study.RESULTS] = "0" * 64
    failed, _ = check(tiny_plan, outcome, reference)
    assert failed == set(study.plan_runs(tiny_plan))


def test_tracing_keeps_archives_and_restores_modules(tiny_plan):
    originals = (experiment.run_method, engine._bind, scalarizing.Scalarizer.__call__,
                 vars(engine.MoeadState)["build"])
    plain = study.run_study([tiny_plan], None, {})
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        traced = study.run_study([tiny_plan], plain.digests, {})
    assert traced.failed == set() and traced.digests == plain.digests
    assert tracer.calls["problem.ls"] == 4 * 12
    assert (experiment.run_method, engine._bind, scalarizing.Scalarizer.__call__,
            vars(engine.MoeadState)["build"]) == originals
    assert "begin_run" not in vars(TspAdapter) and "end_initial_phase" in vars(TspAdapter)
