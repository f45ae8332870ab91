"""Spans and counts at moscal's module boundaries, recorded from outside `src/`.

`Tracer.wrap` times a callable as a named span.  Spans nest through a stack,
so each span's self time is its duration minus the time its child spans
cover.  `install` swaps moscal's module attributes and class methods for
wrapped versions and returns a `Patcher` that puts the originals back; the
program itself is not edited.

Spans and counters are kept in memory and turned into the benchmark's
per-layer metrics by `layer_metrics` once the traced study has finished.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from typing import Any, Callable

# Span name -> partition metric receiving its self time.  Together with
# `unattributed_s` these metrics add up to the traced study time.
SELF_TIME_METRICS = {
    "engine.run": "engine.self_s",
    "engine.begin_run": "engine.self_s",
    "engine.tournament": "engine.self_s",
    "engine.moead_update": "engine.self_s",
    "engine.moead_build": "engine.self_s",
    "scalarizing.value": "scalarizing.value_self_s",
    "scalarizing.call": "scalarizing.call_self_s",
    "scalarizing.bind": "scalarizing.bind_self_s",
    "problem.ls": "problem.ls_self_s",
    "problem.helper": "problem.helper_self_s",
    "problem.recombine": "problem.recombine_self_s",
    "problem.evaluate": "problem.evaluate_self_s",
    "archive.update": "archive.update_self_s",
    "indicators.r_measure": "indicators.r_measure_self_s",
    "indicators.hypervolume": "indicators.hypervolume_self_s",
    "indicators.wilcoxon": "indicators.wilcoxon_self_s",
    "experiment.load": "experiment.load_self_s",
    "experiment.io": "experiment.io_self_s",
}
PARTITION = tuple(dict.fromkeys(SELF_TIME_METRICS.values()))

# Every per-layer metric of a traced run, with its unit.
LAYER_UNITS = {
    "engine.self_s": "s",
    "engine.initial_phase_s": "s",
    "engine.main_phase_s": "s",
    "engine.begin_run_s": "s",
    "engine.moead_update_s": "s",
    "engine.moead_update_calls": "count",
    "engine.moead_replacements": "count",
    "engine.tournament_s": "s",
    "engine.tournament_calls": "count",
    "engine.tournament_size_mean": "count",
    "engine.moead_build_s": "s",
    "scalarizing.value_calls": "count",
    "scalarizing.value_self_s": "s",
    "scalarizing.call_calls": "count",
    "scalarizing.call_self_s": "s",
    "scalarizing.bind_calls": "count",
    "scalarizing.bind_self_s": "s",
    "problem.ls_calls": "count",
    "problem.ls_self_s": "s",
    "problem.ls_init_s": "s",
    "problem.ls_main_s": "s",
    "problem.ls_steps": "count",
    "problem.ls_call_us_p50": "us",
    "problem.ls_call_us_p90": "us",
    "problem.helper_calls": "count",
    "problem.helper_self_s": "s",
    "problem.recombine_calls": "count",
    "problem.recombine_self_s": "s",
    "problem.evaluate_calls": "count",
    "problem.evaluate_self_s": "s",
    "tsp.candidates_per_city": "count",
    "scp.repair_fail_ratio": "ratio",
    "scp.repair_useful_ratio": "ratio",
    "archive.update_calls": "count",
    "archive.update_self_s": "s",
    "archive.accept_ratio": "ratio",
    "archive.final_size": "count",
    "indicators.r_measure_self_s": "s",
    "indicators.hypervolume_self_s": "s",
    "indicators.wilcoxon_self_s": "s",
    "indicators.points_scored": "count",
    "instances.generate_s": "s",
    "instances.parse_s": "s",
    "experiment.load_self_s": "s",
    "experiment.io_self_s": "s",
    "traced_study_s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}

# Span names whose per-call durations and per-phase totals are kept.
_DETAILED = ("problem.ls",)


class Tracer:
    """In-memory spans: call count, inclusive time and self time per name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.phase_s: dict[tuple[str, str], float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = "init"
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """`fn` timed as span `name`; exceptions are counted and re-raised."""
        clock, stack = self.clock, self._stack
        calls, errors, total, own = self.calls, self.errors, self.total_s, self.self_s
        detailed = name in _DETAILED

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                total[name] += elapsed
                own[name] += elapsed - children[0]
                if detailed:
                    self.durations[name].append(elapsed)
                    self.phase_s[(name, self.phase)] += elapsed

        return traced

    def attributed_s(self) -> dict[str, float]:
        """Self time summed per partition metric."""
        out = dict.fromkeys(PARTITION, 0.0)
        for span, seconds in self.self_s.items():
            out[SELF_TIME_METRICS[span]] += seconds
        return out


class Patcher:
    """Replaces attributes and restores them, including inherited ones."""

    def __init__(self):
        self._saved: list[tuple[Any, str, bool, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, value = self._saved.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def install(tracer: Tracer) -> Patcher:
    """Wrap the public boundaries of moscal's modules; returns the undo handle.

    The three problem modules share the `problem.*` span names: a workload
    runs exactly one problem, so the names always mean that workload's local
    search, recombination, evaluation and per-call helper.
    """
    from moscal import archive, engine, experiment, scalarizing, scp, tsp, tspwp

    patcher = Patcher()
    wrap, counts = tracer.wrap, tracer.counts

    def span(owner, attr, name, hook=None):
        original = getattr(owner, attr)
        patcher.set(owner, attr, wrap(name, hook(original) if hook else original))

    # engine; the phases run from begin_run's return to end_initial_phase's
    # call, and from end_initial_phase's return to run_method's
    marks: dict[str, float] = {}

    def run_hook(run_method):
        def run(config, problem):
            tracer.phase = "init"
            result = run_method(config, problem)
            counts["engine.main_phase_s"] += tracer.clock() - marks["main"]
            counts["runs"] += 1
            counts["archive.final_size"] += len(result.archive)
            return result
        return run

    def begin_hook(begin_run):
        def begin(self, rng):
            begin_run(self, rng)
            marks["initial"] = tracer.clock()
        return begin

    def end_initial_hook(end_initial_phase):
        def end_initial(self, solutions):
            counts["engine.initial_phase_s"] += tracer.clock() - marks["initial"]
            end_initial_phase(self, solutions)
            tracer.phase = "main"
            marks["main"] = tracer.clock()
        return end_initial

    def tournament_hook(get_parents):
        def tournament(archive_, scalarizer, expected_rank, rng):
            counts["engine.tournament_size_sum"] += engine.tournament_size(len(archive_), expected_rank)
            return get_parents(archive_, scalarizer, expected_rank, rng)
        return tournament

    def moead_update_hook(update):
        def moead_update(*args, **kwargs):
            replaced = update(*args, **kwargs)
            counts["engine.moead_replacements"] += replaced
            return replaced
        return moead_update

    span(experiment, "run_method", "engine.run", run_hook)
    for adapter in (tsp.TspAdapter, tspwp.TspwpAdapter, scp.ScpAdapter):
        span(adapter, "begin_run", "engine.begin_run", begin_hook)
        patcher.set(adapter, "end_initial_phase", end_initial_hook(adapter.end_initial_phase))
    span(engine, "get_parents_tournament", "engine.tournament", tournament_hook)
    span(engine, "moead_update", "engine.moead_update", moead_update_hook)
    build = vars(engine.MoeadState)["build"].__func__
    patcher.set(engine.MoeadState, "build", classmethod(wrap("engine.moead_build", build)))

    # scalarizing
    span(scalarizing.Scalarizer, "value", "scalarizing.value")
    span(scalarizing.Scalarizer, "__call__", "scalarizing.call")
    span(engine, "_bind", "scalarizing.bind")

    # problem layer: local search, its per-call helper, recombination, evaluation
    def ls_hook(local_search):
        def search(*args, **kwargs):
            trace: list[float] = []
            result = local_search(*args, value_trace=trace, **kwargs)
            counts["problem.ls_steps"] += len(trace) - 1
            return result
        return search

    def candidates_hook(build_lists):
        def build_candidate_lists(tours):
            lists = build_lists(tours)
            counts["tsp.candidate_builds"] += 1
            counts["tsp.candidates_per_city_sum"] += sum(map(len, lists.members)) / len(lists.members)
            return lists
        return build_candidate_lists

    span(tsp, "two_opt_local_search", "problem.ls", ls_hook)
    span(tspwp, "tspwp_local_search", "problem.ls", ls_hook)
    span(scp, "scp_local_search", "problem.ls", ls_hook)
    span(tsp, "build_candidate_lists", "problem.helper", candidates_hook)
    span(tsp.CandidateLists, "matrix", "problem.helper")
    span(tspwp.ObjectiveRanges, "normalize", "problem.helper")
    span(scp, "greedy_repair", "problem.helper")
    span(tsp, "dpx_recombine", "problem.recombine")
    span(tspwp, "dpx_wp_recombine", "problem.recombine")
    span(scp, "scp_recombine", "problem.recombine")
    span(tsp, "tsp_evaluate", "problem.evaluate")
    span(tspwp, "tspwp_evaluate", "problem.evaluate")
    span(scp, "scp_evaluate", "problem.evaluate")

    # archive
    def update_hook(update):
        def archive_update(self, solution, point):
            accepted = update(self, solution, point)
            counts["archive.accepted"] += accepted
            return accepted
        return archive_update

    span(archive.ParetoArchive, "update", "archive.update", update_hook)

    # indicators, as the study calls them
    def r_hook(r_measure):
        def r(points, weights, reference):
            counts["indicators.points_scored"] += len(points)
            return r_measure(points, weights, reference)
        return r

    span(experiment, "r_measure", "indicators.r_measure", r_hook)
    span(experiment, "hypervolume", "indicators.hypervolume")
    span(experiment, "pairwise_wilcoxon_report", "indicators.wilcoxon")

    # experiment: per-run instance reload and archive writes
    span(experiment.ExperimentPlan, "load_instance", "experiment.load")
    span(experiment.ExperimentPlan, "make_adapter", "experiment.load")
    span(experiment, "write_points_csv", "experiment.io")
    return patcher


def layer_metrics(tracer: Tracer, study_s: float, problem: str) -> dict[str, float]:
    """Per-layer metrics of one traced study lasting `study_s` seconds."""
    calls, total, counts = tracer.calls, tracer.total_s, tracer.counts
    runs = max(counts["runs"], 1)
    ls_us = [1e6 * d for d in tracer.durations["problem.ls"]] or [0.0]
    helper_calls = calls["problem.helper"]
    builds = counts["tsp.candidate_builds"]
    metrics = {
        "engine.initial_phase_s": counts["engine.initial_phase_s"],
        "engine.main_phase_s": counts["engine.main_phase_s"],
        "engine.begin_run_s": total["engine.begin_run"],
        "engine.moead_update_s": total["engine.moead_update"],
        "engine.moead_update_calls": calls["engine.moead_update"],
        "engine.moead_replacements": counts["engine.moead_replacements"],
        "engine.tournament_s": total["engine.tournament"],
        "engine.tournament_calls": calls["engine.tournament"],
        "engine.tournament_size_mean": counts["engine.tournament_size_sum"] / max(calls["engine.tournament"], 1),
        "engine.moead_build_s": total["engine.moead_build"],
        "scalarizing.value_calls": calls["scalarizing.value"],
        "scalarizing.call_calls": calls["scalarizing.call"],
        "scalarizing.bind_calls": calls["scalarizing.bind"],
        "problem.ls_calls": calls["problem.ls"],
        "problem.ls_init_s": tracer.phase_s[("problem.ls", "init")],
        "problem.ls_main_s": tracer.phase_s[("problem.ls", "main")],
        "problem.ls_steps": counts["problem.ls_steps"],
        "problem.ls_call_us_p50": percentile(ls_us, 50),
        "problem.ls_call_us_p90": percentile(ls_us, 90),
        "problem.helper_calls": helper_calls,
        "problem.recombine_calls": calls["problem.recombine"],
        "problem.evaluate_calls": calls["problem.evaluate"],
        "tsp.candidates_per_city": counts["tsp.candidates_per_city_sum"] / builds if builds else 0.0,
        "scp.repair_fail_ratio": tracer.errors["problem.helper"] / helper_calls if problem == "moscp" and helper_calls else 0.0,
        "scp.repair_useful_ratio": counts["problem.ls_steps"] / helper_calls if problem == "moscp" and helper_calls else 0.0,
        "archive.update_calls": calls["archive.update"],
        "archive.accept_ratio": counts["archive.accepted"] / max(calls["archive.update"], 1),
        "archive.final_size": counts["archive.final_size"] / runs,
        "indicators.points_scored": counts["indicators.points_scored"],
    }
    attributed = tracer.attributed_s()
    metrics.update(attributed)
    metrics["traced_study_s"] = study_s
    metrics["unattributed_s"] = study_s - sum(attributed.values())
    return metrics
