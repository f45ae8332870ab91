"""Experiment orchestration: presets, plans, runs, indicator tables, reports.

A plan binds one instance to a set of methods sharing identical iteration
budgets (fairness is validated up front), runs every (method, replication)
pair with seed = seed_base + replication, scores all archives against shared
union-based reference points, and writes deterministic CSV results alongside
a plain-text comparison report with pairwise signed-rank decisions.

Each job runs one seed's methods of one weight rule, random (momsls, mogls)
or uniform (umogls, moead), in plan order on one loaded instance.  Their
initial phases are the same K searches (see `engine`), so two methods share
one `SearchMemo` for the job's lifetime; each archive stays as it is alone.

Wallclock times go to a separate timings file so the results file is
byte-identical across reruns of the same plan; a job's second run takes no
time for the K searches it reuses.  Runs that raised are listed in a
failures file (header only when every run succeeded).
"""

from __future__ import annotations

import csv
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from statistics import mean, stdev
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .archive import write_points_csv
from .engine import _UNIFORM_METHODS, METHODS, MethodConfig, ProblemAdapter, SearchMemo, check_integer, run_method
from .indicators import (
    SCORED_OBJECTIVES,
    check_alpha,
    hypervolume,
    r_measure,
    r_weight_set,
    union_reference_points,
    wilcoxon_signed_rank,
)
from .instances import load_tsp_instance, load_tspwp_instance, parse_scp
from .scalarizing import ScalarizerSpec
from .scp import ScpAdapter
from .tsp import TspAdapter
from .tspwp import TspwpAdapter

__all__ = [
    "EXPECTED_RANK_PRESETS",
    "PRESETS",
    "PROBLEMS",
    "ExperimentOutcome",
    "ExperimentPlan",
    "ParameterPreset",
    "Problem",
    "ResultRecord",
    "RunFailure",
    "format_table",
    "pairwise_wilcoxon_report",
    "read_results_csv",
    "run_experiment",
]


@dataclass(frozen=True)
class Problem:
    """How one problem's instance files load, and the adapter that runs it."""

    loader: Callable[..., Any]  # called with the instance paths as arguments
    file_count: int | None  # exact number of instance files; None: one per objective
    needs: str  # the files the problem needs, as its error message and the CLI help say
    adapter: type[ProblemAdapter]

    def load(self, paths: Sequence):
        if not paths or (self.file_count is not None and len(paths) != self.file_count):
            raise ValueError(self.needs)
        for p in paths:
            if not Path(p).is_file():
                raise ValueError(f"instance file not found: {p}")
        return self.loader(*paths)


# The one map from a problem name to its loader, file count and adapter.
PROBLEMS = {
    "mstsp": Problem(lambda *paths: load_tsp_instance(paths), None,
                     "mstsp needs one coordinate file per objective", TspAdapter),
    "tspwp": Problem(load_tspwp_instance, 2,
                     "tspwp needs exactly two files: coordinates then profits", TspwpAdapter),
    "moscp": Problem(parse_scp, 1, "moscp needs exactly one covering file", ScpAdapter),
}


@dataclass(frozen=True)
class ParameterPreset:
    """Per-problem-family iteration budget: G generations over K weights."""

    generations: int
    weight_count: int


# Budgets by problem family and objective count.
PRESETS = {
    "mstsp2": ParameterPreset(generations=50, weight_count=101),
    "mstsp3": ParameterPreset(generations=5, weight_count=3403),
    "tspwp": ParameterPreset(generations=17, weight_count=301),
    "moscp2": ParameterPreset(generations=17, weight_count=301),
    "moscp3": ParameterPreset(generations=5, weight_count=3403),
}

# Documented per-instance-class tournament strength overrides (Er).
EXPECTED_RANK_PRESETS = {
    "kroab100": 10.0,
    "clusterab300": 5.0,
    "euclideanab500": 4.0,
    "kroabc100": 10.0,
    "clusterabc300": 8.0,
}


@dataclass(frozen=True)
class ResultRecord:
    method: str
    problem: str
    instance: str
    seed: int
    iteration_count: int
    R: float
    HV: float
    wallclock_ms: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.R) and np.isfinite(self.HV)):
            raise ValueError("R and HV must be finite")


@dataclass(frozen=True)
class RunFailure:
    method: str
    instance: str
    seed: int
    error: str


# The MethodConfig fields a plan passes unchanged to every run.
_CONFIG_FIELDS = (
    "generations", "weight_count", "scalarizer", "expected_rank",
    "neighborhood_size", "mating_probability", "max_replacements", "main_iterations",
)


@dataclass(frozen=True)
class ExperimentPlan:
    """One instance, several methods, identical budgets, seeded replications."""

    problem: str
    instance_paths: tuple[str, ...]
    output_dir: str
    generations: int
    weight_count: int
    methods: tuple[str, ...] = METHODS
    scalarizer: ScalarizerSpec | None = MethodConfig.scalarizer
    expected_rank: float = MethodConfig.expected_rank
    neighborhood_size: int = MethodConfig.neighborhood_size
    mating_probability: float = MethodConfig.mating_probability
    max_replacements: int = MethodConfig.max_replacements
    main_iterations: int | None = MethodConfig.main_iterations
    replications: int = 10
    seed_base: int = 0
    instance_name: str = ""
    workers: int = 1

    def __post_init__(self) -> None:
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; expected one of {tuple(PROBLEMS)}")
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ValueError(f"methods must be drawn from {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate method in plan")
        for name in ("replications", "seed_base", "workers"):
            check_integer(getattr(self, name), name)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if any(sep and sep in self.instance_name for sep in (os.sep, os.altsep)):
            raise ValueError(f"instance_name {self.instance_name!r} holds a path separator; it names archive files")
        object.__setattr__(self, "instance_paths", tuple(str(p) for p in self.instance_paths))
        instance = self.load_instance()
        if not self.instance_name:
            object.__setattr__(self, "instance_name", Path(self.instance_paths[0]).stem)
        if instance.n_objectives not in SCORED_OBJECTIVES:
            raise ValueError(f"a study needs 2 or 3 objectives to score R and HV, got {instance.n_objectives}")
        object.__setattr__(self, "_n_objectives", int(instance.n_objectives))
        budgets = {
            self.config_for(m, seed=self.seed_base).total_iterations()
            for m in self.methods
        }
        if len(budgets) != 1:
            raise ValueError(f"methods disagree on total iterations: {sorted(budgets)}")

    @property
    def n_objectives(self) -> int:
        return self._n_objectives

    def load_instance(self):
        return PROBLEMS[self.problem].load(self.instance_paths)

    def make_adapter(self, instance, memo: SearchMemo | None = None) -> ProblemAdapter:
        return PROBLEMS[self.problem].adapter(instance, memo)

    def config_for(self, method: str, seed: int) -> MethodConfig:
        shared = {name: getattr(self, name) for name in _CONFIG_FIELDS}
        return MethodConfig(method=method, objectives=self.n_objectives, seed=seed, **shared)


@dataclass
class ExperimentOutcome:
    records: list[ResultRecord]
    failures: list[RunFailure]
    report: str
    results_csv: Path
    timings_csv: Path
    failures_csv: Path
    table_csv: Path
    report_path: Path
    archive_dir: Path


def _failure(plan: ExperimentPlan, method: str, seed: int, exc: Exception) -> RunFailure:
    return RunFailure(method, plan.instance_name, seed, f"{type(exc).__name__}: {exc}")


def _execute_job(plan: ExperimentPlan, methods: tuple[str, ...], seed: int) -> list:
    """Run `methods` for `seed` on one loaded instance, in order; per run its
    raw result, or its `RunFailure` when it raised."""
    instance = plan.load_instance()
    memo = SearchMemo() if len(methods) > 1 else None
    runs = []
    for method in methods:
        try:
            result = run_method(plan.config_for(method, seed=seed), plan.make_adapter(instance, memo))
        except Exception as exc:  # noqa: BLE001 - individual runs may fail
            runs.append(_failure(plan, method, seed, exc))
            continue
        elapsed_ms = int(round(1000 * result.wallclock_s))
        runs.append((method, seed, result.iteration_count, result.archive.points(), elapsed_ms))
    return runs


def _write_csv(path: Path, rows: Iterable[Sequence]) -> Path:
    """Write `rows` as CSV with Unix line ends to `path`, making its directory; return `path`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def _significant_digits(value: float) -> str:
    return format(float(value), ".6g")


def _mean_std(values: Sequence[float]) -> str:
    if not values:
        return "-"
    spread = stdev(values) if len(values) > 1 else 0.0
    return f"{_significant_digits(mean(values))} ({_significant_digits(spread)})"


def run_experiment(plan: ExperimentPlan) -> ExperimentOutcome:
    out_dir = Path(plan.output_dir)
    archive_dir = out_dir / "archives"
    archive_dir.mkdir(parents=True, exist_ok=True)

    # per seed, the plan's methods of each weight rule, random then uniform
    rules = [tuple(m for m in plan.methods if (m in _UNIFORM_METHODS) == uniform) for uniform in (False, True)]
    jobs = [(rule, plan.seed_base + rep) for rep in range(plan.replications) for rule in rules if rule]
    failures: list[RunFailure] = []
    raw = []
    # A job that raises, here or in a pool worker, fails each of its runs.
    parallel = plan.workers > 1
    if parallel:
        # imported here, not at the top: loading the pool's module adds to
        # every start of the program, and most studies run in-process
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=plan.workers) if parallel else nullcontext() as pool:
        results = [
            pool.submit(_execute_job, plan, *job).result if parallel else partial(_execute_job, plan, *job)
            for job in jobs
        ]
        for (methods, seed), result in zip(jobs, results):
            try:
                runs = result()
            except Exception as exc:  # noqa: BLE001 - individual runs may fail
                runs = [_failure(plan, method, seed, exc) for method in methods]
            for run in runs:
                (failures if isinstance(run, RunFailure) else raw).append(run)
    raw.sort(key=lambda item: (item[0], item[1]))
    failures.sort(key=lambda f: (plan.methods.index(f.method), f.seed))

    records: list[ResultRecord] = []
    report_lines: list[str] = []
    if raw:
        z_star, hv_ref = union_reference_points([points for *_, points, _ in raw])
        weights = r_weight_set(plan.n_objectives)
        for method, seed, iterations, points, elapsed_ms in raw:
            records.append(
                ResultRecord(
                    method=method,
                    problem=plan.problem,
                    instance=plan.instance_name,
                    seed=seed,
                    iteration_count=iterations,
                    R=r_measure(points, weights, z_star),
                    HV=hypervolume(points, hv_ref),
                    wallclock_ms=elapsed_ms,
                )
            )
            write_points_csv(
                points, archive_dir / f"{method}_{plan.instance_name}_{seed}.csv"
            )
        report_lines.append(
            f"instance {plan.instance_name}  problem {plan.problem}  "
            f"objectives {plan.n_objectives}  replications {plan.replications}"
        )
        total = records[0].iteration_count
        report_lines.append(
            f"budget: {plan.weight_count} weights, {plan.weight_count} initial"
            f" + {total - plan.weight_count} main = {total} iterations per run"
        )
        report_lines.append(
            f"R weight count {weights.shape[0]}; "
            f"chebycheff reference {tuple(_significant_digits(v) for v in z_star)}; "
            f"hypervolume reference {tuple(_significant_digits(v) for v in hv_ref)}"
        )
        report_lines.append("")
        report_lines.append(f"{'method':<10} {'R mean (std)':<26} {'HV mean (std)':<30} n")
        by_method: dict[str, list[ResultRecord]] = {m: [] for m in plan.methods}
        for rec in records:
            by_method[rec.method].append(rec)
        for method in plan.methods:
            rs = [r.R for r in by_method[method]]
            hvs = [r.HV for r in by_method[method]]
            report_lines.append(
                f"{method:<10} {_mean_std(rs):<26} {_mean_std(hvs):<30} {len(rs)}"
            )
        if len(plan.methods) > 1:
            pairwise = pairwise_wilcoxon_report(records, alpha=0.05)
            if pairwise:
                report_lines.append("")
                report_lines.append(pairwise)
    if failures:
        report_lines.append("")
        report_lines.append("INCOMPLETE runs:")
        for f in failures:
            report_lines.append(f"  {f.method} seed {f.seed}: {f.error}")
    report = "\n".join(report_lines) + "\n"

    results_csv = _write_csv(out_dir / "results.csv", [
        ["method", "problem", "instance", "seed", "iterations", "R", "HV"],
        *(
            [r.method, r.problem, r.instance, r.seed, r.iteration_count,
             _significant_digits(r.R), _significant_digits(r.HV)]
            for r in records
        ),
    ])
    timings_csv = _write_csv(out_dir / "timings.csv", [
        ["method", "instance", "seed", "wallclock_ms"],
        *([r.method, r.instance, r.seed, r.wallclock_ms] for r in records),
    ])
    failures_csv = _write_csv(out_dir / "failures.csv", [
        ["instance", "method", "seed", "error"],
        *([f.instance, f.method, f.seed, f.error] for f in failures),
    ])
    table_csv = _write_csv(out_dir / "table.csv", format_table(records)[1])
    report_path = out_dir / "report.txt"
    report_path.write_text(report)
    return ExperimentOutcome(
        records=records,
        failures=failures,
        report=report,
        results_csv=results_csv,
        timings_csv=timings_csv,
        failures_csv=failures_csv,
        table_csv=table_csv,
        report_path=report_path,
        archive_dir=archive_dir,
    )


def pairwise_wilcoxon_report(records: Sequence[ResultRecord], alpha: float = 0.05) -> str:
    """Pairwise signed-rank decisions per instance, on R (lower better) and
    hypervolume (higher better), runs paired by seed."""
    check_alpha(alpha)
    lines: list[str] = []
    for instance in sorted({r.instance for r in records}):
        recs = [r for r in records if r.instance == instance]
        methods = sorted({r.method for r in recs})
        if len(methods) < 2:
            continue
        by_method = {m: [r for r in recs if r.method == m] for m in methods}
        for label, attr, better_low in (("R measure", "R", True), ("hypervolume", "HV", False)):
            if lines:
                lines.append("")
            lines.append(f"[{instance}] Wilcoxon signed-rank on {label} (alpha={alpha:g}):")
            for i, m1 in enumerate(methods):
                for m2 in methods[i + 1 :]:
                    a = {r.seed: getattr(r, attr) for r in by_method[m1]}
                    b = {r.seed: getattr(r, attr) for r in by_method[m2]}
                    shared = sorted(set(a) & set(b))
                    if len(shared) < 5:
                        lines.append(
                            f"  {m1} vs {m2}: n={len(shared)} paired runs, no decision"
                        )
                        continue
                    res = wilcoxon_signed_rank(
                        [a[s] for s in shared], [b[s] for s in shared], alpha=alpha
                    )
                    verdict = "not significant"
                    if res.significant:
                        d = mean(a[s] for s in shared) - mean(b[s] for s in shared)
                        winner = m1 if (d < 0) == better_low else m2
                        verdict = f"significant, {winner} better"
                    lines.append(
                        f"  {m1} vs {m2}: W={_significant_digits(res.statistic)}, "
                        f"p={_significant_digits(res.p_value)}, {verdict}"
                    )
    return "\n".join(lines)


def read_results_csv(path) -> list[ResultRecord]:
    records = []
    with Path(path).open(newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                records.append(
                    ResultRecord(
                        method=row["method"],
                        problem=row["problem"],
                        instance=row["instance"],
                        seed=int(row["seed"]),
                        iteration_count=int(row["iterations"]),
                        R=float(row["R"]),
                        HV=float(row["HV"]),
                        wallclock_ms=0,
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: malformed results row {row!r}: {exc}") from None
    return records


def format_table(records: Sequence[ResultRecord]) -> tuple[str, list[list[str]]]:
    """Mean (std) grid over (instance, method) cells, as text and CSV rows."""
    rows: list[list[str]] = [
        ["instance", "method", "n", "R_mean", "R_std", "HV_mean", "HV_std"]
    ]
    lines = [f"{'instance':<24} {'method':<10} {'R mean (std)':<26} {'HV mean (std)':<30} n"]
    keys = sorted({(r.instance, r.method) for r in records})
    for instance, method in keys:
        cell = [r for r in records if r.instance == instance and r.method == method]
        rs = [r.R for r in cell]
        hvs = [r.HV for r in cell]
        r_std = stdev(rs) if len(rs) > 1 else 0.0
        hv_std = stdev(hvs) if len(hvs) > 1 else 0.0
        rows.append(
            [
                instance,
                method,
                str(len(cell)),
                _significant_digits(mean(rs)),
                _significant_digits(r_std),
                _significant_digits(mean(hvs)),
                _significant_digits(hv_std),
            ]
        )
        lines.append(
            f"{instance:<24} {method:<10} {_mean_std(rs):<26} {_mean_std(hvs):<30} {len(cell)}"
        )
    return "\n".join(lines) + "\n", rows
