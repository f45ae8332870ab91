"""One timed study and the checks on what it wrote.

A study runs one plan per instance of its workload, one after another.  Its
outputs are judged by sha256 digests of every run's archive CSV and of each
plan's `results.csv`.  For the pinned seed the digests must equal the pins in
`pins.json`; for any other seed every repetition must reproduce the first
one.  Each archive must also hold mutually nondominated finite points, and
every run must report the planned iteration count.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from moscal.archive import read_points_csv
from moscal.experiment import ExperimentPlan, run_experiment
from moscal.indicators import union_reference_points

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
RESULTS = "results.csv"


@dataclass
class StudyResult:
    study_s: float
    run_ms: int = 0
    iterations: int = 0
    attempted: int = 0
    failed: set = field(default_factory=set)
    digests: dict = field(default_factory=dict)
    HV_share: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}


def file_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of results.csv and of every archive CSV, keyed by relative path."""
    files = [out_dir / RESULTS, *sorted((out_dir / "archives").glob("*.csv"))]
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
        if p.is_file()
    }


def combined_digest(digests: dict[str, str]) -> str:
    lines = "".join(f"{name} {digest}\n" for name, digest in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def archive_name(plan: ExperimentPlan, method: str, seed: int) -> str:
    return f"archives/{method}_{plan.instance_name}_{seed}.csv"


def nondominated(points: np.ndarray) -> bool:
    """True when no point weakly dominates another (no duplicates either)."""
    le = (points[:, None, :] <= points[None, :, :]).all(axis=2)
    np.fill_diagonal(le, False)
    return not le.any()


def hypervolume_shares(plan: ExperimentPlan, outcome, failed: set) -> list[float]:
    """Each correct run's exact hypervolume as a share of the study's reference box.

    The box spans from the componentwise minimum of the study's archives to
    its hypervolume reference point, the same union-based points the study
    scores with, so the share is free of the random instance's scale.
    """
    records = [r for r in outcome.records if (plan.instance_name, r.method, r.seed) not in failed]
    if not records:
        return []
    out_dir = Path(plan.output_dir)
    points = [read_points_csv(out_dir / archive_name(plan, r.method, r.seed)) for r in records]
    z_star, hv_ref = union_reference_points(points)
    volume = float(np.prod(np.asarray(hv_ref) - np.asarray(z_star)))
    return [r.HV / volume for r in records]


def plan_runs(plan: ExperimentPlan) -> list[tuple[str, str, int]]:
    return [
        (plan.instance_name, m, plan.seed_base + r)
        for m in plan.methods
        for r in range(plan.replications)
    ]


def failed_runs(
    plan: ExperimentPlan,
    outcome,
    digests: dict[str, str],
    reference: dict[str, str] | None,
    valid_cache: dict[str, bool],
) -> tuple[set, list[str]]:
    """Runs of `plan` whose output is missing, wrong or differs from `reference`.

    `digests` and `reference` are keyed by paths relative to the plan's
    output directory; a `reference` of None checks validity only.
    """
    runs = plan_runs(plan)
    failed: set = set()
    errors: list[str] = []
    for f in outcome.failures:
        failed.add((plan.instance_name, f.method, f.seed))
        errors.append(f"{plan.instance_name}: run {f.method} seed {f.seed} raised {f.error}")
    expected = {m: plan.config_for(m, seed=0).total_iterations() for m in plan.methods}
    recorded = {(r.method, r.seed): r for r in outcome.records}
    out_dir = Path(plan.output_dir)
    for run in runs:
        _, method, seed = run
        rec = recorded.get((method, seed))
        name = archive_name(plan, method, seed)
        digest = digests.get(name)
        problem = None
        if rec is None:
            problem = "no result record"
        elif rec.iteration_count != expected[method]:
            problem = f"{rec.iteration_count} iterations, planned {expected[method]}"
        elif digest is None:
            problem = "no archive file"
        elif reference is not None and reference.get(name) != digest:
            problem = "archive digest differs from the reference"
        else:
            if digest not in valid_cache:
                try:
                    points = np.asarray(read_points_csv(out_dir / name), dtype=float)
                except ValueError:  # malformed or non-finite values
                    valid_cache[digest] = False
                else:
                    valid_cache[digest] = nondominated(points)
            if not valid_cache[digest]:
                problem = "archive is malformed or holds dominated or duplicate points"
        if problem is not None and run not in failed:
            failed.add(run)
            errors.append(f"{plan.instance_name}: run {method} seed {seed}: {problem}")
    if reference is not None and reference.get(RESULTS) != digests.get(RESULTS):
        failed.update(runs)
        errors.append(f"{plan.instance_name}: results.csv digest differs from the reference")
    return failed, errors


def run_study(
    plans: list[ExperimentPlan],
    reference: dict[str, str] | None,
    valid_cache: dict[str, bool],
) -> StudyResult:
    """Run every plan once into a clean output directory, time it, check it.

    Digests are keyed `<instance name>/<path in the plan's output directory>`.
    """
    result = StudyResult(study_s=0.0)
    for plan in plans:
        out_dir = Path(plan.output_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        result.attempted += len(plan_runs(plan))
        started = time.perf_counter()
        try:
            outcome = run_experiment(plan)
        except Exception as exc:  # noqa: BLE001 - a crashed study fails all its runs
            result.study_s += time.perf_counter() - started
            result.failed.update(plan_runs(plan))
            result.errors.append(f"{plan.instance_name}: study raised {type(exc).__name__}: {exc}")
            continue
        result.study_s += time.perf_counter() - started
        prefix = f"{plan.instance_name}/"
        digests = file_digests(out_dir)
        expected = None
        if reference is not None:
            expected = {k[len(prefix):]: v for k, v in reference.items() if k.startswith(prefix)}
        failed, errors = failed_runs(plan, outcome, digests, expected, valid_cache)
        result.failed |= failed
        result.errors += errors
        result.digests.update({prefix + k: v for k, v in digests.items()})
        result.run_ms += sum(r.wallclock_ms for r in outcome.records)
        result.iterations += sum(r.iteration_count for r in outcome.records)
        result.HV_share += hypervolume_shares(plan, outcome, failed)
    return result
