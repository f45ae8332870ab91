"""Compare all four methods on a generated biobjective tour instance.

Runs momsls, mogls, umogls and moead with a shared iteration budget on a
100-city Euclidean instance, then prints the indicator table and the pairwise
significance report.

Usage:
    python3 scripts/run_desk_comparison.py            # full study (~1 h)
    python3 scripts/run_desk_comparison.py --quick    # reduced study (~5 min)

Outputs land in results/desk_comparison/ (results.csv, timings.csv,
table.csv, report.txt and one archive CSV per run).  Every run is seeded, so
repeating the script reproduces results.csv byte for byte.  The exit status is
1 when any run failed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # runs from a bare checkout, without installing moscal

from moscal.experiment import ExperimentPlan, format_table, run_experiment
from moscal.instances import generate_instance

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

OUT_DIR = ROOT / "results" / "desk_comparison"

N_CITIES = 100
INSTANCE_SEED = 11

WEIGHT_COUNT = 101          # 2-objective simplex lattice, granularity 100
GENERATIONS = 50            # main phase budget = GENERATIONS * WEIGHT_COUNT
REPLICATIONS = 10
QUICK_GENERATIONS = 10
QUICK_REPLICATIONS = 5


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller budget and fewer replications")
    parser.add_argument("--out", type=Path, default=OUT_DIR, help="output directory")
    args = parser.parse_args()

    generations = QUICK_GENERATIONS if args.quick else GENERATIONS
    replications = QUICK_REPLICATIONS if args.quick else REPLICATIONS

    args.out.mkdir(parents=True, exist_ok=True)
    paths = generate_instance(
        "euclidean", args.out / "instance", seed=INSTANCE_SEED, n=N_CITIES, objectives=2
    )
    print(f"instance: {N_CITIES} cities, 2 objectives, seed {INSTANCE_SEED}")

    plan = ExperimentPlan(
        problem="mstsp",
        instance_paths=tuple(str(p) for p in paths),
        output_dir=str(args.out),
        generations=generations,
        weight_count=WEIGHT_COUNT,
        replications=replications,
    )
    budget = plan.config_for(plan.methods[0], seed=0).total_iterations()
    print(f"budget: {budget} scalarized iterations per run, {replications} seeds per method")

    started = time.time()
    outcome = run_experiment(plan)
    print(f"finished {len(outcome.records)} runs in {time.time() - started:.0f}s "
          f"({len(outcome.failures)} failures)")
    print()
    print(format_table(outcome.records)[0])
    print()
    print(outcome.report)
    print(f"report: {outcome.report_path}")
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    sys.exit(main())
