"""Vary the weight-vector count at a fixed iteration budget on a covering instance.

Runs mogls, umogls and moead twice on the same generated biobjective set
covering instance: once with 101 weight vectors and once with 301, holding the
total number of scalarized iterations at 1212 in both studies.  Decomposition
(moead) is expected to benefit from the denser weight set, and the gap between
the random-weight and uniform-weight hybrids is expected to narrow.

Usage:
    python3 scripts/run_weight_sensitivity.py            # full study (~15 min)
    python3 scripts/run_weight_sensitivity.py --quick    # fewer seeds (~8 min)

Outputs land in results/weight_sensitivity/<label>/ for the two weight
budgets; each study writes results.csv, table.csv and report.txt.  Failed runs
are listed and the exit status is 1 (no summary is printed).
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # runs from a bare checkout, without installing moscal

from moscal.experiment import ExperimentPlan, run_experiment
from moscal.instances import generate_instance

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

OUT_DIR = ROOT / "results" / "weight_sensitivity"

N_ROWS = 40
N_COLS = 200
INSTANCE_SEED = 65

METHODS = ("mogls", "umogls", "moead")
REPLICATIONS = 10
QUICK_REPLICATIONS = 5

# both studies total 1212 scalarized iterations per run:
#   101 weights * (1 + 11 generations) = 301 weights + 911 main iterations
STUDIES = (
    ("K101", dict(generations=11, weight_count=101)),
    ("K301", dict(generations=1, weight_count=301, main_iterations=911)),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer replications")
    parser.add_argument("--out", type=Path, default=OUT_DIR, help="output directory")
    args = parser.parse_args()

    replications = QUICK_REPLICATIONS if args.quick else REPLICATIONS
    args.out.mkdir(parents=True, exist_ok=True)
    paths = generate_instance(
        "scp", args.out / "instance", seed=INSTANCE_SEED, rows=N_ROWS, cols=N_COLS
    )
    print(f"instance: {N_ROWS} rows x {N_COLS} columns, 2 objectives, seed {INSTANCE_SEED}")

    means: dict[str, dict[str, float]] = {}
    failed = 0
    for label, kwargs in STUDIES:
        plan = ExperimentPlan(
            problem="moscp",
            instance_paths=(str(paths[0]),),
            output_dir=str(args.out / label),
            methods=METHODS,
            replications=replications,
            **kwargs,
        )
        budget = plan.config_for(METHODS[0], seed=0).total_iterations()
        print(f"\n{label}: {kwargs['weight_count']} weights, {budget} iterations per run")
        started = time.time()
        outcome = run_experiment(plan)
        print(f"  {len(outcome.records)} runs in {time.time() - started:.0f}s "
              f"({len(outcome.failures)} failures)")
        for f in outcome.failures:
            print(f"  FAILED {f.method} seed {f.seed}: {f.error}")
        failed += len(outcome.failures)
        acc = defaultdict(list)
        for rec in outcome.records:
            acc[rec.method].append(rec.R)
        means[label] = {m: float(np.mean(v)) for m, v in acc.items()}
        for m in sorted(means[label]):
            print(f"  {m:8s} mean R {means[label][m]:.6g} (sd {np.std(acc[m]):.3g})")

    if failed:
        print(f"\n{failed} runs failed; no summary. reports under: {args.out}")
        return 1
    first, second = (means[label] for label, _ in STUDIES)
    print("\nsummary:")
    print(f"  moead mean R: {first['moead']:.6g} -> {second['moead']:.6g} "
          f"({'better' if second['moead'] < first['moead'] else 'worse'} with more weights)")
    gap_first = abs(first["umogls"] - first["mogls"])
    gap_second = abs(second["umogls"] - second["mogls"])
    print(f"  umogls/mogls gap: {gap_first:.6g} -> {gap_second:.6g} "
          f"({'narrower' if gap_second < gap_first else 'wider'} with more weights)")
    print(f"\nreports under: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
