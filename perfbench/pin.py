"""Rewrite pins.json: archive and results digests of every workload at the default seed.

Pins hold moscal's behaviour fixed: the benchmark fails any run whose output
differs from them.  Re-pin only when a change is meant to alter archives,
and say why in CHANGES.md.

    python3 perfbench/pin.py
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.prepare()
    import study
    from workloads import DEFAULT_SEED, WORKLOADS

    pins = {}
    work = run.WORK / "pin"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, workload in WORKLOADS.items():
            plans = workload.plans(workload.generate(DEFAULT_SEED, work / name), work / name / "out")
            result = study.run_study(plans, None, {})
            if result.failed:
                print(f"{name}: not pinned, {len(result.failed)} runs failed: {result.errors}", file=sys.stderr)
                return 1
            pins[name] = {"seed": DEFAULT_SEED, "digests": result.digests}
            print(f"{name}: {study.combined_digest(result.digests)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    study.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
