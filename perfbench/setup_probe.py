"""Time one workload set-up in a fresh interpreter and print it as JSON.

Set-up is what a study pays before its first run: importing moscal (and
numpy with it), generating the instance files, building the plans (which
parse and validate them) and constructing adapters from a fresh parse.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    started = time.perf_counter()
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    from workloads import WORKLOADS  # imports moscal, and numpy with it

    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = WORKLOADS[name]
    generating = time.perf_counter()
    paths = workload.generate(seed, out_dir)
    generated = time.perf_counter()
    plans = workload.plans(paths, out_dir / "out")
    parsing = time.perf_counter()
    instances = [plan.load_instance() for plan in plans]
    parsed = time.perf_counter()
    for plan, instance in zip(plans, instances):
        plan.make_adapter(instance)
    print(json.dumps({
        "setup_s": time.perf_counter() - started,
        "generate_s": generated - generating,
        "parse_s": parsed - parsing,
    }))


if __name__ == "__main__":
    main()
