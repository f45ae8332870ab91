"""moscal benchmark: seeded multi-method studies, end to end or traced per layer.

    python3 perfbench/run.py --workload tour2-desk --seed 1 --seconds 25 --trace 0

With `--trace 0` the study is repeated untraced until `--seconds` have
passed and the end-to-end metrics are printed: medians over repetitions,
with times scaled to a reference host speed (see reference.py).
With `--trace 1` untraced and traced repetitions alternate, and the
per-layer metrics of the median traced repetition are printed, together
with the tracing overhead.  Set-up is timed separately in fresh
interpreters.  Every repetition's archives are checked (see study.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only
when every run was correct.  Run it from the root of a moscal checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "study_s": "s",
    "ms_per_iter": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "HV_share_mean": "ratio",
}


def prepare() -> None:
    """Point imports at this checkout's moscal and pin BLAS to one thread.

    The studies run single-process and closed-loop, so one BLAS thread
    keeps the process within `nproc` cores and its timings repeatable.
    Raises SystemExit when the checkout has no moscal sources.
    """
    if not (ROOT / "src" / "moscal" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no moscal sources under {ROOT / 'src'}; run from a moscal checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def setup_probes(workload: str, seed: int, work: Path) -> list[dict]:
    probes = []
    for i in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(work / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append(json.loads(out.stdout.splitlines()[-1]))
    return probes


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the pinned one)")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long to repeat the study")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()

    import reference as host
    import study
    import tracing
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = WORKLOADS[args.workload]
    print(json.dumps({"machine": machine()}), flush=True)

    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        probes = setup_probes(workload.name, seed, work)
        plans = workload.plans(workload.generate(seed, work / "instances"), work / "out")
        pin = study.load_pins().get(workload.name, {})
        reference = pin.get("digests") if pin.get("seed") == seed else None
        pinned = reference is not None
        valid_cache: dict = {}
        kernel_s: list[float] = []
        reps: list[tuple[bool, study.StudyResult, dict | None]] = []
        deadline = time.perf_counter() + args.seconds
        while len(reps) < 1 + args.trace or time.perf_counter() < deadline:
            traced = bool(args.trace) and len(reps) % 2 == 1
            layers = None
            if traced:
                tracer = tracing.Tracer()
                with tracing.install(tracer):
                    result = study.run_study(plans, reference, valid_cache)
                layers = tracing.layer_metrics(tracer, result.study_s, workload.problem)
            else:
                kernel_s.append(host.time_kernel())
                result = study.run_study(plans, reference, valid_cache)
            if reference is None:
                reference = result.digests
            reps.append((traced, result, layers))
            print(f"rep {len(reps)} {'traced' if traced else 'untraced'} study_s {result.study_s:.4f} "
                  f"failed {len(result.failed)}/{result.attempted}", flush=True)
            for error in result.errors:
                print(f"  FAILED: {error}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for _, r, _ in reps)
    failed = sum(len(r.failed) for _, r, _ in reps)
    digest = study.combined_digest(reference or {})
    print(f"digest {workload.name} seed {seed} {digest} ({'pinned' if pinned else 'not pinned'})")

    plain = [r for traced, r, _ in reps if not traced]
    if args.trace:
        traced_reps = sorted(((r.study_s, layers) for traced, r, layers in reps if traced), key=lambda x: x[0])
        metrics = dict(traced_reps[(len(traced_reps) - 1) // 2][1])
        metrics["instances.generate_s"] = median_of(probes, "generate_s")
        metrics["instances.parse_s"] = median_of(probes, "parse_s")
        metrics["trace_overhead_s"] = (
            statistics.median(s for s, _ in traced_reps) - statistics.median(r.study_s for r in plain)
        )
        units = tracing.LAYER_UNITS
    else:
        per_iter = [r.run_ms / r.iterations for r in plain if r.iterations]
        hv_share = [v for r in plain for v in r.HV_share]
        speed = host.NOMINAL_S / statistics.median(kernel_s)
        wall_s = statistics.median(r.study_s for r in plain)
        print(f"study_s {wall_s:.4f} wall, reference kernel {statistics.median(kernel_s):.4f} s, "
              f"host speed factor {speed:.4f}")
        metrics = {
            "study_s": wall_s * speed,
            "ms_per_iter": (statistics.median(per_iter) if per_iter else 0.0) * speed,
            "setup_s": median_of(probes, "setup_s") * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
            "HV_share_mean": statistics.fmean(hv_share) if hv_share else 0.0,
        }
        units = E2E_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
