"""Command-line interface.

Subcommands:

* `gen`      write a random instance of a given kind
* `run`      run one method on one instance, writing the archive as CSV
* `eval`     score stored archives with the R measure and hypervolume
* `compare`  pairwise signed-rank decisions over stored result files
* `table`    aggregate result files into a mean/std grid

Every command exits 0 on success and nonzero with a message on stderr
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .archive import read_points_csv, write_points_csv
from .engine import METHODS, MethodConfig, run_method
from .experiment import (
    EXPECTED_RANK_PRESETS,
    PRESETS,
    PROBLEMS,
    _write_csv,
    format_table,
    pairwise_wilcoxon_report,
    read_results_csv,
)
from .indicators import SCORED_OBJECTIVES, hypervolume, r_measure, r_weight_set, union_reference_points
from .instances import GENERATOR_PARAMS, generate_instance
from .scalarizing import ScalarizerSpec

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moscal",
        description="Scalarizing-function multiobjective metaheuristics benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--kind", required=True, choices=["euclidean", "cluster", "profits", "scp", "scp3"])
    gen.add_argument("--out", required=True, help="output path prefix")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, help="city count (euclidean/cluster/profits)")
    gen.add_argument("--objectives", type=int, help="objective count (euclidean/cluster)")
    gen.add_argument("--coord-range", type=float, help="coordinate range (euclidean/cluster)")
    gen.add_argument("--clusters", type=int, help="cluster count (cluster)")
    gen.add_argument("--spread", type=float, help="cluster scatter sigma (cluster)")
    gen.add_argument("--low", type=int, help="minimum profit (profits)")
    gen.add_argument("--high", type=int, help="maximum profit (profits)")
    gen.add_argument("--rows", type=int, help="row count (scp/scp3)")
    gen.add_argument("--cols", type=int, help="column count (scp/scp3)")
    gen.add_argument("--density", type=float, help="coverage density (scp/scp3)")

    run = sub.add_parser("run", help="run one method on one instance")
    run.add_argument("--problem", required=True, choices=list(PROBLEMS))
    run.add_argument("--method", required=True, choices=list(METHODS))
    run.add_argument(
        "--instance",
        required=True,
        nargs="+",
        help="instance files: " + "; ".join(p.needs for p in PROBLEMS.values()),
    )
    run.add_argument("--out", required=True, help="archive CSV output path")
    run.add_argument("--preset", choices=sorted(PRESETS), help="named budget (generations + weights)")
    run.add_argument("--generations", type=int, help="main-phase generations G")
    run.add_argument("--weights", type=int, help="weight count K")
    run.add_argument("--expected-rank", type=float, help="tournament expected rank Er")
    run.add_argument("--er-preset", choices=sorted(EXPECTED_RANK_PRESETS), help="named Er override")
    run.add_argument("--neigh", type=int, help="neighborhood size N")
    run.add_argument("--delta", type=float, help="neighborhood mating probability")
    run.add_argument("--nr", type=int, help="max incumbent replacements per offspring")
    run.add_argument("--seed", type=int)
    run.add_argument("--main-iterations", type=int, help="override the G*K main-phase length")
    run.add_argument("--scalarizer", choices=["linear", "chebycheff", "mixed"])
    run.add_argument("--w-linear", type=float, help="linear share of the mixed scalarizer")
    run.add_argument("--w-cheby", type=float, help="chebycheff share of the mixed scalarizer")

    ev = sub.add_parser("eval", help="score stored archives")
    ev.add_argument("--archive", required=True, nargs="+", help="archive CSV files")
    ev.add_argument("--ref-mode", choices=["union", "explicit"], default="union")
    ev.add_argument("--z-ref", type=float, nargs="+", help="chebycheff reference (explicit mode)")
    ev.add_argument("--hv-ref", type=float, nargs="+", help="hypervolume reference (explicit mode)")
    ev.add_argument("--r-weights", type=int, help="R weight count override")

    cmp_ = sub.add_parser("compare", help="pairwise signed-rank decisions over results")
    cmp_.add_argument("--results", required=True, nargs="+", help="results CSV files")
    cmp_.add_argument("--alpha", type=float, default=0.05)

    table = sub.add_parser("table", help="aggregate results into a mean/std grid")
    table.add_argument("--results", required=True, nargs="+", help="results CSV files")
    table.add_argument("--out", help="also write the grid as CSV here")
    return parser


def _gen(args) -> int:
    # every parameter flag given; generate_instance rejects those of other kinds
    names = dict.fromkeys(name for required, optional in GENERATOR_PARAMS.values() for name in required + optional)
    params = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    paths = generate_instance(args.kind, args.out, args.seed, **params)
    for p in paths:
        print(p)
    return 0


def _run(args) -> int:
    if args.preset is not None:
        if args.generations is not None or args.weights is not None:
            raise ValueError("give either --preset or explicit --generations/--weights")
        preset = PRESETS[args.preset]
        generations, weight_count = preset.generations, preset.weight_count
    else:
        if args.generations is None or args.weights is None:
            raise ValueError("need --preset or both --generations and --weights")
        generations, weight_count = args.generations, args.weights
    if args.expected_rank is not None and args.er_preset is not None:
        raise ValueError("give either --expected-rank or --er-preset")
    expected_rank = args.expected_rank
    if args.er_preset is not None:
        expected_rank = EXPECTED_RANK_PRESETS[args.er_preset]
    scalarizer = None
    if args.scalarizer is not None:
        scalarizer = ScalarizerSpec(
            args.scalarizer, w_linear=args.w_linear, w_cheby=args.w_cheby
        )
    elif args.w_linear is not None or args.w_cheby is not None:
        raise ValueError("--w-linear/--w-cheby need --scalarizer mixed")

    problem = PROBLEMS[args.problem]
    adapter = problem.adapter(problem.load(args.instance))
    # flags not given keep the MethodConfig defaults
    given = {
        "expected_rank": expected_rank,
        "neighborhood_size": args.neigh,
        "mating_probability": args.delta,
        "max_replacements": args.nr,
        "seed": args.seed,
        "main_iterations": args.main_iterations,
    }
    config = MethodConfig(
        method=args.method,
        objectives=adapter.n_objectives,
        generations=generations,
        weight_count=weight_count,
        scalarizer=scalarizer,
        **{name: value for name, value in given.items() if value is not None},
    )
    result = run_method(config, adapter)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_points_csv(result.archive, out)
    # the config as run; its scalarizer holds the resolved mix weights, or
    # null for the adapter's default
    meta = {
        **asdict(config),
        "problem": args.problem,
        "instance": [str(p) for p in args.instance],
        "iterations": result.iteration_count,
        "archive_size": len(result.archive),
        "wallclock_ms": int(round(1000 * result.wallclock_s)),
    }
    Path(f"{out}.meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(
        f"{args.method} on {args.problem}: {result.iteration_count} iterations, "
        f"{len(result.archive)} archive points -> {out}"
    )
    return 0


def _eval(args) -> int:
    point_sets = [read_points_csv(p) for p in args.archive]
    widths = {len(points[0]) for points in point_sets}
    if len(widths) != 1 or not widths <= SCORED_OBJECTIVES:
        raise ValueError(f"eval scores archives that all have 2 or all have 3 objectives, got {sorted(widths)}")
    (n_objectives,) = widths
    if args.ref_mode == "explicit":
        if args.z_ref is None or args.hv_ref is None:
            raise ValueError("explicit mode needs --z-ref and --hv-ref")
        z_ref, hv_ref = tuple(args.z_ref), tuple(args.hv_ref)
        if len(z_ref) != n_objectives or len(hv_ref) != n_objectives:
            raise ValueError(f"references must have {n_objectives} components")
    else:
        if args.z_ref is not None or args.hv_ref is not None:
            raise ValueError("--z-ref/--hv-ref apply to --ref-mode explicit only")
        z_ref, hv_ref = union_reference_points(point_sets)
    weights = r_weight_set(n_objectives, args.r_weights)
    # score every archive first, so that a bad reference prints no header
    scores = [(r_measure(points, weights, z_ref), hypervolume(points, hv_ref)) for points in point_sets]
    print("archive,points,R,HV")
    for path, points, (r, hv) in zip(args.archive, point_sets, scores):
        print(f"{path},{len(points)},{format(r, '.6g')},{format(hv, '.6g')}")
    return 0


def _read_results(paths) -> list:
    """The records of every results file; a run (instance, method, seed) may
    appear once only, since a repeat would count twice in a table and
    replace its twin in a comparison."""
    records, seen = [], set()
    for path in paths:
        for record in read_results_csv(path):
            key = (record.instance, record.method, record.seed)
            if key in seen:
                raise ValueError(f"{path} repeats the run of instance {key[0]}, method {key[1]}, seed {key[2]}")
            seen.add(key)
            records.append(record)
    if not records:
        raise ValueError("no result records found")
    return records


def _compare(args) -> int:
    records = _read_results(args.results)
    report = pairwise_wilcoxon_report(records, alpha=args.alpha)
    if not report:
        raise ValueError("need at least two methods on one instance to compare")
    print(report)
    return 0


def _table(args) -> int:
    text, rows = format_table(_read_results(args.results))
    print(text, end="")
    if args.out:
        _write_csv(Path(args.out), rows)
    return 0


_COMMANDS = {"gen": _gen, "run": _run, "eval": _eval, "compare": _compare, "table": _table}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
