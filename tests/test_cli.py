import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from moscal.archive import read_points_csv
from moscal.cli import main
from moscal.experiment import PROBLEMS, run_experiment, ExperimentPlan
from moscal.instances import generate_instance


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def tsp_files(tmp_path):
    assert run_cli("gen", "--kind", "euclidean", "--out", str(tmp_path / "eu"), "--seed", "3", "--n", "8") == 0
    return [str(tmp_path / "eu_obj1.tsp"), str(tmp_path / "eu_obj2.tsp")]


def test_gen_writes_files(tmp_path, capsys):
    code = run_cli("gen", "--kind", "euclidean", "--out", str(tmp_path / "a"), "--seed", "1", "--n", "12")
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    assert all(line.endswith(".tsp") for line in out)


def test_gen_rejects_inapplicable_flag(tmp_path, capsys):
    code = run_cli("gen", "--kind", "profits", "--out", str(tmp_path / "p"), "--n", "5", "--rows", "3")
    assert code == 1
    assert "does not apply" in capsys.readouterr().err


def test_gen_scp_kinds(tmp_path):
    assert run_cli("gen", "--kind", "scp", "--out", str(tmp_path / "c"), "--rows", "6", "--cols", "15") == 0
    assert (tmp_path / "c.scp").is_file()
    assert run_cli("gen", "--kind", "scp3", "--out", str(tmp_path / "c3"), "--rows", "6", "--cols", "15") == 0
    assert (tmp_path / "c3.scp").is_file()


def test_run_archive_and_meta(tsp_files, tmp_path, capsys):
    out = tmp_path / "arch.csv"
    code = run_cli(
        "run", "--problem", "mstsp", "--method", "mogls",
        "--instance", *tsp_files,
        "--generations", "1", "--weights", "6", "--seed", "7",
        "--out", str(out),
    )
    assert code == 0
    assert "12 iterations" in capsys.readouterr().out
    points = read_points_csv(out)
    assert points and len(points[0]) == 2
    meta = json.loads((tmp_path / "arch.csv.meta.json").read_text())
    assert meta.pop("wallclock_ms") >= 0
    # flags not given take the MethodConfig defaults
    assert meta == {
        "problem": "mstsp",
        "method": "mogls",
        "instance": tsp_files,
        "objectives": 2,
        "seed": 7,
        "generations": 1,
        "weight_count": 6,
        "expected_rank": 10.0,
        "neighborhood_size": 20,
        "mating_probability": 0.9,
        "max_replacements": 2,
        "main_iterations": None,
        "scalarizer": None,  # the adapter's default
        "iterations": 12,
        "archive_size": len(points),
    }
    # the meta file records the resolved mix weights, so runs that differ
    # only in --w-linear can be told apart
    shares = {}
    for extra in ((), ("--w-linear", "0.3")):
        mixed = tmp_path / f"mixed{len(extra)}.csv"
        assert run_cli(
            "run", "--problem", "mstsp", "--method", "mogls",
            "--instance", *tsp_files,
            "--generations", "1", "--weights", "6", "--seed", "7",
            "--scalarizer", "mixed", *extra, "--out", str(mixed),
        ) == 0
        shares[extra] = json.loads(Path(f"{mixed}.meta.json").read_text())["scalarizer"]
    assert shares[()] == {"kind": "mixed", "w_linear": 0.5, "w_cheby": 0.5}
    assert shares[("--w-linear", "0.3")] == {"kind": "mixed", "w_linear": 0.3, "w_cheby": 1.0 - 0.3}


def test_run_same_seed_byte_identical(tsp_files, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli(
            "run", "--problem", "mstsp", "--method", "moead",
            "--instance", *tsp_files,
            "--generations", "2", "--weights", "6", "--neigh", "4", "--seed", "11",
            "--out", str(out),
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_flag_conflicts(tsp_files, tmp_path, capsys):
    base = [
        "run", "--problem", "mstsp", "--method", "mogls",
        "--instance", *tsp_files, "--out", str(tmp_path / "x.csv"),
    ]
    assert run_cli(*base, "--preset", "mstsp2", "--generations", "1") == 1
    assert "either --preset" in capsys.readouterr().err
    assert run_cli(*base) == 1  # neither preset nor explicit budget
    assert run_cli(*base, "--generations", "1", "--weights", "6",
                   "--expected-rank", "5", "--er-preset", "kroab100") == 1
    capsys.readouterr()
    # mix weights apply to the mixed scalarizer only
    for kind, flag in (("linear", "--w-linear"), ("chebycheff", "--w-cheby")):
        assert run_cli(*base, "--generations", "1", "--weights", "6",
                       "--scalarizer", kind, flag, "0.3") == 1
        assert "fixed mix weights" in capsys.readouterr().err
    for flag, value in (("--w-linear", "nan"), ("--w-cheby", "nan"), ("--w-linear", "inf")):
        assert run_cli(*base, "--generations", "1", "--weights", "6",
                       "--scalarizer", "mixed", flag, value) == 1
        assert "mix weights must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--expected-rank", "nan", "error: expected_rank must be >= 1, got nan"),
        ("--seed", "-1", "error: seed must be >= 0, got -1"),
    ],
    ids=["nan-expected-rank", "negative-seed"],
)
def test_run_rejects_bad_rank_and_seed_before_running(tsp_files, tmp_path, capsys, flag, value, message):
    # both used to fail inside numpy: nan once the first tournament ran,
    # a negative seed when the run's streams were seeded
    out = tmp_path / "x.csv"
    assert run_cli(
        "run", "--problem", "mstsp", "--method", "mogls", "--instance", *tsp_files,
        "--generations", "1", "--weights", "6", flag, value, "--out", str(out),
    ) == 1
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--kind", "euclidean", "--n", "8", "--seed", "-2"], "seed must be >= 0, got -2"),
        (["--kind", "cluster", "--n", "8", "--spread", "nan"], "spread must be nonnegative and finite, got nan"),
        (["--kind", "cluster", "--n", "8", "--spread", "inf"], "spread must be nonnegative and finite, got inf"),
        (["--kind", "cluster", "--n", "8", "--spread", "-1"], "spread must be nonnegative and finite, got -1.0"),
        (["--kind", "euclidean", "--n", "8", "--coord-range", "nan"], "coord_range must be positive and finite, got nan"),
        (["--kind", "cluster", "--n", "8", "--coord-range", "inf"], "coord_range must be positive and finite, got inf"),
        (["--kind", "euclidean"], "kind 'euclidean' needs n"),
        (["--kind", "scp", "--rows", "6"], "kind 'scp' needs cols"),
    ],
    ids=["negative-seed", "nan-spread", "inf-spread", "negative-spread", "nan-coord-range", "inf-coord-range",
         "euclidean-without-n", "scp-without-cols"],
)
def test_gen_rejects_bad_seed_spread_and_range(tmp_path, capsys, args, message):
    # a nan or inf spread wrote a file of non-finite coordinates; the others
    # failed inside numpy, or printed "error: 'n'" and "error: 'cols'"
    assert run_cli("gen", *args, "--out", str(tmp_path / "g")) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not list(tmp_path.glob("g*"))


def test_run_tspwp(tmp_path, capsys):
    assert run_cli("gen", "--kind", "euclidean", "--out", str(tmp_path / "wp"),
                   "--seed", "5", "--n", "8", "--objectives", "1") == 0
    assert run_cli("gen", "--kind", "profits", "--out", str(tmp_path / "wp"),
                   "--seed", "6", "--n", "8") == 0
    capsys.readouterr()
    code = run_cli(
        "run", "--problem", "tspwp", "--method", "momsls",
        "--instance", str(tmp_path / "wp_obj1.tsp"), str(tmp_path / "wp.profits"),
        "--generations", "1", "--weights", "4", "--seed", "1",
        "--out", str(tmp_path / "wp.csv"),
    )
    assert code == 0
    points = read_points_csv(tmp_path / "wp.csv")
    assert all(p[1] <= 0 for p in points)  # profit objective is negated


def test_run_moscp(tmp_path):
    assert run_cli("gen", "--kind", "scp", "--out", str(tmp_path / "cov"),
                   "--seed", "2", "--rows", "10", "--cols", "25") == 0
    code = run_cli(
        "run", "--problem", "moscp", "--method", "umogls",
        "--instance", str(tmp_path / "cov.scp"),
        "--generations", "1", "--weights", "6", "--seed", "3",
        "--out", str(tmp_path / "cov.csv"),
    )
    assert code == 0
    assert read_points_csv(tmp_path / "cov.csv")


def test_eval_union_and_explicit(tsp_files, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for seed, out in (("1", a), ("2", b)):
        assert run_cli(
            "run", "--problem", "mstsp", "--method", "momsls",
            "--instance", *tsp_files,
            "--generations", "1", "--weights", "5", "--seed", seed,
            "--out", str(out),
        ) == 0
    capsys.readouterr()
    assert run_cli("eval", "--archive", str(a), str(b)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "archive,points,R,HV"
    assert len(lines) == 3
    assert run_cli(
        "eval", "--archive", str(a), "--ref-mode", "explicit",
        "--z-ref", "0", "0", "--hv-ref", "100000", "100000",
        "--r-weights", "101",
    ) == 0
    assert run_cli("eval", "--archive", str(a), "--ref-mode", "explicit",
                   "--z-ref", "0", "--hv-ref", "1", "1") == 1
    assert "components" in capsys.readouterr().err


def test_eval_rejects_unscorable_archives(tmp_path, capsys):
    two, four, empty = tmp_path / "two.csv", tmp_path / "four.csv", tmp_path / "empty.csv"
    two.write_text("obj1,obj2\n1,2\n2,1\n")
    four.write_text("obj1,obj2,obj3,obj4\n1,2,3,4\n4,3,2,1\n")
    empty.write_text("obj1,obj2\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("obj1,obj2\n1.0,2.0\n3.0,x\n")
    capsys.readouterr()
    for argv, message in (
        (["--archive", str(four)], "2 or all have 3 objectives, got [4]"),
        (["--archive", str(four), "--r-weights", "4"], "2 or all have 3 objectives, got [4]"),
        # failed with "granularity must be >= 1"
        (["--archive", str(two), "--r-weights", "1"],
         "R weight count 1 is too small: the smallest simplex lattice for 2 objectives has 2 weights"),
        (["--archive", str(two), str(four), "--ref-mode", "explicit",
          "--z-ref", "0", "0", "--hv-ref", "9", "9"], "got [2, 4]"),
        (["--archive", str(empty)], "empty.csv: archive file holds no points"),
        (["--archive", str(bad)], f"{bad}:3: could not convert string to float: 'x'"),
        # R read nan and HV inf, and the run exited 0
        (["--archive", str(two), "--ref-mode", "explicit",
          "--z-ref", "nan", "0", "--hv-ref", "1e9", "1e9"], "reference contains non-finite values: (nan, 0.0)"),
        (["--archive", str(two), "--ref-mode", "explicit",
          "--z-ref", "0", "0", "--hv-ref", "inf", "1e9"], "reference contains non-finite values: (inf, 1000000000.0)"),
        # failed only after the header was printed
        (["--archive", str(two), "--ref-mode", "explicit",
          "--z-ref", "0", "0", "--hv-ref", "1", "1"], "every point must strictly dominate the reference"),
    ):
        assert run_cli("eval", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the header is printed
        assert message in captured.err


# A small generated instance per problem, as its instance file list.
PROBLEM_FILES = {
    "mstsp": lambda d: generate_instance("euclidean", d / "eu", seed=3, n=10),
    "tspwp": lambda d: generate_instance("euclidean", d / "wp", seed=5, n=10, objectives=1)
    + generate_instance("profits", d / "wp", seed=6, n=10),
    "moscp": lambda d: generate_instance("scp", d / "cov", seed=2, rows=10, cols=25),
}


@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_run_and_plan_write_identical_archives(problem, tmp_path):
    files = [str(p) for p in PROBLEM_FILES[problem](tmp_path)]
    out = tmp_path / "cli.csv"
    assert run_cli(
        "run", "--problem", problem, "--method", "mogls", "--instance", *files,
        "--generations", "2", "--weights", "5", "--seed", "4", "--out", str(out),
    ) == 0
    plan = ExperimentPlan(
        problem=problem,
        instance_paths=tuple(files),
        output_dir=str(tmp_path / "exp"),
        generations=2,
        weight_count=5,
        methods=("mogls",),
        replications=1,
        seed_base=4,
    )
    outcome = run_experiment(plan)
    assert not outcome.failures
    archive = outcome.archive_dir / f"mogls_{plan.instance_name}_4.csv"
    assert archive.read_bytes() == out.read_bytes()


def test_compare_and_table(tsp_files, tmp_path, capsys):
    plan = ExperimentPlan(
        problem="mstsp",
        instance_paths=tuple(tsp_files),
        output_dir=str(tmp_path / "exp"),
        generations=1,
        weight_count=6,
        methods=("momsls", "mogls"),
        replications=5,
        seed_base=0,
    )
    outcome = run_experiment(plan)
    capsys.readouterr()
    assert run_cli("compare", "--results", str(outcome.results_csv)) == 0
    out = capsys.readouterr().out
    assert "Wilcoxon signed-rank on R measure" in out
    assert "momsls vs" in out or "vs momsls" in out or "mogls vs momsls" in out
    assert run_cli("table", "--results", str(outcome.results_csv),
                   "--out", str(tmp_path / "grid.csv")) == 0
    table_out = capsys.readouterr().out
    assert "mogls" in table_out and "momsls" in table_out
    grid = (tmp_path / "grid.csv").read_text().splitlines()
    assert grid[0] == "instance,method,n,R_mean,R_std,HV_mean,HV_std"
    assert len(grid) == 3


def test_missing_file_errors(tsp_files, tmp_path, capsys):
    assert run_cli("compare", "--results", str(tmp_path / "none.csv")) == 1
    assert "error:" in capsys.readouterr().err
    # a missing instance file printed "[Errno 2] No such file or directory"
    missing, out = str(tmp_path / "missing.tsp"), tmp_path / "x.csv"
    assert run_cli(
        "run", "--problem", "mstsp", "--method", "mogls", "--instance", tsp_files[0], missing,
        "--generations", "1", "--weights", "6", "--out", str(out),
    ) == 1
    assert capsys.readouterr().err.strip() == f"error: instance file not found: {missing}"
    assert not out.exists()


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


def console_script(name):
    """Command for console script `name`: the installed executable, or, when
    none is on PATH, the entry point `[project.scripts]` declares for it,
    called by this interpreter the way the generated script calls it."""
    executable = shutil.which(name)
    if executable is not None:
        return [executable]
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"][name]
    module, attr = target.split(":")
    return [sys.executable, "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"]


def test_console_script_runs(tsp_files, tmp_path):
    result = subprocess.run(
        [
            *console_script("moscal"), "run", "--problem", "mstsp", "--method", "mogls",
            "--instance", *tsp_files,
            "--generations", "1", "--weights", "4", "--seed", "9",
            "--out", str(tmp_path / "sub.csv"),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "sub.csv").is_file()
    module_result = subprocess.run(
        [sys.executable, "-m", "moscal.cli", "eval", "--archive", str(tmp_path / "sub.csv")],
        capture_output=True,
        text=True,
    )
    assert module_result.returncode == 0, module_result.stderr
    assert module_result.stdout.startswith("archive,points,R,HV")


def test_python_dash_m_moscal_runs_in_a_bare_checkout(tmp_path):
    # only PYTHONPATH=src: no installed package and no console script
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cov = tmp_path / "cov"
    gen = subprocess.run(
        [sys.executable, "-m", "moscal", "gen", "--kind", "scp", "--out", str(cov),
         "--seed", "2", "--rows", "10", "--cols", "25"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert gen.returncode == 0, gen.stderr
    run = subprocess.run(
        [sys.executable, "-m", "moscal", "run", "--problem", "moscp", "--method", "umogls",
         "--instance", str(tmp_path / "cov.scp"), "--generations", "1", "--weights", "6",
         "--seed", "3", "--out", str(tmp_path / "cov.csv")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr
    assert read_points_csv(tmp_path / "cov.csv")


@pytest.mark.parametrize("script", ["run_desk_comparison.py", "run_weight_sensitivity.py"])
def test_experiment_script_runs_in_a_bare_checkout(script, tmp_path):
    # the usage line `python3 scripts/<script> --quick`, with no PYTHONPATH
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / script), "--help"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "--quick" in result.stdout
