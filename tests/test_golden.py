"""Golden digests: seeded runs must reproduce their archives byte for byte.

Each case runs one small `run_experiment` (all four methods, one seed) and
compares the sha256 of every archive CSV and of `results.csv`, `table.csv`,
`failures.csv` and `report.txt` with the digests recorded below.  A change
that alters any of them changes the trajectory of a search or the scoring
and must say why; regenerate the table with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from moscal.experiment import ExperimentPlan, run_experiment
from moscal.instances import generate_instance
from moscal.scalarizing import ScalarizerSpec

# case -> (instance files to generate, plan overrides)
CASES = {
    "mstsp2": (
        [("euclidean", dict(n=30))],
        dict(problem="mstsp", generations=2, weight_count=10),
    ),
    "mstsp2-chebycheff": (
        [("euclidean", dict(n=30))],
        dict(problem="mstsp", generations=2, weight_count=10, scalarizer=ScalarizerSpec("chebycheff")),
    ),
    "mstsp3": (
        [("euclidean", dict(n=20, objectives=3))],
        dict(problem="mstsp", generations=2, weight_count=10),
    ),
    "tspwp": (
        [("euclidean", dict(n=30, objectives=1)), ("profits", dict(n=30))],
        dict(problem="tspwp", generations=2, weight_count=10),
    ),
    "tspwp-linear": (
        [("euclidean", dict(n=30, objectives=1)), ("profits", dict(n=30))],
        dict(problem="tspwp", generations=2, weight_count=10, scalarizer=ScalarizerSpec("linear")),
    ),
    "tspwp-chebycheff": (
        [("euclidean", dict(n=30, objectives=1)), ("profits", dict(n=30))],
        dict(problem="tspwp", generations=2, weight_count=10, scalarizer=ScalarizerSpec("chebycheff")),
    ),
    "moscp2": (
        [("scp", dict(rows=40, cols=120))],
        dict(problem="moscp", generations=2, weight_count=10),
    ),
    "moscp2-chebycheff": (
        [("scp", dict(rows=40, cols=120))],
        dict(problem="moscp", generations=2, weight_count=10, scalarizer=ScalarizerSpec("chebycheff")),
    ),
    "moscp3-mixed": (
        [("scp3", dict(rows=40, cols=120))],
        dict(problem="moscp", generations=2, weight_count=10, scalarizer=ScalarizerSpec("mixed")),
    ),
}

GOLDEN: dict[str, dict[str, str]] = {
    "moscp2": {
        "results.csv": "b57284202bdb19eb8a20a44acce1c81e2349686410e4297771e75189c7fc1ac6",
        "table.csv": "2036832a28df1d6ec9ba4f61d352d9db46747d872c9c25fd0cd76007623f3683",
        "failures.csv": "fafdef71000e51cfb8cc366f0c802662bd031864324ff53b6cbb4a6d5349f5be",
        "report.txt": "1769de4d1d334390915df9c80dcf0c1474d93cce1eb5674e674e563d8f49e0cc",
        "archives/moead_moscp2_5.csv": "e698df388195d3758704a27e9fd4d9a7b2f39982d85a9bd9ea099b9890b793ac",
        "archives/mogls_moscp2_5.csv": "aa038b66b9bbae7418181f0954ba664589451032733f8fa9baff3bc1fe4cbab1",
        "archives/momsls_moscp2_5.csv": "2052fc315de0ce694eaaec77cb90c5db9cea84dcfd02f4f94b299be4926b1258",
        "archives/umogls_moscp2_5.csv": "e698df388195d3758704a27e9fd4d9a7b2f39982d85a9bd9ea099b9890b793ac",
    },
    "moscp2-chebycheff": {
        "results.csv": "fcd3e4c7030500d392e64461d506e56e477cb572014666f348b46ad06ae72608",
        "table.csv": "b9ed6b21a2f5f355db2d4d292b7a316211fba8f13d4184c4051c0561fd6a262a",
        "failures.csv": "fafdef71000e51cfb8cc366f0c802662bd031864324ff53b6cbb4a6d5349f5be",
        "report.txt": "80cca9e0126ff6b4ce2336202bb3d71d1a6b4391f5ed843b5e6063300b566f0b",
        "archives/moead_moscp2-chebycheff_5.csv": "1cef98a89fc598f325f25468e2a7113730a4906214cde577fa9061bbb7854f9e",
        "archives/mogls_moscp2-chebycheff_5.csv": "11e87628ca3b189c19cd804d39d8d48ec10b8e0ae28fda5d274441a4f55e2928",
        "archives/momsls_moscp2-chebycheff_5.csv": "4cf075408a74ebb759903b643844afe0aa75b93a387b884bb5e37c91cf0d9a7e",
        "archives/umogls_moscp2-chebycheff_5.csv": "ba8ddb9accbd0ff142a7a3a6f99790e64e65a97a421a39a268df2b5432c9bbfc",
    },
    "moscp3-mixed": {
        "results.csv": "f161c79dd56fea3ca68e251810ca92812a7ad3116cff6b6506a7494fdf67f64c",
        "table.csv": "394c6ee4280ac56f2d21b46e10af819fb74d767a69328b9b79a2a8fc8e1c1736",
        "failures.csv": "fafdef71000e51cfb8cc366f0c802662bd031864324ff53b6cbb4a6d5349f5be",
        "report.txt": "0267fcfede046a012fab90ea9d0b81b096222e02cca8feed8da99848b8b5777d",
        "archives/moead_moscp3-mixed_5.csv": "515e689812d6f8defb8069efde236044864f02835fe5692c454daf33dffb0e23",
        "archives/mogls_moscp3-mixed_5.csv": "a511e62c51fec6fdda4bd1047d141d3706960fd1348f822f481684cf5a975242",
        "archives/momsls_moscp3-mixed_5.csv": "b643669a134dade524262e9d6e112537d7aac8a1fe6219c94aea326d6e710d2e",
        "archives/umogls_moscp3-mixed_5.csv": "f35b60a3cb754c6717264babbd32b73bfc6f6587256289e73f6227d4370c8140",
    },
    "mstsp2": {
        "results.csv": "1007a77617a96ed79bad91bce47c2b369cae510636262a7debd952778f7633fc",
        "table.csv": "12e97cf516eb3734e9b973b1a4a65a3edc46c9fb00dc81b949dab68cd5add300",
        "failures.csv": "fafdef71000e51cfb8cc366f0c802662bd031864324ff53b6cbb4a6d5349f5be",
        "report.txt": "27940506f79d9669bb9048b0551036e5348fbc9e30179d3ee23d7e58854e163f",
        "archives/moead_mstsp2_5.csv": "39ed95ee33d890a6027d9541d8b9d51881568af3451fd06e78c2d8406c9e63dd",
        "archives/mogls_mstsp2_5.csv": "4028448bdd66c04d0520c95ce3e7de491e2a39fa9d31d72f01a0bf6ad3b54e88",
        "archives/momsls_mstsp2_5.csv": "db407e32698985c7e9d69af4ee036fb130d59b93c889bcbd6609d82fab505df6",
        "archives/umogls_mstsp2_5.csv": "817d40bc79d3be60edf36f68a9d36b41fe2559596b42c9f8d8229978ce7df184",
    },
    "mstsp2-chebycheff": {
        "results.csv": "ed7016eb828bb4a2d943e63c553229e123b961b9641dcec75d4424abec6a29c5",
        "table.csv": "da19fb0bc68a1af593a7ac28f3156e78a3c534f29fe441bc6261ea318d602587",
        "failures.csv": "fafdef71000e51cfb8cc366f0c802662bd031864324ff53b6cbb4a6d5349f5be",
        "report.txt": "3b01bc85dc45db15ec96e4de32e1f4fb6035b9fecd604a07e9ca00194b33b091",
        "archives/moead_mstsp2-chebycheff_5.csv": "954627862b6534360067ef5c11e43aa3105941d808e4547dbf7c6b45a418b3c8",
        "archives/mogls_mstsp2-chebycheff_5.csv": "c6cdab9a1d5206bb9f70c7aeb9abb77a035383d45dee96271ba022fcdbbef78b",
        "archives/momsls_mstsp2-chebycheff_5.csv": "b953201133d37b5ef36261162d21b93d86a0707cddcbb8984d984df946886a17",
        "archives/umogls_mstsp2-chebycheff_5.csv": "3a00f08dde0bf4c6e9179a8f2bef580d7b68265e19c853209b04db7ca870b3c9",
    },
    "mstsp3": {
        "results.csv": "0fcc06b1735dbb66ad7305be77b7b098116c692fe5c2ef1fba49b97101fea2d7",
        "table.csv": "17d74e97d2a63a066c389c6d9c2b0d7826cd619051f4a71c791acacd7abb568f",
        "failures.csv": "fafdef71000e51cfb8cc366f0c802662bd031864324ff53b6cbb4a6d5349f5be",
        "report.txt": "4643b1bbad21662c27840c787f5685aa639cde23821e6be574d60098b11384ba",
        "archives/moead_mstsp3_5.csv": "dd135033b8a35980060f6b732cff28923b536a1416c863c96d86937200b284b1",
        "archives/mogls_mstsp3_5.csv": "01adfc64ee57e099eacf895e180b2ed39ede6dba13d9021e27df807df5a9c730",
        "archives/momsls_mstsp3_5.csv": "6d82c36f245ea462f940326953f6bc5c731dacaef5512086dab11f1dac743275",
        "archives/umogls_mstsp3_5.csv": "03ff68b7ad640407efb73fa914fe16419a083088057447b40538417ddb294af8",
    },
    "tspwp": {
        "results.csv": "e9976d071645ece4c9d12acc0a03b17def0642a61a5192bf0d1b2482741bc714",
        "table.csv": "c3279a4d4efc4ef43592325e76c4b786cb44ea7a0ef9239837abfafa85c9d57e",
        "failures.csv": "fafdef71000e51cfb8cc366f0c802662bd031864324ff53b6cbb4a6d5349f5be",
        "report.txt": "91a893431803f87cf14e2957e00c3da4dd6948e5d02ccf5ae108455eccbf2167",
        "archives/moead_tspwp_5.csv": "319e1d60e2c53f93a3e2500390d523d8a56e3d40157de234c4f05dd67def46b5",
        "archives/mogls_tspwp_5.csv": "8d89bf49341376dd1bcd88472b97647533a76005c476b597501e71072a52728a",
        "archives/momsls_tspwp_5.csv": "5488821d12906eb2d3afc407b84172205cc883ac564e4d152861df580efb552d",
        "archives/umogls_tspwp_5.csv": "6a5f1f864fa13ca538c02776810330b0f4348539476a31099985128d52ba8fef",
    },
    "tspwp-chebycheff": {
        "results.csv": "a1eb16d116c3490c83bd519a564d2ec1b4d83280d2b68dd7b3cb18e39dfcdcb5",
        "table.csv": "c83e2b922466192aad909d089bb06cd2942c08eaece107e6e1de1f7826ddfe53",
        "failures.csv": "fafdef71000e51cfb8cc366f0c802662bd031864324ff53b6cbb4a6d5349f5be",
        "report.txt": "e54fb0bbc5b85e4fbe6f238fbbddf363b9749a0389794590e33b6ac4921f3725",
        "archives/moead_tspwp-chebycheff_5.csv": "4483bb95e782c31b7af956db44453ec44427e93b42b01f0bde7b1372a7895449",
        "archives/mogls_tspwp-chebycheff_5.csv": "cd8d564cf791fd75f9fe1b66c456308ea82cfdae2f8f01b7ac9e1177d9254da5",
        "archives/momsls_tspwp-chebycheff_5.csv": "0f75dd58e241c6bb6f1cc08080b4a7f5c0cc8d59d9840448a00c34e871a86c26",
        "archives/umogls_tspwp-chebycheff_5.csv": "0bbf6ea3575f9ba6b39472a47525d39682c7fe542dc23863354b2a966f4a500b",
    },
    "tspwp-linear": {
        "results.csv": "3a1ad1900cc5cf7587e562550e5e31c5e4eef6bc404f8648b2dc7631f086d3ac",
        "table.csv": "2457c982e8f7579be33cb49a0aedd33844e33f6ad80f1365eb72764490f8c452",
        "failures.csv": "fafdef71000e51cfb8cc366f0c802662bd031864324ff53b6cbb4a6d5349f5be",
        "report.txt": "6db2cc2bb15b2fc9496927d97bbe236336ee245d9a1d22ca4e69cd0ed09008b5",
        "archives/moead_tspwp-linear_5.csv": "b1866dff7680eb86f9f20b76cc97738577e537b287e713f88b0598670b006ceb",
        "archives/mogls_tspwp-linear_5.csv": "14326e65a12f003b02f8ceff698d0c320ba72dc29c11894b95ec25feb30ff8cc",
        "archives/momsls_tspwp-linear_5.csv": "c89e7158c66fab3257efa126d623cfaeb0b716b1416845c5a841f8bb8b671f15",
        "archives/umogls_tspwp-linear_5.csv": "5a8a3e74e9f165484bf732f4b287a0e05341f80c1e821c83a90c0dd90a1fbe66",
    },
}


def run_case(name: str, root: Path) -> dict[str, str]:
    """sha256 of the results, table, failures and report files and of every
    archive CSV of one case."""
    files, overrides = CASES[name]
    paths = []
    for i, (kind, params) in enumerate(files):
        paths += generate_instance(kind, root / f"inst{i}", seed=11 + i, **params)
    plan = ExperimentPlan(
        instance_paths=tuple(str(p) for p in paths),
        output_dir=str(root / "out"),
        neighborhood_size=4,
        replications=1,
        seed_base=5,
        instance_name=name,
        **overrides,
    )
    outcome = run_experiment(plan)
    assert not outcome.failures, outcome.report
    out = root / "out"
    files_to_hash = [
        outcome.results_csv,
        outcome.table_csv,
        outcome.failures_csv,
        outcome.report_path,
        *sorted(outcome.archive_dir.glob("*.csv")),
    ]
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files_to_hash}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: run_case(name, Path(tmp) / name) for name in sorted(CASES)}
    sys.stdout.write("GOLDEN = {\n")
    for name, digests in table.items():
        sys.stdout.write(f'    "{name}": {{\n')
        for path, digest in digests.items():
            sys.stdout.write(f'        "{path}": "{digest}",\n')
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
