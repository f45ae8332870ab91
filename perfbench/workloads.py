"""The benchmark's workloads: seeded studies run through moscal's public API.

Each workload generates its instance files from the workload seed and runs
one `ExperimentPlan` per instance with `workers=1`: every (method,
replication) run in turn, then R, hypervolume and the pairwise Wilcoxon
report.  The budgets are
cut down from the paper-scale presets so that one study takes a few seconds;
each workload keeps the shape that stresses its layers (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from moscal.experiment import ExperimentPlan
from moscal.instances import generate_instance

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """A study shape; `instances` random instances are studied in turn."""

    name: str
    problem: str
    methods: tuple[str, ...]
    weight_count: int
    generations: int
    replications: int
    instances: int
    generator: dict
    main_iterations: int | None = None

    def generate(self, seed: int, out_dir: Path) -> list[tuple[str, ...]]:
        """Write the instance files for `seed`; one path tuple per instance."""
        out = []
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(self.instances)):
            coords_seed, profits_seed = (int(v) for v in child.generate_state(2))
            base = out_dir / f"instance{i}"
            params = dict(self.generator)
            kind = params.pop("kind")
            paths = generate_instance(kind, base, seed=coords_seed, **params)
            if self.problem == "tspwp":
                paths += generate_instance("profits", base, seed=profits_seed, n=params["n"])
            out.append(tuple(str(p) for p in paths))
        return out

    def plans(self, instance_paths: list[tuple[str, ...]], out_dir: Path) -> list[ExperimentPlan]:
        return [
            ExperimentPlan(
                problem=self.problem,
                instance_paths=paths,
                output_dir=str(out_dir / f"study{i}"),
                generations=self.generations,
                weight_count=self.weight_count,
                methods=self.methods,
                main_iterations=self.main_iterations,
                replications=self.replications,
                instance_name=f"{self.name}.{i}",
                workers=1,
            )
            for i, paths in enumerate(instance_paths)
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Desk-study shape: 2-opt dominates; long descents from random starts
        # (momsls, initial phase on the full matrix) next to short descents
        # from DPX offspring on candidate lists.
        Workload(
            name="tour2-desk",
            problem="mstsp",
            methods=("momsls", "mogls", "umogls", "moead"),
            weight_count=21,
            generations=1,
            replications=1,
            instances=1,
            generator=dict(kind="euclidean", n=100, objectives=2),
        ),
        # Weight-sensitivity shape: many weights for a total budget fixed by
        # main_iterations; greedy repair, scalarizer calls and MOEA/D
        # updates dominate.
        Workload(
            name="cover2-weights",
            problem="moscp",
            methods=("mogls", "umogls", "moead"),
            weight_count=31,
            generations=1,
            main_iterations=60,
            replications=1,
            instances=2,
            generator=dict(kind="scp", rows=40, cols=200),
        ),
        # The only workload on the mixed scalarizer with range normalisation.
        Workload(
            name="profit-tour",
            problem="tspwp",
            methods=("mogls", "moead"),
            weight_count=21,
            generations=1,
            replications=1,
            instances=2,
            generator=dict(kind="euclidean", n=50, objectives=1),
        ),
        # Small tours, many weights and large 3-D archives: archive update,
        # MOEA/D bookkeeping and 3-D scoring carry weight here.
        Workload(
            name="tour3-archive",
            problem="mstsp",
            methods=("mogls", "moead"),
            weight_count=231,
            generations=1,
            main_iterations=231,
            replications=1,
            instances=2,
            generator=dict(kind="euclidean", n=30, objectives=3),
        ),
    )
}
