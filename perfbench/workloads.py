"""The benchmark's workloads and how each turns a seed into solver inputs.

The three section4 workloads write a run config from the seed and build it
through the public front end (``cli.load_config`` then ``cli.build_inputs``),
exactly as ``hybridproj run`` does. ``ball_d8`` has matrix operators that the
config schema cannot express, so it builds its parts in code and wires them
with ``problems.preset``. Set-up time covers all of that. Either way a set-up
returns a ``cli.BuildResult``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from hybridproj import (
    Ball,
    IsmOperator,
    PointSolution,
    PseudoContraction,
    Section4Spec,
    ToleranceToReference,
    cli,
    problems,
)
from hybridproj.parallel import TARGET_CHUNK_ROWS

BALL_DIM = 8
BALL_MEMBERS = 16
BALL_ROOT_NORM = 0.3
BALL_STOP_GAP = 1e-6
BALL_MAX_ITER = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    # "section4" problems are 1-D with a closed-form replay; "ball" is d = 8.
    kind: str
    n_geps: int
    n_maps: int
    max_iter: int
    workers: int
    history: bool
    # True when the section4 members are passed as per-member objects (cor5).
    members: bool = False

    def anchor(self, seed: int) -> float:
        """Seed-drawn anchor in [0.5, 1] for the section4 workloads."""
        return float(np.random.default_rng(seed).uniform(0.5, 1.0))

    def run_config(self, seed: int) -> dict:
        if self.members:
            spec = Section4Spec(self.n_geps, self.n_maps)
            problem = {
                "preset": "cor5",
                "base": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
                "bifunctions": [
                    {"variant": "section4", "xi": float(xi)} for xi in spec.thresholds
                ],
                "maps": [{"variant": "section4", "c": float(c)} for c in spec.coefficients],
                "known_solution": {"kind": "interval", "lo": -1.0, "hi": spec.reference},
            }
        else:
            problem = {"preset": "section4", "N": self.n_geps, "M": self.n_maps}
        return {
            "problem": problem,
            "x0": [self.anchor(seed)],
            "stop": {"rule": "budget"},
            "max_iter": self.max_iter,
            "workers": self.workers,
            "record_history": self.history,
        }

    def make_setup(self, seed: int, workdir: Path) -> Callable[[], cli.BuildResult]:
        """Write the seed's inputs to ``workdir``; return the timed set-up."""
        if self.kind == "ball":
            return lambda: _ball_inputs(self, seed)
        path = workdir / f"{self.name}-{seed}.json"
        path.write_text(json.dumps(self.run_config(seed)))

        def setup() -> cli.BuildResult:
            config = cli.load_config(path)
            return cli.build_inputs(config, config.workers)

        return setup

    def working_set_bytes(self) -> dict:
        """Member arrays and live chunk temporaries of the kernel path."""
        return {
            "member_arrays": 8 * (self.n_geps + self.n_maps),
            "chunk_temporaries": 8 * TARGET_CHUNK_ROWS * self.workers,
        }


def _random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def ball_instance(seed: int):
    """Seeded cor2 parts on the unit ball of R^8 with common solution ``p``.

    Operators ``x -> G_i (x - p)`` with SPD ``G_i`` (eigenvalues in [0.5, 2],
    modulus ``1 / lambda_max``) and maps ``x -> p + R_j (x - p) / 2`` with
    orthogonal ``R_j``; both families vanish or are fixed exactly at ``p``.
    """
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(BALL_DIM)
    p = BALL_ROOT_NORM * direction / np.linalg.norm(direction)
    operators = []
    for _ in range(BALL_MEMBERS):
        q = _random_rotation(rng, BALL_DIM)
        eig = rng.uniform(0.5, 2.0, BALL_DIM)
        g = (q * eig) @ q.T
        operators.append(
            IsmOperator(map=lambda x, g=g: g @ (x - p), alpha=1.0 / float(eig.max()))
        )
    maps = []
    for _ in range(BALL_MEMBERS):
        r = _random_rotation(rng, BALL_DIM)
        maps.append(PseudoContraction(map=lambda x, r=r: p + 0.5 * (r @ (x - p)), kappa=0.0))
    start = rng.standard_normal(BALL_DIM)
    x0 = 0.9 * start / np.linalg.norm(start)
    return p, operators, maps, x0


def _ball_inputs(workload: Workload, seed: int) -> cli.BuildResult:
    p, operators, maps, x0 = ball_instance(seed)
    family, config, schedule = problems.preset(
        "cor2", base=Ball(center=np.zeros(BALL_DIM), radius=1.0),
        operators=operators, maps=maps, known_solution=PointSolution(p),
    )
    config = replace(
        config, stop=ToleranceToReference(reference=p, tol=BALL_STOP_GAP),
        max_iter=workload.max_iter, workers=workload.workers,
        record_history=workload.history,
    )
    issues = schedule.violations(family.kappa, family.alpha, workload.max_iter)
    if issues:
        raise ValueError("inadmissible schedule: " + "; ".join(issues))
    return cli.BuildResult(family=family, schedule=schedule, solver_config=config,
                           x0=x0, reference=p)


# NOTES.md says why each workload exists and which layers it exercises or
# bypasses. ball_d8 is not in BENCHMARK.json: every one of its solves fails.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_cuts",
            kind="section4", n_geps=2000, n_maps=3000, max_iter=300,
            workers=1, history=True,
        ),
        Workload(
            name="full_kernels",
            kind="section4", n_geps=2_000_000, n_maps=3_000_000, max_iter=80,
            workers=1, history=False,
        ),
        Workload(
            name="members_cor5",
            kind="section4", n_geps=500, n_maps=750, max_iter=60,
            workers=1, history=True, members=True,
        ),
        Workload(
            name="ball_d8",
            kind="ball", n_geps=BALL_MEMBERS, n_maps=BALL_MEMBERS,
            max_iter=BALL_MAX_ITER, workers=1, history=True,
        ),
    )
}
