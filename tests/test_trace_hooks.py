"""The module globals that span tracing replaces at call time.

``perfbench/tracer.py`` times layers by swapping these names for wrappers
while a solve runs, so the program must keep them and keep calling them
through those globals. Phase attribution also relies on the call order
within an iteration: each chunk-evaluator factory runs before the
``furthest_candidate`` call that uses it, and the mapping residual pass
comes after the projection. The moved-prefix reporters are family fields,
not hooks, so they add no calls to this order. ``perfbench/workloads.py``
also imports ``hybridproj.parallel.TARGET_CHUNK_ROWS``.
"""

import pytest

from hybridproj import cli, parallel, problems, solver
from hybridproj.geometry import Box
from hybridproj.problems import build_section4, section4_bifunction, section4_map

HOOKS = (
    (solver, "iterate"),
    (solver, "furthest_candidate"),
    (solver, "gep_chunk_evaluator"),
    (solver, "map_chunk_evaluator"),
    (solver, "halfspace_from_iterate"),
    (solver, "project_nested"),
    (solver.ParamSchedule, "violations"),
    (cli, "build_inputs"),
    (cli, "build_section4"),
    (cli, "preset"),
    (problems, "preset"),
)

ITERATION_CALLS = [
    "iterate",
    "gep_chunk_evaluator",
    "furthest_candidate",
    "map_chunk_evaluator",
    "furthest_candidate",
    "halfspace_from_iterate",
    "project_nested",
    "map_chunk_evaluator",
    "furthest_candidate",
]


def hook_name(owner, attr):
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


@pytest.fixture
def calls(monkeypatch):
    """Replace every hook with a wrapper that logs ``owner.attr`` per call."""
    log = []
    for owner, attr in HOOKS:
        inner = getattr(owner, attr)
        name = hook_name(owner, attr)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            log.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    return log


def test_every_hook_is_called(calls):
    family, sched, _ = build_section4(4, 4)
    cfg = solver.SolverConfig(max_iter=3, record_history=True)
    solver.solve(family, sched, cfg, [1.0])
    solve_calls = [name.split(".", 1)[1] for name in calls]
    assert solve_calls == ["violations"] + 3 * ITERATION_CALLS

    for problem in (
        {"preset": "section4", "N": 4, "M": 4},
        {"preset": "cor2",
         "base": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
         "operators": [{"variant": "affine", "gain": 1.0, "root": [0.5]}],
         "maps": [{"variant": "identity"}]},
    ):
        config = cli.RunConfig.from_dict({"problem": problem, "x0": [1.0]})
        cli.build_inputs(config, workers=1)
    problems.preset(
        "cor5", base=Box(lo=[-1.0], hi=[1.0]),
        bifunctions=[section4_bifunction(0.0)], maps=[section4_map(1.5)],
    )

    missing = [hook_name(*hook) for hook in HOOKS if hook_name(*hook) not in calls]
    assert missing == []


def test_block_size_is_importable():
    assert isinstance(parallel.TARGET_CHUNK_ROWS, int)
    assert parallel.TARGET_CHUNK_ROWS > 0
