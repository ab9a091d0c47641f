"""hybridproj benchmark: one workload per invocation.

    python3 perfbench/run.py --workload desk_cuts --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the solver is imported from
``src/``. The seed picks the inputs (see ``workloads.py``). One operation is
one ``solve`` of the workload. With ``--trace 0`` the run sets up and solves
once untimed to warm up; then, for ``--seconds``, it sets up twice and
solves once, timing each, and reports the end-to-end metrics. With
``--trace 1`` it times each layer through ``tracer.py`` and reports the
per-layer metrics instead. Correctness checks run after the timed region.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. NOTES.md defines every metric.
"""

from __future__ import annotations

import os

# At most two threads: the solver's own pool. Pin the BLAS pools to one
# thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hybridproj  # noqa: E402
from hybridproj import solver  # noqa: E402

import oracle  # noqa: E402
from tracer import Tracer, layer_metrics, setup_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-ups timed before each operation, so that the set-up median samples
# the whole run rather than one moment of it.
SETUPS_PER_OP = 2
TRACED_SETUPS = 3
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
# Final iterate of a section4 solve against the closed-form replay: Dykstra
# stops once a sweep moves by at most projection_tol (1e-12), so iterates sit
# up to about that far from the exact interval end; 1.1e-12 was the largest
# deviation seen over ten desk_cuts seeds.
REPLAY_ATOL = 1e-11
# Per-member (bisection, tol 1e-12) against kernel (closed form) solve.
MEMBERS_VS_KERNELS_ATOL = 1e-9
# Layer self times must account for this share of the traced solve time.
TRACE_COVERAGE_TOL = 0.05

END_TO_END_UNITS = {
    "solve_s": "s", "iter_ms_p50": "ms", "iter_ms_p90": "ms", "setup_s": "s",
    "ref_gap": "1", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "geometry.project_ms": "ms", "geometry.project_us_per_cut": "us/cut",
    "geometry.cuts": "count", "geometry.cut_us": "us",
    "operators.gep_ns_per_member": "ns", "operators.map_ns_per_member": "ns",
    "operators.member_evals": "count/iter",
    "parallel.gep_phase_ms": "ms", "parallel.map_phase_ms": "ms",
    "parallel.res_s_ms": "ms", "parallel.reduce_ms": "ms",
    "parallel.busy_ratio": "1", "parallel.chunks": "count/iter",
    "parallel.speedup_2w": "x",
    "solver.iterations": "count", "solver.self_ms": "ms",
    "cli.build_inputs_ms": "ms", "problems.build_ms": "ms",
    "solver.schedule_check_ms": "ms", "trace.overhead_s": "s",
}


def _percentile(values, q: float):
    """The q-quantile, or None when fewer than TAIL_SAMPLES lie beyond it."""
    if len(values) * (1.0 - q) < TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caches": _cache_sizes(),
        "full_kernels_working_set_bytes": WORKLOADS["full_kernels"].working_set_bytes(),
    }


class IterationClock:
    """Times every ``solver.iterate`` call that ``solve`` makes: two clock
    reads and an append around the call, nothing else."""

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        self._inner = inner = solver.iterate
        samples = self.samples
        clock = time.perf_counter

        def iterate(*args, **kwargs):
            t0 = clock()
            state = inner(*args, **kwargs)
            samples.append(clock() - t0)
            return state

        solver.iterate = iterate
        return self

    def __exit__(self, *exc):
        solver.iterate = self._inner


def solve_once(inputs):
    """One operation: returns ``(report or None, seconds, error or None)``."""
    t0 = time.perf_counter()
    try:
        report = hybridproj.solve(inputs.family, inputs.schedule, inputs.solver_config,
                                  inputs.x0)
    except (hybridproj.ProjectionFailure, hybridproj.InfeasibleSetError) as err:
        return None, time.perf_counter() - t0, err
    return report, time.perf_counter() - t0, None


def run_setups(setup, reps, times):
    """Set up ``reps`` times, appending each duration to ``times``."""
    for _ in range(reps):
        # Drop the previous problem first: peak memory should reflect one.
        inputs = None
        t0 = time.perf_counter()
        inputs = setup()
        times.append(time.perf_counter() - t0)
    return inputs


def correctness(workload, inputs, report) -> dict:
    """The workload's checks; section4 ones need a completed solve."""
    if workload.kind == "ball":
        return oracle.ball_audit(inputs)
    if report is None:
        return {"ok": False, "reason": "no completed solve to check"}
    final_x = report.final_x
    replay = oracle.section4_replay(workload.n_geps, workload.n_maps,
                                    workload.max_iter, float(inputs.x0[0]))
    checks = {"replay_gap": abs(float(final_x[0]) - float(replay[-1]))}
    ok = checks["replay_gap"] <= REPLAY_ATOL
    if workload.members:
        family, sched, _ = hybridproj.build_section4(workload.n_geps, workload.n_maps)
        config = replace(inputs.solver_config, record_history=False)
        kernel = hybridproj.solve(family, sched, config, inputs.x0)
        checks["kernel_gap"] = float(np.max(np.abs(kernel.final_x - final_x)))
        ok &= checks["kernel_gap"] <= MEMBERS_VS_KERNELS_ATOL
    checks["ok"] = ok
    return checks


def same_result(a, b) -> bool:
    """Bit-identical final iterates and, when recorded, histories."""
    if not np.array_equal(a.final_x, b.final_x) or len(a.history) != len(b.history):
        return False
    for ra, rb in zip(a.history, b.history):
        if (ra.i_far, ra.j_far, ra.eps, ra.res_y, ra.res_z, ra.res_s) != (
            rb.i_far, rb.j_far, rb.eps, rb.res_y, rb.res_z, rb.res_s
        ):
            return False
        if not all(np.array_equal(getattr(ra, f), getattr(rb, f))
                   for f in ("x_prev", "x_new", "y_far", "z_far")):
            return False
    return True


class Tally:
    """Operations attempted and failed, and the first completed report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        # Completed solves whose result differs from the first one.
        self.diverged = 0
        self.errors: list[str] = []
        self.first = None

    def add(self, report, error) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{type(error).__name__}: {error}")
            return False
        if self.first is None:
            self.first = report
        elif not same_result(self.first, report):
            self.failed += 1
            self.diverged += 1
            self.errors.append("repeat solve differs from the first")
            return False
        return True


def run_untraced(workload, setup, seconds):
    # Warm-up, untimed: first-use costs in set-up, chunk temporaries and
    # code paths in the solve.
    inputs = setup()
    solve_once(inputs)
    tally = Tally()
    setup_times: list[float] = []
    solve_times: list[float] = []
    with IterationClock() as clock:
        began = time.perf_counter()
        while tally.attempted == 0 or time.perf_counter() - began < seconds:
            inputs = None  # release the last problem before building the next
            inputs = run_setups(setup, SETUPS_PER_OP, setup_times)
            report, elapsed, error = solve_once(inputs)
            if tally.add(report, error):
                solve_times.append(elapsed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = correctness(workload, inputs, tally.first)
    ok = checks["ok"] and tally.diverged == 0
    if not checks["ok"]:
        tally.failed = tally.attempted
    ref_gap = None
    if tally.first is not None:
        ref_gap = float(np.linalg.norm(tally.first.final_x - inputs.reference))
    samples = clock.samples
    p90 = _percentile(samples, 0.9)
    metrics = {
        "solve_s": statistics.median(solve_times) if solve_times else None,
        "iter_ms_p50": 1e3 * statistics.median(samples) if samples else None,
        "iter_ms_p90": None if p90 is None else 1e3 * p90,
        "setup_s": statistics.median(setup_times),
        "ref_gap": ref_gap,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "solves": len(solve_times), "iteration_samples": len(samples),
        "solve_times_s": [round(t, 4) for t in solve_times],
        "setups": len(setup_times), "fail_rate": tally.failed / tally.attempted,
        "checks": checks, "errors": sorted(set(tally.errors)),
    }
    return tally, ok, metrics, END_TO_END_UNITS, info


def run_traced(workload, setup, seconds, spans_path):
    with Tracer() as setup_trace:
        inputs = run_setups(setup, TRACED_SETUPS, [])
    solve_once(inputs)  # warm-up
    tally = Tally()
    traced = Tracer()
    plain_times, traced_times = [], []
    began = time.perf_counter()
    while not traced_times or time.perf_counter() - began < seconds:
        report, elapsed, error = solve_once(inputs)
        tally.add(report, error)
        plain_times.append(elapsed)
        with traced:
            report, elapsed, error = solve_once(inputs)
        tally.add(report, error)
        traced_times.append(elapsed)

    # Determinism pair: 1 and 2 workers, history on so every iterate is
    # compared and the res_S pass runs even where the workload skips it.
    pair = {}
    for workers in (1, 2):
        trace = Tracer()
        config = replace(inputs.solver_config, workers=workers, record_history=True)
        with trace:
            report, elapsed, error = solve_once(replace(inputs, solver_config=config))
        pair[workers] = (report, elapsed, error, trace)
    (r1, t1, e1, _), (r2, t2, e2, _) = pair[1], pair[2]
    if e1 is None and e2 is None:
        deterministic = same_result(r1, r2)
    else:
        deterministic = str(e1) == str(e2)

    metrics, breakdown = layer_metrics(traced.spans, len(traced_times))
    if "parallel.res_s" not in {s.name for s in traced.spans}:
        own = pair[inputs.solver_config.workers][3]
        metrics["parallel.res_s_ms"] = layer_metrics(own.spans, 1)[0]["parallel.res_s_ms"]
    metrics["parallel.speedup_2w"] = t1 / t2
    metrics.update(setup_metrics(setup_trace.spans))
    metrics["trace.overhead_s"] = (statistics.median(traced_times)
                                   - statistics.median(plain_times))

    # Sanity: the layers' self times partition the traced iterations and,
    # with the schedule scan, must cover the traced solve time.
    in_solve_scan = sum(s.seconds for s in traced.spans
                        if s.name == "solver.schedule_check")
    covered = sum(breakdown.values()) + in_solve_scan
    coverage = covered / sum(traced_times)
    negative = [k for k, v in breakdown.items() if v < 0.0]
    sane = abs(1.0 - coverage) <= TRACE_COVERAGE_TOL and not negative

    checks = correctness(workload, inputs, tally.first)
    if not checks["ok"]:
        tally.failed = tally.attempted
    spans_path.parent.mkdir(exist_ok=True)
    traced.write(spans_path)
    info = {
        "traced_solves": len(traced_times), "fail_rate": tally.failed / tally.attempted,
        "deterministic_1w_2w": deterministic, "trace_coverage": coverage,
        "trace_coverage_tol": TRACE_COVERAGE_TOL,
        "self_time_s": breakdown, "checks": checks,
        "errors": sorted(set(tally.errors)),
    }
    ok = checks["ok"] and tally.diverged == 0 and deterministic and sane
    return tally, ok, metrics, LAYER_UNITS, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(hybridproj.__file__).resolve().is_relative_to(SRC):
        print(f"error: hybridproj imported from outside {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("machine " + json.dumps(machine_facts()))
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        setup = workload.make_setup(args.seed, Path(workdir))
        if args.trace:
            spans = ROOT / ".perfbench_spans" / f"{workload.name}-seed{args.seed}.jsonl"
            outcome = run_traced(workload, setup, args.seconds, spans)
        else:
            outcome = run_untraced(workload, setup, args.seconds)
    tally, ok, metrics, units, info = outcome

    print("info " + json.dumps(info, default=str))
    # fail_rate is printed with the metrics; the result line carries it as
    # attempted and failed.
    rows = {**metrics, "fail_rate": info["fail_rate"]}
    for name, value in rows.items():
        unit = units.get(name, "1")
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{workload.name:>13} {name:<28} {shown:>14} {unit}")
    result = {
        "correct": bool(ok),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
