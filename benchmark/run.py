"""Time-to-solution benchmark for adaptive quasi-Monte Carlo cubature.

Run from the root of the repository:

    python3 benchmark/run.py --workload mvn-lattice --seed 1 --seconds 55 --trace 0

One process runs one workload (see ``workloads.py``) on one seed: it
alternates timed set-ups with adaptive calls until the time budget is
spent, checking every answer against the workload's known value.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics from spans recorded around each layer's public
functions (``tracing.py``).  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The library is imported from ``src`` next to
this directory and nowhere else; without it the run exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN_FILE = HERE / "golden.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
STATUS_MET = "tolerance-met"
SETUP_SHARE = 0.1
MIN_CALLS = 3  # a median that can discard one outlying call, even past the budget
TRANSFORM_SPANS = ("ledger.fwht", "ledger.lattice_dft", "control_variates.fwht", "control_variates.lattice_dft")


def pin_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use.

    Must run before numpy is imported; the bundled OpenBLAS otherwise
    starts up to 64 threads.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_library() -> None:
    if not (SRC / "qmcube" / "__init__.py").is_file():
        raise SystemExit(f"qmcube sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qmcube

    if Path(qmcube.__file__).resolve().parent != SRC / "qmcube":
        raise SystemExit(f"imported qmcube from {qmcube.__file__}, not from {SRC}")


def environment_line(nproc: int) -> str:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return (
        f"# env nproc={nproc} threads={os.environ[THREAD_VARS[0]]} "
        f"python={platform.python_version()} numpy={np.__version__} scipy={scipy.__version__} "
        f"blas={blas.get('openblas configuration', blas.get('name', 'unknown'))!r}"
    )


def tail_text(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    k = len(samples)
    text = f"median={statistics.median(samples)!r} samples={k}"
    if k < 11:
        return text + " tail=none (fewer than 11 samples)"
    ordered = sorted(samples)
    return text + f" p{100 * (k - 10) / k:.0f}={ordered[k - 11]!r}"


class Outcomes:
    """Per-call bookkeeping: timings, failures and determinism of the answer."""

    def __init__(self, workload, truth: float, slack: float):
        self.workload = workload
        self.truth = truth
        self.slack = slack
        self.attempted = 0
        self.failed = 0
        self.broken: list[str] = []
        self.first = None

    def call(self, solve):
        """Run one adaptive call; returns (wall seconds, result or None)."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = solve()
        except Exception:  # a raising call is a failed operation, not the end of the run
            wall = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.broken.append("a call raised")
            return wall, None
        wall = perf_counter() - start
        miss = abs(result.v_hat - self.truth)
        if result.status != STATUS_MET or not miss <= self.workload.abs_tol + self.slack:
            self.failed += 1
            if self.failed == 1:
                print(f"# FAILED call: status={result.status} |v_hat - truth|={miss!r}", file=sys.stderr)
        if self.first is None:
            self.first = result
        elif result.csv_row(False) != self.first.csv_row(False):
            self.broken.append("repeated calls on the same inputs gave different results")
        return wall, result


def golden_entry(workload: str, seed: int):
    golden = json.loads(GOLDEN_FILE.read_text(encoding="ascii"))
    return golden.get(workload, {}).get(str(seed))


def report_golden_row(result, entry) -> None:
    row = ",".join(result.csv_row(include_wall_time=False))
    print(f"# result row: {row}")
    if entry is None:
        print("# golden row: none committed for this seed")
    else:
        verdict = "matches" if entry["row"] == row else f"differs from {entry['row']}"
        print(f"# golden row: {verdict} (information only)")


def run_end_to_end(workload, args, outcomes: Outcomes) -> dict:
    """Alternate blocks of set-ups with adaptive calls until the budget is spent.

    Set-up is repeated before every call rather than all at the start, so
    its median samples the whole run: on a shared host the interpreter's
    speed changes over seconds.  A block lasts at least one set-up and
    about SETUP_SHARE of the median call (of one second before the first).
    """
    start = perf_counter()
    setup_times, walls, result = [], [], None
    while len(walls) < MIN_CALLS or (perf_counter() - start) + statistics.median(walls) <= args.seconds:
        block_start = perf_counter()
        block = SETUP_SHARE * (statistics.median(walls) if walls else 1.0)
        while True:
            setup_start = perf_counter()
            solve = workload.setup(args.seed, lambda fn: fn)
            setup_times.append(perf_counter() - setup_start)
            if perf_counter() - block_start >= block:
                break
        wall, res = outcomes.call(solve)
        walls.append(wall)
        result = res or result
    if result is None:
        raise SystemExit("every adaptive call raised; no result to report")
    print(f"# time_to_solution_s {tail_text(walls)}")
    print(f"# setup_s {tail_text(setup_times)}")
    report_golden_row(result, golden_entry(workload.name, args.seed))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "time_to_solution_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "n_points": (result.n, "count"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def layer_metrics(tracer, wall: float, n: int) -> dict:
    s, work, calls = tracer.self_s, tracer.work, tracer.calls
    transform_rows = sum(work[name] for name in TRANSFORM_SPANS)
    return {
        "sequences.points_s": (s["sequences.points"], "s"),
        "sequences.points_generated": (work["sequences.points"], "count"),
        "integrands.eval_s": (s["integrands.eval"], "s"),
        "integrands.eval_points": (work["integrands.eval"], "count"),
        "ledger.transform_s": (sum(s[name] for name in TRANSFORM_SPANS), "s"),
        "ledger.transform_rows": (transform_rows, "count"),
        "ledger.rank_s": (s["ledger.magnitude_map"], "s"),
        "ledger.rank_rows": (work["ledger.magnitude_map"], "count"),
        "ledger.tier_sums_s": (s["ledger.tier_sums"], "s"),
        "ledger.self_s": (s["ledger.build"] + s["ledger.assemble"], "s"),
        "ledger.rows_per_point": (transform_rows / n, "rows/point"),
        "cone.bound_s": (s["cone.error_bound"], "s"),
        "cone.check_s": (s["cone.necessary_condition"], "s"),
        "cone.violations": (work["cone.necessary_condition"], "count"),
        "control_variates.beta_s": (s["control_variates.beta_qmc"], "s"),
        "control_variates.beta_fits": (calls["control_variates.beta_qmc"], "count"),
        "engine.self_s": (s["engine.solve"], "s"),
        "trace.unaccounted_frac": (s["engine.solve"] / wall, "fraction"),
    }


def coverage_problems(workload, tracer) -> list[str]:
    problems = [f"{name} never fired" for name in workload.required_spans if not tracer.calls[name]]
    problems += [f"{name} fired but must not" for name in workload.forbidden_spans if tracer.calls[name]]
    return problems + [f"{target} no longer exists" for target in tracer.unbound]


def run_traced(workload, args, outcomes: Outcomes) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    solve_plain = workload.setup(args.seed, lambda fn: fn)
    solve_traced = tracer.solver(workload.setup, args.seed)

    # The first call in a process is the slowest; keep it out of the
    # traced-versus-untraced comparison.
    outcomes.call(solve_plain)
    start = perf_counter()
    plain_walls, traced_walls, per_call, counts = [], [], [], []
    schedule = ["plain", "traced", "traced"]
    while schedule or (perf_counter() - start) + statistics.median(plain_walls) + statistics.median(
        traced_walls
    ) <= args.seconds:
        kind = schedule.pop(0) if schedule else ("plain" if len(plain_walls) < len(traced_walls) else "traced")
        if kind == "plain":
            plain_walls.append(outcomes.call(solve_plain)[0])
            continue
        tracer.reset()
        with tracer.installed():
            wall, result = outcomes.call(solve_traced)
        traced_walls.append(wall)
        if result is None:
            continue
        problems = coverage_problems(workload, tracer)
        if problems:
            outcomes.broken.append("trace coverage: " + "; ".join(problems))
        per_call.append(layer_metrics(tracer, wall, result.n))
        counts.append(tracer.counts())

    if not per_call:
        raise SystemExit("every traced call raised; no layer metrics to report")
    if any(c != counts[0] for c in counts[1:]):
        outcomes.broken.append("traced calls on the same inputs gave different span counts")
    entry = golden_entry(workload.name, args.seed)
    if entry is not None:
        verdict = "match" if entry["counts"] == counts[0] else "differ"
        print(f"# golden counts: {verdict} (information only)")
    print(f"# span counts: {json.dumps(counts[0])}")

    # Times and fractions vary per call, so take their median; counts were
    # just checked to repeat exactly.
    metrics = {
        name: (statistics.median(m[name][0] for m in per_call) if unit in ("s", "fraction") else value, unit)
        for name, (value, unit) in per_call[0].items()
    }
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    wall = statistics.median(traced_walls)
    print(f"# traced wall median={wall!r} s over {len(traced_walls)} calls; "
          f"untraced median={statistics.median(plain_walls)!r} s over {len(plain_walls)} calls")
    for name, (value, unit) in metrics.items():
        if unit == "s":
            print(f"# {name} share of traced wall {value / wall:.3f}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_threads()
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(environment_line(nproc))
    truth, slack = workload.truth()
    print(f"# truth={truth!r} truth_error_bound={slack!r} abs_tol={workload.abs_tol!r}")

    outcomes = Outcomes(workload, truth, slack)
    metrics = (run_traced if args.trace else run_end_to_end)(workload, args, outcomes)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"# failed_frac {outcomes.failed / outcomes.attempted!r} ({outcomes.failed} of {outcomes.attempted} calls)")
    for problem in dict.fromkeys(outcomes.broken):
        print(f"# CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcomes.broken,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
