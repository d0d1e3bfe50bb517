"""Median wall time and minor page faults of a benchmark call, in total and per span.

    python3 tools/fault_profile.py --workload mvn-lattice [--seed 1] [--calls 20]

Runs ``benchmark/`` unchanged with the library from ``src``.  Untraced calls
after a warm-up give the totals; one more call under ``tracemalloc`` gives
the peak of the memory allocated during a call; traced calls, with the
tracer's clock swapped for the ``getrusage`` fault count, give the faults
of each span.
"""

import argparse
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
import run  # noqa: E402

faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt  # noqa: E731
parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, default=1)
parser.add_argument("--calls", type=int, default=20)
args = parser.parse_args()
run.pin_threads()
run.import_library()
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[args.workload]
solve = workload.setup(args.seed, lambda fn: fn)
solve()
calls = []
for _ in range(args.calls):
    f0, t0 = faults(), perf_counter()
    solve()
    calls.append((perf_counter() - t0, faults() - f0))
wall, count = (statistics.median(c[k] for c in calls) for k in (0, 1))
print(f"{workload.name} seed={args.seed}: {wall:.4f} s, {count:.0f} minor faults per call")
tracemalloc.start()
solve()
print(f"  traced peak of one call: {tracemalloc.get_traced_memory()[1] / 2**20:.2f} MiB")
tracemalloc.stop()
tracing.perf_counter = faults
tracer = tracing.Tracer()
traced, spans = tracer.solver(workload.setup, args.seed), []
for _ in range(args.calls):
    tracer.reset()
    with tracer.installed():
        traced()
    spans.append(tracer.self_s.copy())
for name in sorted(spans[0]):
    print(f"  {name:30s} {statistics.median(s[name] for s in spans):8.0f}")
