"""Regenerate the reference data the benchmark checks against.

Run from the root of the repository:

    python3 benchmark/record.py reference   # Asian price reference, ~30 s and ~1.7 GB peak
    python3 benchmark/record.py golden      # result rows and span counts, seeds 1 and 2

``reference`` runs the arithmetic Asian call with its geometric control
variate on a seed no workload run uses, at a tolerance 5x tighter than the
``asian-cv-digital`` workload, and stores the estimate with the run's own
error bound.  ``golden`` records, per workload and seed, the result row
without wall time and the exact span counts of one traced call; a later run
reports whether it still matches, as information only.
"""

from __future__ import annotations

import json
import sys

import run

REFERENCE_SEED = 1000
REFERENCE_TOL = 1e-4
GOLDEN_SEEDS = (1, 2)


def record_reference() -> None:
    import numpy as np
    from qmcube import Tolerance
    from qmcube.control_variates import ControlVariateSpec, cv_integrate
    from qmcube.integrands import AsianOption, asian_payoffs

    option = AsianOption()
    arithmetic, geometric, price = asian_payoffs(option)
    spec = ControlVariateSpec(geometric, np.array([price]), policy="freeze-after-first-level")
    result = cv_integrate(
        arithmetic, option.monitors, spec, Tolerance(abs_tol=REFERENCE_TOL),
        family="digital", seed=REFERENCE_SEED,
    ).result
    if result.status != run.STATUS_MET:
        raise SystemExit(f"reference run ended with status {result.status}")
    payload = {
        "command": "python3 benchmark/record.py reference",
        "problem": "AsianOption() arithmetic call, geometric payoff control variate, freeze policy",
        "family": result.family,
        "seed": REFERENCE_SEED,
        "abs_tol": REFERENCE_TOL,
        "n": result.n,
        "v_hat": result.v_hat,
        "err_bound": float(result.estimate.err[0]),
        "status": result.status,
    }
    from workloads import ASIAN_REFERENCE_FILE

    ASIAN_REFERENCE_FILE.write_text(json.dumps(payload, indent=2) + "\n", encoding="ascii")
    print(json.dumps(payload, indent=2))


def record_golden() -> None:
    from tracing import Tracer
    from workloads import WORKLOADS

    golden = {}
    for name, workload in WORKLOADS.items():
        for seed in GOLDEN_SEEDS:
            tracer = Tracer()
            solve = tracer.solver(workload.setup, seed)
            with tracer.installed():
                result = solve()
            row = ",".join(result.csv_row(include_wall_time=False))
            golden.setdefault(name, {})[str(seed)] = {"row": row, "counts": tracer.counts()}
            print(name, seed, row, flush=True)
    run.GOLDEN_FILE.write_text(json.dumps(golden, indent=1) + "\n", encoding="ascii")


def main(argv) -> int:
    if argv not in (["reference"], ["golden"]):
        raise SystemExit(__doc__)
    run.pin_threads()
    run.import_library()
    (record_reference if argv == ["reference"] else record_golden)()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
