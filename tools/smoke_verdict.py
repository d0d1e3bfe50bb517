"""Pass or fail one benchmark smoke run from its JSON summary line.

    python3 benchmark/run.py --workload mvn-lattice --seconds 2 | tail -n 1 | python3 tools/smoke_verdict.py

Reads the summary object from stdin and prints it.  Exits 0 if the run's
result was correct and no call failed, and 1 otherwise.
"""

import json
import sys

summary = json.load(sys.stdin)
print(summary)
sys.exit(not (summary["correct"] is True and summary["failed"] == 0))
