"""Child of run.py's set-up measurement: import fracprey, draw the inputs, say READY.

    python3 bench/probe.py <workload> <seed>

It imports only the standard library and the workload module, which imports
fracprey from the checkout's src/.  The time to READY is therefore the
package's own import cost plus building the seeded inputs, none of the
bench's (run.py's numpy, scipy and tracer imports are not loaded here).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path)

workloads.build(sys.argv[1], int(sys.argv[2]), ROOT / ".bench_out")
print("READY", flush=True)
