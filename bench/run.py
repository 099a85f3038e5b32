"""scvm benchmark entry point.

Run from the root of a checkout (it imports scvm from ./src):

    python3 bench/run.py --workload alu_loop --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics, wrapping nothing inside scvm
but Machine.run (to keep the final state for the oracle); --trace 1 is
the separate traced pass that times each layer from outside.  Times are
in reference-host seconds (see calib.py).  Human-readable lines start
with '#'; the last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  Sample detail, counters and spans go
to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOADS = ("alu_loop", "lock_threads", "taint_copy", "corpus")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "scvm" / "__init__.py").is_file():
        print(f"bench: no scvm package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import layers

    OUT.mkdir(parents=True, exist_ok=True)
    wl = harness.build_workload(args.workload, args.seed, OUT)
    oracle = harness.Oracle()
    if args.trace:
        metrics = layers.traced_run(wl, args.seconds, oracle, OUT)
    else:
        metrics = harness.timed_run(wl, args.seconds, oracle, OUT)
    for problem in oracle.problems:
        print(f"# FAILED: {problem}")
    print(json.dumps({
        "correct": oracle.failed == 0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
