#!/usr/bin/env python3
"""Pooled counts of what a fuzz family's images reach.

For each hypothesis seed in SEEDS, draws EXAMPLES images of the family
through tests/families.py's over_family, as the tests draw them, and
runs each under both schedulers.  Prints, per family: runs, the median
run length, runs that fault before step 20, runs that reach a
thread-exit event, and the most common fault reasons (numbers elided).
The coverage line of tests/test_acceptance.py is one 40-image sample;
these counts pool 8 samples of 100, so a change to a family's generator
shows above the spread between samples.

    PYTHONPATH=src python scripts/fuzz_counts.py [family ...]
"""

import re
import sys
from collections import Counter
from pathlib import Path

from hypothesis import Phase, seed

from scvm.machine import load

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from families import FAMILIES, over_family  # noqa: E402

SEEDS = range(1000, 1008)
EXAMPLES = 100


def count(family, seeds=SEEDS, examples=EXAMPLES):
    steps, faults, early, exits = [], Counter(), 0, 0

    def observe(e):
        observe.exited = True

    observe.kinds = ("thread-exit",)

    @over_family(family, examples, database=None, phases=[Phase.generate])
    def run(image, policy, step_limit):
        nonlocal early, exits
        machine = load(image, policy)
        observe.exited = False
        machine.add_observer(observe)
        state = machine.run(step_limit).state
        steps.append(state.step_count)
        if state.fault:
            faults[re.sub(r"0x[0-9A-F]+|\d+", "N", state.fault.reason)] += 1
            early += state.step_count < 20
        exits += observe.exited

    for s in seeds:
        seed(s)(run)()
    steps.sort()
    reasons = ", ".join(f"{n} {reason}" for reason, n in faults.most_common(6))
    return (f"{family}: {len(steps)} runs, steps median {steps[(len(steps) - 1) // 2]}; "
            f"{early} fault before step 20; {exits} reach thread-exit; {reasons or '-'}")


def main():
    for family in sys.argv[1:] or FAMILIES:
        print(count(family))
    return 0


if __name__ == "__main__":
    sys.exit(main())
