#!/usr/bin/env python3
"""Walk through the shared-handle design on the aliased-check pair.

Runs two near-identical guests.  Both copy a user-supplied pointer to a
second register and write through the *copy*; one validates the pointer
first (through the original register), one does not.  Because shadow
cells hold handles to shared tag objects, the check lands on the same
object the copy points at, and only the unvalidated twin warns.
"""

import sys

from scvm.asm import assemble
from scvm.corpus import shipped_dir
from scvm.driver import RunConfig, analyze


def show(name):
    source = (shipped_dir() / f"{name}.s").read_text()
    image = assemble(source)
    trace = []
    result = analyze(image, RunConfig(shadow_trace=trace.append))
    print(f"=== {name} (outcome: {result.outcome}) ===")

    boundary = [l for l in trace if "USER_UNCHECKED" in l]
    print(f"  {len(boundary)} shadow cell updates carry USER_UNCHECKED;")
    print(f"  first: {boundary[0]}")
    checked = [l for l in trace if "WRITE_CHECKED" in l]
    if checked:
        print(f"  the check annotates the shared object: {checked[0]}")
    else:
        print("  no access check appears in the trace")

    if result.warnings:
        for w in result.warnings:
            print(f"  WARNING {w.rule} at pc 0x{w.pc:04X}: {w.detail}")
    else:
        print("  no warnings")
    print()
    return len(result.warnings)


def main():
    clean = show("aliased_check")
    buggy = show("aliased_check_bug")
    print(f"checked twin: {clean} warning(s); unchecked twin: {buggy} warning(s)")
    return 0 if (clean, buggy) == (0, 1) else 1


if __name__ == "__main__":
    sys.exit(main())
