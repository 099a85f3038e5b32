#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against the working tree.

Runs `bench/run.py` on every workload of BENCHMARK.json in alternating
pairs, the parent first in odd pairs and the change first in even ones.
Each run gets a fresh copy of its side: the parent from `git archive`
of the given revision, the change from the working tree's tracked and
untracked, not ignored, files.  After the pairs, one `--trace 1` pass
per side and workload, again from fresh copies.  Writes a BENCH_<n>.json
record in the schema that tests/test_tooling.py checks: per workload
and side the median and quartiles of every end-to-end metric, every
pair, and each claim's pairs and verdict.

    python3 scripts/bench_pairs.py --parent HEAD~1 --seed 4321 --seconds 15 \\
        --pairs 10 --out BENCH_30.json --claim alu_loop:run_steps_per_s:1.15

Runs one process at a time; with 15 s runs and ten pairs it takes about
half an hour.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def fresh_copy(side: str, rev: str | None, scratch: Path) -> Path:
    """A new directory holding side's tree: `git archive` of rev, or the
    working tree's files when rev is None (the change)."""
    dest = Path(tempfile.mkdtemp(prefix=f"{side}-", dir=scratch))
    if rev is not None:
        subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", rev), check=True)
        return dest
    for name in git("ls-files", "-z", "-co", "--exclude-standard").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return dest


def bench(copy: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON line bench/run.py prints last, run in copy."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=copy, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_once(side, rev, scratch, *args) -> dict:
    copy = fresh_copy(side, rev, scratch)
    try:
        return bench(copy, *args)
    finally:
        shutil.rmtree(copy)


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def judge(pairs: list, better: str, ratio: float) -> dict:
    """A claim's verdict: the change's median at `ratio` times the
    parent's or better, at least 9 of 10 pairs won, and the median gap
    wider than the parent's interquartile range."""
    higher = better == "higher"
    parent = quartiles([p["parent"] for p in pairs])
    change = statistics.median(p["change"] for p in pairs)
    won = sum(p["change"] > p["parent"] if higher else p["change"] < p["parent"] for p in pairs)
    gap = abs(change - parent["median"])
    got = change / parent["median"]
    met = (got >= ratio if higher else got <= ratio) and won * 10 >= 9 * len(pairs) \
        and gap > parent["q3"] - parent["q1"] and (change > parent["median"]) == higher
    return {"ratio": got, "won": won, "median_gap": gap,
            "parent_iqr": parent["q3"] - parent["q1"], "met": met}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    p.add_argument("--claim", action="append", default=[],
                   help="WORKLOAD:METRIC:RATIO, e.g. alu_loop:run_steps_per_s:1.15")
    p.add_argument("--describe", default="", help="the change, in a sentence or two")
    p.add_argument("--notes", default="")
    args = p.parse_args(argv)
    if args.pairs < 2 or args.seconds <= 0:
        p.error("--pairs must be >= 2 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = [m["name"] for m in spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    claims = []
    for claim in args.claim:
        workload, metric, ratio = claim.split(":")
        if workload not in workloads or metric not in end_to_end:
            p.error(f"--claim {claim}: unknown workload or metric")
        claims.append((workload, metric, float(ratio)))
    revs = {"parent": git("rev-parse", args.parent).decode().strip(), "change": None}

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    order = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        scratch = Path(tmp)
        for pair in range(1, args.pairs + 1):
            sides = SIDES if pair % 2 else SIDES[::-1]
            order.append(sides[0])
            for workload in workloads:
                for side in sides:
                    result = run_once(side, revs[side], scratch, workload, args.seed,
                                      args.seconds, 0)
                    runs[workload][side].append(result)
                    print(f"# pair {pair} {workload} {side}: failed {result['failed']}",
                          file=sys.stderr)
        traced = {}
        for workload in workloads:
            traced[workload] = {}
            for side in SIDES:
                result = run_once(side, revs[side], scratch, workload, args.seed,
                                  args.seconds, 1)
                metrics = result["metrics"]
                traced[workload][side] = {"failed": result["failed"], **{
                    name: metrics[name]["value"] for name in per_layer if name in metrics}}
                print(f"# traced {workload} {side}: failed {result['failed']}", file=sys.stderr)

    record_workloads = {}
    for workload, sides in runs.items():
        entry = {"runs_per_side": args.pairs,
                 "failed": {side: sum(r["failed"] for r in sides[side]) for side in SIDES},
                 "attempted": {side: sum(r["attempted"] for r in sides[side]) for side in SIDES}}
        for side in SIDES:
            entry[side] = {name: quartiles([r["metrics"][name]["value"] for r in sides[side]])
                           for name in end_to_end}
        entry["pairs"] = {name: [{"pair": i + 1, "first": order[i],
                                  "parent": sides["parent"][i]["metrics"][name]["value"],
                                  "change": sides["change"][i]["metrics"][name]["value"]}
                                 for i in range(args.pairs)] for name in end_to_end}
        record_workloads[workload] = entry

    summary = []
    for workload, entry in record_workloads.items():
        for name, m in end_to_end.items():
            verdict = judge(entry["pairs"][name], m["better"], 1.0)
            summary.append(f"{workload} {name} {entry['parent'][name]['median']:.6g} -> "
                           f"{entry['change'][name]['median']:.6g} ({verdict['ratio']:.3f}x, "
                           f"{verdict['won']}/{args.pairs} pairs better)")
    command = (f"python3 bench/run.py --workload <workload> --seed {args.seed} "
               f"--seconds {args.seconds:g}")
    record = {
        "benchmark": "BENCHMARK.json",
        "change": args.describe,
        "parent": revs["parent"],
        "command": f"{command} --trace 0",
        "host": f"{os.cpu_count()} vCPU, Python {platform.python_version()}; "
                "times in reference-host seconds (bench/calib.py)",
        "order": "pairs alternate which side runs first, parent first in odd pairs; workloads "
                 f"in the order {', '.join(workloads)}; every run used a fresh copy of its "
                 "side's tree (scripts/bench_pairs.py)",
        "quartiles": "statistics.quantiles(method='inclusive') over each side's runs",
        "notes": args.notes,
        "summary": summary,
        "units": {name: m["unit"] for name, m in end_to_end.items()},
        "traced": {"command": f"{command} --trace 1",
                   "note": "one traced pass per side per workload, after the timed pairs, "
                           "each from a fresh copy of its tree", **traced},
        "workloads": record_workloads,
        "claims": [{"workload": w, "metric": name, "better": end_to_end[name]["better"],
                    "target": f"{ratio}x the parent's median; >= 9/10 pairs won, "
                              "median gap > parent IQR",
                    **judge(record_workloads[w]["pairs"][name], end_to_end[name]["better"], ratio),
                    "pairs": record_workloads[w]["pairs"][name]}
                   for w, name, ratio in claims],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for line in summary:
        print(line)
    for claim in record["claims"]:
        print(f"claim {claim['workload']} {claim['metric']}: {claim['ratio']:.3f}x, "
              f"{claim['won']}/{args.pairs} pairs, met {claim['met']}")
    failed = any(e["failed"][s] for e in record_workloads.values() for s in SIDES) or any(
        t[s]["failed"] for t in traced.values() for s in SIDES)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
