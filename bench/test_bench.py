"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import scvm.cli  # noqa: E402
from scvm.corpus import run_corpus  # noqa: E402

import guests  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

GUESTS = sorted(guests.GENERATORS)


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("name", GUESTS)
def test_guest_halts_and_matches_its_generator(tmp_path, name, seed):
    wl = harness.build_workload(name, seed, tmp_path)
    (unit,) = wl.units
    assert scvm.cli.main(unit.argv("run")) == 0
    oracle, refs = harness.Oracle(), {}
    with harness.capture_runs() as results:
        for mode in ("run", "check"):
            results.clear()
            _, code, sink = harness.cli_call(unit, mode)
            harness.check_sample(oracle, unit, mode, code, results.pop(), sink, refs)
    assert oracle.failed == 0, oracle.problems
    assert run_corpus(wl.corpus_dir).all_passed


@pytest.mark.parametrize("name", ["lock_threads", "taint_copy"])
def test_oracle_counts_a_doctored_report_as_a_failure(tmp_path, name):
    wl = harness.build_workload(name, 3, tmp_path)
    (unit,) = wl.units
    _, code, sink = harness.cli_call(unit, "check")
    assert code == 3
    text = sink.report
    lines = text.splitlines(keepends=True)
    doctored = "".join(lines[:-1])  # drop the last warning row

    oracle = harness.Oracle()
    harness.check_report(oracle, unit, doctored, {})
    assert (oracle.attempted, oracle.failed) == (2, 1)  # the headline count

    oracle, refs = harness.Oracle(), {}
    harness.check_report(oracle, unit, text, refs)
    assert oracle.failed == 0
    harness.check_report(oracle, unit, doctored, refs)
    assert oracle.failed == 2  # the count, and a report unlike the first


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "alu_loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
