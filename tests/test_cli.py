"""Exit codes and outputs of the command-line front end, in process,
and once as `python -m scvm` to see the code reach the shell."""

import contextlib
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest

import scvm
from scvm.asm import read_image
from scvm.cli import _BLOCK_LINES, entry, main
from scvm.corpus import run_corpus, shipped_dir
from scvm.driver import RunConfig, analyze
from scvm.machine import format_event, load
from scvm.report import parse, serialize
from scvm.shadow import ShadowState

NULL_BUG = """
start: MOVI r0, 8
       SYS 1
       MOV r4, r0
       MOVI r0, 7
       SYS 49            ; lock around the heap touch: keep lockset quiet
dsite: LDB r1, [r4]
       MOVI r0, 7
       SYS 50
       HALT
"""

CLEAN = "start: MOVI r1, 1\nHALT\n"
SPIN = "spin: JMP spin\n"
HEAP_LOOP = """
start: MOVI r0, 16
       SYS 1
       CMPI r0, 0
       MOV r4, r0
loop:  LD r1, [r4]
       ADD r1, r1, r4
       ST [r4], r1
       JMP loop
"""
FAULT_LOOP = """
start: MOVI r0, 16
       SYS 1
       CMPI r0, 0
       MOV r4, r0
       MOVI r2, 1
       MOVI r3, 100
loop:  LD r1, [r4]
       ADD r1, r1, r2
       ST [r4], r1
       CMP r1, r3
       BNE loop
       CLI               ; privileged in user mode: the run faults here
"""


@pytest.fixture
def build(tmp_path):
    def _build(source, name="prog"):
        src = tmp_path / f"{name}.s"
        img = tmp_path / f"{name}.img"
        src.write_text(source)
        assert main(["asm", str(src), "-o", str(img)]) == 0
        return img

    return _build


# -- asm ---------------------------------------------------------------


def test_asm_writes_an_image(tmp_path, build):
    img = build(CLEAN)
    assert img.read_bytes().startswith(b"SCVM")


def test_asm_error_is_exit_1(tmp_path, capsys):
    src = tmp_path / "bad.s"
    src.write_text("MOVI r1\n")
    out = tmp_path / "bad.img"
    assert main(["asm", str(src), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "bad.s" in err and "line 1" in err
    assert not out.exists()


def test_asm_character_above_a_byte_is_exit_1(tmp_path, capsys):
    src = tmp_path / "wide.s"
    src.write_text('HALT\n.asciiz "\u20ac"\n', encoding="utf-8")
    out = tmp_path / "wide.img"
    assert main(["asm", str(src), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "wide.s" in err and "line 2" in err and "\u20ac" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_asm_missing_source_is_exit_2(tmp_path, capsys):
    assert main(["asm", str(tmp_path / "none.s"), "-o", str(tmp_path / "x.img")]) == 2
    assert "scvm asm:" in capsys.readouterr().err


LATIN1_SOURCE = "; caf\u00e9\nHALT\n".encode("latin-1")  # byte 0xE9 is not UTF-8
LATIN1_MANIFEST = "# caf\u00e9\npolicy round-robin seed 0 quantum 1\n".encode("latin-1")


def test_asm_non_utf8_source_is_exit_2(tmp_path, capsys):
    src = tmp_path / "latin.s"
    src.write_bytes(LATIN1_SOURCE)
    out = tmp_path / "latin.img"
    assert main(["asm", str(src), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"scvm asm: {src}: not UTF-8 (invalid continuation byte at byte 5)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["asm", "check"])
def test_unwritable_output_is_exit_2(build, tmp_path, capsys, command):
    target = tmp_path / "no_such_dir" / "out"
    if command == "asm":
        src = tmp_path / "p.s"
        src.write_text(CLEAN)
        argv, prefix = ["asm", str(src), "-o", str(target)], "scvm asm: "
    else:
        img = build(CLEAN)
        argv = ["check", str(img), "--report", str(target)]
        prefix = "scvm check: cannot write report: "
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(prefix) and str(target) in err
    assert not target.exists()


# -- run -----------------------------------------------------------------


def test_run_clean_halt_is_exit_0(build, capsys):
    img = build(CLEAN)
    assert main(["run", str(img)]) == 0
    assert capsys.readouterr().out == ""


def test_run_timeout_is_exit_4(build, capsys):
    img = build(SPIN)
    assert main(["run", str(img), "--steps", "100"]) == 4
    assert "timeout" in capsys.readouterr().err


def test_run_fault_is_exit_4(build, capsys):
    img = build("CLI\nHALT\n")
    assert main(["run", str(img)]) == 4
    assert "fault" in capsys.readouterr().err


def test_run_missing_image_is_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.img")]) == 2
    assert "cannot load image" in capsys.readouterr().err


def test_run_rejects_a_source_file_as_image(tmp_path, capsys):
    src = tmp_path / "p.s"
    src.write_text(CLEAN)
    assert main(["run", str(src)]) == 2


def test_run_bad_quantum_is_exit_2(build, capsys):
    img = build(CLEAN)
    assert main(["run", str(img), "--quantum", "0"]) == 2
    assert main(["run", str(img), "--steps", "0"]) == 2


@pytest.mark.parametrize("flags, code", [((), 0), (("--steps", "1"), 4)],
                         ids=["halt", "timeout"])
def test_exit_code_reaches_the_shell(build, flags, code):
    env = {**os.environ, "PYTHONPATH": str(Path(scvm.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "scvm", "run", str(build(CLEAN)), *flags],
                          env=env, capture_output=True, timeout=30)
    assert done.returncode == code, done.stderr


@pytest.mark.parametrize("command", ["run", "check"])
def test_unknown_scheduler_kind_is_exit_2(build, capsys, command):
    """SchedulerPolicy is the one judge of a kind: the CLI has no list
    of its own and surfaces the policy's message."""
    img = build(CLEAN)
    assert main([command, str(img), "--sched", "fifo"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"scvm {command}: unknown scheduler kind 'fifo'\n"
    assert captured.out == ""


def test_sched_help_lists_the_scheduler_kinds(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert "round-robin or seeded-random" in " ".join(capsys.readouterr().out.split())


def test_run_event_trace_prints_steps(build, capsys):
    img = build(CLEAN)
    assert main(["run", str(img), "--trace", "events"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split("\t")[3] == "fetch"
    assert any("op=MOVI" in line for line in out)


def test_run_shadow_trace_is_bad_config(build, capsys):
    # a bare run has no shadow state to trace
    img = build(CLEAN)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(img), "--trace", "shadow"])
    assert exc.value.code == 2
    assert "invalid choice: 'shadow'" in capsys.readouterr().err


# -- check ---------------------------------------------------------------


def test_check_clean_program_is_exit_0(build, capsys):
    img = build(CLEAN)
    assert main(["check", str(img)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# scvm-report v1")
    assert len(out.splitlines()) == 3  # header only


def test_check_warning_is_exit_3_and_report_parses(build, tmp_path, capsys):
    img = build(NULL_BUG)
    report = tmp_path / "out.tsv"
    assert main(["check", str(img), "--report", str(report)]) == 3
    meta, warnings = parse(report.read_text())
    assert [w.rule for w in warnings] == ["NULL_DEREF_UNCHECKED"]
    assert meta["policy"].kind == "round-robin"
    assert len(meta["image_sha256"]) == 64
    # warnings go to the report, not stdout
    assert capsys.readouterr().out == ""


def test_check_timeout_still_writes_the_report(build, tmp_path):
    img = build(SPIN)
    report = tmp_path / "r.tsv"
    assert main(["check", str(img), "--steps", "50", "--report", str(report)]) == 4
    assert report.read_text().startswith("# scvm-report v1")


def test_check_unknown_checker_is_exit_2(build, capsys):
    img = build(CLEAN)
    assert main(["check", str(img), "--checkers", "null,nosuch"]) == 2
    assert "unknown checkers: nosuch" in capsys.readouterr().err


def test_check_bad_option_is_exit_2(build, capsys):
    img = build(CLEAN)
    assert main(["check", str(img), "--opt", "lockset.grace"]) == 2
    assert main(["check", str(img), "--opt", "lockset.grace=sometimes"]) == 2
    assert main(["check", str(img), "--opt", "fmt.depth=3"]) == 2
    capsys.readouterr()
    # an option is checked whether or not its checker is selected
    assert main(["check", str(img), "--checkers", "null", "--opt", "lockset.tracked=bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "scvm check: lockset.tracked must be heap or all, got 'bogus'\n"
    assert captured.out == ""


def test_opt_help_lists_every_option_and_its_values(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "lockset.tracked=heap|all, lockset.grace=off|on" in help_text


def test_check_with_no_checkers_matches_run(build, capsys):
    img = build(NULL_BUG)
    assert main(["check", str(img), "--checkers", ""]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 3


def test_check_option_changes_the_analysis(build, tmp_path):
    img = build("start: MOVI r1, 0x4000\nMOVI r2, 7\nST [r1], r2\nHALT\n")
    report = tmp_path / "r.tsv"
    assert main(["check", str(img), "--checkers", "lockset",
                 "--report", str(report)]) == 0
    assert main(["check", str(img), "--checkers", "lockset",
                 "--opt", "lockset.tracked=all", "--report", str(report)]) == 3
    _, warnings = parse(report.read_text())
    assert warnings[0].rule == "RACE_EMPTY_LOCKSET"


def test_check_seeded_flags_reach_the_report(build, tmp_path):
    img = build(CLEAN)
    report = tmp_path / "r.tsv"
    code = main(
        ["check", str(img), "--sched", "seeded-random", "--seed", "11",
         "--quantum", "3", "--report", str(report)]
    )
    assert code == 0
    meta, _ = parse(report.read_text())
    assert meta["policy"].kind == "seeded-random"
    assert meta["policy"].seed == 11
    assert meta["policy"].quantum == 3


def test_check_shadow_trace_prints_cell_updates(build, capsys):
    img = build(NULL_BUG)
    assert main(["check", str(img), "--trace", "shadow",
                 "--report", "/dev/null"]) == 3
    out = capsys.readouterr().out
    assert "cell r0@t0 -> object 1 tags {ALLOC_UNCHECKED}" in out


# -- corpus ----------------------------------------------------------------


def test_corpus_shipped_passes(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 16
    assert "16 entries:" in out


def test_module_entry_point_runs_the_corpus_and_rejects_an_unknown_command(monkeypatch, capsys):
    """`python -m scvm`, run from the checkout's src: the corpus exits 0
    and prints the tally line last, and an unknown subcommand exits 2.
    cli.entry, called in process, gives the same codes and output."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def shell(*argv):
        return subprocess.run([sys.executable, "-m", "scvm", *argv],
                              env=env, capture_output=True, text=True, timeout=60)

    corpus, unknown = shell("corpus"), shell("frob")
    assert corpus.returncode == 0, corpus.stderr
    assert corpus.stdout.splitlines()[-1] == run_corpus().format_table().splitlines()[-1]
    assert unknown.returncode == 2 and "invalid choice: 'frob'" in unknown.stderr
    for argv, done in ((["corpus"], corpus), (["frob"], unknown)):
        monkeypatch.setattr(sys, "argv", ["scvm", *argv])
        with pytest.raises(SystemExit) as exit_:
            entry()
        assert (exit_.value.code, capsys.readouterr().out) == (done.returncode, done.stdout)


def test_corpus_explicit_directory(capsys):
    assert main(["corpus", str(shipped_dir())]) == 0


def test_corpus_failure_is_exit_1(tmp_path, capsys):
    (tmp_path / "t.s").write_text("site: HALT\n")
    (tmp_path / "t.manifest").write_text(
        "policy round-robin seed 0 quantum 1\nexpect FMT_TAINTED at site\n"
    )
    assert main(["corpus", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_corpus_malformed_manifest_is_exit_2(tmp_path, capsys):
    (tmp_path / "t.s").write_text("HALT\n")
    (tmp_path / "t.manifest").write_text("nonsense\n")
    assert main(["corpus", str(tmp_path)]) == 2
    assert "scvm corpus:" in capsys.readouterr().err


def test_corpus_bad_assembly_is_exit_2(tmp_path, capsys):
    (tmp_path / "t.s").write_text("WAT r9\n")
    (tmp_path / "t.manifest").write_text("policy round-robin seed 0 quantum 1\n")
    assert main(["corpus", str(tmp_path)]) == 2


@pytest.mark.parametrize("name, latin1", [("t.s", LATIN1_SOURCE), ("t.manifest", LATIN1_MANIFEST)])
def test_corpus_non_utf8_entry_is_exit_2(tmp_path, capsys, name, latin1):
    (tmp_path / "t.s").write_text("HALT\n")
    (tmp_path / "t.manifest").write_text("policy round-robin seed 0 quantum 1\n")
    (tmp_path / name).write_bytes(latin1)
    assert main(["corpus", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"scvm corpus: {tmp_path / name}: "
                   "not UTF-8 (invalid continuation byte at byte 5)\n")


@pytest.mark.parametrize("suffix, missing", [(".s", ".manifest"), (".manifest", ".s source")])
@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_corpus_names_the_first_orphan_by_name(tmp_path, suffix, missing, hash_seed):
    """Whatever the string hash seed, the error names the orphan that
    sorts first."""
    for name in ("alpha", "beta", "gamma", "delta"):
        (tmp_path / f"{name}{suffix}").write_text("HALT\n")
    env = {**os.environ, "PYTHONPATH": str(Path(scvm.__file__).parents[1]),
           "PYTHONHASHSEED": hash_seed}
    done = subprocess.run([sys.executable, "-m", "scvm", "corpus", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert done.stderr == f"scvm corpus: {tmp_path / ('alpha' + suffix)}: no matching {missing}\n"


def test_corpus_empty_directory_passes_vacuously(tmp_path, capsys):
    assert main(["corpus", str(tmp_path)]) == 0
    assert "0 entries" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["no_such_dir", "entry.s"])
def test_corpus_path_that_is_not_a_directory_is_exit_2(tmp_path, capsys, name):
    (tmp_path / "entry.s").write_text("HALT\n")
    path = tmp_path / name
    assert main(["corpus", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"scvm corpus: {path}: not a directory\n"


# -- traces ----------------------------------------------------------------


def _trace_peak(img, steps, traces=("events",)):
    """tracemalloc peak, in bytes, of one `check --trace <trace>...` call
    whose stdout goes to a sink that keeps nothing."""
    argv = ["check", str(img), "--steps", str(steps)]
    for trace in traces:
        argv += ["--trace", trace]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(argv) == 4
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_event_trace_memory_does_not_grow_with_steps(build):
    # Events stream to stdout as they are emitted; none is kept.
    img = build(SPIN)
    started = time.monotonic()
    short = _trace_peak(img, 200)
    long = _trace_peak(img, 2000)
    assert long - short < 256 * 1024
    assert time.monotonic() - started < 2


@pytest.mark.parametrize("traces", [("shadow",), ("events", "shadow")],
                         ids=["shadow", "events-shadow"])
def test_shadow_trace_memory_does_not_grow_with_steps(build, traces):
    # Shadow lines stream to stdout as they are made, alone or between
    # the event lines; at most one block of lines is held.
    img = build(HEAP_LOOP)
    started = time.monotonic()
    short = _trace_peak(img, 200, traces)
    long = _trace_peak(img, 4000, traces)
    assert long - short < 256 * 1024
    assert time.monotonic() - started < 2


@pytest.fixture
def spills(monkeypatch):
    """The temp files `scvm check` makes, in order."""
    made = []
    temporary_file = tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        made.append(temporary_file(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    return made


def test_the_combined_trace_makes_no_temp_file(build, tmp_path, spills):
    img = build(HEAP_LOOP)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(["check", str(img), "--trace", "events", "--trace", "shadow",
                     "--steps", "4000", "--report", str(tmp_path / "r.tsv")]) == 4
    assert spills == []


class CountingStdout:
    """Stand-in for stdout that keeps every write call's string."""

    def __init__(self):
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return len(s)

    def flush(self):
        pass

    def lines(self):
        return "".join(self.writes).splitlines()


def _cli(argv):
    """(exit status, CountingStdout) of one in-process call."""
    out = CountingStdout()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out


def _recorded(img, command, steps):
    """format_event lines and shadow lines of one recorded run of the
    image, the way `scvm <command>` runs it."""
    events, shadow = [], []
    image = read_image(img)
    if command == "run":
        machine = load(image)
        machine.add_observer(events.append)
        machine.run(steps)
    else:
        analyze(image, RunConfig(step_limit=steps, observers=(events.append,),
                                 shadow_trace=shadow.append))
    return [format_event(e) for e in events], shadow


@pytest.mark.parametrize("command", ["run", "check"])
def test_event_trace_is_the_recorded_events_in_blocks(build, tmp_path, command):
    img = build(HEAP_LOOP)
    argv = [command, str(img), "--trace", "events", "--steps", "300"]
    if command == "check":
        argv += ["--report", str(tmp_path / "r.tsv")]
    code, out = _cli(argv)
    assert code == 4
    want, _ = _recorded(img, command, 300)
    assert len(want) > 600
    assert out.lines() == want
    assert all(w.endswith("\n") for w in out.writes)
    assert len(out.writes) * 8 <= len(want)


def _is_shadow(line: str) -> bool:
    return line.startswith(("cell ", "object "))


@pytest.mark.parametrize("traces", [["shadow"], ["events", "shadow"]])
def test_each_shadow_line_is_one_write(build, tmp_path, traces):
    img = build(HEAP_LOOP)
    argv = ["check", str(img), "--steps", "700", "--report", str(tmp_path / "r.tsv")]
    for trace in traces:
        argv += ["--trace", trace]
    code, out = _cli(argv)
    assert code == 4
    _, want = _recorded(img, "check", 700)
    assert len(want) > 2 * _BLOCK_LINES
    if traces == ["shadow"]:
        shadow_writes = [w for w in out.writes if not w.split("\t")[0].isdigit()]
        assert shadow_writes == [line + "\n" for line in want]
        return
    # A shadow line only ever heads a write, so a count of the writes that
    # start with one counts the shadow lines.
    writes = [w.splitlines() for w in out.writes]
    assert [lines[0] for lines in writes if _is_shadow(lines[0])] == want
    assert not any(_is_shadow(line) for lines in writes for line in lines[1:])
    assert max(map(len, writes)) <= _BLOCK_LINES == 32


def _interleaved(img, steps):
    """One recorded analysis of the image, as groups of lines in the
    order they were made: each event's line, then the shadow lines
    emitted while it was processed; and the report."""
    shadow, seen = [], []
    config = RunConfig(step_limit=steps, shadow_trace=shadow.append,
                       observers=(lambda e: seen.append((format_event(e), len(shadow))),))
    result = analyze(read_image(img), config)
    assert seen[0][1] == 0  # no shadow line comes before the first event
    ends = [n for _, n in seen[1:]] + [len(shadow)]
    groups = [[line, *shadow[start:end]] for (line, start), end in zip(seen, ends)]
    # Checked apart from the wiring: a register's cell is written in the
    # group of the reg-write to that register.
    for event, *lines in groups:
        _, tid, _, kind, fields = event.split("\t")
        for line in lines:
            if line.startswith("cell r"):
                assert kind == "reg-write", (event, line)
                assert line.split()[1] == f"{fields.split()[0][len('reg='):]}@t{tid}"
    return groups, serialize(result.warnings, result.image_sha256, config.policy)


@pytest.mark.parametrize("source, steps, code", [
    (NULL_BUG, 100_000, 3),
    (FAULT_LOOP, 100_000, 4),
    (HEAP_LOOP, 700, 4),
], ids=["halt", "fault", "timeout"])
def test_combined_trace_prints_each_event_then_its_shadow_lines(build, source, steps, code):
    img = build(source)
    got, out = _cli(["check", str(img), "--trace", "events", "--trace", "shadow",
                     "--steps", str(steps)])
    assert got == code
    groups, report = _interleaved(img, steps)
    assert sum(len(g) > 1 for g in groups[:-1]) > 1  # shadow lines fall between the events
    assert "".join(out.writes) == "".join(line + "\n" for g in groups for line in g) + report


def _shadow_raises_from(monkeypatch, step):
    """Make the shadow observer raise on every event from `step` on."""
    on_event = ShadowState.on_event

    def failing_on_event(shadow, e):
        if e.step >= step:
            raise RuntimeError("observer failed")
        on_event(shadow, e)

    monkeypatch.setattr(ShadowState, "on_event", failing_on_event)


def test_event_lines_emitted_before_an_observer_raises_reach_stdout(build, monkeypatch):
    img = build(HEAP_LOOP)
    want, _ = _recorded(img, "check", 300)
    _shadow_raises_from(monkeypatch, 50)
    out = CountingStdout()
    with contextlib.redirect_stdout(out), pytest.raises(RuntimeError):
        main(["check", str(img), "--trace", "events", "--steps", "300"])
    lines = out.lines()
    early = [line for line in want if int(line.split("\t")[0]) < 50]
    assert lines[:len(early)] == early  # the part-filled block is flushed too
    assert lines == want[:len(lines)]


def test_a_crash_keeps_the_shadow_lines_emitted_before_it(build, monkeypatch):
    img = build(HEAP_LOOP)
    groups, _ = _interleaved(img, 300)
    _shadow_raises_from(monkeypatch, 50)
    out = CountingStdout()
    with contextlib.redirect_stdout(out), pytest.raises(RuntimeError):
        main(["check", str(img), "--trace", "events", "--trace", "shadow", "--steps", "300"])
    early = [g for g in groups if int(g[0].split("\t")[0]) < 50]
    assert sum(len(g) - 1 for g in early) > 50
    # The event the shadow failed on is printed too: its observer runs first.
    assert out.lines() == [line for g in early for line in g] + [groups[len(early)][0]]
