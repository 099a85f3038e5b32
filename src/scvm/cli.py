"""Command-line front end.

    scvm asm <src> -o <img>          assemble to an image file
    scvm run <img> [flags]           bare run, no analysis
    scvm check <img> [flags]         run with shadow state + checkers
    scvm corpus [dir]                run every corpus entry, diff, tally

Exit statuses
    asm:    0 ok, 1 assembly error, 2 I/O failure or a non-UTF-8 source
    run:    0 clean halt, 2 bad config, 4 guest fault or timeout
    check:  0 no warnings, 2 bad config, 3 warnings written,
            4 guest fault or timeout (report still written)
    corpus: 0 all entries PASS, 1 some FAIL, 2 malformed or unreadable entry

--trace events and --trace shadow share one stream on stdout, in the
order the lines are made: each event's line, then the shadow lines its
processing emits.  Event lines go out in blocks of at most 32 lines,
one write per block; a shadow line starts a new write, so no write
holds two of them.  Memory stays bounded and the bytes are those of one
line per write; the last block goes out when the run ends, however it
ends.  --trace events reads machine.LINES, each event's line compiled
into its code word; a shadow line renders each tag set once.
"""

from __future__ import annotations

import argparse
import sys

from .asm import AsmError, ImageError, assemble, read_image, read_utf8, write_image
from .checkers import CHECKER_ORDER, OPTIONS
from .corpus import run_corpus
from .driver import RunConfig, analyze
from .machine import (
    DEFAULT_STEP_LIMIT,
    LINES,
    ROUND_ROBIN,
    SCHEDULER_KINDS,
    SchedulerPolicy,
    load,
)
from .report import ManifestError, serialize


class _ConfigError(Exception):
    pass


def _add_run_flags(p: argparse.ArgumentParser, traces):
    p.add_argument("image", help="image file produced by `scvm asm`")
    p.add_argument("--sched", default=ROUND_ROBIN, help=" or ".join(SCHEDULER_KINDS))
    p.add_argument("--seed", type=int, default=0, help="scheduler / input seed")
    p.add_argument("--quantum", type=int, default=1, help="instructions per scheduler slice")
    p.add_argument("--steps", type=int, default=DEFAULT_STEP_LIMIT, help="step limit")
    p.add_argument(
        "--trace",
        action="append",
        choices=traces,
        default=None,
        help="dump a trace to stdout (repeatable)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scvm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_asm = sub.add_parser("asm", help="assemble source to an image")
    p_asm.add_argument("source")
    p_asm.add_argument("-o", "--output", required=True)
    p_asm.set_defaults(handler=_cmd_asm)

    p_run = sub.add_parser("run", help="run an image without analysis")
    _add_run_flags(p_run, ["events"])
    p_run.set_defaults(handler=_cmd_run)

    p_check = sub.add_parser("check", help="run an image with checkers")
    _add_run_flags(p_check, ["events", "shadow"])
    p_check.add_argument(
        "--checkers",
        default=",".join(CHECKER_ORDER),
        help="comma-separated checker names; empty string disables all",
    )
    p_check.add_argument("--report", default=None, help="report path (default stdout)")
    p_check.add_argument(
        "--opt",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="checker option: " + ", ".join(f"{k}={'|'.join(t)}" for k, t in OPTIONS.items()),
    )
    p_check.set_defaults(handler=_cmd_check)

    p_corpus = sub.add_parser("corpus", help="assemble, check and diff corpus entries")
    p_corpus.add_argument(
        "directory", nargs="?", default=None, help="corpus directory (default: shipped)"
    )
    p_corpus.set_defaults(handler=_cmd_corpus)
    return parser


def _image_and_policy(args):
    """Shared by run/check: the image, after checking --steps, and the
    scheduler policy; anything malformed is a config error."""
    try:
        image = read_image(args.image)
    except (OSError, ImageError) as exc:
        raise _ConfigError(f"cannot load image {args.image}: {exc}") from None
    if args.steps < 1:
        raise _ConfigError("--steps must be >= 1")
    try:
        return image, SchedulerPolicy(kind=args.sched, quantum=args.quantum, seed=args.seed)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


def _cmd_asm(args) -> int:
    try:
        source = read_utf8(args.source)
    except OSError as exc:
        print(f"scvm asm: {exc}", file=sys.stderr)
        return 2
    try:
        image = assemble(source)
    except AsmError as exc:
        print(f"{args.source}: {exc}", file=sys.stderr)
        return 1
    try:
        write_image(image, args.output)
    except OSError as exc:
        print(f"scvm asm: {exc}", file=sys.stderr)
        return 2
    return 0


_BLOCK_LINES = 32  # lines per write to stdout: few writes, a few KB held


def _trace_out():
    """Observer for --trace events (a reader of LINES), and flush: it
    writes the lines held (at most _BLOCK_LINES) in one write, then holds
    its arguments.  It is the sink for --trace shadow, so a shadow line
    heads the next write, and the caller calls it bare when the run ends."""
    block = []

    def flush(*rest):
        if block:
            sys.stdout.write("\n".join(block) + "\n")  # looked up now: stdout may be redirected
        block[:] = rest

    def observe(line: str) -> None:
        block.append(line)
        if len(block) >= _BLOCK_LINES:
            flush()
    observe.kinds = (LINES,)
    return observe, flush


def _outcome_status(result) -> int:
    if result.outcome != "halt":
        print(f"scvm: {result.outcome}: {result.state.fault or 'step limit reached'}",
              file=sys.stderr)
        return 4
    return 0


def _cmd_run(args) -> int:
    """Bare run: no shadow state, no checkers, no Event (--trace events reads LINES)."""
    image, policy = _image_and_policy(args)
    machine = load(image, policy)
    observe, flush = _trace_out()
    if args.trace:
        machine.add_observer(observe)
    try:
        result = machine.run(args.steps)
    finally:
        flush()
    return _outcome_status(result)


def _cmd_check(args) -> int:
    names = tuple(n for n in args.checkers.split(",") if n)
    options = {}
    for pair in args.opt:
        key, sep, value = pair.partition("=")
        if not sep:
            raise _ConfigError(f"--opt expects KEY=VALUE, got {pair!r}")
        options[key] = value
    args_trace = tuple(args.trace or ())
    image, policy = _image_and_policy(args)
    observe, flush = _trace_out()
    try:
        config = RunConfig(
            checkers=names,
            policy=policy,
            step_limit=args.steps,
            checker_options=options,
            observers=(observe,) if "events" in args_trace else (),
            shadow_trace=flush if "shadow" in args_trace else None,
        )
        result = analyze(image, config)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None
    finally:
        flush()
    report = serialize(result.warnings, result.image_sha256, config.policy)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as exc:
            raise _ConfigError(f"cannot write report: {exc}") from None
    else:
        sys.stdout.write(report)
    status = _outcome_status(result)
    if status:
        return status
    return 3 if result.warnings else 0


def _cmd_corpus(args) -> int:
    try:
        result = run_corpus(args.directory)
    except (ManifestError, AsmError, OSError) as exc:
        print(f"scvm corpus: {exc}", file=sys.stderr)
        return 2
    print(result.format_table())
    return 0 if result.all_passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _ConfigError as exc:
        print(f"scvm {args.command}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
