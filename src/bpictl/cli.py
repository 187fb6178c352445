"""Command line interface.

Exit codes: 0 affirmative, 1 negative, 2 usage or parse error, 3 aborted
(search budget or enumeration cap hit), 4 internal error (an unexpected
exception, reported on stderr).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import checker, frames, oracle, satbound, textio
from .model import ModelError, UndeclaredSymbolError
from .textio import ParseError

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_ABORTED = 3
EXIT_INTERNAL = 4


def _read_text(path) -> str:
    """An input file's text, without the one byte-order mark it may start
    with; one that is not UTF-8 is unreadable input."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text: {exc}") from None


def _read_formula(arg: str):
    """Treat the argument as a file when such a file exists, otherwise as
    inline formula text. An argument the file system cannot even look up
    (a name too long for it, say) is not a file."""
    path = Path(arg)
    try:
        is_file = path.is_file()
    except OSError:
        is_file = False
    if is_file:
        return textio.parse_formula(_read_text(path))
    return textio.parse_formula(arg)


def _read_model(path: str):
    return textio.parse_model(_read_text(path))


def _cmd_check(args) -> int:
    m = _read_model(args.model)
    f = _read_formula(args.formula)
    evaluate = oracle.denote if args.oracle else checker.eval_formula
    sat = evaluate(m, f)
    if args.valid:
        ok = sat == m.universe
        print("valid" if ok else "not valid")
        if not ok:
            print("counterexample:", m.states[min(m.universe - sat)])
        return EXIT_YES if ok else EXIT_NO
    names = m.state_names(sat)
    print("states:", " ".join(names) if names else "(none)")
    return EXIT_YES if sat else EXIT_NO


def _cmd_validate(args) -> int:
    m = _read_model(args.model)
    report = frames.validate_model(m)
    for v in report.violations:
        print(v)
    for name, reason in report.skipped:
        print(f"{name} skipped: {reason}")
    if report.passed:
        print("model satisfies all frame conditions")
        return EXIT_YES
    if report.violations:
        return EXIT_NO
    return EXIT_ABORTED


def _cmd_axioms(args) -> int:
    from . import soundness  # imported on use: no other command runs the suite

    m = _read_model(args.model)
    try:
        results = soundness.run_suite([m], seed=args.seed,
                                      bindings_per_schema=args.pool)
    except soundness.InvalidModelError as exc:
        print("model is not frame-valid; refusing to certify axioms",
              file=sys.stderr)
        for v in exc.report.violations:
            print(v, file=sys.stderr)
        return EXIT_USAGE
    print(soundness.render_suite_report(results))
    return EXIT_YES if all(r.ok for r in results) else EXIT_NO


def _cmd_sat(args) -> int:
    f = _read_formula(args.formula)
    result = satbound.sat_search(f, max_states=args.max_states,
                                 budget=args.budget)
    bound = result.theoretical_bound
    size = bound.bit_length() - 1  # the bound is 2 ** |closure|
    if size > 64:  # too many digits to be worth printing
        bound = f"2^{size}"
    print(f"closure size {size}, theoretical model bound {bound}")
    if result.verdict == "sat":
        print(f"satisfiable, witness state {result.witness} "
              f"({result.explored} candidates)")
        print(textio.render_model(result.model), end="")
        return EXIT_YES
    if result.verdict == "unsat-up-to":
        print(f"no model with at most {result.max_states} states "
              f"({result.explored} candidates)")
        return EXIT_NO
    print(f"aborted: budget of {args.budget} candidates exhausted")
    return EXIT_ABORTED


def _cmd_fmt(args) -> int:
    text = _read_text(args.path)
    if args.kind == "model" or (args.kind == "auto" and _looks_like_model(text)):
        print(textio.render_model(textio.parse_model(text)), end="")
    else:
        print(textio.render_formula(textio.parse_formula(text)))
    return EXIT_YES


def _looks_like_model(text: str) -> bool:
    """Whether the first non-comment line is a model's 'states' line: the
    word 'states' and one or more identifiers. A formula can start with an
    atom named 'states', but never continues it with a bare identifier."""
    for line in textio.split_lines(text):
        words = line.split("#", 1)[0].split()
        if words:
            return words[0] == "states" and len(words) > 1 and all(
                w.isascii() and w.isidentifier() for w in words[1:])
    return False


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "integer"  # named in argparse's "invalid integer value" message
    return parse


_COMMANDS = {  # name -> its line in the top-level help
    "check": "evaluate a formula on a model",
    "validate": "check frame conditions of a model",
    "axioms": "run the axiom soundness suite",
    "sat": "bounded satisfiability search",
    "fmt": "reprint a formula or model canonically",
}


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    """Give p the arguments of one subcommand."""
    if command == "check":
        p.add_argument("model", help="model file (.bpm)")
        p.add_argument("formula", help="formula file (.bpi) or inline text")
        p.add_argument("--valid", action="store_true",
                       help="ask for validity instead of the satisfying states")
        p.add_argument("--oracle", action="store_true",
                       help="use the reference evaluator instead of the labeler")
    elif command == "validate":
        p.add_argument("model")
    elif command == "axioms":
        p.add_argument("model")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--pool", type=_int_at_least(1), default=50,
                       help="instantiations per schema")
    elif command == "sat":
        p.add_argument("formula")
        p.add_argument("--max-states", type=_int_at_least(1),
                       default=satbound.DEFAULT_MAX_STATES)
        p.add_argument("--budget", type=_int_at_least(0),
                       default=satbound.DEFAULT_BUDGET)
    elif command == "fmt":
        p.add_argument("path")
        p.add_argument("--kind", choices=["auto", "formula", "model"],
                       default="auto")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for every command. Each subcommand is run by this
    module's `_cmd_<command>`, looked up when it runs."""
    parser = argparse.ArgumentParser(
        prog="bpictl",
        description="Model checker and semantics workbench for a "
                    "belief-preference-intention extension of CTL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=text), command)
    return parser


# None -> the full parser, a command -> its own; each built on first use
# and reused by every later call in the process
_parsers = {}


def _parse(argv: list) -> argparse.Namespace:
    """Parse argv with the parser of the command it starts with, building
    no other. Anything else, and a call that leaves arguments over, goes
    to the full parser, so help, usage errors and exits are the full
    parser's, byte for byte."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command is not None:
        parser = _parsers.get(command)
        if parser is None:
            # the prog a subparser of the full parser gets
            parser = argparse.ArgumentParser(prog=f"bpictl {command}")
            _add_arguments(parser, command)
            _parsers[command] = parser
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = command
            return args
    if None not in _parsers:
        _parsers[None] = build_parser()
    return _parsers[None].parse_args(argv)


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_YES if exc.code == 0 else EXIT_USAGE
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UndeclaredSymbolError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug: keep it apart from the verdict codes
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())
