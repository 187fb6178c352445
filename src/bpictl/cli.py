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
        return textio.parse_formula(path.read_text())
    return textio.parse_formula(arg)


def _read_model(path: str):
    return textio.parse_model(Path(path).read_text())


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
    text = Path(args.path).read_text()
    if args.kind == "model" or (args.kind == "auto" and _looks_like_model(text)):
        print(textio.render_model(textio.parse_model(text)), end="")
    else:
        print(textio.render_formula(textio.parse_formula(text)))
    return EXIT_YES


def _looks_like_model(text: str) -> bool:
    """Whether the first non-comment line is a model's 'states' line: the
    word 'states' and one or more identifiers. A formula can start with an
    atom named 'states', but never continues it with a bare identifier."""
    for line in text.splitlines():
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpictl",
        description="Model checker and semantics workbench for a "
                    "belief-preference-intention extension of CTL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula on a model")
    p.add_argument("model", help="model file (.bpm)")
    p.add_argument("formula", help="formula file (.bpi) or inline text")
    p.add_argument("--valid", action="store_true",
                   help="ask for validity instead of the satisfying states")
    p.add_argument("--oracle", action="store_true",
                   help="use the reference evaluator instead of the labeler")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("validate", help="check frame conditions of a model")
    p.add_argument("model")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("axioms", help="run the axiom soundness suite")
    p.add_argument("model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pool", type=_int_at_least(1), default=50,
                   help="instantiations per schema")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("sat", help="bounded satisfiability search")
    p.add_argument("formula")
    p.add_argument("--max-states", type=_int_at_least(1),
                   default=satbound.DEFAULT_MAX_STATES)
    p.add_argument("--budget", type=_int_at_least(0),
                   default=satbound.DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("fmt", help="reprint a formula or model canonically")
    p.add_argument("path")
    p.add_argument("--kind", choices=["auto", "formula", "model"],
                   default="auto")
    p.set_defaults(func=_cmd_fmt)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_YES if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
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
