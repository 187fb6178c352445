import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bpictl import cli
from bpictl.cli import run
from bpictl.textio import render_model

from conftest import example_model


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "m.bpm"
    path.write_text(render_model(example_model()))
    return str(path)


def test_check_lists_states(model_file, capsys):
    assert run(["check", model_file, "EF p"]) == 0
    assert capsys.readouterr().out.strip() == "states: s0"


def test_check_negative_exit(model_file, capsys):
    assert run(["check", model_file, "p & !p"]) == 1
    assert "(none)" in capsys.readouterr().out


def test_check_valid_flag(model_file, capsys):
    assert run(["check", model_file, "--valid", "P{a} true"]) == 0
    assert run(["check", model_file, "--valid", "p"]) == 1
    out = capsys.readouterr().out
    assert "counterexample: s1" in out


def test_check_formula_from_file(model_file, tmp_path, capsys):
    f = tmp_path / "f.bpi"
    f.write_text("EF p\n")
    assert run(["check", model_file, str(f)]) == 0


def test_check_oracle_agrees(model_file, capsys):
    for formula in ["EF p", "B{a} p", "E[true U !p]", "EG true"]:
        assert run(["check", model_file, formula]) == \
            run(["check", model_file, "--oracle", formula])
        plain, oracle = capsys.readouterr().out.strip().splitlines()
        assert plain == oracle


def test_validate_ok(model_file, capsys):
    assert run(["validate", model_file]) == 0
    assert "satisfies all frame conditions" in capsys.readouterr().out


def test_validate_bad_model(tmp_path, capsys):
    bad = tmp_path / "bad.bpm"
    bad.write_text(
        "states s0 s1\natoms p\nagents a\n"
        "label s0 = [p]\nlabel s1 = []\n"
        "RB a s0 -> s1\nRB a s1 -> s0\n"
    )
    assert run(["validate", str(bad)]) == 1
    assert "B3" in capsys.readouterr().out


def test_axioms_on_valid_model(model_file, capsys):
    assert run(["axioms", model_file, "--pool", "3"]) == 0
    out = capsys.readouterr().out
    assert "failures=0" in out
    assert "EG1 m0 0 VALID" in out


def test_axioms_refuses_invalid_model(tmp_path, capsys):
    bad = tmp_path / "bad.bpm"
    bad.write_text(
        "states s0\natoms p\nagents a\nlabel s0 = [p]\n"
    )  # empty belief relation is not serial
    assert run(["axioms", str(bad)]) == 2
    assert "not frame-valid" in capsys.readouterr().err


def test_axioms_prints_the_violations_it_refuses_on(tmp_path, capsys):
    bad = tmp_path / "bad.bpm"
    bad.write_text(
        "states s0 s1\natoms p\nagents a\n"
        "label s0 = [p]\nlabel s1 = []\n"
        "RB a s0 -> s1\nRB a s1 -> s0\n"
    )
    assert run(["validate", str(bad)]) == 1
    violations = capsys.readouterr().out
    assert run(["axioms", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("model is not frame-valid; refusing to certify axioms\n"
                            + violations)


def test_axioms_validates_the_model_once(model_file, monkeypatch, capsys):
    from bpictl import frames, soundness

    calls = []

    def counted(validate):
        def wrapper(m):
            calls.append(m)
            return validate(m)
        return wrapper

    monkeypatch.setattr(frames, "validate_model", counted(frames.validate_model))
    monkeypatch.setattr(soundness, "validate_model",
                        counted(soundness.validate_model))
    assert run(["axioms", model_file, "--pool", "1"]) == 0
    assert len(calls) == 1


def test_sat_prints_closure_size_and_bound(capsys):
    assert run(["sat", "p & !p", "--max-states", "3"]) == 1
    assert capsys.readouterr().out == (
        "closure size 5, theoretical model bound 32\n"
        "no model with at most 3 states (82 candidates)\n"
    )
    assert run(["sat", "!" * 70 + "p", "--max-states", "1"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "closure size 72, theoretical model bound 2^72"


def test_sat_positive(capsys):
    assert run(["sat", "B{a} p & !p", "--max-states", "2"]) == 0
    out = capsys.readouterr().out
    assert "satisfiable" in out
    assert "states s0 s1" in out


def test_sat_negative(capsys):
    assert run(["sat", "p & !p", "--max-states", "2"]) == 1
    assert "no model" in capsys.readouterr().out


def test_sat_abort(capsys):
    assert run(["sat", "p & !p", "--max-states", "3", "--budget", "5"]) == 3
    assert "aborted" in capsys.readouterr().out


# The whole report of searches that print a witness model, pinned byte for
# byte: two belief clusters with preferences and T at 3 states, one cluster
# with preferences at 3 states, two agents, two temporal searches, and a
# 3-state belief witness.
@pytest.mark.parametrize("formula, states, report", [
    pytest.param("P{a} q & !B{a} p & !B{a} !p & EX(B{a} !q & P{a} p)", 3, (
        "closure size 28, theoretical model bound 268435456\n"
        "satisfiable, witness state s0 (5006 candidates)\n"
        "states s0 s1 s2\n"
        "atoms p q\n"
        "agents a\n"
        "label s0 = []\n"
        "label s1 = [p]\n"
        "label s2 = [p q]\n"
        "RX s0 -> s1\n"
        "RB a s0 -> s0\n"
        "RB a s0 -> s2\n"
        "RB a s1 -> s1\n"
        "RB a s2 -> s0\n"
        "RB a s2 -> s2\n"
        "RP a s0 = { s1 s2 } { s2 }\n"
        "RP a s1 = { s0 s1 } { s0 s1 s2 } { s1 } { s1 s2 }\n"
        "RP a s2 = { s1 s2 } { s2 }\n"
    ), id="two-clusters-pref-3"),
    pytest.param("!p & B{a} p & P{a} q & !P{a} p", 3, (
        "closure size 18, theoretical model bound 262144\n"
        "satisfiable, witness state s0 (927 candidates)\n"
        "states s0 s1 s2\n"
        "atoms p q\n"
        "agents a\n"
        "label s0 = []\n"
        "label s1 = [p]\n"
        "label s2 = [p q]\n"
        "RB a s0 -> s1\n"
        "RB a s0 -> s2\n"
        "RB a s1 -> s1\n"
        "RB a s1 -> s2\n"
        "RB a s2 -> s1\n"
        "RB a s2 -> s2\n"
        "RP a s0 = { s0 s2 } { s2 }\n"
        "RP a s1 = { s0 s2 } { s2 }\n"
        "RP a s2 = { s0 s2 } { s2 }\n"
    ), id="one-cluster-pref-3"),
    pytest.param("B{a} p & !B{b} p & P{b} q & !q", 2, (
        "closure size 18, theoretical model bound 262144\n"
        "satisfiable, witness state s0 (699 candidates)\n"
        "states s0 s1\n"
        "atoms p q\n"
        "agents a b\n"
        "label s0 = []\n"
        "label s1 = [p q]\n"
        "RB a s0 -> s1\n"
        "RB a s1 -> s1\n"
        "RB b s0 -> s0\n"
        "RB b s0 -> s1\n"
        "RB b s1 -> s0\n"
        "RB b s1 -> s1\n"
        "RP b s0 = { s1 }\n"
        "RP b s1 = { s1 }\n"
    ), id="two-agents-2"),
    pytest.param("EX p & EX !p & B{a} EF q", 3, (
        "closure size 17, theoretical model bound 131072\n"
        "satisfiable, witness state s0 (108 candidates)\n"
        "states s0 s1\n"
        "atoms p q\n"
        "agents a\n"
        "label s0 = []\n"
        "label s1 = [p q]\n"
        "RX s0 -> s0\n"
        "RX s0 -> s1\n"
        "RB a s0 -> s0\n"
        "RB a s1 -> s1\n"
    ), id="temporal-3"),
    pytest.param("!p & !q & B{a}(p | q) & !B{a} p & !B{a} q", 3, (
        "closure size 24, theoretical model bound 16777216\n"
        "satisfiable, witness state s0 (145 candidates)\n"
        "states s0 s1 s2\n"
        "atoms p q\n"
        "agents a\n"
        "label s0 = []\n"
        "label s1 = [p]\n"
        "label s2 = [q]\n"
        "RB a s0 -> s1\n"
        "RB a s0 -> s2\n"
        "RB a s1 -> s1\n"
        "RB a s1 -> s2\n"
        "RB a s2 -> s1\n"
        "RB a s2 -> s2\n"
    ), id="belief-3"),
    pytest.param("P{a} q & EX P{a} !q", 3, (
        "closure size 11, theoretical model bound 2048\n"
        "satisfiable, witness state s1 (140 candidates)\n"
        "states s0 s1\n"
        "atoms q\n"
        "agents a\n"
        "label s0 = []\n"
        "label s1 = [q]\n"
        "RX s1 -> s0\n"
        "RB a s0 -> s0\n"
        "RB a s1 -> s1\n"
        "RP a s0 = { s0 } { s0 s1 }\n"
        "RP a s1 = { s0 s1 } { s1 }\n"
    ), id="temporal-pref-3"),
])
def test_sat_witness_reports_are_pinned(formula, states, report, capsys):
    assert run(["sat", formula, "--max-states", str(states)]) == 0
    assert capsys.readouterr().out == report


def test_fmt_formula(tmp_path, capsys):
    f = tmp_path / "f.bpi"
    f.write_text("( p &   q )  # noise\n")
    assert run(["fmt", str(f)]) == 0
    assert capsys.readouterr().out == "p & q\n"


def test_fmt_model_idempotent(tmp_path, capsys):
    path = tmp_path / "m.bpm"
    path.write_text(
        "states s1 s0\natoms p\nagents a\n"
        "label s1 = []\nlabel s0 = [p]\n"
        "RX s1 -> s0\nRX s0 -> s0\n"
    )
    assert run(["fmt", str(path)]) == 0
    once = capsys.readouterr().out
    path.write_text(once)
    assert run(["fmt", str(path)]) == 0
    assert capsys.readouterr().out == once


_TWO_STATES = "states s0 s1\natoms\nagents a\nlabel s0 = []\nlabel s1 = []\n"


@pytest.mark.parametrize("text, out", [
    ("statesful & p\n", "statesful & p\n"),
    ("# an atom named states\nstates | p\n", "states | p\n"),
    ("states\n", "states\n"),
    (_TWO_STATES, _TWO_STATES),
])
def test_fmt_tells_formulas_from_models(tmp_path, capsys, text, out):
    path = tmp_path / "input"
    path.write_text(text)
    assert run(["fmt", str(path)]) == 0
    assert capsys.readouterr().out == out


def test_parse_error_exit(model_file, capsys):
    assert run(["check", model_file, "p &"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exit(capsys):
    assert run(["check", "/nonexistent.bpm", "p"]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "BAD", "p"],
    ["check", "MODEL", "BAD"],
    ["validate", "BAD"],
    ["axioms", "BAD"],
    ["sat", "BAD"],
    ["fmt", "BAD"],
])
def test_non_utf8_file_is_unreadable_input(model_file, tmp_path, argv, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"states s0 \xff\n")
    argv = [{"BAD": str(bad), "MODEL": model_file}.get(a, a) for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check", "MODEL", "p"],
    ["check", "PLAIN_MODEL", "FORMULA"],
    ["validate", "MODEL"],
    ["axioms", "MODEL", "--pool", "1"],
    ["sat", "FORMULA", "--max-states", "1"],
    ["fmt", "MODEL"],
])
def test_byte_order_mark_is_skipped(model_file, tmp_path, argv, capsys):
    text = {"MODEL": Path(model_file).read_text(), "FORMULA": "EF p\n"}
    plain = {"PLAIN_MODEL": model_file}
    marked = {"PLAIN_MODEL": model_file}
    for name, body in text.items():
        (tmp_path / name).write_text(body, encoding="utf-8")
        (tmp_path / f"{name}.bom").write_text("\ufeff" + body, encoding="utf-8")
        plain[name], marked[name] = str(tmp_path / name), str(tmp_path / f"{name}.bom")
    assert run([plain.get(a, a) for a in argv]) == 0
    expected = capsys.readouterr()
    assert run([marked.get(a, a) for a in argv]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("char", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_model_comment_keeps_other_line_breaks(tmp_path, char, capsys):
    # only \n, \r\n and \r end a model line, as in a formula file
    canonical = render_model(example_model())
    path = tmp_path / "m.bpm"
    path.write_text(f"# page break{char} next page\n{canonical}", encoding="utf-8")
    assert run(["check", str(path), "p"]) == 0
    assert run(["fmt", str(path)]) == 0
    assert capsys.readouterr() == ("states: s0\n" + canonical, "")


def test_usage_error_exit(capsys):
    assert run(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


@pytest.mark.parametrize("argv", [
    ["axioms", "MODEL", "--pool", "0"],
    ["axioms", "MODEL", "--pool", "-3"],
    ["sat", "p", "--max-states", "0"],
    ["sat", "p", "--max-states", "-1"],
    ["sat", "p", "--budget", "-1"],
])
def test_out_of_range_arguments_are_usage_errors(model_file, argv, capsys):
    argv = [model_file if a == "MODEL" else a for a in argv]
    assert run(argv) == 2
    assert "must be at least" in capsys.readouterr().err


def test_zero_budget_aborts(capsys):
    assert run(["sat", "p", "--budget", "0"]) == 3


@pytest.fixture(scope="module")
def deep_formula_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("deep") / "deep.bpi"
    path.write_text("!" * 100_000 + "p\n")
    return str(path)


@pytest.mark.parametrize("argv, codes", [
    (["check", "MODEL", "FORMULA"], (0, 1)),
    (["check", "--valid", "MODEL", "FORMULA"], (0, 1)),
    (["check", "--oracle", "MODEL", "FORMULA"], (0, 1)),
    (["fmt", "FORMULA"], (0,)),
    (["sat", "FORMULA", "--max-states", "1", "--budget", "1"], (0, 1, 3)),
])
def test_deep_formula_file(model_file, deep_formula_file, argv, codes, capsys):
    names = {"MODEL": model_file, "FORMULA": deep_formula_file}
    assert run([names.get(a, a) for a in argv]) in codes
    out, err = capsys.readouterr()
    assert err == ""
    if argv[0] == "fmt":
        assert out == "!" * 100_000 + "p\n"


@pytest.mark.parametrize("command", ["check", "sat"])
def test_long_inline_formula_is_not_a_file_name(model_file, command, capsys):
    formula = " & ".join(["p"] * 200)  # longer than a file name may be
    assert len(formula.encode()) > 255
    argv = ["check", model_file, formula] if command == "check" else ["sat", formula]
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("states: s0\n" if command == "check" else "closure size")


def test_check_runs_on_a_hundred_thousand_state_model(tmp_path, capsys):
    # 10^5 states, 3 * 10^5 temporal edges: parsing and labeling are linear
    n = 100_000
    rng = random.Random(17)
    lines = [" ".join(["states", *(f"s{i}" for i in range(n))]), "atoms p q", "agents a"]
    lines += [f"label s{i} = [{'p' if rng.random() < 0.5 else ''}]" for i in range(n)]
    lines += [f"RX s{x} -> s{y}" for x in range(n) for y in rng.sample(range(n), 3)]
    lines += [f"RB a s{x} -> s{x}" for x in range(n)]
    path = tmp_path / "big.bpm"
    path.write_text("\n".join(lines) + "\n")
    # no state is labeled q and belief is reflexive, so EF B{a} q holds nowhere
    assert run(["check", str(path), "EG (p | q) & E[p U AX q] & EF B{a} q"]) == 1
    assert capsys.readouterr() == ("states: (none)\n", "")


def test_unexpected_exception_exits_4(model_file, monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_validate", boom)
    assert run(["validate", model_file]) == cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_patched_command_takes_effect_after_the_parser_is_built(
        model_file, monkeypatch, capsys):
    assert run(["validate", model_file]) == 0
    parsers = dict(cli._parsers)
    monkeypatch.setattr(cli, "_cmd_validate", lambda args: 7)
    assert run(["validate", model_file]) == 7
    assert cli._parsers == parsers  # the same parser objects, reused


def test_no_option_leaks_into_the_next_call(model_file, capsys):
    assert run(["check", model_file, "p", "--valid"]) == 1
    assert capsys.readouterr().out == "not valid\ncounterexample: s1\n"
    assert run(["check", model_file, "p"]) == 0
    assert capsys.readouterr().out == "states: s0\n"


def test_a_call_builds_only_the_parser_it_needs(model_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parsers", {})
    assert run(["validate", model_file]) == 0
    assert list(cli._parsers) == ["validate"]
    # arguments left over: the full parser reports them
    assert run(["validate", model_file, "extra"]) == 2
    assert list(cli._parsers) == ["validate", None]


@pytest.mark.parametrize("argv", [
    ["check", "m.bpm", "EF p", "--valid"],
    ["check", "--oracle", "m.bpm", "p"],
    ["axioms", "m.bpm", "--seed", "3", "--pool=7"],
    ["sat", "p", "--max-states", "2", "--bud", "5"],
    ["sat", "--", "-p"],
    ["fmt", "x.bpi", "--kind", "model"],
])
def test_a_commands_parser_parses_as_the_full_one(argv):
    assert cli._parse(argv) == cli.build_parser().parse_args(argv)


def _streams(call):
    """(result, stdout, stderr) of call, with both streams redirected."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["--help"],
    [],
    ["frobnicate"],
    ["sat", "--help"],
    ["validate", "-h"],
    ["sat"],
    ["sat", "p", "--budget", "-1"],
    ["sat", "p", "extra"],
    ["check", "m.bpm", "p", "--bogus"],
    ["fmt", "x.bpi", "--kind", "neither"],
])
def test_reused_parser_writes_what_a_fresh_one_does(model_file, argv, capsys):
    assert run(["check", model_file, "p"]) == 0
    capsys.readouterr()
    code, fresh_out, fresh_err = _streams(
        lambda: cli.build_parser().parse_args(argv))
    for _ in range(2):  # the second call reuses what the first one built
        _, out, err = _streams(lambda: run(argv))
        assert (out, err) == (fresh_out, fresh_err)
    assert (out if code == 0 else err).startswith("usage: bpictl")
    assert capsys.readouterr() == ("", "")


def test_import_builds_no_parser():
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", "import bpictl.cli as c; print(c._parsers)"],
        capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "{}\n"
