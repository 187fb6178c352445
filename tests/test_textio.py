import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpictl import formula as F
from bpictl.model import ModelError, UndeclaredSymbolError
from bpictl.textio import (
    ParseError,
    parse_formula,
    parse_model,
    render_formula,
    render_model,
)

import textio_reference
from conftest import example_model, random_formula, random_model


def test_parse_atoms_and_constants():
    assert parse_formula("p") == F.Atom("p")
    assert parse_formula("true") == F.TRUE
    assert parse_formula("!p") == F.Not(F.Atom("p"))


def test_parse_modalities():
    assert parse_formula("B{a} p") == F.B("a", F.Atom("p"))
    assert parse_formula("D{bob} q") == F.D("bob", F.Atom("q"))
    assert parse_formula("EX EG p") == F.EX(F.EG(F.Atom("p")))
    assert parse_formula("E[p U q]") == F.EU(F.Atom("p"), F.Atom("q"))
    assert parse_formula("A[p U q]") == F.AU(F.Atom("p"), F.Atom("q"))


def test_bare_letters_are_atoms():
    # B, E, A without braces/brackets are ordinary atoms
    assert parse_formula("B") == F.Atom("B")
    assert parse_formula("E & A") == F.And(F.Atom("E"), F.Atom("A"))


def test_precedence():
    p, q, r = F.Atom("p"), F.Atom("q"), F.Atom("r")
    assert parse_formula("p & q | r") == F.Or(F.And(p, q), r)
    assert parse_formula("p | q -> r") == F.Imp(F.Or(p, q), r)
    assert parse_formula("p -> q -> r") == F.Imp(p, F.Imp(q, r))
    assert parse_formula("p <-> q <-> r") == F.Iff(F.Iff(p, q), r)
    assert parse_formula("!p & q") == F.And(F.Not(p), q)
    assert parse_formula("B{a} p & q") == F.And(F.B("a", p), q)


def test_comments_and_whitespace():
    assert parse_formula("p &  # comment\n q") == F.And(F.Atom("p"), F.Atom("q"))


@pytest.mark.parametrize("bad, line, col", [
    ("p &", 1, 4),
    ("(p", 1, 3),
    ("B{} p", 1, 3),
    ("E[p q]", 1, 5),
    ("p q", 1, 3),
    ("p @ q", 1, 3),
])
def test_parse_errors_carry_position(bad, line, col):
    with pytest.raises(ParseError) as exc:
        parse_formula(bad)
    assert exc.value.line == line
    assert exc.value.column == col


@pytest.mark.parametrize("bad, expected", [
    ("p &", "a formula"),
    ("(p", "')'"),
    ("B{} p", "an agent name"),
    ("E[p q]", "'U'"),
    ("E[p U q", "']'"),
    ("p q", "end of input"),
    ("p @ q", None),
])
def test_parse_errors_name_what_was_expected(bad, expected):
    with pytest.raises(ParseError) as exc:
        parse_formula(bad)
    assert exc.value.expected == expected


def test_reserved_words_not_atoms():
    # AX alone is an operator missing its argument, not an atom
    with pytest.raises(ParseError):
        parse_formula("AX")


def test_model_atoms_are_not_reserved_words():
    # no formula can name an atom called true: parse_formula reads the constant
    with pytest.raises(ModelError, match="atom name 'true' is a reserved word"):
        parse_model("states s0\natoms true\nagents a\nlabel s0 = [true]\n")


def test_formula_roundtrip_random():
    rng = random.Random(3)
    for _ in range(400):
        f = random_formula(rng, ("p", "q", "r"), ("a", "b"), depth=4)
        assert parse_formula(render_formula(f)) is f


def test_render_is_stable():
    text = "B{a} p & !E[p U q] -> AG (p | true)"
    once = render_formula(parse_formula(text))
    assert render_formula(parse_formula(once)) == once


def test_model_roundtrip_simple(simple_model):
    text = render_model(simple_model)
    again = parse_model(text)
    assert render_model(again) == text
    assert again == simple_model


def test_model_roundtrip_random():
    rng = random.Random(9)
    for _ in range(100):
        m = random_model(rng)
        text = render_model(m)
        assert parse_model(text) == m
        assert render_model(parse_model(text)) == text


def test_model_sections_in_any_order():
    text = (
        "states s0 s1\natoms p\nagents a\n"
        "label s1 = []\nlabel s0 = [p]\n"
        "RB a s0 -> s1\nRX s0 -> s1\nRB a s1 -> s1\n"
        "RP a s0 = { s0 } { s1 }\nRX s1 -> s0\n"
        "RP a s0 = { s0 s1 }\n"  # merges with the earlier RP line
    )
    m = parse_model(text)
    assert m.temporal == frozenset({(0, 1), (1, 0)})
    assert len(m.pref["a"][0]) == 3


def test_model_duplicate_edges_collapse():
    text = (
        "states s0\natoms\nagents a\nlabel s0 = []\n"
        "RX s0 -> s0\nRX s0 -> s0\n"
    )
    assert parse_model(text).temporal == frozenset({(0, 0)})


@pytest.mark.parametrize("bad", [
    "atoms p\nstates s0\nagents a\nlabel s0 = []",   # wrong header order
    "states s0\natoms p\nagents a",                  # missing label
    "states s0\natoms p\nagents a\nlabel s0 = [q]",  # undeclared atom
    "states s0\natoms p\nagents a\nlabel s0 = []\nRX s0 -> s9",
    "states s0\natoms p\nagents a\nlabel s0 = []\nRB b s0 -> s0",
    "states s0\natoms p\nagents a\nlabel s0 = []\nRP a s0 = { s0",
    "states s0 s0\natoms p\nagents a\nlabel s0 = []",
    "states s0\natoms p\nagents a\nlabel s0 = []\nRB",           # no agent
])
def test_model_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_model(bad)


_RELATION_HEAD = "states s0 s1\natoms p\nagents a\nlabel s0 = []\nlabel s1 = []\n"


@pytest.mark.parametrize("line, message", [
    ("RX s0 -> s1 s2", "6:7: malformed relation line (expected '<state> -> <state>')"),
    ("RX s0 s1", "6:7: malformed relation line (expected '<state> -> <state>')"),
    ("RX", "6:1: malformed relation line (expected '<state> -> <state>')"),
    ("RB a s0 - > s1", "6:9: malformed relation line (expected '<state> -> <state>')"),
    ("RB a s0 ->", "6:9: malformed relation line (expected '<state> -> <state>')"),
    ("RB zz s0 -> s1", "6:4: undeclared agent 'zz'"),
    ("RX s0 -> s9", "6:10: undeclared state 's9'"),
    ("RB a s9 -> s0", "6:6: undeclared state 's9'"),
])
def test_malformed_relation_line_errors(line, message):
    # whatever reads relation lines quickly must leave these to the tokenizer
    with pytest.raises(ParseError) as info:
        parse_model(_RELATION_HEAD + line)
    assert str(info.value) == message


def test_relation_lines_need_no_spaces_around_the_arrow():
    text = _RELATION_HEAD + "RX s0->s1\nRB a s1->s0\n"
    m = parse_model(text)
    assert (m.temporal, m.belief["a"]) == (frozenset({(0, 1)}), frozenset({(1, 0)}))


def test_model_render_canonical_ordering():
    text = render_model(example_model(states=("s0", "s1", "s2")))
    lines = text.splitlines()
    rx = [l for l in lines if l.startswith("RX")]
    assert rx == sorted(rx)
    assert text.endswith("\n")


DEPTH = 100_000


@pytest.mark.parametrize("text", [
    "!" * DEPTH + "p",
    "(" * DEPTH + "p" + ")" * DEPTH,
    "p -> " * DEPTH + "p",
], ids=["not-chain", "parens", "imp-chain"])
def test_deep_formula_roundtrip_and_free(text):
    from bpictl.checker import eval_formula

    f = parse_formula(text)
    eval_formula(example_model(), f)
    again = parse_formula(render_formula(f))
    assert again is f
    ref = weakref.ref(f)
    del f, again
    assert ref() is None


# Parser fuzzing: whatever the text, only the parsers' documented errors
# may escape.

_PARSE_ERRORS = (ParseError, ModelError, UndeclaredSymbolError)
_FORMULA_WORDS = ["p", "q", "true", "!", "&", "|", "->", "<->", "(", ")", "B", "P",
                  "I", "D", "{", "}", "a", "AX", "EX", "EF", "EG", "AG", "AF", "E",
                  "A", "[", "]", "U", " ", "\n", "#", "-", "<"]
_MODEL_WORDS = ["states", "atoms", "agents", "label", "RX", "RB", "RP", "RI", "s0",
                "s1", "p", "q", "a", "b", "=", "[", "]", "{", "}", "->", "#", " ",
                "\n", "\n", "\t", "\r", "\x0c", "\x85", "-", ">"]


def _sentences(words):
    # free text alone rarely gets past the first token; word salad over the
    # grammar's own vocabulary reaches the later checks
    return st.one_of(st.text(), st.lists(st.sampled_from(words)).map(" ".join),
                     st.lists(st.sampled_from(words)).map("".join))


@settings(max_examples=400, deadline=None)
@given(_sentences(_FORMULA_WORDS))
def test_parse_formula_raises_only_parse_errors(text):
    try:
        parse_formula(text)
    except _PARSE_ERRORS:
        pass


@settings(max_examples=400, deadline=None)
@given(st.one_of(_sentences(_MODEL_WORDS),
                 _sentences(_MODEL_WORDS).map(
                     lambda body: "states s0 s1\natoms p q\nagents a b\n" + body)))
def test_parse_model_raises_only_parse_errors(text):
    try:
        parse_model(text)
    except _PARSE_ERRORS:
        pass


# The parser against its reference: the name-level parser it replaced,
# which built the model through make_model. Each text must give an equal
# model or the same exception with the same message and position.

# str.splitlines ends a line at these too; a .bpm line does not end there
_OTHER_BREAKS = str.maketrans(dict.fromkeys("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", " "))


def _outcome(parse, text):
    try:
        return parse(text)
    except _PARSE_ERRORS as exc:
        return type(exc), exc.args, vars(exc)


def _assert_parses_as_reference(text):
    assert _outcome(parse_model, text) == _outcome(textio_reference.parse_model, text)


def _variant(rng, text):
    """The rendered model text with one to three textual edits: some keep
    the model, some break it."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        body = rng.randrange(3, len(lines)) if len(lines) > 3 else i
        edit = rng.randrange(12)
        if edit == 0:  # glue the arrow, '=', brackets and braces
            for spaced, glued in ((" -> ", "->"), (" = ", "="), ("= [", "=["),
                                  ("[ ", "["), (" ]", "]"), ("{ ", "{"), (" }", "}")):
                if rng.random() < 0.6:
                    lines[body] = lines[body].replace(spaced, glued)
        elif edit == 1:  # tabs and extra spaces
            lines[i] = "".join(rng.choice([" ", "\t", "  ", " \t "]) if c == " " else c
                               for c in lines[i]) + rng.choice(["", " ", "\t"])
        elif edit == 2:  # a comment, trailing or on a line of its own
            if rng.random() < 0.5:
                lines[i] += rng.choice(["  # RX s0 -> s1", "#", "# label s0 = [p]"])
            else:
                lines.insert(i, rng.choice(["# comment", "   # states s9", "#"]))
        elif edit == 3:  # blank lines
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "\t"]))
        elif edit == 4:  # sections reordered
            rest = lines[3:]
            rng.shuffle(rest)
            lines[3:] = rest
        elif edit == 5:  # a duplicate line: an edge, a family, a label
            lines.insert(rng.randrange(3, len(lines) + 1), lines[body])
        elif edit in (6, 7):  # an undeclared or misplaced name
            words = lines[body].split(" ")
            k = rng.randrange(len(words))
            words[k] = rng.choice(["zz", "s9", "s0", "p", "q", "a", "b", "true", "RX"])
            lines[body] = " ".join(words)
        elif edit == 8:  # a line cut short
            lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
        elif edit == 9:  # a line dropped
            del lines[body]
        elif edit == 10:  # another keyword
            words = lines[body].split(" ")
            words[0] = rng.choice(["RX", "RB", "RP", "RI", "label", "states", "RY"])
            lines[body] = " ".join(words)
        else:  # a header name duplicated, dropped or reserved
            k = rng.randrange(min(3, len(lines)))
            lines[k] = rng.choice([lines[k] + " " + lines[k].split(" ")[-1],
                                   lines[k].rsplit(" ", 1)[0], lines[k] + " true"])
        if not lines:
            break
    return "\n".join(lines) + rng.choice(["\n", "", "\r\n", "\n\n"])


def test_parse_model_matches_reference_on_rendered_models_and_variants():
    rng = random.Random(29)
    for _ in range(150):
        text = render_model(random_model(rng, max_states=4))
        _assert_parses_as_reference(text)
        for _ in range(5):
            _assert_parses_as_reference(_variant(rng, text))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_sentences(_MODEL_WORDS),
                 _sentences(_MODEL_WORDS).map(
                     lambda body: "states s0 s1\natoms p q\nagents a b\n" + body)))
def test_parse_model_matches_reference_on_word_salad(text):
    _assert_parses_as_reference(text.translate(_OTHER_BREAKS))


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_model_lines_end_at_universal_newlines(end):
    text = render_model(example_model())
    assert parse_model(text.replace("\n", end)) == parse_model(text)


@pytest.mark.parametrize("char", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_other_line_breaks_stay_inside_a_model_comment(char):
    text = render_model(example_model())
    head, rest = text.split("\n", 1)
    commented = f"# page{char}break\n{head}  # note{char}more\n{rest}"
    assert parse_model(commented) == example_model()
