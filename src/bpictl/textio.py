"""Concrete syntax: parsing and canonical rendering of formulas and models.

Formula files use extension ``.bpi``, model files ``.bpm``. Both are UTF-8
text; ``#`` starts a line comment. A model file's lines end at CR LF, LF
or CR only (``split_lines``). Rendering is canonical: re-rendering a
rendered file is byte-identical.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from . import formula as F
from .formula import Formula
from .model import Model, make_model  # noqa: F401 (make_model is re-exported)


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str, expected: str | None = None):
        loc = f"{line}:{column}: {message}"
        if expected:
            loc += f" (expected {expected})"
        super().__init__(loc)
        self.line = line
        self.column = column
        self.message = message
        self.expected = expected


_AGENT_MODS = {"B": F.B, "P": F.P, "I": F.I, "D": F.D}
_UNARY_MODS = {"AX": F.AX, "EX": F.EX, "EF": F.EF, "EG": F.EG, "AG": F.AG, "AF": F.AF}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym><->|->|[!&|(){}\[\]=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str        # 'ident', 'sym', 'eof'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, col, f"unexpected character {text[pos]!r}")
        group = m.lastgroup
        lexeme = m.group()
        if group == "ident":
            tokens.append(Token("ident", lexeme, line, col))
        elif group == "sym":
            tokens.append(Token("sym", lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _FormulaParser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, expected: str | None = None):
        tok = self.peek()
        raise ParseError(tok.line, tok.column, message, expected)

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != sym:
            self.error(f"found {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                       expected=repr(sym))
        return self.next()

    def at_sym(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == sym

    def parse(self) -> Formula:
        """Operator-precedence parse of a whole formula with explicit stacks,
        so nesting depth is bounded by memory, not by the recursion limit.

        Grammar, loosest first::

            formula := imp ("<->" imp)*          left-assoc
            imp     := or ("->" imp)?            right-assoc
            or      := and ("|" and)*
            and     := unary ("&" unary)*
            unary   := "!" unary | "(" formula ")" | "true" | atom
                     | AX/EX/EF/EG/AG/AF unary | B/P/I/D "{" agent "}" unary
                     | ("E" | "A") "[" formula "U" formula "]"
        """
        operands: list[Formula] = []
        # Pending prefix operators, binary operators and open groups,
        # innermost last: ("prefix", ctor), ("binary", prec, ctor), ("(",),
        # and ("[", ctor) before the 'U' of E[..U..] / A[..U..], ("U", ctor) after.
        pending: list[tuple] = []
        while True:
            operands.append(self._operand(pending))
            while True:
                tok = self.peek()
                if tok.kind == "sym" and tok.text in _BINARY_OPS:
                    prec, ctor = _BINARY_OPS[tok.text]
                    _reduce(pending, operands, prec)
                    self.next()
                    pending.append(("binary", prec, ctor))
                    break
                _reduce(pending, operands, 0)
                group = pending[-1][0] if pending else None
                if group == "(":
                    self.expect_sym(")")
                    pending.pop()
                elif group == "[":
                    if tok.kind != "ident" or tok.text != "U":
                        self.error(f"found {tok.text!r}", expected="'U'")
                    self.next()
                    pending[-1] = ("U", pending[-1][1])
                    break
                elif group == "U":
                    self.expect_sym("]")
                    ctor = pending.pop()[1]
                    right = operands.pop()
                    operands.append(ctor(operands.pop(), right))
                elif tok.kind != "eof":
                    self.error(f"trailing input {tok.text!r}", expected="end of input")
                else:
                    return operands.pop()

    def _operand(self, pending: list) -> Formula:
        """Consume prefix operators and open groups onto `pending` up to the
        next atom or constant, and return that."""
        while True:
            tok = self.peek()
            if self.at_sym("!"):
                self.next()
                pending.append(("prefix", F.Not))
                continue
            if self.at_sym("("):
                self.next()
                pending.append(("(",))
                continue
            if tok.kind != "ident":
                self.error(f"found {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                           expected="a formula")
            if tok.text == "true":
                self.next()
                return F.TRUE
            if tok.text in _UNARY_MODS:
                self.next()
                pending.append(("prefix", _UNARY_MODS[tok.text]))
                continue
            if tok.text in _AGENT_MODS and self._next_is_sym("{"):
                self.next()
                self.next()  # '{'
                agent_tok = self.peek()
                if agent_tok.kind != "ident":
                    self.error("empty or malformed agent braces", expected="an agent name")
                self.next()
                self.expect_sym("}")
                pending.append(("prefix", functools.partial(
                    _AGENT_MODS[tok.text], agent_tok.text)))
                continue
            if tok.text in ("E", "A") and self._next_is_sym("["):
                self.next()
                self.next()  # '['
                pending.append(("[", F.EU if tok.text == "E" else F.AU))
                continue
            self.next()
            return F.Atom(tok.text)

    def _next_is_sym(self, sym: str) -> bool:
        nxt = self.tokens[self.pos + 1]
        return nxt.kind == "sym" and nxt.text == sym


# Binary operators: (precedence, constructor); '->' is the one right-assoc.
_BINARY_OPS = {"<->": (1, F.Iff), "->": (2, F.Imp), "|": (3, F.Or), "&": (4, F.And)}
_IMP_PREC = _BINARY_OPS["->"][0]


def _reduce(pending: list, operands: list, prec: int) -> None:
    """Apply the pending operators that bind tighter than a binary operator
    of precedence prec (all of them, up to the innermost group, for 0)."""
    while pending:
        top = pending[-1]
        if top[0] == "prefix":
            operands.append(top[1](operands.pop()))
        elif top[0] == "binary" and (top[1] > prec or (top[1] == prec and prec != _IMP_PREC)):
            right = operands.pop()
            operands.append(top[2](operands.pop(), right))
        else:
            return
        pending.pop()


def parse_formula(text: str) -> Formula:
    return _FormulaParser(_tokenize(text)).parse()


# Rendering. Precedence levels: iff=1, imp=2, or=3, and=4, unary=5.
_BIN = {"iff": (1, "<->", 1, 2), "imp": (2, "->", 3, 2), "or": (3, "|", 3, 4), "and": (4, "&", 4, 5)}


def render_formula(f: Formula) -> str:
    out: list[str] = []
    # (formula, minimum precedence) items to render, or literal text
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, min_prec = item
        op = g.op
        if op == "atom":
            out.append(g.name)
        elif op == "true":
            out.append("true")
        elif op in _BIN:
            prec, sym, lp, rp = _BIN[op]
            if prec < min_prec:
                out.append("(")
                stack.append(")")
            stack += [(g.right, rp), f" {sym} ", (g.left, lp)]
        elif op == "not":
            out.append("!")
            stack.append((g.left, 5))
        elif op in ("AX", "EX", "EF", "EG", "AG", "AF"):
            out.append(f"{op} ")
            stack.append((g.left, 5))
        elif op in ("B", "P", "I", "D"):
            out.append(f"{op}{{{g.agent}}} ")
            stack.append((g.left, 5))
        elif op in ("EU", "AU"):
            out.append("E[" if op == "EU" else "A[")
            stack += ["]", (g.right, 0), " U ", (g.left, 0)]
        else:
            raise ValueError(f"unknown operator {op!r}")
    return "".join(out)


# Model files. Line-oriented; see parse_model for the layout.

def split_lines(text: str) -> list[str]:
    """The lines of a model file. Only CR LF, LF and CR end a line, the line
    ends universal newlines reads, so a form feed or U+2028 in a comment
    stays in the comment. A final line end starts no line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def parse_model(text: str) -> Model:
    """Parse the .bpm model format.

    Layout (``#`` comments and blank lines ignored)::

        states s0 s1 ...
        atoms p q ...
        agents a b ...
        label <state> = [atoms...]        one line per state
        RX <state> -> <state>
        RB <agent> <state> -> <state>
        RP <agent> <state> = { s... } { s... } ...
        RI <agent> <state> = { s... } ...

    One pass from text to the model's index-level tables: each state and
    agent name is resolved to its index where it is read, and each atom
    checked against the declaration. A canonical ``label``, ``RX`` or
    ``RB`` line (one that ``str.split`` cuts into exactly its words, with
    declared names) is read from that split; every other line, and so
    every error, goes to the tokenizer, which splits a canonical line into
    the same words.
    """
    lines = split_lines(text)

    def err(lineno, col, message, expected=None):
        raise ParseError(lineno, col, message, expected)

    # compiled per call, not at import: importing the CLI stays cheap
    word_re = re.compile(r"->|[={}\[\]]|[A-Za-z_][A-Za-z0-9_]*|\S")
    ident_re = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

    def words(line):
        return [(m.group(), m.start() + 1) for m in word_re.finditer(line)]

    cursor = 0  # lines[cursor] is the next line to read

    def take_header(keyword, minimum):
        nonlocal cursor
        while True:
            if cursor >= len(lines):
                err(len(lines) + 1, 1, f"missing {keyword!r} line")
            line = lines[cursor].split("#", 1)[0]
            cursor += 1
            parts = line.split()
            if parts:
                break
        # the fast path: the keyword, then distinct ASCII identifiers
        names = parts[1:]
        if parts[0] == keyword and len(names) >= minimum and "".join(names).isascii() \
                and all(map(str.isidentifier, names)) and len(set(names)) == len(names):
            return tuple(names)
        toks = words(line)
        if toks[0][0] != keyword:
            err(cursor, toks[0][1], f"found {toks[0][0]!r}", expected=f"{keyword!r} line")
        names, seen = [], set()
        for (w, col) in toks[1:]:
            if not ident_re.fullmatch(w):
                err(cursor, col, f"bad identifier {w!r}")
            if w in seen:
                err(cursor, col, f"duplicate identifier {w!r}")
            seen.add(w)
            names.append(w)
        if len(names) < minimum:
            err(cursor, toks[0][1], f"{keyword!r} line needs at least {minimum} name(s)")
        return tuple(names)

    states = take_header("states", 1)
    atoms = take_header("atoms", 0)
    agents = take_header("agents", 1)
    n = len(states)
    pools = {
        "state": {s: i for i, s in enumerate(states)},
        "atom": {p: p for p in atoms},  # a label row holds atom names
        "agent": {a: i for i, a in enumerate(agents)},
    }
    state_index = pools["state"].get
    agent_index = pools["agent"].get
    atom_set = frozenset(atoms)

    rows: list = [None] * n             # per state: its atoms, once labeled
    rx: set[tuple[int, int]] = set()
    rb = [set() for _ in agents]        # per agent: its belief pairs
    rp = [{} for _ in agents]           # per agent: state -> member sets
    ri = [{} for _ in agents]

    def resolve(kind, tok, lineno):
        index = pools[kind].get(tok[0])
        if index is None:
            err(lineno, tok[1], f"undeclared {kind} {tok[0]!r}")
        return index

    def parse_arrow(toks, lineno, start):
        if len(toks) != start + 3 or toks[start + 1][0] != "->":
            col = toks[min(start + 1, len(toks) - 1)][1]
            err(lineno, col, "malformed relation line", expected="'<state> -> <state>'")
        return (resolve("state", toks[start], lineno),
                resolve("state", toks[start + 2], lineno))

    def parse_sets(toks, lineno, start):
        sets, i = [], start
        while i < len(toks):
            if toks[i][0] != "{":
                err(lineno, toks[i][1], "malformed set literal", expected="'{'")
            i += 1
            members = set()
            while i < len(toks) and toks[i][0] != "}":
                members.add(resolve("state", toks[i], lineno))
                i += 1
            if i >= len(toks):
                err(lineno, toks[-1][1], "unterminated set literal", expected="'}'")
            i += 1
            sets.append(frozenset(members))
        return sets

    for lineno, line in enumerate(lines[cursor:], start=cursor + 1):
        if "#" in line:
            line = line[:line.index("#")]
        parts = line.split()
        if not parts:
            continue
        head = parts[0]
        # a canonical line is read from its split; the rest fall through
        if head == "RX":
            if len(parts) == 4 and parts[2] == "->":
                x, y = state_index(parts[1]), state_index(parts[3])
                if x is not None and y is not None:
                    rx.add((x, y))
                    continue
        elif head == "label":
            if len(parts) >= 4 and parts[2] == "=":
                x = state_index(parts[1])
                inner = " ".join(parts[3:]) if len(parts) > 4 else parts[3]
                if x is not None and rows[x] is None \
                        and inner[0] == "[" and inner[-1] == "]":
                    row = frozenset(inner[1:-1].split())
                    if row <= atom_set:
                        rows[x] = row
                        continue
        elif head == "RB":
            if len(parts) == 5 and parts[3] == "->":
                a, x, y = agent_index(parts[1]), state_index(parts[2]), state_index(parts[4])
                if a is not None and x is not None and y is not None:
                    rb[a].add((x, y))
                    continue
        toks = words(line)
        head, headcol = toks[0]
        if head == "label":
            if len(toks) < 4 or toks[2][0] != "=" or toks[3][0] != "[" or toks[-1][0] != "]":
                err(lineno, headcol, "malformed label line", expected="'label <state> = [atoms...]'")
            x = resolve("state", toks[1], lineno)
            if rows[x] is not None:
                err(lineno, toks[1][1], f"duplicate label line for {toks[1][0]!r}")
            rows[x] = frozenset([resolve("atom", tok, lineno) for tok in toks[4:-1]])
        elif head == "RX":
            rx.add(parse_arrow(toks, lineno, 1))
        elif head == "RB":
            if len(toks) < 2:
                err(lineno, headcol, "malformed RB line",
                    expected="'RB <agent> <state> -> <state>'")
            a = resolve("agent", toks[1], lineno)
            rb[a].add(parse_arrow(toks, lineno, 2))
        elif head in ("RP", "RI"):
            table = rp if head == "RP" else ri
            if len(toks) < 4 or toks[3][0] != "=":
                err(lineno, headcol, f"malformed {head} line",
                    expected=f"'{head} <agent> <state> = {{ ... }}'")
            a = resolve("agent", toks[1], lineno)
            x = resolve("state", toks[2], lineno)
            table[a].setdefault(x, set()).update(parse_sets(toks, lineno, 4))
        else:
            err(lineno, headcol, f"unknown line {head!r}",
                expected="label/RX/RB/RP/RI")

    if None in rows:
        err(len(lines) + 1, 1, f"missing label line for state {states[rows.index(None)]!r}")

    def families(table):
        out = {}
        for a, per_state in zip(agents, table):
            row = [frozenset()] * n
            for x, members in per_state.items():
                row[x] = frozenset(members)
            out[a] = tuple(row)
        return out

    return Model(
        states=states,
        atoms=atoms,
        agents=agents,
        labeling=tuple(rows),
        belief={a: frozenset(pairs) for a, pairs in zip(agents, rb)},
        temporal=frozenset(rx),
        pref=families(rp),
        intent=families(ri),
    )


def render_model(m: Model) -> str:
    out = [
        " ".join(["states", *m.states]).rstrip(),
        " ".join(["atoms", *m.atoms]).rstrip(),
        " ".join(["agents", *m.agents]).rstrip(),
    ]
    for i, s in enumerate(m.states):
        row = [p for p in m.atoms if p in m.labeling[i]]
        out.append(f"label {s} = [{' '.join(row)}]")
    for (x, y) in sorted(m.temporal):
        out.append(f"RX {m.states[x]} -> {m.states[y]}")
    for a in m.agents:
        for (x, y) in sorted(m.belief[a]):
            out.append(f"RB {a} {m.states[x]} -> {m.states[y]}")
    for table, head in ((m.pref, "RP"), (m.intent, "RI")):
        for a in m.agents:
            for i, s in enumerate(m.states):
                family = table[a][i]
                if not family:
                    continue
                rendered = []
                for member in sorted(family, key=lambda q: tuple(sorted(q))):
                    inner = " ".join(m.states[j] for j in sorted(member))
                    rendered.append("{ " + inner + " }" if inner else "{ }")
                out.append(f"{head} {a} {s} = " + " ".join(rendered))
    return "\n".join(out) + "\n"
