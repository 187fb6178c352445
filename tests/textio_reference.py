"""The model parser as it was before it resolved names to indices in one
pass: it collects name-level tables and builds the model through
``make_model``. Kept verbatim as the reference the parser in
``bpictl.textio`` is tested against, errors included.
"""

import re

from bpictl.model import Model, make_model
from bpictl.textio import ParseError


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
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        if stripped.strip():
            lines.append((lineno, stripped))

    def err(lineno, col, message, expected=None):
        raise ParseError(lineno, col, message, expected)

    # compiled per call, not at import: importing the CLI stays cheap
    word_re = re.compile(r"->|[={}\[\]]|[A-Za-z_][A-Za-z0-9_]*|\S")
    ident_re = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

    def words(lineno, line):
        return [(m.group(), m.start() + 1) for m in word_re.finditer(line)]

    cursor = 0

    def take_header(keyword, minimum):
        nonlocal cursor
        if cursor >= len(lines):
            err(len(text.splitlines()) + 1, 1, f"missing {keyword!r} line")
        lineno, line = lines[cursor]
        toks = words(lineno, line)
        if toks[0][0] != keyword:
            err(lineno, toks[0][1], f"found {toks[0][0]!r}", expected=f"{keyword!r} line")
        names, seen = [], set()
        for (w, col) in toks[1:]:
            if not ident_re.fullmatch(w):
                err(lineno, col, f"bad identifier {w!r}")
            if w in seen:
                err(lineno, col, f"duplicate identifier {w!r}")
            seen.add(w)
            names.append(w)
        if len(names) < minimum:
            err(lineno, toks[0][1], f"{keyword!r} line needs at least {minimum} name(s)")
        cursor += 1
        return names

    states = take_header("states", 1)
    atoms = take_header("atoms", 0)
    agents = take_header("agents", 1)
    state_set = set(states)
    atom_set = set(atoms)
    agent_set = set(agents)

    labels: dict[str, list[str]] = {}
    rx: set[tuple[str, str]] = set()
    rb: dict[str, set] = {a: set() for a in agents}
    rp: dict[str, dict[str, set]] = {a: {} for a in agents}
    ri: dict[str, dict[str, set]] = {a: {} for a in agents}

    def check(kind, name, lineno, col):
        pool = {"state": state_set, "atom": atom_set, "agent": agent_set}[kind]
        if name not in pool:
            err(lineno, col, f"undeclared {kind} {name!r}")
        return name

    def parse_arrow(toks, lineno, start):
        if len(toks) != start + 3 or toks[start + 1][0] != "->":
            col = toks[min(start + 1, len(toks) - 1)][1]
            err(lineno, col, "malformed relation line", expected="'<state> -> <state>'")
        src = check("state", toks[start][0], lineno, toks[start][1])
        dst = check("state", toks[start + 2][0], lineno, toks[start + 2][1])
        return src, dst

    def parse_sets(toks, lineno, start):
        sets, i = [], start
        while i < len(toks):
            if toks[i][0] != "{":
                err(lineno, toks[i][1], "malformed set literal", expected="'{'")
            i += 1
            members = set()
            while i < len(toks) and toks[i][0] != "}":
                members.add(check("state", toks[i][0], lineno, toks[i][1]))
                i += 1
            if i >= len(toks):
                err(lineno, toks[-1][1], "unterminated set literal", expected="'}'")
            i += 1
            sets.append(frozenset(members))
        return sets

    while cursor < len(lines):
        lineno, line = lines[cursor]
        cursor += 1
        # Fast path for the bulk of a model: a relation line whose words are
        # exactly 'RX s -> t' or 'RB a s -> t' with declared names. The
        # tokenizer splits such a line into the same words, so anything else
        # (and every error) takes the general path below.
        parts = line.split()
        if len(parts) == 4 and parts[0] == "RX" and parts[2] == "->" \
                and parts[1] in state_set and parts[3] in state_set:
            rx.add((parts[1], parts[3]))
            continue
        if len(parts) == 5 and parts[0] == "RB" and parts[3] == "->" \
                and parts[1] in agent_set and parts[2] in state_set \
                and parts[4] in state_set:
            rb[parts[1]].add((parts[2], parts[4]))
            continue
        toks = words(lineno, line)
        head, headcol = toks[0]
        if head == "label":
            if len(toks) < 4 or toks[2][0] != "=" or toks[3][0] != "[" or toks[-1][0] != "]":
                err(lineno, headcol, "malformed label line", expected="'label <state> = [atoms...]'")
            state = check("state", toks[1][0], lineno, toks[1][1])
            if state in labels:
                err(lineno, toks[1][1], f"duplicate label line for {state!r}")
            labels[state] = [check("atom", w, lineno, c) for (w, c) in toks[4:-1]]
        elif head == "RX":
            rx.add(parse_arrow(toks, lineno, 1))
        elif head == "RB":
            if len(toks) < 2:
                err(lineno, headcol, "malformed RB line",
                    expected="'RB <agent> <state> -> <state>'")
            agent = check("agent", toks[1][0], lineno, toks[1][1])
            rb[agent].add(parse_arrow(toks, lineno, 2))
        elif head in ("RP", "RI"):
            table = rp if head == "RP" else ri
            if len(toks) < 4 or toks[3][0] != "=":
                err(lineno, headcol, f"malformed {head} line",
                    expected=f"'{head} <agent> <state> = {{ ... }}'")
            agent = check("agent", toks[1][0], lineno, toks[1][1])
            state = check("state", toks[2][0], lineno, toks[2][1])
            table[agent].setdefault(state, set()).update(parse_sets(toks, lineno, 4))
        else:
            err(lineno, headcol, f"unknown line {head!r}",
                expected="label/RX/RB/RP/RI")

    missing = [s for s in states if s not in labels]
    if missing:
        err(len(text.splitlines()) + 1, 1, f"missing label line for state {missing[0]!r}")

    return make_model(
        states=states,
        atoms=atoms,
        agents=agents,
        labeling=labels,
        belief=rb,
        temporal=rx,
        pref=rp,
        intent=ri,
    )
