"""Seeded inputs and independent answers for the four benchmark workloads.

Every input is generated here from ``(workload, seed, task index)`` and
written by this module's own writers, so a change to the program's parsers,
printers or model generators cannot change what the benchmark feeds it. The
answers that outputs are checked against come from construction (a model
built to be frame-valid, a mutant built to break one named condition, a
contradiction built as ``g & !g``) or from the reference evaluator
``bpictl.oracle.denote`` run on a ``Model`` built directly from the
generator's data, never from the labeling checker, ``textio`` or
``satbound``.

Each workload is a stream of tasks. The parameters that set a task's cost
(model size, cluster and filter sizes, formula shape, search bound) follow a
fixed schedule over the task index, the same for every seed; the seed only
draws the structure inside those parameters. Any prefix of the stream
therefore has nearly the same cost mix, which keeps the metrics of a
time-limited run steady from seed to seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from bpictl import formula as F
from bpictl.frames import validate_model
from bpictl.model import Model
from bpictl.oracle import denote
from bpictl.textio import ParseError, parse_model

SCHEMA_COUNT = 33       # axiom and rule schemas the soundness suite covers
AXIOM_POOL = 50         # the CLI default of `bpictl axioms --pool`


# --- models -----------------------------------------------------------------

@dataclass
class Spec:
    """A model at index level: states are s0..s{n-1}, relations are pairs of
    indices, families map a state index to a list of index sets."""

    n: int
    atoms: tuple
    agents: tuple
    labels: list                                # per state: tuple of atoms
    temporal: list                              # [(x, y)]
    belief: dict                                # agent -> [(x, y)]
    pref: dict = field(default_factory=dict)    # agent -> {x: [frozenset]}
    intent: dict = field(default_factory=dict)  # agent -> {x: [frozenset]}
    clusters: dict = field(default_factory=dict)  # agent -> believed cluster

    def text(self) -> str:
        """The model in the .bpm format."""
        out = [
            "states " + " ".join(f"s{i}" for i in range(self.n)),
            " ".join(["atoms", *self.atoms]),
            " ".join(["agents", *self.agents]),
        ]
        out += [f"label s{i} = [{' '.join(row)}]" for i, row in enumerate(self.labels)]
        out += [f"RX s{x} -> s{y}" for x, y in self.temporal]
        for a in self.agents:
            out += [f"RB {a} s{x} -> s{y}" for x, y in self.belief[a]]
        for head, table in (("RP", self.pref), ("RI", self.intent)):
            for a, per_state in table.items():
                for x, fam in sorted(per_state.items()):
                    sets = " ".join(
                        "{ " + "".join(f"s{i} " for i in sorted(q)) + "}" for q in fam
                    )
                    out.append(f"{head} {a} s{x} = {sets}")
        return "\n".join(out) + "\n"

    def model(self) -> Model:
        """The same model built directly, bypassing the program's parser."""

        def families(table):
            return {
                a: tuple(
                    frozenset(frozenset(q) for q in table.get(a, {}).get(x, ()))
                    for x in range(self.n)
                )
                for a in self.agents
            }

        return Model(
            states=tuple(f"s{i}" for i in range(self.n)),
            atoms=tuple(self.atoms),
            agents=tuple(self.agents),
            labeling=tuple(frozenset(row) for row in self.labels),
            belief={a: frozenset(self.belief[a]) for a in self.agents},
            temporal=frozenset(self.temporal),
            pref=families(self.pref),
            intent=families(self.intent),
        )


def _labels(rng, n, atoms):
    return [tuple(p for p in atoms if rng.random() < 0.5) for _ in range(n)]


def frame_valid_spec(rng, n, agents, atoms=("p", "q"), cluster=None, core=None):
    """A model that satisfies all 22 frame conditions by construction.

    Each agent believes one cluster K (the relation S x K, which is serial,
    transitive and euclidean). Its preference family is the principal
    filter {Q | C <= Q} of a nonempty core C inside K at every state (closed
    under intersection and consequence, invariant under agreement on K), or
    empty when ``core`` is 0. Intentions are empty. States in some agent's
    cluster either all carry only a self-loop or all have no temporal
    successor, which is what BX1 and BX2 ask of a cluster; other states
    step anywhere.

    ``cluster`` and ``core`` fix |K| and |C| (drawn when None)."""
    belief, pref, clusters = {}, {}, {}
    for a in agents:
        k = sorted(rng.sample(range(n), cluster or rng.randint(1, n)))
        clusters[a] = k
        belief[a] = [(x, y) for x in range(n) for y in k]
        c = rng.randint(1, len(k)) if core is None else min(core, len(k))
        if c:
            filt = frozenset(rng.sample(k, c))
            members = [q for q in _subsets(n) if filt <= q]
            pref[a] = {x: members for x in range(n)}
    in_cluster = set().union(*map(set, clusters.values()))
    loops = rng.random() < 0.5
    temporal = []
    for x in range(n):
        if x in in_cluster:
            if loops:
                temporal.append((x, x))
            continue
        temporal += [(x, y) for y in range(n) if rng.random() < 0.3]
    return Spec(n, tuple(atoms), tuple(agents), _labels(rng, n, atoms),
                temporal, belief, pref, clusters=clusters)


def _subsets(n):
    return [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


# --- formulas ---------------------------------------------------------------
# Formulas are the benchmark's own nested tuples: ("atom", "p"), ("not", f),
# ("and", f, g), ("B", "a", f), ("EU", f, g), ("AX", f), ... They are written
# out by `render` and handed to the oracle through `to_formula`, so the
# inputs do not depend on the program's formula representation.

BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}
AGENT_OPS = ("B", "P", "I", "D")
UNTIL_OPS = ("EU", "AU")


def render(f) -> str:
    """Fully parenthesised .bpi text."""
    op = f[0]
    if op == "atom":
        return f[1]
    if op == "not":
        return f"!({render(f[1])})"
    if op in BINARY:
        return f"({render(f[1])} {BINARY[op]} {render(f[2])})"
    if op in AGENT_OPS:
        return f"{op}{{{f[1]}}} ({render(f[2])})"
    if op in UNTIL_OPS:
        return f"{op[0]}[{render(f[1])} U {render(f[2])}]"
    return f"{op} ({render(f[1])})"


def to_formula(f):
    """The program's Formula for a tuple formula, for the oracle."""
    op = f[0]
    if op == "atom":
        return F.Atom(f[1])
    if op in AGENT_OPS:
        return getattr(F, op)(f[1], to_formula(f[2]))
    ctor = {"not": F.Not, "and": F.And, "or": F.Or, "imp": F.Imp, "iff": F.Iff}.get(op)
    return (ctor or getattr(F, op))(*map(to_formula, f[1:]))


def walk(f):
    """f and all its subformulas."""
    yield f
    for child in f[1:]:
        if isinstance(child, tuple):
            yield from walk(child)


def _literal(rng, atoms):
    p = ("atom", rng.choice(atoms))
    return ("not", p) if rng.random() < 0.5 else p


# --- renaming ---------------------------------------------------------------
# A task runs several times in one process. Each repetition renames every
# atom, agent and state (same name lengths, so the same parsing work), so no
# cache keyed on input text or parsed content can answer a repetition from
# an earlier one. Outputs are mapped back to the canonical names before they
# are checked; no output word is a one-letter variant name.

_RENAMES = (  # (atoms and agents, state name prefix)
    ({}, "s"),
    ({"p": "m", "q": "n", "r": "o", "a": "c", "b": "d"}, "t"),
    ({"p": "g", "q": "h", "r": "j", "a": "e", "b": "k"}, "u"),
)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _apply(text: str, table: dict, old: str, new: str) -> str:
    def sub(m):
        w = m.group()
        if w in table:
            return table[w]
        if w[0] == old and w[1:].isdigit():
            return new + w[1:]
        return w

    return _IDENT.sub(sub, text) if old != new else text


def rename(text: str, variant: int) -> str:
    table, prefix = _RENAMES[variant]
    return _apply(text, table, "s", prefix)


def unrename(text: str, variant: int) -> str:
    table, prefix = _RENAMES[variant]
    return _apply(text, {v: k for k, v in table.items()}, prefix, "s")


# --- tasks ------------------------------------------------------------------

@dataclass
class Task:
    """One CLI invocation. ``argv`` names files by their key in ``files``;
    ``expect`` holds what the answer is built from."""

    argv: list
    files: dict
    expect: object = None


class Workload:
    """A stream of tasks. `task(seed, i)` builds task i. `answer(task)`
    computes what `check` needs beyond the task itself, or None when the
    task carries its answer. `check(task, answer, code, out)` returns None,
    or why the exit code and stdout are wrong. A round of `period` tasks
    holds the workload's cost mix; `tail_pct` is the percentile reported
    as task_s_tail."""

    def answer(self, task: Task):
        return None


def _vdc(i: int) -> float:
    """Van der Corput radical inverse in base 2: i = 0, 1, ..., 2^k - 1 hit
    every multiple of 2^-k once, and every prefix spreads evenly."""
    x, denom = 0.0, 1.0
    while i:
        denom *= 2
        x += (i & 1) / denom
        i >>= 1
    return x


class CheckLarge(Workload):
    """`bpictl check MODEL FORMULA` on one sparse random model per task.

    A round of 16 tasks spreads the sizes log-uniformly over about
    110..1820 states, one per stratum, in van der Corput order. Temporal
    out-degree is 1-4; each agent believes small clusters (1-3 states).
    Formulas are 3-5 levels deep (see _formula). Half the models have two
    agents and a quarter of the calls ask --valid, both spread evenly over
    the sizes."""

    name = "check-large"
    period = 16
    tail_pct = 75

    def task(self, seed: int, i: int) -> Task:
        rng = random.Random(f"{self.name}:{seed}:{i}")
        j = i % self.period
        n = round(100 * 20 ** (_vdc(j) + 0.5 / self.period))
        agents = ("a", "b") if j & 2 else ("a",)
        atoms = ("p", "q", "r")
        temporal = []
        for x in range(n):
            temporal += [(x, y) for y in sorted(rng.sample(range(n), rng.randint(1, 4)))]
        belief = {a: self._belief(rng, n) for a in agents}
        spec = Spec(n, atoms, agents, _labels(rng, n, atoms), temporal, belief)
        # the operators follow the task index, not the seed
        shape = random.Random(f"{self.name}:{i}")
        f = self._formula(rng, shape, atoms, agents, light=(j >> 3 & 1) + (j >> 2 & 1))
        argv = ["check", "model.bpm", "formula.bpi"]
        if j >= 12:
            argv.append("--valid")
        return Task(argv, {"model.bpm": spec.text(), "formula.bpi": render(f) + "\n"},
                    (spec, f))

    @staticmethod
    def _belief(rng, n):
        order = list(range(n))
        rng.shuffle(order)
        clusters, pos = [], 0
        for _ in range(n // 20 + 1):
            size = rng.randint(1, 3)
            clusters.append(sorted(order[pos:pos + size]))
            pos += size
        home = {x: k for k in clusters for x in k}
        return [(x, y) for x in range(n) for y in home.get(x) or rng.choice(clusters)]

    @staticmethod
    def _formula(rng, shape, atoms, agents, light):
        """Two SCC-bound operators on literals, joined by a boolean, under
        one Pre operator and `light` cheap ones in random order. Their
        arguments' extensions are about half the states, so the cost of a
        formula follows the model size. `shape` draws the operators, `rng`
        the literals and agents."""
        lit = lambda: _literal(rng, atoms)
        heavy = [
            lambda: ("EG", lit()),
            lambda: ("AF", lit()),
            lambda: ("AU", lit(), lit()),
        ]
        wraps = [
            shape.choice([lambda g: ("B", rng.choice(agents), g), lambda g: ("AX", g)])
        ]
        cheap = [
            lambda g: ("AG", g),
            lambda g: ("EF", g),
            lambda g: ("EU", lit(), g),
            lambda g: ("and", g, lit()),
            lambda g: ("or", lit(), g),
        ]
        wraps += [shape.choice(cheap) for _ in range(light)]
        shape.shuffle(wraps)
        f = (shape.choice(("and", "or")), shape.choice(heavy)(), shape.choice(heavy)())
        for wrap in wraps:
            f = wrap(f)
        return f

    def answer(self, task: Task):
        spec, f = task.expect
        return sorted(denote(spec.model(), to_formula(f)))

    def check(self, task: Task, answer, code: int, out: str) -> str | None:
        n = task.expect[0].n
        if "--valid" in task.argv:
            missing = sorted(set(range(n)) - set(answer))
            want = "valid\n" if not missing else f"not valid\ncounterexample: s{missing[0]}\n"
            want_code = 1 if missing else 0
        else:
            names = " ".join(f"s{i}" for i in answer) or "(none)"
            want, want_code = f"states: {names}\n", 0 if answer else 1
        if code != want_code or out != want:
            return f"exit {code}, expected {want_code}; output differs from oracle"
        return None


class Axioms(Workload):
    """`bpictl axioms MODEL` at the default pool on tiny frame-valid models
    over atoms p and q: 1-4 states, 1-2 agents, and a principal-filter
    preference family on half of them."""

    name = "axioms"
    # (states, agents, preference family), cycled
    SCHEDULE = ((1, 1, False), (2, 1, True), (3, 2, False), (4, 1, True),
                (1, 2, True), (2, 2, False), (3, 1, True), (4, 2, False))
    period = len(SCHEDULE)
    tail_pct = 55

    def task(self, seed: int, i: int) -> Task:
        rng = random.Random(f"{self.name}:{seed}:{i}")
        n, agents, pref = self.SCHEDULE[i % self.period]
        spec = frame_valid_spec(rng, n, ("a", "b")[:agents], core=None if pref else 0)
        return Task(["axioms", "model.bpm"], {"model.bpm": spec.text()})

    _LINE = re.compile(r"\S+ m0 \d+ VALID")

    def check(self, task: Task, answer, code: int, out: str) -> str | None:
        lines = out.splitlines()
        total = SCHEMA_COUNT * AXIOM_POOL
        if code != 0:
            return f"exit {code}, expected 0"
        if lines[-1:] != [f"total={total} failures=0"] or len(lines) != total + 1:
            return "summary line or instance count wrong"
        if not all(self._LINE.fullmatch(line) for line in lines[:-1]):
            return "an instance is not VALID"
        return None


class Sat(Workload):
    """`bpictl sat FORMULA` over a corpus with a known verdict per formula.

    Kinds, one agent, one or two atoms, with and without P/I/D and temporal
    operators:
      witness  satisfiable by construction: true somewhere (by the oracle)
               in a frame-valid model of at most the searched size
      contra   g & !g, unsatisfiable
      negax    the negation of a sound axiom instance, unsatisfiable over
               frame-valid models
      intent   I{a} g, unsatisfiable (frame-valid intention families are
               empty)
    Nine tasks in each round of 16 search up to 2 states at the default
    budget. Seven search up to 3 states under a budget of BUDGET3
    candidates: one witness, found within 2 states, and six unsatisfiable
    formulas, which exhaust the budget (exit 3, undecided). Sorted by time, a round is
    five fast satisfiable tasks, four one-atom contradictions of about equal
    cost (the median falls among them), one negated axiom, and the aborted
    searches, whose cost the budget fixes (the tail falls among them)."""

    name = "sat"
    BUDGET3 = 1000

    # (kind, atom count, neighbourhood operators, temporal operators, states)
    SCHEDULE = (
        ("witness", 1, False, True, 2), ("contra", 1, False, False, 2),
        ("contra", 1, False, False, 3), ("witness", 2, True, False, 2),
        ("negax", 1, True, False, 2), ("intent", 1, True, True, 3),
        ("contra", 1, False, False, 2), ("witness", 1, False, False, 3),
        ("negax", 1, False, True, 3), ("witness", 2, False, True, 2),
        ("contra", 1, False, False, 2), ("contra", 2, False, True, 3),
        ("witness", 1, True, False, 2), ("negax", 2, True, False, 3),
        ("contra", 1, False, False, 2), ("contra", 1, True, False, 3),
    )
    period = len(SCHEDULE)
    tail_pct = 75

    def task(self, seed: int, i: int) -> Task:
        rng = random.Random(f"{self.name}:{seed}:{i}")
        kind, n_atoms, modal, temporal, states = self.SCHEDULE[i % self.period]
        atoms = ("p", "q")[:n_atoms]
        g = self._formula(rng, atoms, modal, temporal)
        if kind == "contra":
            f = ("and", g, ("not", g))
        elif kind == "intent":
            f = ("I", "a", g)
        elif kind == "negax":
            f = ("not", self._axiom(i // self.period, g, modal, temporal))
        else:
            spec = frame_valid_spec(rng, 1 + i % 2, ("a",), atoms)
            f = g if denote(spec.model(), to_formula(g)) else ("not", g)
        argv = ["sat", "formula.bpi", "--max-states", str(states)]
        if states == 3:
            argv += ["--budget", str(self.BUDGET3)]
        return Task(argv, {"formula.bpi": render(f) + "\n"}, (kind, f))

    MODAL = {"P", "D"}
    TEMPORAL = {"AX", "EF", "AG", "EU"}

    @classmethod
    def _formula(cls, rng, atoms, modal, temporal):
        """A formula of one shape, a binary operator over two unary ones on
        literals, over exactly `atoms`, using P or D iff `modal` and a
        temporal operator iff `temporal`. The shape fixes the evaluation
        cost per candidate model; the atoms and operators fix how many
        candidates an unsatisfiable search visits."""
        unary = ["B"] + (["P", "D"] if modal else []) + (["AX", "EF", "AG"] if temporal else [])
        binary = ["and", "or"] + (["EU"] if temporal else [])

        def wrap(op, g):
            return (op, "a", g) if op in AGENT_OPS else (op, g)

        while True:
            g = (rng.choice(binary),
                 wrap(rng.choice(unary), _literal(rng, atoms)),
                 wrap(rng.choice(unary), _literal(rng, atoms)))
            used = {h[0] for h in walk(g)}
            if ({h[1] for h in walk(g) if h[0] == "atom"} == set(atoms)
                    and bool(used & cls.MODAL) == modal
                    and bool(used & cls.TEMPORAL) == temporal):
                return g

    @staticmethod
    def _axiom(round_, g, modal, temporal):
        """A sound axiom instance; the shape follows the round, not the
        seed, so every seed's run holds the same shapes."""
        B = lambda h: ("B", "a", h)
        P = lambda h: ("P", "a", h)
        imp = lambda x, y: ("imp", x, y)
        shapes = [
            lambda: imp(B(g), B(B(g))),                             # B3
            lambda: imp(("not", B(g)), B(("not", B(g)))),           # B4
            lambda: imp(B(g), ("not", B(("not", g)))),              # B5
        ]
        if modal:
            shapes += [
                lambda: imp(P(P(g)), P(g)),                         # P3
                lambda: imp(P(g), B(P(g))),                         # BP2
                lambda: imp(B(P(g)), P(g)),                         # BP4
            ]
        if temporal:
            shapes += [
                lambda: ("iff", ("EX", g), ("not", ("AX", ("not", g)))),    # EX1
                lambda: ("iff", ("EG", g), ("and", g, ("EX", ("EG", g)))),  # EG1
                lambda: imp(B(("AX", g)), B(("AX", B(g)))),                 # BX1
            ]
        return shapes[round_ % len(shapes)]()

    def check(self, task: Task, answer, code: int, out: str) -> str | None:
        kind, f = task.expect
        lines = out.splitlines()
        if code == 3 and len(lines) == 2 and lines[1].startswith("aborted:"):
            return None
        if code == 1 and len(lines) == 2 and lines[1].startswith("no model with at most"):
            return None if kind != "witness" else "unsat-up-to on a satisfiable formula"
        if code != 0 or len(lines) < 3:
            return f"exit {code} with an unexpected report"
        found = re.fullmatch(r"satisfiable, witness state (\S+) \(\d+ candidates\)", lines[1])
        if kind != "witness" or not found:
            return f"sat reported for a {kind} formula"
        try:
            m = parse_model("\n".join(lines[2:]) + "\n")
        except ParseError as exc:
            return f"witness model does not parse: {exc}"
        if m.index(found.group(1)) not in denote(m, to_formula(f)):
            return "witness state does not satisfy the formula"
        if not validate_model(m).passed:
            return "witness model is not frame-valid"
        return None


class Validate(Workload):
    """`bpictl validate MODEL` on frame-valid models with principal-filter
    preference families, 3-8 states weighted toward the small end, and on
    single-edit mutants that break one known condition."""

    name = "validate"

    # (states, cluster size, core size, mutation), cycled. Costs grow about
    # 4x a state. One shape per size keeps the median and the tail inside a
    # size class; mutants stay small, so no run holds the long violation
    # lists of a large mutant.
    SCHEDULE = (
        (5, 3, 1, "none"), (3, 2, 1, "drop-belief-edge"),
        (4, 2, 1, "none"), (5, 3, 1, "remove-member"),
        (6, 3, 1, "none"), (3, 2, 1, "remove-member"),
        (5, 3, 1, "add-intention"), (7, 3, 1, "none"),
        (4, 2, 1, "drop-belief-edge"), (5, 3, 1, "none"),
        (3, 2, 1, "add-intention"), (6, 3, 1, "none"),
        (5, 3, 1, "drop-belief-edge"), (8, 3, 1, "none"),
        (4, 2, 1, "remove-member"), (5, 3, 1, "none"),
    ) * 2
    # the second copy has a 7-state model in place of its 8-state one: per
    # round six models with 3 states, six with 4, twelve with 5, four with
    # 6, three with 7 and one with 8
    SCHEDULE = SCHEDULE[:29] + ((7, 3, 1, "none"),) + SCHEDULE[30:]
    period = len(SCHEDULE)
    tail_pct = 80
    # mutation -> condition the mutant must be reported under
    EXPECT = {"drop-belief-edge": "B3", "remove-member": "BP3",
              "add-intention": "BPIEF1a"}

    def task(self, seed: int, i: int) -> Task:
        rng = random.Random(f"{self.name}:{seed}:{i}")
        n, k, c, mutation = self.SCHEDULE[i % self.period]
        spec = frame_valid_spec(rng, n, ("a",), cluster=k, core=c)
        outside = [x for x in range(n) if x not in spec.clusters["a"]]
        x = rng.choice(outside)
        if mutation == "drop-belief-edge":
            # x sees K minus one member; K has 2+ states, so B3 fails at x
            spec.belief["a"].remove((x, rng.choice(spec.clusters["a"])))
        elif mutation == "remove-member":
            # a belief successor of x still prefers the member, so BP3 fails
            fam = list(spec.pref["a"][x])
            fam.remove(rng.choice(fam))
            spec.pref["a"] = {**spec.pref["a"], x: fam}
        elif mutation == "add-intention":
            # every preferred set contains the core; this one misses it
            core = frozenset.intersection(*spec.pref["a"][x])
            spec.intent["a"] = {x: [frozenset(range(n)) - {min(core)}]}
        return Task(["validate", "model.bpm"], {"model.bpm": spec.text()}, mutation)

    def check(self, task: Task, answer, code: int, out: str) -> str | None:
        lines = out.splitlines()
        if task.expect == "none":
            if code == 0 and lines == ["model satisfies all frame conditions"]:
                return None
            return f"exit {code} on a frame-valid model"
        cond = self.EXPECT[task.expect]
        if code == 1 and any(line.startswith(f"{cond} agent=a ") for line in lines):
            return None
        return f"exit {code}; {cond} not reported for a {task.expect} mutant"


WORKLOADS = {w.name: w for w in (CheckLarge(), Axioms(), Sat(), Validate())}
