import random

import pytest

from bpictl import formula as F
from bpictl.model import Model, make_model


def example_model(states=("s0", "s1"), atoms=("p",), labeling=None, agents=("a",)):
    """The simple reference model: total belief, the preference family {S}
    at every state, no intentions, and a self-loop temporal relation."""
    states = tuple(states)
    if labeling is None:
        labeling = {states[0]: list(atoms)}
    return make_model(
        states=states,
        atoms=atoms,
        agents=agents,
        labeling=labeling,
        belief={a: [(x, y) for x in states for y in states] for a in agents},
        temporal=[(s, s) for s in states],
        pref={a: {s: [states] for s in states} for a in agents},
    )


@pytest.fixture
def simple_model():
    return example_model()


def random_model(rng, max_states=6, max_atoms=3, max_agents=2):
    """Arbitrary (not necessarily frame-valid) model for differential and
    invariant testing."""
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    atoms = tuple("pqr"[: rng.randint(1, max_atoms)])
    agents = tuple("ab"[: rng.randint(1, max_agents)])
    labeling = {s: [p for p in atoms if rng.random() < 0.5] for s in states}

    def rel():
        return [
            (x, y) for x in states for y in states if rng.random() < 0.4
        ]

    def family():
        out = []
        for _ in range(rng.randint(0, 3)):
            out.append(tuple(s for s in states if rng.random() < 0.5))
        return out

    return make_model(
        states=states, atoms=atoms, agents=agents, labeling=labeling,
        belief={a: rel() for a in agents},
        temporal=rel(),
        pref={a: {s: family() for s in states} for a in agents},
        intent={a: {s: family() for s in states} for a in agents},
    )


def random_core_formula(rng, atoms, agents, depth=4):
    """Random formula over the core fragment, bounded nesting depth."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.15:
            return F.TRUE
        return F.Atom(rng.choice(atoms))
    op = rng.choice(
        ["not", "and", "or", "B", "P", "I", "AX", "EX", "EF", "EG", "EU"]
    )
    sub = lambda: random_core_formula(rng, atoms, agents, depth - 1)
    if op == "not":
        return F.Not(sub())
    if op == "and":
        return F.And(sub(), sub())
    if op == "or":
        return F.Or(sub(), sub())
    if op in ("B", "P", "I"):
        ctor = {"B": F.B, "P": F.P, "I": F.I}[op]
        return ctor(rng.choice(agents), sub())
    if op == "AX":
        return F.AX(sub())
    if op == "EX":
        return F.EX(sub())
    if op == "EF":
        return F.EF(sub())
    if op == "EG":
        return F.EG(sub())
    return F.EU(sub(), sub())


def random_formula(rng, atoms, agents, depth=4):
    """Random formula that may also use the derived operators."""
    if rng.random() < 0.6:
        return random_core_formula(rng, atoms, agents, depth)
    op = rng.choice(["imp", "iff", "D", "AG", "AF", "AU"])
    sub = lambda: random_formula(rng, atoms, agents, depth - 1) \
        if depth > 0 else F.Atom(rng.choice(atoms))
    if op == "imp":
        return F.Imp(sub(), sub())
    if op == "iff":
        return F.Iff(sub(), sub())
    if op == "D":
        return F.D(rng.choice(agents), sub())
    if op == "AG":
        return F.AG(sub())
    if op == "AF":
        return F.AF(sub())
    return F.AU(sub(), sub())


def sparse_model(rng, n, agents=("a", "b"), atoms=("p", "q", "r")):
    """Sparse model at index level, built without make_model so large ones
    are cheap: temporal out-degree 1-4, each agent believing small clusters
    (1-3 states), and at one state in seven (at most 30 states) a
    preference and an intention family holding the extension of a random
    atom."""
    states = tuple(f"s{i}" for i in range(n))
    labeling = tuple(frozenset(p for p in atoms if rng.random() < 0.5) for _ in states)
    temporal = frozenset(
        (x, y) for x in range(n) for y in rng.sample(range(n), rng.randint(1, min(4, n)))
    )

    def belief():
        order = list(range(n))
        rng.shuffle(order)
        clusters = []
        for pos in range(0, min(n, 3 * (n // 20 + 1)), 3):
            clusters.append(order[pos:pos + rng.randint(1, 3)])
        home = {x: k for k in clusters for x in k}
        return frozenset((x, y) for x in range(n) for y in home.get(x) or rng.choice(clusters))

    extensions = [frozenset(i for i in range(n) if p in labeling[i]) for p in atoms]

    def families():
        chosen = set(rng.sample(range(n), min(n // 7 + 1, 30)))
        return tuple(
            frozenset({rng.choice(extensions)}) if x in chosen else frozenset()
            for x in range(n)
        )

    return Model(
        states=states, atoms=tuple(atoms), agents=tuple(agents), labeling=labeling,
        belief={a: belief() for a in agents}, temporal=temporal,
        pref={a: families() for a in agents}, intent={a: families() for a in agents},
    )


def large_check_formula(rng, atoms, agents):
    """A formula of the shape the check-large benchmark uses: two SCC-bound
    operators (EG, AF, A[. U .]) on literals joined by a boolean, under one
    Pre operator (B on a random agent, or AX) and up to two cheap wrappers
    (AG, EF, E[. U .], and, or) in random order."""

    def lit():
        p = F.Atom(rng.choice(atoms))
        return F.Not(p) if rng.random() < 0.5 else p

    heavy = [lambda: F.EG(lit()), lambda: F.AF(lit()), lambda: F.AU(lit(), lit())]
    wraps = [rng.choice([lambda g: F.B(rng.choice(agents), g), F.AX])]
    cheap = [F.AG, F.EF, lambda g: F.EU(lit(), g), lambda g: F.And(g, lit()),
             lambda g: F.Or(lit(), g)]
    wraps += [rng.choice(cheap) for _ in range(rng.randint(0, 2))]
    rng.shuffle(wraps)
    f = rng.choice([F.And, F.Or])(rng.choice(heavy)(), rng.choice(heavy)())
    for wrap in wraps:
        f = wrap(f)
    return f
