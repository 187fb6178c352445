import random

import pytest

from bpictl import formula as F
from bpictl.model import UndeclaredSymbolError, make_model
from bpictl.oracle import denote, ev_exists_next, ev_globally, ev_until

import oracle_reference
from conftest import example_model, random_core_formula, random_model, sparse_model


@pytest.fixture
def m():
    # two states, total belief, famP = {S} everywhere, self-loop temporal,
    # p true at s0 only
    return example_model()


def test_atom_and_boolean(m):
    p = F.Atom("p")
    assert denote(m, p) == {0}
    assert denote(m, F.Not(p)) == {1}
    assert denote(m, F.TRUE) == m.universe
    assert denote(m, F.And(p, F.Not(p))) == frozenset()


def test_belief_on_total_relation(m):
    # every state sees the !p state, so B{a} p holds nowhere
    assert denote(m, F.B("a", F.Atom("p"))) == frozenset()
    assert denote(m, F.B("a", F.TRUE)) == m.universe


def test_preference_exact_membership(m):
    # the family at each state is exactly {S}
    assert denote(m, F.P("a", F.TRUE)) == m.universe
    assert denote(m, F.P("a", F.Atom("p"))) == frozenset()


def test_intention_empty_family(m):
    assert denote(m, F.I("a", F.TRUE)) == frozenset()
    assert denote(m, F.I("a", F.Atom("p"))) == frozenset()


def test_temporal_on_self_loops(m):
    p = F.Atom("p")
    assert denote(m, F.EX(p)) == {0}
    assert denote(m, F.AX(p)) == {0}
    assert denote(m, F.EG(p)) == {0}
    assert denote(m, F.EF(p)) == {0}


def test_until_on_chain():
    m = make_model(
        states=("s0", "s1", "s2"), atoms=("p", "q"), agents=("a",),
        labeling={"s0": ["p"], "s1": ["p"], "s2": ["q"]},
        temporal=[("s0", "s1"), ("s1", "s2"), ("s2", "s2")],
    )
    p, q = F.Atom("p"), F.Atom("q")
    assert denote(m, F.EU(p, q)) == m.universe
    assert denote(m, F.EF(q)) == m.universe
    assert denote(m, F.EG(p)) == frozenset()
    assert denote(m, F.EG(F.Or(p, q))) == m.universe


def test_undeclared_symbols(m):
    with pytest.raises(UndeclaredSymbolError):
        denote(m, F.Atom("zzz"))
    with pytest.raises(UndeclaredSymbolError):
        denote(m, F.B("nobody", F.TRUE))


def test_set_helpers():
    temporal = frozenset({(0, 1), (1, 2), (2, 2)})
    assert ev_exists_next(temporal, frozenset({2}), 3) == {1, 2}
    assert ev_until(temporal, frozenset({0, 1}), frozenset({2}), 3) == {0, 1, 2}
    assert ev_globally(temporal, frozenset({0, 1}), 3) == frozenset()
    assert ev_globally(temporal, frozenset({1, 2}), 3) == {1, 2}


def _fixpoint_invariants(m, f):
    # EF1, EX1 and EG1 as exact set equalities
    lhs = denote(m, F.EF(f))
    assert lhs == denote(m, F.EU(F.TRUE, f))
    assert denote(m, F.EX(f)) == m.universe - denote(m, F.AX(F.Not(f)))
    eg = denote(m, F.EG(f))
    assert eg == denote(m, F.And(f, F.EX(F.EG(f))))


def test_fixpoint_invariants_random():
    rng = random.Random(21)
    for _ in range(150):
        m = random_model(rng)
        f = random_core_formula(rng, m.atoms, m.agents, depth=3)
        _fixpoint_invariants(m, f)


CORE_OPS = ("atom", "true", "not", "and", "or", "B", "P", "I", "AX", "EX", "EF", "EG", "EU")


def _with_top(rng, op, atoms, agents, depth):
    """A random core formula whose outermost operator is op."""
    sub = lambda: random_core_formula(rng, atoms, agents, depth)
    if op == "atom":
        return F.Atom(rng.choice(atoms))
    if op == "true":
        return F.TRUE
    if op in ("not", "AX", "EX", "EF", "EG"):
        return {"not": F.Not, "AX": F.AX, "EX": F.EX, "EF": F.EF, "EG": F.EG}[op](sub())
    if op in ("B", "P", "I"):
        return {"B": F.B, "P": F.P, "I": F.I}[op](rng.choice(agents), sub())
    return {"and": F.And, "or": F.Or, "EU": F.EU}[op](sub(), sub())


@pytest.mark.parametrize("op", CORE_OPS)
def test_denote_matches_per_state_reference(op):
    rng = random.Random(f"oracle-reference:{op}")
    for _ in range(120):
        m = random_model(rng)
        f = _with_top(rng, op, m.atoms, m.agents, depth=3)
        assert denote(m, f) == oracle_reference.denote(m, f), f
    for _ in range(3):
        m = sparse_model(rng, 200)
        f = _with_top(rng, op, m.atoms, m.agents, depth=2)
        assert denote(m, f) == oracle_reference.denote(m, f), f


def test_denote_handles_deep_nesting():
    # far past the recursion limit; EF is evaluated directly, not as E[true U .]
    f = F.Atom("p")
    for _ in range(10_000):
        f = F.EF(F.Not(f))
    m = example_model()
    assert denote(m, f) == {0}
