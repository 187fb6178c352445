"""Property-based invariants with hypothesis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from bpictl import formula as F
from bpictl.checker import eval_formula
from bpictl.formula import is_core, rewrite_derived, subformula_closure, subformulas
from bpictl.model import make_model
from bpictl.oracle import denote
from bpictl.textio import parse_formula, parse_model, render_formula, render_model

ATOMS = ("p", "q", "r")
AGENTS = ("a", "b")

atoms = st.sampled_from(ATOMS).map(F.Atom)
agents = st.sampled_from(AGENTS)


def _extend(children):
    unary = st.sampled_from([F.Not, F.AX, F.EX, F.EF, F.EG, F.AG, F.AF])
    binary = st.sampled_from([F.And, F.Or, F.Imp, F.Iff, F.EU, F.AU])
    modal = st.sampled_from([F.B, F.P, F.I, F.D])
    return st.one_of(
        st.tuples(unary, children).map(lambda t: t[0](t[1])),
        st.tuples(binary, children, children).map(lambda t: t[0](t[1], t[2])),
        st.tuples(modal, agents, children).map(lambda t: t[0](t[1], t[2])),
    )


formulas = st.recursive(st.one_of(atoms, st.just(F.TRUE)), _extend, max_leaves=12)


@st.composite
def models(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    states = tuple(f"s{i}" for i in range(n))
    labeling = {
        s: draw(st.lists(st.sampled_from(ATOMS), unique=True)) for s in states
    }
    pairs = [(x, y) for x in states for y in states]
    rel = lambda: draw(st.lists(st.sampled_from(pairs), unique=True))
    member = st.lists(st.sampled_from(states), unique=True).map(tuple)
    family = st.lists(member, max_size=3, unique=True)
    return make_model(
        states=states, atoms=ATOMS, agents=AGENTS, labeling=labeling,
        belief={a: rel() for a in AGENTS},
        temporal=rel(),
        pref={a: {s: draw(family) for s in states} for a in AGENTS},
        intent={a: {s: draw(family) for s in states} for a in AGENTS},
    )


@given(formulas)
def test_formula_roundtrip(f):
    assert parse_formula(render_formula(f)) is f


@given(formulas)
def test_rewrite_core_and_idempotent(f):
    core = rewrite_derived(f)
    assert is_core(core)
    assert rewrite_derived(core) is core


@given(formulas)
def test_closure_contains_subformulas(f):
    closure = subformula_closure(f)
    assert subformulas(f) <= closure
    assert all(F.Not(g) in closure for g in subformulas(f))


@settings(max_examples=60, deadline=None)
@given(models())
def test_model_roundtrip(m):
    text = render_model(m)
    assert parse_model(text) == m
    assert render_model(parse_model(text)) == text


@settings(max_examples=80, deadline=None)
@given(models(), formulas)
def test_checker_matches_oracle(m, f):
    assert eval_formula(m, f) == denote(m, f)


@settings(max_examples=80, deadline=None)
@given(models(), formulas)
def test_fixpoint_axioms_hold_semantically(m, f):
    # EF1, EX1, EG1 as set equalities on arbitrary models
    assert denote(m, F.EF(f)) == denote(m, F.EU(F.TRUE, f))
    assert denote(m, F.EX(f)) == m.universe - denote(m, F.AX(F.Not(f)))
    assert denote(m, F.EG(f)) == denote(m, F.And(f, F.EX(F.EG(f))))


@settings(max_examples=60, deadline=None)
@given(models(), formulas)
def test_negation_is_complement(m, f):
    assert denote(m, F.Not(f)) == m.universe - denote(m, f)
