import copy
import pickle
import random

import pytest

from bpictl import formula as F
from bpictl.formula import (
    is_core,
    rewrite_derived,
    subformula_closure,
    subformulas,
)
from bpictl.oracle import denote
from bpictl.textio import parse_formula

from conftest import example_model, random_formula


def test_core_ops_are_core():
    f = F.EU(F.B("a", F.Atom("p")), F.EG(F.Not(F.TRUE)))
    assert is_core(f)
    assert rewrite_derived(f) == f


def test_derived_ops_are_not_core():
    assert not is_core(F.Imp(F.Atom("p"), F.Atom("q")))
    assert not is_core(F.EX(F.AG(F.Atom("p"))))


def test_rewrite_imp():
    p, q = F.Atom("p"), F.Atom("q")
    assert rewrite_derived(F.Imp(p, q)) == F.Or(F.Not(p), q)


def test_rewrite_desire():
    p = F.Atom("p")
    got = rewrite_derived(F.D("a", p))
    assert got == F.And(F.P("a", p), F.B("a", F.Not(p)))


def test_rewrite_ag():
    p = F.Atom("p")
    assert rewrite_derived(F.AG(p)) == F.Not(F.EF(F.Not(p)))


def test_rewrite_is_idempotent_and_core():
    rng = random.Random(7)
    for _ in range(300):
        f = random_formula(rng, ("p", "q"), ("a", "b"), depth=4)
        core = rewrite_derived(f)
        assert is_core(core)
        assert rewrite_derived(core) is core


def test_rewrite_preserves_meaning():
    # derived operators must mean exactly what their expansions mean
    m = example_model(states=("s0", "s1", "s2"), atoms=("p", "q"),
                      labeling={"s0": ["p"], "s1": ["q"]})
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng, ("p", "q"), ("a",), depth=3)
        assert denote(m, f) == denote(m, rewrite_derived(f))


def test_au_expansion_on_chain():
    # A[p U q] on a chain s0 -> s1 -> s1 where q holds at s1 only
    from bpictl.model import make_model
    m = make_model(
        states=("s0", "s1"), atoms=("p", "q"), agents=("a",),
        labeling={"s0": ["p"], "s1": ["q"]},
        temporal=[("s0", "s1"), ("s1", "s1")],
    )
    assert denote(m, F.AU(F.Atom("p"), F.Atom("q"))) == m.universe
    assert denote(m, F.AF(F.Atom("q"))) == m.universe


def test_subformulas_counts():
    p, q = F.Atom("p"), F.Atom("q")
    assert len(subformulas(p)) == 1
    assert len(subformulas(F.And(p, q))) == 3
    assert len(subformulas(F.And(p, p))) == 2  # shared subterm counted once


@pytest.mark.parametrize("text, size", [
    ("p", 2),
    ("!p", 3),          # p, !p and !!p
    ("true", 2),
    ("p | !p", 5),
])
def test_closure_examples(text, size):
    from bpictl.textio import parse_formula
    assert len(subformula_closure(parse_formula(text))) == size


def test_atoms_and_agents():
    f = F.And(F.B("a", F.Atom("p")), F.I("b", F.Atom("q")))
    assert F.atoms_of(f) == {"p", "q"}
    assert F.agents_of(f) == {"a", "b"}


def test_structurally_equal_formulas_are_one_node():
    assert F.Not(F.Atom("p")) is F.Not(F.Atom("p"))
    assert F.Formula("B", agent="a", left=F.TRUE) is F.B("a", F.TRUE)
    assert F.Atom("p") is not F.Atom("q")
    with pytest.raises(AttributeError):
        F.Atom("p").name = "q"


def test_pickle_and_deepcopy_keep_identity():
    f = F.AU(F.D("a", F.Atom("p")), F.Not(F.TRUE))
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.deepcopy(f) is f
    assert copy.copy(f) is f


def test_symbols_and_neighbourhood_are_cached_per_node():
    f = F.And(F.D("a", F.Atom("p")), F.B("b", F.Atom("q")))
    assert F.atoms_of(f) is F.atoms_of(f)
    assert F.mentions_neighbourhood(f)
    assert F.mentions_neighbourhood(rewrite_derived(f))
    assert not F.mentions_neighbourhood(F.B("a", F.EX(F.Atom("p"))))


@pytest.mark.parametrize("text, temporal, neighbourhood", [
    ("AG p & B{a} q", True, False),
    ("P{a} EX p", True, True),
    ("A[p U true]", True, False),
    ("!AF true", True, False),
    ("D{a} !p", False, True),
    ("I{a} true <-> q", False, True),
])
def test_temporal_flag_is_cached_with_the_symbols(text, temporal, neighbourhood):
    # parsed here, not built in the parameter list: a node held there stays
    # alive for the whole session and breaks the tests that watch nodes die
    f = parse_formula(text)
    assert F.mentions_temporal(f) is temporal
    assert F.mentions_temporal(rewrite_derived(f)) is temporal
    assert F.mentions_neighbourhood(f) is neighbourhood


def test_descendants_are_a_cached_postorder_without_the_node():
    p, q = F.Atom("p"), F.Atom("q")
    f = F.And(F.Or(p, q), F.EU(F.Not(p), F.Or(p, q)))
    d = F.descendants(f)
    assert d is F.descendants(f)
    assert len(d) == len(set(d)) and set(d) == subformulas(f) - {f}
    assert all(d.index(c) < d.index(g) for g in d for c in g.children())
