import random

import pytest

from bpictl import formula as F
from bpictl.checker import (
    eval_formula,
    is_satisfiable_in,
    is_valid,
    pre_modal,
    tarjan_scc,
)
from bpictl.model import UndeclaredSymbolError, make_model
from bpictl.oracle import denote

from conftest import (
    example_model,
    large_check_formula,
    random_core_formula,
    random_model,
    sparse_model,
)


@pytest.fixture
def m():
    return example_model()


def test_pre_modal_belief(m):
    assert pre_modal("B", m, "a", frozenset({0})) == frozenset()
    assert pre_modal("B", m, "a", m.universe) == m.universe


def test_pre_modal_neighbourhood(m):
    assert pre_modal("P", m, "a", m.universe) == m.universe
    assert pre_modal("P", m, "a", frozenset({0})) == frozenset()
    assert pre_modal("I", m, "a", m.universe) == frozenset()


def test_pre_modal_temporal(m):
    assert pre_modal("EX", m, None, frozenset({0})) == {0}
    assert pre_modal("AX", m, None, frozenset({0})) == {0}


def test_pre_modal_rejects_unknown_agent(m):
    with pytest.raises(UndeclaredSymbolError):
        pre_modal("B", m, "zzz", m.universe)


def test_tarjan_components():
    succ = [[1], [0], [2], [0]]  # 0 <-> 1, 2 -> 2, 3 -> 0
    part = tarjan_scc(frozenset({0, 1, 2, 3}), succ)
    comps = set(part.components)
    assert frozenset({0, 1}) in comps
    assert frozenset({2}) in comps
    assert frozenset({3}) in comps
    by_comp = dict(zip(part.components, part.nontrivial))
    assert by_comp[frozenset({0, 1})] is True
    assert by_comp[frozenset({2})] is True    # self-loop
    assert by_comp[frozenset({3})] is False   # no loop


def test_tarjan_respects_induced_subgraph():
    succ = [[1], [0]]
    part = tarjan_scc(frozenset({0}), succ)
    assert part.components == (frozenset({0}),)
    assert part.nontrivial == (False,)


def _mutual_reachability(sub, succ):
    """Brute force: component -> nontrivial flag, by one search per node
    inside sub."""
    reach = {}
    for s in sub:
        seen, frontier = {s}, [s]
        while frontier:
            for t in succ[frontier.pop()]:
                if t in sub and t not in seen:
                    seen.add(t)
                    frontier.append(t)
        reach[s] = seen
    out = {}
    for s in sub:
        comp = frozenset(t for t in reach[s] if s in reach[t])
        out[comp] = len(comp) > 1 or s in succ[s]
    return out


def test_tarjan_matches_mutual_reachability():
    rng = random.Random(23)
    for _ in range(250):
        n = rng.randint(1, 40)
        density = rng.choice([0.0, 0.03, 0.08, 0.2, 0.5])
        succ = [[t for t in range(n) if rng.random() < density] for _ in range(n)]
        for x, row in enumerate(succ):
            if rng.random() < 0.15:
                row.append(x)  # a self-loop, sometimes twice
            rng.shuffle(row)
        sub = frozenset(s for s in range(n) if rng.random() < rng.choice([0.4, 0.8, 1.0]))
        part = tarjan_scc(sub, succ)
        assert len(part.components) == len(part.nontrivial)
        found = dict(zip(part.components, part.nontrivial))
        assert len(found) == len(part.components)
        assert found == _mutual_reachability(sub, succ)
        # completed sink-first: an edge never leads to a later component
        position = {s: i for i, comp in enumerate(part.components) for s in comp}
        assert all(position[t] <= position[s]
                   for s in sub for t in succ[s] if t in sub)


def test_eg_needs_nontrivial_scc():
    # p holds on a path with no cycle inside [[p]], so EG p is empty
    m = make_model(
        states=("s0", "s1", "s2"), atoms=("p",), agents=("a",),
        labeling={"s0": ["p"], "s1": ["p"]},
        temporal=[("s0", "s1"), ("s1", "s2"), ("s2", "s0")],
    )
    assert eval_formula(m, F.EG(F.Atom("p"))) == frozenset()
    assert eval_formula(m, F.EG(F.TRUE)) == m.universe


def test_eu_respects_hold_set():
    m = make_model(
        states=("s0", "s1", "s2"), atoms=("p", "q"), agents=("a",),
        labeling={"s0": ["p"], "s2": ["q"]},
        temporal=[("s0", "s1"), ("s1", "s2")],
    )
    # s0 cannot reach q while staying in p (s1 breaks the chain)
    assert eval_formula(m, F.EU(F.Atom("p"), F.Atom("q"))) == {2}


def test_validity_and_satisfiability(m):
    assert is_valid(m, F.TRUE)
    assert not is_valid(m, F.Atom("p"))
    assert is_satisfiable_in(m, F.Atom("p"))
    assert not is_satisfiable_in(m, F.And(F.Atom("p"), F.Not(F.Atom("p"))))


def test_differential_against_oracle():
    rng = random.Random(5)
    for _ in range(300):
        m = random_model(rng)
        f = random_core_formula(rng, m.atoms, m.agents, depth=4)
        assert eval_formula(m, f) == denote(m, f)


@pytest.mark.parametrize("n, formulas", [(100, 12), (1_000, 6), (10_000, 3)])
def test_differential_against_oracle_on_sparse_models(n, formulas):
    rng = random.Random(f"sparse:{n}")
    m = sparse_model(rng, n, agents=("a", "b"))
    for _ in range(formulas):
        f = large_check_formula(rng, m.atoms, m.agents)
        assert eval_formula(m, f) == denote(m, f), f
