import random

from bpictl.checker import eval_formula
from bpictl.formula import descendants
from bpictl.frames import validate_model
from bpictl.oracle import denote
from bpictl.textio import parse_formula, parse_model, render_model

from conftest import large_check_formula, random_core_formula, random_model, sparse_model

# the view's mask tables, which only the validator reads; the checker's
# lists are kept in _preds and _succ
MASK_TABLES = {"belief", "temporal", "pref", "intent", "reach"}


def test_check_builds_no_mask_table():
    rng = random.Random(3)
    m = sparse_model(rng, 200)
    every_operator = parse_formula("B{a} EX p & AX P{b} q | I{a} r & EF EG p & E[p U q]")
    for f in (every_operator, *(large_check_formula(rng, m.atoms, m.agents) for _ in range(4))):
        assert eval_formula(m, f) == denote(m, f), f
    built = vars(m.view)
    assert m.view._preds and m.view._succ is not None
    assert MASK_TABLES.isdisjoint(built)


def test_validate_builds_no_list_table():
    m = sparse_model(random.Random(4), 8)
    validate_model(m)
    built = vars(m.view)
    assert {"belief", "temporal", "pref", "intent"} <= built.keys()
    assert m.view._preds == {} and m.view._succ is None


def test_a_kept_view_answers_as_a_fresh_one():
    rng = random.Random(11)
    m = random_model(rng, max_states=6, max_agents=2)
    assert m.agents == ("a", "b")
    view = m.view
    seen = set()
    for _ in range(40):
        f = random_core_formula(rng, m.atoms, m.agents, depth=4)
        fresh = parse_model(render_model(m))
        assert eval_formula(m, f) == eval_formula(fresh, f) == denote(m, f), f
        seen |= {(g.op, g.agent) for g in (f, *descendants(f))}
    assert m.view is view and view._preds.keys() == {None, "a", "b"}
    ops = {op for op, _ in seen}
    assert ops == {"atom", "true", "not", "and", "or", "B", "P", "I",
                   "AX", "EX", "EF", "EG", "EU"}
    assert {agent for op, agent in seen if op in ("B", "P", "I")} == {"a", "b"}
