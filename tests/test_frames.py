import random
import re
import time
from collections import Counter

import pytest

from bpictl.frames import (
    CONDITION_NAMES,
    ConditionSkipped,
    check_condition,
    clashes_with_temporal,
    recheck,
    validate_model,
)
from bpictl.model import Model, ModelError, UndeclaredSymbolError, make_model, powerset

from conftest import example_model
from frames_reference import reference_violations

S2 = ("s0", "s1")
TOTAL = [(x, y) for x in S2 for y in S2]
IDENT = [(s, s) for s in S2]
CHAIN = [("s0", "s1"), ("s1", "s1")]  # cluster {s1}, still KD45
LOOPS = [(s, s) for s in S2]
FULL_PREF = {s: [S2] for s in S2}


def _model(belief=TOTAL, temporal=LOOPS, pref=None, intent=None):
    return make_model(
        states=S2, atoms=("p",), agents=("a",),
        labeling={"s0": ["p"]},
        belief={"a": belief}, temporal=temporal,
        pref={"a": pref if pref is not None else FULL_PREF},
        intent={"a": intent} if intent else None,
    )


# Hand-broken fixture per catalog entry. Only the named condition is
# asserted through check_condition; some mutations necessarily disturb
# related conditions as well (for example, a non-serial belief relation
# cannot keep BP4 intact when preferences are nonempty).
MUTANTS = {
    "B3": _model(belief=[("s0", "s1"), ("s1", "s0")]),
    "B4": _model(belief=[("s0", "s0"), ("s0", "s1"), ("s1", "s1")]),
    "B5": _model(belief=[]),
    "P1": _model(pref={"s0": [("s0",), ("s1",)], "s1": FULL_PREF["s1"]}),
    "P2": _model(pref={"s0": [("s0",), ("s1",)], "s1": FULL_PREF["s1"]}),
    "P3": _model(pref={"s0": [("s1",)], "s1": [("s0",)]}),
    "P4": _model(pref={"s0": [()], "s1": FULL_PREF["s1"]}),
    "BP1": _model(belief=IDENT, pref={"s0": [("s0",)], "s1": []}),
    "BP2": _model(pref={"s0": [S2], "s1": []}),
    "BP3": _model(pref={"s0": [], "s1": [S2]}),
    "BP4": _model(belief=CHAIN, pref={"s0": [], "s1": [S2]}),
    "BP5": _model(belief=CHAIN, pref={"s0": [S2], "s1": []}),
    "BI1": _model(belief=IDENT, intent={"s0": [("s0",)], "s1": []}),
    "BI2": _model(intent={"s0": [S2], "s1": []}),
    "BI3": _model(intent={"s0": [], "s1": [S2]}),
    "BI4": _model(belief=CHAIN, intent={"s0": [], "s1": [S2]}),
    "BI5": _model(belief=CHAIN, intent={"s0": [S2], "s1": []}),
    "BPIEF1a": _model(pref={"s0": [], "s1": []},
                      intent={"s0": [("s1",)], "s1": []}),
    "BPIEF1b": _model(intent={"s0": [("s1",)], "s1": []}),
    "BPIEF1c": _model(belief=IDENT, temporal=LOOPS,
                      intent={"s0": [("s1",)], "s1": []}),
    "BX1": _model(belief=CHAIN, temporal=[("s1", "s0")]),
    "BX2": _model(belief=CHAIN, temporal=[("s1", "s0")]),
}


def test_example_model_is_frame_valid():
    report = validate_model(example_model())
    assert report.passed
    assert report.violations == []
    assert report.skipped == []


def test_example_model_three_states_two_agents():
    m = example_model(states=("s0", "s1", "s2"), agents=("a", "b"))
    assert validate_model(m).passed


def test_mutant_table_covers_catalog():
    assert set(MUTANTS) == set(CONDITION_NAMES)


@pytest.mark.parametrize("name", CONDITION_NAMES)
def test_mutant_yields_named_violation(name):
    m = MUTANTS[name]
    violations = check_condition(name, m)
    assert violations, f"{name} mutant not caught"
    assert all(v.condition == name for v in violations)
    assert all(v.agent == "a" for v in violations)


@pytest.mark.parametrize("name", CONDITION_NAMES)
def test_mutant_witness_reproduces(name):
    m = MUTANTS[name]
    for v in check_condition(name, m, max_violations=3):
        assert recheck(m, v)


def test_recheck_is_negative_on_valid_model():
    good = example_model()
    bad = MUTANTS["B3"]
    v = check_condition("B3", bad)[0]
    # the same binding does not witness a failure on the valid model
    assert not recheck(good, v)


def test_max_violations_truncates():
    got = check_condition("B5", MUTANTS["B5"], max_violations=1)
    assert len(got) == 1


def test_unknown_condition_rejected(simple_model):
    with pytest.raises(ValueError):
        check_condition("Z9", simple_model)


def test_caps_raise_skipped():
    big = example_model(states=tuple(f"s{i}" for i in range(11)))
    with pytest.raises(ConditionSkipped):
        check_condition("P1", big)
    # uncapped conditions still run
    assert check_condition("B3", big) == []


def test_validate_reports_skip_not_pass():
    big = example_model(states=tuple(f"s{i}" for i in range(11)))
    report = validate_model(big)
    assert not report.passed
    assert any(name == "P1" for (name, _) in report.skipped)


# --- differential test against the literal conditions ----------------------

def _arbitrary_model(rng):
    """A model with 1-4 states and 1-2 agents whose relations and families
    are drawn at random, frame-valid or not."""
    n = rng.randint(1, 4)
    agents = ("a", "b")[: rng.randint(1, 2)]
    sets = list(powerset(n))

    def relation():
        if rng.random() < 0.3:  # a KD45 cluster
            cluster = rng.sample(range(n), rng.randint(1, n))
            return frozenset((x, y) for x in range(n) for y in cluster)
        density = rng.choice((0.2, 0.5, 0.8))
        return frozenset((x, y) for x in range(n) for y in range(n)
                         if rng.random() < density)

    def family():
        density = rng.choice((0.0, 0.1, 0.3, 0.6))
        return frozenset(q for q in sets if rng.random() < density)

    def table():
        mode = rng.choice(("per-state", "shared", "filter"))
        if mode == "per-state":
            return tuple(family() for _ in range(n))
        if mode == "shared":
            return (family(),) * n
        core = frozenset(rng.sample(range(n), rng.randint(0, n)))
        return (frozenset(q for q in sets if core <= q),) * n

    return Model(
        states=tuple(f"s{i}" for i in range(n)),
        atoms=("p",),
        agents=agents,
        labeling=tuple(frozenset() for _ in range(n)),
        belief={a: relation() for a in agents},
        temporal=relation(),
        pref={a: table() for a in agents},
        intent={a: table() for a in agents},
    )


ARBITRARY = [_arbitrary_model(random.Random(seed)) for seed in range(120)]


@pytest.mark.parametrize("name", CONDITION_NAMES)
def test_conditions_match_literal_reference(name):
    for m in ARBITRARY:
        got = check_condition(name, m)
        want = reference_violations(name, m)
        assert Counter(map(str, got)) == Counter(map(str, want)), (name, m)
        # the reference enumerates in the canonical order
        assert got == want
        assert all(recheck(m, v) for v in got)


def test_clashes_with_temporal_is_bx1_or_bx2():
    rng = random.Random(17)
    clashes = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        states = tuple(f"s{i}" for i in range(n))
        belief, temporal = (
            [(x, y) for x in states for y in states if rng.random() < 0.4]
            for _ in range(2)
        )
        m = make_model(states=states, belief={"a": belief}, temporal=temporal)
        expected = bool(check_condition("BX1", m) or check_condition("BX2", m))
        assert clashes_with_temporal(n, m.view.belief["a"], m.view.temporal) == expected
        clashes += expected
    assert 40 < clashes < 360


def test_violation_order_is_canonical():
    # agents in declared order, then the binding in witness order, states by
    # index and sets by mask
    m = make_model(
        states=S2, atoms=("p",), agents=("b", "a"),
        belief={"a": IDENT, "b": []},
        pref={"a": {"s0": [(), S2]}, "b": {}},
    )
    lines = [str(v).split("  #")[0]
             for name in ("B5", "BP1") for v in check_condition(name, m)]
    assert lines == [
        "B5 agent=b x=s0",
        "B5 agent=b x=s1",
        "BP1 agent=a x=s0 Q1={} Q2={s1}",
        "BP1 agent=a x=s0 Q1={s0 s1} Q2={s0}",
    ]


def test_ten_state_principal_filter_model_is_frame_valid():
    # one agent believes the cluster {s0, s1, s2} and prefers every set
    # holding s0; the cluster loops, other states step anywhere
    n, cluster = 10, (0, 1, 2)
    rng = random.Random(10)
    states = tuple(f"s{i}" for i in range(n))
    members = [tuple(states[i] for i in sorted(q)) for q in powerset(n) if 0 in q]
    temporal = [(states[x], states[x]) for x in cluster]
    temporal += [(states[x], states[y]) for x in range(3, n) for y in range(n)
                 if rng.random() < 0.3]
    m = make_model(
        states=states, atoms=("p",), agents=("a",),
        belief={"a": [(s, states[y]) for s in states for y in cluster]},
        temporal=temporal, pref={"a": {s: members for s in states}},
    )
    start = time.perf_counter()
    report = validate_model(m)
    assert report.passed, report.violations[:3] or report.skipped
    # about 0.1 s on a 2-vCPU host; the literal quantifiers take about a minute
    assert time.perf_counter() - start < 30


# --- model construction checks ------------------------------------------------

def _raw(**changes):
    fields = dict(
        states=("s0", "s1"), atoms=("p",), agents=("a",),
        labeling=(frozenset({"p"}), frozenset()),
        belief={"a": frozenset()}, temporal=frozenset(),
        pref={"a": (frozenset(), frozenset())},
        intent={"a": (frozenset(), frozenset())},
    )
    fields.update(changes)
    return Model(**fields)


def test_model_accepts_complete_tables():
    assert _raw().n == 2


@pytest.mark.parametrize("changes, message", [
    ({"labeling": (frozenset(),)}, "labeling has 1 rows for 2 states"),
    ({"labeling": (frozenset({"q"}), frozenset())}, "state 's0' has undeclared atom 'q'"),
    ({"belief": {}}, "exactly the declared agents ['a']"),
    ({"pref": {"a": (frozenset(), frozenset()), "b": (frozenset(), frozenset())}},
     "exactly the declared agents ['a']"),
    ({"intent": {}}, "exactly the declared agents ['a']"),
    ({"states": ("s0", "s0")}, "duplicate state identifiers"),
    ({"temporal": frozenset({(0, 2)})}, "relation endpoint out of range: (0, 2)"),
    ({"belief": {"a": frozenset({(-1, 0)})}}, "relation endpoint out of range: (-1, 0)"),
    ({"pref": {"a": (frozenset(), frozenset({frozenset({2})}))}},
     "neighbourhood member out of range"),
    ({"intent": {"a": (frozenset(),)}}, "family table for 'a' has wrong length"),
    ({"atoms": ("p", "p")}, "duplicate atom names"),
    ({"agents": ("a", "a")}, "duplicate agent names"),
    ({"agents": (), "belief": {}, "pref": {}, "intent": {}},
     "a model needs at least one agent"),
    ({"states": ("s 0", "s1")}, "name 's 0' is not an ASCII identifier"),
    ({"states": ("s0", "0")}, "name '0' is not an ASCII identifier"),
    ({"agents": ("a b",)}, "name 'a b' is not an ASCII identifier"),
    ({"atoms": ("p", "é")}, "name 'é' is not an ASCII identifier"),
    ({"atoms": ("p", "true")}, "atom name 'true' is a reserved word"),
    ({"atoms": ("AX", "EF")}, "atom name 'AX' is a reserved word"),
])
def test_model_rejects_incomplete_tables(changes, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        _raw(**changes)


@pytest.mark.parametrize("changes, message", [
    ({"labeling": {"s0": ["q"], "s9": []}}, "undeclared atom: 'q'"),
    ({"labeling": {"s9": ["p"]}}, "undeclared state: 's9'"),
    ({"belief": {"a": [("s0", "s8"), ("s9", "s0")]}, "temporal": [("s7", "s0")]},
     "undeclared state: 's8'"),
    ({"belief": {"b": []}, "temporal": [("s7", "s0")]}, "undeclared agent: 'b'"),
    ({"temporal": [("s0", "s1"), ("s9", "s0")], "pref": {"a": {"s8": []}}},
     "undeclared state: 's9'"),
    ({"pref": {"a": {"s0": [["s1"], ["s0", "s9"]]}}, "intent": {"a": {"s8": []}}},
     "undeclared state: 's9'"),
    ({"pref": {"b": {}}, "intent": {"a": {"s8": []}}}, "undeclared agent: 'b'"),
    ({"intent": {"a": {"s9": []}}}, "undeclared state: 's9'"),
])
def test_make_model_names_the_first_undeclared_symbol(changes, message):
    fields = dict(states=("s0", "s1"), atoms=("p",), agents=("a",))
    with pytest.raises(UndeclaredSymbolError, match=re.escape(message)):
        make_model(**fields, **changes)
