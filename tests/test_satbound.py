import itertools
import random
import time
from collections import Counter

import pytest

import satbound_reference as reference
from bpictl import satbound
from bpictl.checker import eval_formula
from bpictl.cli import run
from bpictl.formula import (
    CORE_OPS,
    Not,
    agents_of,
    atoms_of,
    mentions_neighbourhood,
    mentions_temporal,
    rewrite_derived,
    subformulas,
)
from bpictl.frames import check_condition, validate_model
from bpictl.model import Model, bits, mask_of
from bpictl.oracle import denote
from bpictl.satbound import _belief_options, closure_bound, sat_search
from bpictl.textio import parse_formula, render_formula

from conftest import random_formula


@pytest.mark.parametrize("text, size", [
    ("p", 2),
    ("B{a} p", 4),
    ("EG p", 4),
    ("p & q", 6),
    ("!p", 3),
    ("true", 2),
    ("E[p U q]", 6),
    ("P{a}(p & q)", 8),
    ("B{a} B{a} p", 6),
    ("p | !p", 5),
])
def test_closure_bound_hand_values(text, size):
    closure, bound = closure_bound(parse_formula(text))
    assert len(closure) == size
    assert bound == 2 ** size


def test_true_is_sat_in_one_state():
    r = sat_search(parse_formula("true"), max_states=1)
    assert r.verdict == "sat"
    assert r.model.n == 1


def test_belief_vs_fact_needs_two_states():
    f = parse_formula("B{a} p & !p")
    assert sat_search(f, max_states=1).verdict == "unsat-up-to"
    r = sat_search(f, max_states=2)
    assert r.verdict == "sat"
    assert r.model.n == 2
    # the returned model really is frame-valid and really satisfies f
    assert validate_model(r.model).passed
    sat = eval_formula(r.model, f)
    assert r.model.index(r.witness) in sat


def test_contradiction_unsat():
    r = sat_search(parse_formula("p & !p"), max_states=3)
    assert r.verdict == "unsat-up-to"
    assert r.model is None
    assert r.explored > 0


def test_budget_aborts():
    r = sat_search(parse_formula("p & !p"), max_states=3, budget=10)
    assert r.verdict == "aborted"
    assert r.explored == 10


def test_preference_formula_sat():
    r = sat_search(parse_formula("P{a} p & !p"), max_states=2)
    assert r.verdict == "sat"
    assert validate_model(r.model).passed


def test_intention_formula_unsat_under_frame_conditions():
    # nonempty intention families cannot pass the frame validator, so any
    # positive intention claim is unsatisfiable over frame-valid models
    r = sat_search(parse_formula("I{a} true"), max_states=2)
    assert r.verdict == "unsat-up-to"


def test_negative_intention_valid():
    r = sat_search(parse_formula("!I{a} p"), max_states=1)
    assert r.verdict == "sat"


@pytest.mark.parametrize("text, states, candidates", [
    # one atom, one agent, no temporal operator: sorted labelings times
    # KD45 relations, summed over the sizes (2x1 + 3x4 + 4x17 + 5x89)
    pytest.param("p & !p", 3, 82, id="3-82"),
    pytest.param("p & !p", 4, 527, id="4-527"),
    # the same labelings times the frame-valid preference options
    # (2x2 + 3x14 + 4x115 + 5x1,232)
    pytest.param("P{a} p & !P{a} p", 3, 506, id="P-3-506"),
    pytest.param("P{a} p & !P{a} p", 4, 6_666, id="P-4-6666"),
])
def test_contradiction_candidate_counts(text, states, candidates):
    r = sat_search(parse_formula(text), max_states=states)
    assert r.verdict == "unsat-up-to"
    assert r.explored == candidates


def test_labelings_come_in_combinations_with_replacement_order():
    for k, n in itertools.product((1, 2, 3), (1, 2, 3, 4)):
        made = [labels for labels, _ in satbound._labelings(k, n)]
        assert made == list(itertools.combinations_with_replacement(range(1 << k), n))


def test_kd45_relations_match_the_filter():
    # built from clusters, in the order the reference's filter yields them
    for n in (1, 2, 3, 4):
        assert satbound._kd45_relations(n) == list(reference._kd45_relations(n))
    assert len(satbound._kd45_relations(5)) == 552


@pytest.mark.parametrize("n, count", [(1, 2), (2, 14), (3, 115)])
def test_every_preference_option_is_frame_valid(n, count):
    # no candidate is validated, so each option must be frame-valid alone;
    # the frame conditions read no labeling, and T is empty here
    _, options = _belief_options(n, True)
    assert len(options) == count
    states = tuple(f"s{i}" for i in range(n))
    empty = {"a": (frozenset(),) * n}
    for rel, fam in options:
        m = Model(states=states, atoms=("p",), agents=("a",),
                  labeling=(frozenset(),) * n, belief={"a": rel},
                  temporal=frozenset(), pref={"a": fam}, intent=empty)
        assert validate_model(m).passed, (rel, fam)


def test_an_invalid_witness_raises(monkeypatch, capsys):
    # a family holding the empty set fails P4, and P{a} p then holds at a
    # state where p is false: the first candidate satisfies the formula
    monkeypatch.setattr(satbound, "_trace_families",
                        lambda cluster, n: iter([frozenset({frozenset()})]))
    with pytest.raises(RuntimeError, match="not frame-valid"):
        sat_search(parse_formula("P{a} p"), max_states=1)
    assert run(["sat", "P{a} p", "--max-states", "1"]) == 4
    assert "not frame-valid" in capsys.readouterr().err


def test_budget_bounds_a_three_agent_search():
    # each agent has 2, 14 and 115 choices at 1, 2 and 3 states; the agents'
    # choices are combined one candidate at a time, so a budget past the
    # 16 + 8,232 candidates of sizes 1 and 2 stops early in size 3
    f = parse_formula("P{a} p & P{b} p & P{c} p & p & !p")
    r = sat_search(f, max_states=3, budget=12_400)
    assert r.verdict == "aborted"
    assert r.explored == 12_400
    assert r == reference.model_per_candidate_search(f, 3, 12_400)


def test_temporal_search_skips_clashing_pairs():
    # EX p & AX !p is unsat. Each temporal relation is paired only with the
    # belief relations that pass BX1 and BX2 with it, counted here with
    # check_condition; one atom gives n + 1 sorted labelings at n states.
    expected = 0
    for n in (1, 2, 3):
        states = tuple(f"s{i}" for i in range(n))
        pairs = [(x, y) for x in range(n) for y in range(n)]
        empty = {"a": (frozenset(),) * n}
        for tmask in range(1 << len(pairs)):
            temporal = frozenset(p for i, p in enumerate(pairs) if tmask >> i & 1)
            for rel, _ in reference._kd45_relations(n):
                m = Model(states=states, atoms=("p",), agents=("a",),
                          labeling=(frozenset(),) * n, belief={"a": rel},
                          temporal=temporal, pref=empty, intent=empty)
                if not check_condition("BX1", m) and not check_condition("BX2", m):
                    expected += n + 1
    r = sat_search(parse_formula("EX p & AX !p"), max_states=3)
    assert r.verdict == "unsat-up-to"
    assert r.explored == expected


def _assert_witness(r, f):
    assert validate_model(r.model).passed
    assert r.model.index(r.witness) in denote(r.model, f)


def _corpus():
    rng = random.Random(5)
    return [
        random_formula(rng, ("p", "q")[:rng.randint(1, 2)], ("a",),
                       depth=rng.randint(1, 3))
        for _ in range(150)
    ]


def test_verdicts_match_reference_up_to_two_states():
    corpus = _corpus()
    ops = {g.op for f in corpus for g in subformulas(f)}
    assert ops >= {"atom", "true", "not", "and", "or", "imp", "iff", "B", "P", "I",
                   "D", "AX", "EX", "EF", "EG", "AG", "AF", "EU", "AU"}
    verdicts = set()
    for f in corpus:
        expected, _, _, _ = reference.sat_search(f, 2)
        r = sat_search(f, max_states=2)
        assert r.verdict == expected, render_formula(f)
        if r.verdict == "sat":
            _assert_witness(r, f)
        verdicts.add(r.verdict)
    assert verdicts == {"sat", "unsat-up-to"}


@pytest.mark.parametrize("text, verdict", [
    ("B{a} p & !B{a} B{a} p", "unsat-up-to"),
    # a state with neither atom believing p | q while doubting p and doubting q
    # needs belief successors labelled {p} and {q}: three states
    ("!p & !q & B{a}(p | q) & !B{a} p & !B{a} q", "sat"),
])
def test_verdicts_match_reference_at_three_states(text, verdict):
    f = parse_formula(text)
    assert not mentions_temporal(f) and not mentions_neighbourhood(f)
    expected, _, _, _ = reference.sat_search(f, 3)
    r = sat_search(f, max_states=3)
    assert r.verdict == expected == verdict
    if verdict == "sat":
        assert r.model.n == 3
        _assert_witness(r, f)


def test_search_matches_the_model_per_candidate_loop_up_to_two_states():
    for f in _corpus() + [Not(f) for f in _corpus()]:
        expected = reference.model_per_candidate_search(f, 2, satbound.DEFAULT_BUDGET)
        assert sat_search(f, max_states=2) == expected, render_formula(f)


@pytest.mark.parametrize("text, budget", [
    ("B{a} p & !B{a} B{a} p", satbound.DEFAULT_BUDGET),
    ("!p & !q & B{a}(p | q) & !B{a} p & !B{a} q", satbound.DEFAULT_BUDGET),
    ("EX p & AX !p", satbound.DEFAULT_BUDGET),
    ("P{a} p & !P{a} p", satbound.DEFAULT_BUDGET),
    ("EG p & !E[p U !p] & EX EX !q", satbound.DEFAULT_BUDGET),
    ("p & !p", 10),
    ("EX p & AX !p", 5_000),
    ("B{a} p & !B{b} p & P{b} q & !q", 2_000),
])
def test_search_matches_the_model_per_candidate_loop_at_three_states(text, budget):
    f = parse_formula(text)
    expected = reference.model_per_candidate_search(f, 3, budget)
    assert sat_search(f, max_states=3, budget=budget) == expected


def _candidate_model(core, atom_masks, ex, combo) -> Model:
    """A Model of one candidate, read back from what the candidate check
    reads: T from the pre-image table's singletons."""
    n = len(ex).bit_length() - 1
    atoms = tuple(sorted(atoms_of(core))) or ("p",)
    agents = tuple(sorted(agents_of(core))) or ("a",)
    return Model(
        states=tuple(f"s{i}" for i in range(n)), atoms=atoms, agents=agents,
        labeling=tuple(frozenset(p for p, m in zip(atoms, atom_masks) if m >> x & 1)
                       for x in range(n)),
        temporal=frozenset((x, y) for y in range(n) for x in bits(ex[1 << y])),
        belief={a: c.relation for a, c in zip(agents, combo)},
        pref={a: c.families for a, c in zip(agents, combo)},
        intent={a: (frozenset(),) * n for a in agents},
    )


def test_every_candidate_check_matches_eval_formula(monkeypatch):
    checks = Counter()
    evaluate = satbound._evaluate

    def checked(program, atom_masks, ex, combo):
        holds = evaluate(program, atom_masks, ex, combo)
        m = _candidate_model(core, atom_masks, ex, combo)
        assert holds == mask_of(eval_formula(m, core)), (render_formula(core), m)
        checks.update(op for op, _, _ in program)
        return holds

    monkeypatch.setattr(satbound, "_evaluate", checked)
    # the corpus rarely writes EX and has one agent; these searches check
    # EX on every T, and each agent's own tables
    pinned = ["EX p & AX !p", "EX EX p & !EF p", "EX B{a} p & AX EX !p",
              "P{b} p & !P{a} p & B{a} !p & !B{b} !p"]
    for f in _corpus() + [Not(f) for f in _corpus()] + list(map(parse_formula, pinned)):
        core = rewrite_derived(f)
        sat_search(f, max_states=2)
    assert set(checks) == CORE_OPS
    assert min(checks.values()) > 300


def _count_calls(monkeypatch) -> Counter:
    """Counts the Model builds and eval_formula calls of sat_search."""
    counts = Counter()
    for name in ("Model", "eval_formula"):
        def counting(*args, _name=name, _original=getattr(satbound, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(satbound, name, counting)
    return counts


def test_an_unsat_search_builds_no_model(monkeypatch):
    counts = _count_calls(monkeypatch)
    r = sat_search(parse_formula("EX p & AX !p"), max_states=3)
    assert (r.verdict, r.explored) == ("unsat-up-to", 8_119)
    assert counts == {}


def test_a_sat_search_builds_and_replays_the_witness_only(monkeypatch):
    counts = _count_calls(monkeypatch)
    r = sat_search(parse_formula("!p & !q & B{a}(p | q) & !B{a} p & !B{a} q"), 3)
    assert r.verdict == "sat"
    assert r.explored > 100
    assert counts == {"Model": 1, "eval_formula": 1}


def test_a_faulty_candidate_check_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(satbound, "_evaluate", lambda program, atom_masks, ex, combo: 1)
    with pytest.raises(RuntimeError, match="witness replay disagrees"):
        sat_search(parse_formula("p & !p"), max_states=1)
    assert run(["sat", "p & !p", "--max-states", "1"]) == 4
    assert "witness replay disagrees" in capsys.readouterr().err


@pytest.mark.parametrize("atoms", [20, 22])
def test_many_atoms_abort_at_once(atoms):
    # labelings are made as the search reaches them, so the five candidates
    # of the budget cost five labelings, not 2^atoms label sets
    formula = " & ".join(f"p{i}" for i in range(atoms))
    start = time.perf_counter()
    assert run(["sat", formula, "--budget", "5", "--max-states", "2"]) == 3
    assert time.perf_counter() - start < 1
