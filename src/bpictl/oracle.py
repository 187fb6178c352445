"""Reference denotational evaluator.

Evaluates core formulas by direct set enumeration and naive fixpoint
iteration. Deliberately independent of the labeling algorithm in
``checker`` so the two can cross-validate (only the undeclared-symbol
check is shared); optimizes for obvious correctness, not speed.

Each pre-image is one pass over the relation's pairs, read straight off
the semantics: EX(ss) is the set of sources of pairs that end in ss, and
AX(ss) and B(ss) are the states that are not the source of a pair ending
outside ss. The fixpoints stay naive iteration, with no adjacency lists,
SCCs or worklists. The pre-images are linear, not per-state scans, because
the benchmark checks every task it finishes against this evaluator: with
O(|S|·|R|) pre-images that check took longer than the timed runs.
"""

from __future__ import annotations

from .checker import check_symbols
from .formula import Formula, descendants, rewrite_derived
from .model import Model, StateSet


def ev_exists_next(temporal, ss: StateSet, n: int) -> StateSet:
    """States with some temporal successor in ss."""
    return frozenset(x for (x, t) in temporal if t in ss)


def ev_all_next(rel, ss: StateSet, n: int) -> StateSet:
    """States all of whose rel-successors are in ss."""
    return frozenset(range(n)) - {x for (x, t) in rel if t not in ss}


def ev_until(temporal, hold: StateSet, goal: StateSet, n: int) -> StateSet:
    """Least fixpoint X = goal ∪ (hold ∩ preEX(X))."""
    current = goal
    while True:
        nxt = goal | (hold & ev_exists_next(temporal, current, n))
        if nxt == current:
            return current
        current = nxt


def ev_globally(temporal, hold: StateSet, n: int) -> StateSet:
    """Greatest fixpoint X = hold ∩ preEX(X), starting from hold."""
    current = hold
    while True:
        nxt = current & ev_exists_next(temporal, current, n)
        if nxt == current:
            return current
        current = nxt


def denote(m: Model, f: Formula) -> StateSet:
    """The set of states of m satisfying f. Subformulas are evaluated
    innermost-first along their cached postorder, so nesting depth is not
    bounded by the recursion limit."""
    check_symbols(m, f)
    core = rewrite_derived(f)
    values: dict[Formula, StateSet] = {}
    for sub in descendants(core):
        values[sub] = _den(m, sub, values)
    return _den(m, core, values)


def _den(m: Model, f: Formula, values: dict) -> StateSet:
    n = m.n
    op = f.op
    if op == "atom":
        return m.atom_extension(f.name)
    if op == "true":
        return m.universe
    if op == "not":
        return m.universe - values[f.left]
    if op == "and":
        return values[f.left] & values[f.right]
    if op == "or":
        return values[f.left] | values[f.right]
    if op == "B":
        return ev_all_next(m.belief[f.agent], values[f.left], n)
    if op == "P":
        return frozenset(s for s in range(n) if values[f.left] in m.pref[f.agent][s])
    if op == "I":
        return frozenset(s for s in range(n) if values[f.left] in m.intent[f.agent][s])
    if op == "AX":
        return ev_all_next(m.temporal, values[f.left], n)
    if op == "EX":
        return ev_exists_next(m.temporal, values[f.left], n)
    if op == "EF":
        # EF g is E[true U g]: the least fixpoint with every state allowed
        return ev_until(m.temporal, m.universe, values[f.left], n)
    if op == "EG":
        return ev_globally(m.temporal, values[f.left], n)
    if op == "EU":
        return ev_until(m.temporal, values[f.left], values[f.right], n)
    raise ValueError(f"non-core operator reached the oracle: {op!r}")
