"""Reference denotational evaluator.

Evaluates core formulas by direct set enumeration and naive fixpoint
iteration. Deliberately independent of the labeling algorithm in
``checker`` so the two can cross-validate (only the undeclared-symbol
check is shared); optimizes for obvious correctness, not speed.
"""

from __future__ import annotations

from .checker import check_symbols
from .formula import EU, TRUE, Formula, rewrite_derived
from .model import Model, StateSet


def ev_exists_next(temporal, ss: StateSet, n: int) -> StateSet:
    """States with some temporal successor in ss."""
    return frozenset(s for s in range(n) if any((s, t) in temporal for t in ss))


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
    """The set of states of m satisfying f."""
    check_symbols(m, f)
    return _den(m, rewrite_derived(f), {})


def _den(m: Model, f: Formula, memo: dict) -> StateSet:
    if f in memo:
        return memo[f]
    n = m.n
    op = f.op
    if op == "atom":
        value = m.atom_extension(f.name)
    elif op == "true":
        value = m.universe
    elif op == "not":
        value = m.universe - _den(m, f.left, memo)
    elif op == "and":
        value = _den(m, f.left, memo) & _den(m, f.right, memo)
    elif op == "or":
        value = _den(m, f.left, memo) | _den(m, f.right, memo)
    elif op == "B":
        sub = _den(m, f.left, memo)
        rel = m.belief[f.agent]
        value = frozenset(
            s for s in range(n) if all(t in sub for (x, t) in rel if x == s)
        )
    elif op == "P":
        sub = _den(m, f.left, memo)
        value = frozenset(s for s in range(n) if sub in m.pref[f.agent][s])
    elif op == "I":
        sub = _den(m, f.left, memo)
        value = frozenset(s for s in range(n) if sub in m.intent[f.agent][s])
    elif op == "AX":
        sub = _den(m, f.left, memo)
        value = frozenset(
            s for s in range(n) if all(t in sub for (x, t) in m.temporal if x == s)
        )
    elif op == "EX":
        value = ev_exists_next(m.temporal, _den(m, f.left, memo), n)
    elif op == "EF":
        # EF is E[true U .]; Definition-level EF/EG read per the fixpoint axioms.
        value = _den(m, EU(TRUE, f.left), memo)
    elif op == "EG":
        value = ev_globally(m.temporal, _den(m, f.left, memo), n)
    elif op == "EU":
        hold = _den(m, f.left, memo)
        goal = _den(m, f.right, memo)
        value = ev_until(m.temporal, hold, goal, n)
    else:
        raise ValueError(f"non-core operator reached the oracle: {op!r}")
    memo[f] = value
    return value
