"""Per-state pre-images, for differential tests of bpictl.oracle.

The reference evaluator as it was before its pre-images became one pass
over the pairs: every pre-image scans the whole relation once per state,
EF is evaluated as E[true U .], and the evaluation recurses over the
formula. It is the literal reading of the semantics that
``bpictl.oracle.denote`` must keep agreeing with; it is for small formulas
only.
"""

from __future__ import annotations

from bpictl.checker import check_symbols
from bpictl.formula import EU, TRUE, Formula, rewrite_derived
from bpictl.model import Model, StateSet


def exists_next(temporal, ss: StateSet, n: int) -> StateSet:
    return frozenset(s for s in range(n) if any((s, t) in temporal for t in ss))


def all_next(rel, ss: StateSet, n: int) -> StateSet:
    return frozenset(s for s in range(n) if all(t in ss for (x, t) in rel if x == s))


def until(temporal, hold: StateSet, goal: StateSet, n: int) -> StateSet:
    current = goal
    while True:
        nxt = goal | (hold & exists_next(temporal, current, n))
        if nxt == current:
            return current
        current = nxt


def globally(temporal, hold: StateSet, n: int) -> StateSet:
    current = hold
    while True:
        nxt = current & exists_next(temporal, current, n)
        if nxt == current:
            return current
        current = nxt


def denote(m: Model, f: Formula) -> StateSet:
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
        value = all_next(m.belief[f.agent], _den(m, f.left, memo), n)
    elif op == "P":
        sub = _den(m, f.left, memo)
        value = frozenset(s for s in range(n) if sub in m.pref[f.agent][s])
    elif op == "I":
        sub = _den(m, f.left, memo)
        value = frozenset(s for s in range(n) if sub in m.intent[f.agent][s])
    elif op == "AX":
        value = all_next(m.temporal, _den(m, f.left, memo), n)
    elif op == "EX":
        value = exists_next(m.temporal, _den(m, f.left, memo), n)
    elif op == "EF":
        value = _den(m, EU(TRUE, f.left), memo)
    elif op == "EG":
        value = globally(m.temporal, _den(m, f.left, memo), n)
    elif op == "EU":
        value = until(m.temporal, _den(m, f.left, memo), _den(m, f.right, memo), n)
    else:
        raise ValueError(f"non-core operator reached the oracle: {op!r}")
    memo[f] = value
    return value
