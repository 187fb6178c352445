"""Frame-condition validation.

Each catalogued side condition on the belief relation, the preference and
intention neighbourhoods and the temporal relation is evaluated literally,
with set quantifiers ranging over the full powerset of states (the admissible
set family is the powerset for finite models). Conditions whose powerset
enumeration would blow up are reported as skipped, never silently passed.

Every violation stores the witness binding that falsifies the condition;
``recheck`` re-evaluates the condition body on that binding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .model import Model, compose, powerset, reflexive_transitive_closure
from .oracle import ev_exists_next, ev_globally, ev_until

CONDITION_NAMES = (
    "B3", "B4", "B5",
    "P1", "P2", "P3", "P4",
    "BP1", "BP2", "BP3", "BP4", "BP5",
    "BI1", "BI2", "BI3", "BI4", "BI5",
    "BPIEF1a", "BPIEF1b", "BPIEF1c",
    "BX1", "BX2",
)

# Conditions quantifying over one arbitrary state set enumerate 2^n sets;
# over two, 4^n pairs. Caps keep the literal semantics while bounding runtime.
_TWO_SET_QUANT = frozenset({"P1", "P2", "P4", "BP1", "BI1"})
_ONE_SET_QUANT = frozenset(
    {"P3", "BP2", "BP3", "BP4", "BP5", "BI2", "BI3", "BI4", "BI5",
     "BPIEF1a", "BPIEF1c", "BX2"}
)
MAX_STATES_ONE_SET = 16
MAX_STATES_TWO_SET = 10

POWERSET = "powerset"  # marker for an admissible family equal to 2^S

DA_CAP = 4096  # largest explicit admissible family we enumerate pairs over


class ConditionSkipped(Exception):
    def __init__(self, condition: str, reason: str):
        super().__init__(f"{condition}: {reason}")
        self.condition = condition
        self.reason = reason


@dataclass(frozen=True)
class Violation:
    condition: str
    agent: str
    witnesses: dict  # quantifier name -> state name or tuple of state names
    note: str = ""

    def __str__(self) -> str:
        parts = [f"{k}={_fmt(v)}" for k, v in self.witnesses.items()]
        text = f"{self.condition} agent={self.agent} " + " ".join(parts)
        return text + (f"  # {self.note}" if self.note else "")


def _fmt(v):
    if isinstance(v, tuple):
        return "{" + " ".join(v) + "}"
    return v


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # (condition, reason)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.skipped


# Binding values are index-level inside the evaluators: ints for states,
# frozensets of ints for sets. Violations store them at name level.

def _names(m: Model, value):
    if isinstance(value, frozenset):
        return tuple(m.states[i] for i in sorted(value))
    return m.states[value]


def _indices(m: Model, value):
    if isinstance(value, tuple):
        return frozenset(m.index(s) for s in value)
    return m.index(value)


def _cap(name: str, n: int) -> None:
    if name in _ONE_SET_QUANT and n > MAX_STATES_ONE_SET:
        raise ConditionSkipped(name, f"{n} states exceeds cap {MAX_STATES_ONE_SET}")
    if name in _TWO_SET_QUANT and n > MAX_STATES_TWO_SET:
        raise ConditionSkipped(name, f"{n} states exceeds cap {MAX_STATES_TWO_SET}")


# --- condition bodies ------------------------------------------------------
# Each takes (m, agent, binding) and evaluates the printed instance; the
# enumerators below only choose which bindings are worth evaluating (any
# binding they skip makes the condition's hypothesis false).

def _holds_B3(m, a, b):
    rel = m.belief[a]
    return not ((b["x"], b["y"]) in rel and (b["y"], b["z"]) in rel) or (b["x"], b["z"]) in rel


def _holds_B4(m, a, b):
    rel = m.belief[a]
    return not ((b["x"], b["y"]) in rel and (b["x"], b["z"]) in rel) or (b["y"], b["z"]) in rel


def _holds_B5(m, a, b):
    return any((b["x"], y) in m.belief[a] for y in range(m.n))


def _holds_P1(m, a, b):
    fam = m.pref[a][b["x"]]
    return not (b["Q1"] in fam and b["Q2"] in fam) or (b["Q1"] & b["Q2"]) in fam


def _holds_P2(m, a, b):
    fam = m.pref[a][b["x"]]
    q1, q2 = b["Q1"], b["Q2"]
    return not (q1 in fam and ((m.universe - q1) | q2) in fam) or q2 in fam


def _holds_P3(m, a, b):
    fam_at = m.pref[a]
    q = b["Q"]
    image = frozenset(y for y in range(m.n) if q in fam_at[y])
    return not (image in fam_at[b["x"]]) or q in fam_at[b["x"]]


def _holds_P4(m, a, b):
    fam_at = m.pref[a]
    x, q1, q2 = b["x"], b["Q1"], b["Q2"]
    if q1 not in fam_at[x]:
        return True
    return any(
        (q2 not in fam_at[x]) or (y in q2 and q1 in fam_at[y]) for y in range(m.n)
    )


def _holds_BP1(m, a, b):
    return _holds_agreement(m, a, b, m.pref)


def _holds_BI1(m, a, b):
    return _holds_agreement(m, a, b, m.intent)


def _holds_agreement(m, a, b, table):
    fam = table[a][b["x"]]
    q1, q2 = b["Q1"], b["Q2"]
    succ = m.belief_successors(a, b["x"])
    agreement = (q1 & q2) | ((m.universe - q1) & (m.universe - q2))
    return not (q1 in fam and succ <= agreement) or q2 in fam


def _holds_BP2(m, a, b):
    return _holds_persist(m, a, b, m.pref)


def _holds_BI2(m, a, b):
    return _holds_persist(m, a, b, m.intent)


def _holds_persist(m, a, b, table):
    q, x, y = b["Q"], b["x"], b["y"]
    return not (q in table[a][x] and (x, y) in m.belief[a]) or q in table[a][y]


def _holds_BP3(m, a, b):
    return _holds_pull_exists(m, a, b, m.pref)


def _holds_BI3(m, a, b):
    return _holds_pull_exists(m, a, b, m.intent)


def _holds_pull_exists(m, a, b, table):
    q, x = b["Q"], b["x"]
    hyp = any((x, y) in m.belief[a] and q in table[a][y] for y in range(m.n))
    return not hyp or q in table[a][x]


def _holds_BP4(m, a, b):
    return _holds_pull_forall(m, a, b, m.pref)


def _holds_BI4(m, a, b):
    return _holds_pull_forall(m, a, b, m.intent)


def _holds_pull_forall(m, a, b, table):
    q, x = b["Q"], b["x"]
    hyp = all((x, y) not in m.belief[a] or q in table[a][y] for y in range(m.n))
    return not hyp or q in table[a][x]


def _holds_BP5(m, a, b):
    return _holds_push_exists(m, a, b, m.pref)


def _holds_BI5(m, a, b):
    return _holds_push_exists(m, a, b, m.intent)


def _holds_push_exists(m, a, b, table):
    q, x = b["Q"], b["x"]
    if q not in table[a][x]:
        return True
    return any((x, y) in m.belief[a] and q in table[a][y] for y in range(m.n))


def _holds_BPIEF1a(m, a, b):
    q, x = b["Q"], b["x"]
    return q not in m.intent[a][x] or q in m.pref[a][x]


def _holds_BPIEF1b(m, a, b):
    x = b["x"]
    union = frozenset().union(*m.intent[a][x]) if m.intent[a][x] else frozenset()
    return not (union & m.belief_successors(a, x))


def _holds_BPIEF1c(m, a, b):
    x, y, q = b["x"], b["y"], b["Q"]
    if not ((x, y) in m.belief[a] and q in m.intent[a][x]):
        return True
    reach = reflexive_transitive_closure(m.temporal, m.n)
    return any((y, z) in reach and z in q for z in range(m.n))


def _holds_BX1(m, a, b):
    bx = compose(m.belief[a], m.temporal)
    bxb = compose(bx, m.belief[a])
    pair = (b["x"], b["y"])
    return pair not in bxb or pair in bx


def _holds_BX2(m, a, b):
    x, q = b["x"], b["Q"]
    rel_b, rel_x = m.belief[a], m.temporal
    n = m.n
    ante = all(
        any((x, y) not in rel_b or ((y, z) in rel_x and z in q) for z in range(n))
        for y in range(n)
    )
    if not ante:
        return True
    return all(
        any(
            all(
                (x, u) not in rel_b
                or ((u, v) in rel_x and ((v, w) not in rel_b or w in q))
                for w in range(n)
            )
            for v in range(n)
        )
        for u in range(n)
    )


_BODIES = {
    "B3": _holds_B3, "B4": _holds_B4, "B5": _holds_B5,
    "P1": _holds_P1, "P2": _holds_P2, "P3": _holds_P3, "P4": _holds_P4,
    "BP1": _holds_BP1, "BP2": _holds_BP2, "BP3": _holds_BP3,
    "BP4": _holds_BP4, "BP5": _holds_BP5,
    "BI1": _holds_BI1, "BI2": _holds_BI2, "BI3": _holds_BI3,
    "BI4": _holds_BI4, "BI5": _holds_BI5,
    "BPIEF1a": _holds_BPIEF1a, "BPIEF1b": _holds_BPIEF1b,
    "BPIEF1c": _holds_BPIEF1c,
    "BX1": _holds_BX1, "BX2": _holds_BX2,
}


# --- binding enumerators ----------------------------------------------------

def _enum_triple(m, a):
    for x, y, z in itertools.product(range(m.n), repeat=3):
        yield {"x": x, "y": y, "z": z}


def _enum_states(m, a):
    for x in range(m.n):
        yield {"x": x}


def _enum_family_pairs(table):
    def gen(m, a):
        for x in range(m.n):
            for q1 in table(m)[a][x]:
                for q2 in table(m)[a][x]:
                    yield {"x": x, "Q1": q1, "Q2": q2}
    return gen


def _enum_member_by_powerset(table):
    def gen(m, a):
        sets = list(powerset(m.n))
        for x in range(m.n):
            for q1 in table(m)[a][x]:
                for q2 in sets:
                    yield {"x": x, "Q1": q1, "Q2": q2}
    return gen


def _enum_state_powerset(m, a):
    sets = list(powerset(m.n))
    for x in range(m.n):
        for q in sets:
            yield {"x": x, "Q": q}


def _enum_member(table):
    def gen(m, a):
        for x in range(m.n):
            for q in table(m)[a][x]:
                yield {"x": x, "Q": q}
    return gen


def _enum_successor_member(table):
    # Q constrained by an existential hypothesis over belief successors.
    def gen(m, a):
        for x in range(m.n):
            seen = set()
            for y in m.belief_successors(a, x):
                for q in table(m)[a][y]:
                    if q not in seen:
                        seen.add(q)
                        yield {"x": x, "Q": q}
    return gen


def _enum_all_successors_member(table):
    # For the universal hypothesis: any violating Q lies in every successor's
    # family, so one successor's family suffices; no successor means the
    # hypothesis is vacuous for every Q.
    def gen(m, a):
        for x in range(m.n):
            succ = sorted(m.belief_successors(a, x))
            pool = table(m)[a][succ[0]] if succ else powerset(m.n)
            for q in pool:
                yield {"x": x, "Q": q}
    return gen


def _enum_persist(table):
    def gen(m, a):
        for x in range(m.n):
            for q in table(m)[a][x]:
                for y in m.belief_successors(a, x):
                    yield {"x": x, "Q": q, "y": y}
    return gen


def _enum_intent_edge(m, a):
    for x in range(m.n):
        for q in m.intent[a][x]:
            for y in m.belief_successors(a, x):
                yield {"x": x, "y": y, "Q": q}


def _enum_bx1(m, a):
    bxb = compose(compose(m.belief[a], m.temporal), m.belief[a])
    for (x, y) in sorted(bxb):
        yield {"x": x, "y": y}


def _pref(m):
    return m.pref


def _intent(m):
    return m.intent


_ENUMS = {
    "B3": _enum_triple,
    "B4": _enum_triple,
    "B5": _enum_states,
    "P1": _enum_family_pairs(_pref),
    "P2": _enum_member_by_powerset(_pref),
    "P3": _enum_state_powerset,
    "P4": _enum_member_by_powerset(_pref),
    "BP1": _enum_member_by_powerset(_pref),
    "BP2": _enum_persist(_pref),
    "BP3": _enum_successor_member(_pref),
    "BP4": _enum_all_successors_member(_pref),
    "BP5": _enum_member(_pref),
    "BI1": _enum_member_by_powerset(_intent),
    "BI2": _enum_persist(_intent),
    "BI3": _enum_successor_member(_intent),
    "BI4": _enum_all_successors_member(_intent),
    "BI5": _enum_member(_intent),
    "BPIEF1a": _enum_member(_intent),
    "BPIEF1b": _enum_states,
    "BPIEF1c": _enum_intent_edge,
    "BX1": _enum_bx1,
    "BX2": _enum_state_powerset,
}

_NOTES = {
    "B3": "belief relation is not transitive",
    "B4": "belief relation is not euclidean",
    "B5": "belief relation is not serial",
    "P1": "preference family not closed under intersection",
    "P2": "preference family not closed under material consequence",
    "P3": "nested preference does not collapse",
    "P4": "preferred set lacks a supporting member state",
    "BP1": "preference not invariant under agreement on belief successors",
    "BP2": "preference not preserved along belief",
    "BP3": "preference not pulled back from a belief successor",
    "BP4": "preference at all belief successors not reflected",
    "BP5": "preference lacks a believing successor",
    "BI1": "intention not invariant under agreement on belief successors",
    "BI2": "intention not preserved along belief",
    "BI3": "intention not pulled back from a belief successor",
    "BI4": "intention at all belief successors not reflected",
    "BI5": "intention lacks a believing successor",
    "BPIEF1a": "intended set is not preferred",
    "BPIEF1b": "intended states overlap belief successors",
    "BPIEF1c": "intended set not temporally reachable from a belief successor",
    "BX1": "belief-next composition escapes belief-next",
    "BX2": "believed existential next not introspective",
}


def check_condition(name: str, m: Model, max_violations: int | None = None) -> list:
    """All violations of one catalogued condition, across agents.

    Raises ConditionSkipped when the state count exceeds the enumeration cap.
    """
    if name not in _BODIES:
        raise ValueError(f"unknown condition {name!r}")
    _cap(name, m.n)
    body = _BODIES[name]
    enum = _ENUMS[name]
    violations = []
    for agent in m.agents:
        for binding in enum(m, agent):
            if body(m, agent, binding):
                continue
            witnesses = {k: _names(m, v) for k, v in binding.items()}
            violations.append(
                Violation(condition=name, agent=agent, witnesses=witnesses,
                          note=_NOTES[name])
            )
            if max_violations is not None and len(violations) >= max_violations:
                return violations
    return violations


def recheck(m: Model, v: Violation) -> bool:
    """Re-evaluate the condition instance on the stored witnesses.

    Returns True when the failure reproduces (the instance is false)."""
    binding = {k: _indices(m, val) for k, val in v.witnesses.items()}
    return not _BODIES[v.condition](m, v.agent, binding)


def validate_model(m: Model) -> ValidationReport:
    """Run every catalogued condition plus the admissible-family closure."""
    report = ValidationReport()
    for name in CONDITION_NAMES:
        try:
            report.violations.extend(check_condition(name, m))
        except ConditionSkipped as skip:
            report.skipped.append((name, skip.reason))
    try:
        report.violations.extend(check_da_closure(m))
    except ConditionSkipped as skip:
        report.skipped.append(("Da", skip.reason))
    return report


_DA_NOTE = "admissible family not closed under {0}"


def check_da_closure(m: Model, da=POWERSET) -> list:
    """Closure conditions (a)-(i) on an admissible set family.

    With the powerset marker the family is closed under everything and no
    enumeration happens. Explicit families are enumerated, capped at
    DA_CAP members."""
    if da == POWERSET:
        return []
    family = frozenset(frozenset(q) for q in da)
    if len(family) > DA_CAP:
        raise ConditionSkipped("Da", f"{len(family)} members exceeds cap {DA_CAP}")
    n = m.n
    violations = []

    def report(tag, witnesses):
        violations.append(
            Violation(condition=f"Da-{tag}", agent="*", witnesses=witnesses,
                      note=_DA_NOTE.format(tag))
        )

    for p in m.atoms:  # (a)
        ext = m.atom_extension(p)
        if ext not in family:
            report("a", {"atom": p, "extension": _names(m, ext)})
    for q in family:  # (b)
        if (m.universe - q) not in family:
            report("b", {"A": _names(m, q)})
    for q1 in family:  # (c)
        for q2 in family:
            if (q1 & q2) not in family:
                report("c", {"A1": _names(m, q1), "A2": _names(m, q2)})
    for agent in m.agents:
        for q in family:
            img = frozenset(
                s for s in range(n) if m.belief_successors(agent, s) <= q
            )
            if img not in family:  # (d)
                report("d", {"agent": agent, "A": _names(m, q)})
            img = frozenset(s for s in range(n) if q in m.pref[agent][s])
            if img not in family:  # (e)
                report("e", {"agent": agent, "A": _names(m, q)})
            img = frozenset(s for s in range(n) if q in m.intent[agent][s])
            if img not in family:  # (f)
                report("f", {"agent": agent, "A": _names(m, q)})
    for q in family:
        if ev_exists_next(m.temporal, q, n) not in family:  # (g)
            report("g", {"A": _names(m, q)})
        if ev_globally(m.temporal, q, n) not in family:  # (h)
            report("h", {"A": _names(m, q)})
    for q1 in family:  # (i)
        for q2 in family:
            if ev_until(m.temporal, q1, q2, n) not in family:
                report("i", {"A1": _names(m, q1), "A2": _names(m, q2)})
    return violations
