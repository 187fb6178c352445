"""Literal frame conditions, for differential tests of bpictl.frames.

Each body evaluates one printed condition instance on frozensets of state
indices, exactly as written in the catalogue. ``reference_violations``
ranges every quantified variable over all states or the whole powerset, in
ascending order (states by index, sets by bitmask), so it is the brute force
that the validator's pruned finders replace, and its output order is the
canonical violation order.
"""

from __future__ import annotations

import itertools

from bpictl.frames import Violation
from bpictl.model import Model, powerset


def belief_successors(m: Model, agent: str, s: int) -> frozenset:
    return frozenset(t for (x, t) in m.belief[agent] if x == s)


def compose(r1, r2) -> frozenset:
    """Pairs (x, z) with an r1-step then an r2-step."""
    return frozenset((x, z) for (x, y) in r1 for (y2, z) in r2 if y == y2)


def reflexive_transitive_closure(rel, n: int) -> frozenset:
    out = {(x, x) for x in range(n)} | set(rel)
    while True:
        more = out | compose(out, out)
        if more == out:
            return frozenset(out)
        out = more


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


def _holds_agreement(table):
    def holds(m, a, b):
        fam = table(m)[a][b["x"]]
        q1, q2 = b["Q1"], b["Q2"]
        succ = belief_successors(m, a, b["x"])
        agreement = (q1 & q2) | ((m.universe - q1) & (m.universe - q2))
        return not (q1 in fam and succ <= agreement) or q2 in fam
    return holds


def _holds_persist(table):
    def holds(m, a, b):
        q, x, y = b["Q"], b["x"], b["y"]
        return not (q in table(m)[a][x] and (x, y) in m.belief[a]) or q in table(m)[a][y]
    return holds


def _holds_pull_exists(table):
    def holds(m, a, b):
        q, x = b["Q"], b["x"]
        hyp = any((x, y) in m.belief[a] and q in table(m)[a][y] for y in range(m.n))
        return not hyp or q in table(m)[a][x]
    return holds


def _holds_pull_forall(table):
    def holds(m, a, b):
        q, x = b["Q"], b["x"]
        hyp = all((x, y) not in m.belief[a] or q in table(m)[a][y] for y in range(m.n))
        return not hyp or q in table(m)[a][x]
    return holds


def _holds_push_exists(table):
    def holds(m, a, b):
        q, x = b["Q"], b["x"]
        if q not in table(m)[a][x]:
            return True
        return any((x, y) in m.belief[a] and q in table(m)[a][y] for y in range(m.n))
    return holds


def _holds_BPIEF1a(m, a, b):
    q, x = b["Q"], b["x"]
    return q not in m.intent[a][x] or q in m.pref[a][x]


def _holds_BPIEF1b(m, a, b):
    x = b["x"]
    union = frozenset().union(*m.intent[a][x]) if m.intent[a][x] else frozenset()
    return not (union & belief_successors(m, a, x))


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


def _pref(m):
    return m.pref


def _intent(m):
    return m.intent


# name -> (quantified variables in witness order, body, note)
CONDITIONS = {
    "B3": ("x y z", _holds_B3, "belief relation is not transitive"),
    "B4": ("x y z", _holds_B4, "belief relation is not euclidean"),
    "B5": ("x", _holds_B5, "belief relation is not serial"),
    "P1": ("x Q1 Q2", _holds_P1, "preference family not closed under intersection"),
    "P2": ("x Q1 Q2", _holds_P2, "preference family not closed under material consequence"),
    "P3": ("x Q", _holds_P3, "nested preference does not collapse"),
    "P4": ("x Q1 Q2", _holds_P4, "preferred set lacks a supporting member state"),
    "BP1": ("x Q1 Q2", _holds_agreement(_pref),
            "preference not invariant under agreement on belief successors"),
    "BP2": ("x Q y", _holds_persist(_pref), "preference not preserved along belief"),
    "BP3": ("x Q", _holds_pull_exists(_pref),
            "preference not pulled back from a belief successor"),
    "BP4": ("x Q", _holds_pull_forall(_pref),
            "preference at all belief successors not reflected"),
    "BP5": ("x Q", _holds_push_exists(_pref), "preference lacks a believing successor"),
    "BI1": ("x Q1 Q2", _holds_agreement(_intent),
            "intention not invariant under agreement on belief successors"),
    "BI2": ("x Q y", _holds_persist(_intent), "intention not preserved along belief"),
    "BI3": ("x Q", _holds_pull_exists(_intent),
            "intention not pulled back from a belief successor"),
    "BI4": ("x Q", _holds_pull_forall(_intent),
            "intention at all belief successors not reflected"),
    "BI5": ("x Q", _holds_push_exists(_intent), "intention lacks a believing successor"),
    "BPIEF1a": ("x Q", _holds_BPIEF1a, "intended set is not preferred"),
    "BPIEF1b": ("x", _holds_BPIEF1b, "intended states overlap belief successors"),
    "BPIEF1c": ("x y Q", _holds_BPIEF1c,
                "intended set not temporally reachable from a belief successor"),
    "BX1": ("x y", _holds_BX1, "belief-next composition escapes belief-next"),
    "BX2": ("x Q", _holds_BX2, "believed existential next not introspective"),
}


def _names(m: Model, value):
    if isinstance(value, frozenset):
        return tuple(m.states[i] for i in sorted(value))
    return m.states[value]


def reference_violations(name: str, m: Model) -> list:
    """Every violation of one condition, by brute force over all bindings."""
    variables, holds, note = CONDITIONS[name]
    variables = variables.split()
    sets = list(powerset(m.n))
    domains = [sets if var.startswith("Q") else range(m.n) for var in variables]
    out = []
    for agent in m.agents:
        for values in itertools.product(*domains):
            binding = dict(zip(variables, values))
            if not holds(m, agent, binding):
                witnesses = {k: _names(m, v) for k, v in binding.items()}
                out.append(Violation(name, agent, witnesses, note))
    return out
