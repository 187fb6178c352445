"""Frame-condition validation.

Each catalogued side condition on the belief relation, the preference and
intention neighbourhoods and the temporal relation is checked on the mask
tables of ``Model.view`` (bit i is state i, a state set is an int), the view
the checker reads its adjacency lists from. Each table is built on its
first read, so validation builds none of those lists. Set
quantifiers range over the full powerset of states (the admissible set
family is the powerset for finite models). Each condition's finder visits
only bindings that can falsify it and argues in a comment why every binding
it skips makes the condition's hypothesis false; ``tests/frames_reference``
holds the literal quantifiers it is tested against. Conditions whose state
count exceeds their cap are reported as skipped, never silently passed.

Violations come in a canonical order: by agent in declared order, then by
the binding in witness order (``x`` first), states by index and sets by
mask, ascending. Every violation stores the witness binding that falsifies
the condition; ``recheck`` tests that binding again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .model import Model, bits, mask_of

# Conditions quantifying over one arbitrary state set range over 2^n sets;
# over two, 4^n pairs. Caps keep the literal semantics while bounding runtime.
MAX_STATES_ONE_SET = 16
MAX_STATES_TWO_SET = 10


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


# Binding values are index-level inside the checks: ints for states, int
# masks for sets (the variables named Q...). Violations store them at name
# level.

def _names(m: Model, var: str, value: int):
    if var.startswith("Q"):
        return tuple(m.states[i] for i in bits(value))
    return m.states[value]


def _indices(m: Model, value):
    if isinstance(value, tuple):
        return mask_of(m.index(s) for s in value)
    return m.index(value)


def _cap(name: str, variables: list, n: int) -> None:
    set_quantifiers = sum(var.startswith("Q") for var in variables)
    cap = {1: MAX_STATES_ONE_SET, 2: MAX_STATES_TWO_SET}.get(set_quantifiers)
    if cap is not None and n > cap:
        raise ConditionSkipped(name, f"{n} states exceeds cap {cap}")


def _submasks(mask: int) -> list:
    """Every subset of mask, ascending."""
    out = [0]
    for i in bits(mask):
        out += [t | 1 << i for t in out]
    return out


def _per_state(keys, solve):
    """(x, *binding) for every binding solve(key) gives for x's key. A
    condition whose violations at x depend on x only through its key solves
    each distinct key once."""
    memo = {}
    for x, key in enumerate(keys):
        found = memo.get(key)
        if found is None:
            found = memo[key] = solve(key)
        for binding in found:
            yield (x, *binding)


# --- conditions --------------------------------------------------------------
# Each finder, find(view, agent), yields every violating binding of its
# condition: a tuple of the witness values in witness order. view is the
# model's View; fam[x] is the agent's preference or intention family at x
# and S the belief successors of x. BX1 and BX2 take only the masks they
# read, so clashes_with_temporal needs no model.

def _find_B3(view, a):
    # Only a successor z of a successor y of x can break transitivity.
    succ = view.belief[a]
    for x in range(view.n):
        for y in bits(succ[x]):
            for z in bits(succ[y] & ~succ[x]):
                yield x, y, z


def _find_B4(view, a):
    # The hypothesis needs y and z in S.
    succ = view.belief[a]
    for x in range(view.n):
        for y in bits(succ[x]):
            for z in bits(succ[x] & ~succ[y]):
                yield x, y, z


def _find_B5(view, a):
    for x, s in enumerate(view.belief[a]):
        if not s:
            yield (x,)


def _find_P1(view, a):
    # Q1 & Q2 must be in fam[x] whenever Q1 and Q2 are. The verdict depends
    # on fam[x] alone.
    return _per_state(
        view.pref[a].sets,
        lambda fam: [(q1, q2) for q1 in fam for q2 in fam if q1 & q2 not in fam],
    )


def _find_P2(view, a):
    # Q2 must be in fam[x] whenever Q1 and R = ~Q1 | Q2 are. Such an R holds
    # ~Q1 and fixes Q2 & Q1 = R & Q1, so the Q2 it admits are exactly
    # (R & Q1) | T for T a subset of ~Q1, and each Q2 has one R.
    full = (1 << view.n) - 1

    def solve(fam):
        found = []
        for q1 in fam:
            rest = full & ~q1
            spread = None
            for r in fam:
                if r & rest != rest:
                    continue
                if spread is None:
                    spread = _submasks(rest)
                low = r & q1
                found += [(q1, low | t) for t in spread if low | t not in fam]
        return found

    return _per_state(view.pref[a].sets, solve)


def _find_P3(view, a):
    # Q must be in fam[x] whenever image(Q), the states whose family holds
    # Q, is. A set in no family has the empty image, so it meets that
    # hypothesis only when fam[x] holds the empty set.
    image = view.pref[a].image
    for x, fam in enumerate(view.pref[a].sets):
        for q in range(1 << view.n) if 0 in fam else image:
            if image.get(q, 0) in fam and q not in fam:
                yield x, q


def _find_P4(view, a):
    # For Q1 in fam[x], every Q2 in fam[x] must hold a state whose family
    # holds Q1; a Q2 outside fam[x] meets the condition. The verdict depends
    # on fam[x] and the agent's images alone.
    image = view.pref[a].image
    return _per_state(
        view.pref[a].sets,
        lambda fam: [(q1, q2) for q1 in fam for q2 in fam if not q2 & image[q1]],
    )


def _find_agreement(kind):
    """BP1 or BI1 on the preference or intention families."""
    def find(view, a):
        # Q2 must be in fam[x] whenever Q1 is and Q2 agrees with Q1 on S
        # ((Q1 ^ Q2) & S is empty): Q2 = (Q1 & S) | T for T a subset of ~S.
        # The verdict depends on fam[x] and S alone, and the Q2 that fail
        # depend on Q1 only through Q1 & S.
        full = (1 << view.n) - 1

        def solve(key):
            fam, s = key
            spread = _submasks(full & ~s)
            missing = {}
            found = []
            for q1 in fam:
                low = q1 & s
                if low not in missing:
                    missing[low] = [low | t for t in spread if low | t not in fam]
                found += [(q1, q2) for q2 in missing[low]]
            return found

        return _per_state(zip(getattr(view, kind)[a].sets, view.belief[a]), solve)
    return find


def _find_persist(kind):
    """BP2 or BI2: a member of fam[x] is a member of fam[y] for y in S."""
    def find(view, a):
        sets = getattr(view, kind)[a].sets
        for x, s in enumerate(view.belief[a]):
            for y in bits(s):
                for q in sets[x] - sets[y]:
                    yield x, q, y
    return find


def _find_pull_exists(kind):
    """BP3 or BI3: a member of some fam[y], y in S, is a member of fam[x]."""
    def find(view, a):
        # The hypothesis needs Q in some family, with an image meeting S.
        table = getattr(view, kind)[a]
        for x, s in enumerate(view.belief[a]):
            fam = table.sets[x]
            for q, holders in table.image.items():
                if holders & s and q not in fam:
                    yield x, q
    return find


def _find_pull_forall(kind):
    """BP4 or BI4: a member of every fam[y], y in S, is a member of fam[x]."""
    def find(view, a):
        # The hypothesis needs Q in every successor's family, so Q is a
        # member of some family unless S is empty, when every Q meets it.
        table = getattr(view, kind)[a]
        image = table.image
        for x, s in enumerate(view.belief[a]):
            fam = table.sets[x]
            for q in image if s else range(1 << view.n):
                if s & ~image.get(q, 0) == 0 and q not in fam:
                    yield x, q
    return find


def _find_push_exists(kind):
    """BP5 or BI5: a member of fam[x] is a member of some fam[y], y in S."""
    def find(view, a):
        table = getattr(view, kind)[a]
        for x, s in enumerate(view.belief[a]):
            for q in table.sets[x]:
                if not s & table.image[q]:
                    yield x, q
    return find


def _find_BPIEF1a(view, a):
    # An intended set is preferred.
    for x, fam in enumerate(view.intent[a].sets):
        for q in fam - view.pref[a].sets[x]:
            yield x, q


def _find_BPIEF1b(view, a):
    # No intended set meets S.
    for x, fam in enumerate(view.intent[a].sets):
        if any(q & view.belief[a][x] for q in fam):
            yield (x,)


def _find_BPIEF1c(view, a):
    # For y in S and Q in intent[x], some state of Q is reachable from y.
    for x, s in enumerate(view.belief[a]):
        fam = view.intent[a].sets[x]
        for y in bits(s):
            for q in fam:
                if not view.reach[y] & q:
                    yield x, y, q


def _find_BX1(n, succ, temporal):
    # A belief, temporal, belief path from x to y implies a belief,
    # temporal one.
    for x in range(n):
        bx = bxb = 0
        for y in bits(succ[x]):
            bx |= temporal[y]
        for z in bits(bx):
            bxb |= succ[z]
        for y in bits(bxb & ~bx):
            yield x, y


def _find_BX2(n, succ, temporal):
    # When every state of S has a temporal successor in Q, every state of S
    # has a temporal successor all of whose belief successors lie in Q. x
    # enters only through S.
    def fails(s, q):
        if not all(temporal[y] & q for y in bits(s)):
            return False
        inside = mask_of(v for v, t in enumerate(succ) if not t & ~q)
        return not all(temporal[u] & inside for u in bits(s))

    return _per_state(succ, lambda s: [(q,) for q in range(1 << n) if fails(s, q)])


def _on_view(find):
    """A BX1 or BX2 finder reading one agent's masks from the view."""
    return lambda view, a: find(view.n, view.belief[a], view.temporal)


def clashes_with_temporal(n: int, belief: tuple, temporal: tuple) -> bool:
    """Whether BX1 or BX2 fails for one agent's belief successor masks under
    the temporal successor masks. They read nothing else of a model, so
    every model holding the pair fails validation."""
    return any(_find_BX1(n, belief, temporal)) or any(_find_BX2(n, belief, temporal))


class _Condition(NamedTuple):
    variables: str  # witness names in binding order; Q... name a set
    find: Callable
    note: str


_CONDITIONS = {
    "B3": _Condition("x y z", _find_B3, "belief relation is not transitive"),
    "B4": _Condition("x y z", _find_B4, "belief relation is not euclidean"),
    "B5": _Condition("x", _find_B5, "belief relation is not serial"),
    "P1": _Condition("x Q1 Q2", _find_P1, "preference family not closed under intersection"),
    "P2": _Condition("x Q1 Q2", _find_P2,
                     "preference family not closed under material consequence"),
    "P3": _Condition("x Q", _find_P3, "nested preference does not collapse"),
    "P4": _Condition("x Q1 Q2", _find_P4, "preferred set lacks a supporting member state"),
    "BP1": _Condition("x Q1 Q2", _find_agreement("pref"),
                      "preference not invariant under agreement on belief successors"),
    "BP2": _Condition("x Q y", _find_persist("pref"), "preference not preserved along belief"),
    "BP3": _Condition("x Q", _find_pull_exists("pref"),
                      "preference not pulled back from a belief successor"),
    "BP4": _Condition("x Q", _find_pull_forall("pref"),
                      "preference at all belief successors not reflected"),
    "BP5": _Condition("x Q", _find_push_exists("pref"), "preference lacks a believing successor"),
    "BI1": _Condition("x Q1 Q2", _find_agreement("intent"),
                      "intention not invariant under agreement on belief successors"),
    "BI2": _Condition("x Q y", _find_persist("intent"), "intention not preserved along belief"),
    "BI3": _Condition("x Q", _find_pull_exists("intent"),
                      "intention not pulled back from a belief successor"),
    "BI4": _Condition("x Q", _find_pull_forall("intent"),
                      "intention at all belief successors not reflected"),
    "BI5": _Condition("x Q", _find_push_exists("intent"), "intention lacks a believing successor"),
    "BPIEF1a": _Condition("x Q", _find_BPIEF1a, "intended set is not preferred"),
    "BPIEF1b": _Condition("x", _find_BPIEF1b, "intended states overlap belief successors"),
    "BPIEF1c": _Condition("x y Q", _find_BPIEF1c,
                          "intended set not temporally reachable from a belief successor"),
    "BX1": _Condition("x y", _on_view(_find_BX1),
                      "belief-next composition escapes belief-next"),
    "BX2": _Condition("x Q", _on_view(_find_BX2),
                      "believed existential next not introspective"),
}
CONDITION_NAMES = tuple(_CONDITIONS)


def check_condition(name: str, m: Model, max_violations: int | None = None) -> list:
    """All violations of one catalogued condition, across agents, in the
    canonical order (see the module docstring).

    Raises ConditionSkipped when the state count exceeds the enumeration cap.
    """
    if name not in _CONDITIONS:
        raise ValueError(f"unknown condition {name!r}")
    cond = _CONDITIONS[name]
    variables = cond.variables.split()
    _cap(name, variables, m.n)
    view = m.view
    violations = []
    for agent in m.agents:
        for binding in sorted(cond.find(view, agent)):
            witnesses = {var: _names(m, var, value)
                         for var, value in zip(variables, binding)}
            violations.append(
                Violation(condition=name, agent=agent, witnesses=witnesses,
                          note=cond.note)
            )
            if max_violations is not None and len(violations) >= max_violations:
                return violations
    return violations


def recheck(m: Model, v: Violation) -> bool:
    """Test the stored witnesses again, read in m.

    Returns True when the failure reproduces: the witnesses form a binding
    that falsifies the condition for the agent."""
    binding = tuple(_indices(m, val) for val in v.witnesses.values())
    return binding in _CONDITIONS[v.condition].find(m.view, v.agent)


def validate_model(m: Model) -> ValidationReport:
    """Run every catalogued condition."""
    report = ValidationReport()
    for name in CONDITION_NAMES:
        try:
            report.violations.extend(check_condition(name, m))
        except ConditionSkipped as skip:
            report.skipped.append((name, skip.reason))
    return report
