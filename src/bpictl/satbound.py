"""Bounded satisfiability search.

Iterative deepening over the number of states; at each size every candidate
model is enumerated from components that are frame-valid by construction
(KD45 belief clusters, cluster-constant trace-determined preference
families, empty intention families), and the first candidate that satisfies
the formula is returned. The search is complete over frame-valid models up
to the size bound because those structural shapes are forced by the frame
conditions, not merely convenient:

- a serial, transitive, euclidean relation is exactly a choice of disjoint
  nonempty clusters plus a map sending every state to a cluster;
- agreement closure plus belief persistence force every preference family
  to depend only on how members intersect the local cluster, with the same
  trace set across all states sharing a cluster;
- nonempty intention families cannot survive the combined closure demands
  (the intended states must avoid the cluster, agreement closure then
  admits the empty set, and reachability rejects it), so only the empty
  intention family can appear.

The shapes are also sufficient, so no candidate is validated. Every frame
condition reads one agent's components, plus the temporal relation T for
BX1, BX2 and BPIEF1c, and never the labeling:

- KD45 gives B3-B5.
- Empty intention families give BI1-BI5 and BPIEF1a-c.
- A preference family that is constant on a cluster K and is {Q | Q & K in
  X} for a trace set X gives BP1-BP5, P3 and P4, because the empty set is
  not in X (so every member of the family meets K) and K lies inside its
  own basin (every state of K has cluster K, so it has the same family).
- P1 and P2 on such a family are conditions on X alone (Chellas, *Modal
  Logic*, 1980, ch. 7, on closure conditions of neighbourhood frames): X is
  closed under intersection, and X holds t2 whenever it holds some t1 and
  (K - t1) | t2. Only such trace sets are enumerated.
- BX1 and BX2 are enforced by the clash filter below.

The witness is validated once before it is returned, and a violation
raises: it would be a fault in this argument or in the enumerator.

Two reductions shrink the space further without losing completeness:

- Sorted labels (symmetry breaking, Emerson & Sistla, "Symmetry and model
  checking", FMSD 1996). Only labelings whose per-state atom masks are
  nondecreasing are enumerated. Sorting the states of any candidate by
  label mask is an isomorphism onto a candidate with sorted labels: the
  belief, family and temporal components are enumerated in full for each
  size, so their images under a permutation of the states are enumerated
  too. The formula's truth (with the witness state mapped along) and all
  22 frame conditions are invariant under isomorphism.
- Only the components the formula reads. When the core formula has no
  AX, EX, EF, EG or EU, only the empty temporal relation T is enumerated.
  The formula's truth does not read T. Of the 22 frame conditions only
  BX1, BX2 and BPIEF1c read T. With T empty, BX1 has no belief, temporal,
  belief path to violate it, and BX2's hypothesis (every belief successor
  has a temporal successor in Q) fails at every state with a belief
  successor, while at a state without one its conclusion holds vacuously.
  BPIEF1c ranges over intention families, which are always empty here. So
  a frame-valid model of such a formula stays a frame-valid model of it
  once T is replaced by the empty relation.

For each temporal relation T, a belief relation that BX1 or BX2 rejects
together with T is left out of every agent's choices: no model holding
that pair is frame-valid. The identity belief relation never clashes (a
belief, temporal, belief path is a temporal step, and the states whose
belief successors lie in Q are Q itself), so every T still yields
candidates, and the work between two counted candidates stays bounded by
one pass over the belief relations and one pre-image table of T.

Within one search, each size's components (KD45 relations with their
preference families, and the tables below) are built once, and the
temporal relations are generated once. The sorted labelings are generated
lazily, in order; when there are several temporal relations, they are
kept as the first one's pass consumes them. The combinations of the
agents' choices are produced one candidate at a time, so the budget bounds
the work, also with many atoms. Nothing is kept between searches.

Every component is a state mask (bit x is state x) from generation on: T
and each belief relation are successor masks, a preference family is a
set of member masks, and a labeling is one mask per atom. The core formula
is compiled once per search into a postorder list of slot operations, and
each candidate is checked on those masks: boolean operators are bitwise,
EX reads a pre-image table of T (for each state mask v, the states with a
successor in v), AX and B hold where the pre-image of the complement under
T or the belief relation does not, P{a} reads the image of the agent's
preference families (member mask -> states whose family holds it), I{a}
is empty because the intention families are, and EF, EG and EU iterate
the EX pre-image to a fixpoint in at most n rounds. Only the witness is
decoded into pairs, families and labels and built as a ``Model``: it is
validated, and replayed with ``eval_formula``, and a disagreement with
the mask result raises.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .checker import eval_formula
from .formula import (
    Formula,
    agents_of,
    atoms_of,
    descendants,
    mentions_neighbourhood,
    mentions_temporal,
    rewrite_derived,
    subformula_closure,
)
from .frames import clashes_with_temporal, validate_model
from .model import Model, bits, mask_of

DEFAULT_MAX_STATES = 3
DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class SatResult:
    verdict: str            # "sat", "unsat-up-to" or "aborted"
    model: Model | None
    witness: str | None     # state name satisfying the formula
    explored: int           # candidate models examined
    theoretical_bound: int  # 2 ** |closure|
    max_states: int


def closure_bound(f: Formula):
    """Negation-extended subformula closure and the 2^|closure| size bound."""
    closure = subformula_closure(f)
    return closure, 2 ** len(closure)


def _kd45_relations(n: int) -> list:
    """All serial, transitive, euclidean relations on range(n), as successor
    masks: every state maps to a nonempty cluster and every member of a
    cluster maps to that same cluster. States are assigned in order, each
    trying the nonempty masks in ascending order: a state in a cluster
    already chosen maps to it, any other to a chosen cluster or to a new
    one disjoint from the chosen ones and with no earlier member. Every
    prefix so built extends, so the relations come out in the order of
    itertools.product over those masks, the order of a filter over all
    (2^n - 1)^n assignments, at a cost that follows their number."""
    relations = []
    assignment = []

    def extend():
        x = len(assignment)
        if x == n:
            relations.append(tuple(assignment))
            return
        chosen = set(assignment)
        own = [c for c in chosen if c >> x & 1]
        for k in own or range(1, 1 << n):
            if own or k in chosen or (
                    k >> x << x == k and all(not c & k for c in chosen)):
                assignment.append(k)
                extend()
                assignment.pop()

    extend()
    return relations


def _trace_families(cluster: int, n: int):
    """Preference families over a cluster mask K, as frozensets of member
    masks: fam = {Q | Q ∩ K ∈ T} for a trace set T of nonempty subsets of K
    (an empty trace would leave the family without a supporting member
    state) that is closed under intersection (P1) and holds t2 whenever it
    holds t1 and (K - t1) | t2 (P2). Traces are masks over the ascending
    members of K."""
    members = list(bits(cluster))
    full = (1 << len(members)) - 1
    traced = [(q, mask_of(i for i, s in enumerate(members) if q >> s & 1))
              for q in range(1 << n)]
    for mask in range(1 << full):
        tset = {t for t in range(1, full + 1) if mask >> t - 1 & 1}
        if all((t2 not in tset or t1 & t2 in tset)                 # P1
               and (t2 in tset or full & ~t1 | t2 not in tset)     # P2
               for t1 in tset for t2 in range(full + 1)):
            yield frozenset(q for q, t in traced if t in tset)


def _temporal_relations(n: int):
    """Every relation on range(n) as successor masks, in the bitmask order
    of its (x, y) pairs, pair (x, y) at bit x * n + y."""
    row = (1 << n) - 1
    for tmask in range(1 << n * n):
        yield tuple(tmask >> x * n & row for x in range(n))


class _Choice(NamedTuple):
    """One agent's choice in a candidate: a KD45 belief relation with a
    preference option, as the tables the compiled formula reads."""

    belief: tuple    # per state: belief successor mask
    believes: tuple  # pre-image table of the belief relation
    prefers: dict    # member mask -> mask of the states whose family holds it


def sat_search(
    f: Formula,
    max_states: int = DEFAULT_MAX_STATES,
    budget: int = DEFAULT_BUDGET,
) -> SatResult:
    """Search for a frame-valid model of f with at most max_states states.

    Returns sat with a witness model, unsat-up-to when the bounded space is
    exhausted, or aborted when the candidate budget runs out first. Raises
    RuntimeError if the witness fails the frame validator or if
    eval_formula disagrees with the candidate check on it."""
    core = rewrite_derived(f)
    atoms = tuple(sorted(atoms_of(core))) or ("p",)
    agents = tuple(sorted(agents_of(core))) or ("a",)
    needs_families = mentions_neighbourhood(core)
    needs_temporal = mentions_temporal(core)
    _, bound = closure_bound(f)
    program = _compile(core, atoms, agents)

    explored = 0
    for n in range(1, max_states + 1):
        choices = _choices(n, needs_families)
        temporals = _temporal_relations(n) if needs_temporal else ((0,) * n,)
        fresh = _labelings(len(atoms), n)
        kept = []  # with several T, the labelings the first T's pass made
        if needs_temporal:
            fresh = _keeping(fresh, kept)
        for successors in temporals:
            # BX1 and BX2 reject no belief relation when T is empty (see
            # the module docstring)
            nonempty = any(successors)
            allowed = [c for belief, group in choices
                       if not (nonempty and clashes_with_temporal(n, belief, successors))
                       for c in group]
            ex = _pre_image(successors)
            for atom_masks in kept or fresh:
                for combo in itertools.product(allowed, repeat=len(agents)):
                    explored += 1
                    if explored > budget:
                        return SatResult(
                            "aborted", None, None, explored - 1, bound, max_states
                        )
                    holds = _evaluate(program, atom_masks, ex, combo)
                    if holds:
                        m = _witness(core, holds, atoms, agents, atom_masks, successors, combo)
                        witness = m.states[(holds & -holds).bit_length() - 1]
                        return SatResult("sat", m, witness, explored, bound, max_states)
    return SatResult("unsat-up-to", None, None, explored, bound, max_states)


def _witness(core, holds, atoms, agents, atom_masks, successors, combo) -> Model:
    """The candidate decoded from its masks into a Model, validated and
    replayed with eval_formula."""
    n = len(successors)

    def pairs(succ):
        return frozenset((x, y) for x, s in enumerate(succ) for y in bits(s))

    def families(prefers):
        return tuple(frozenset(frozenset(bits(q)) for q, holders in prefers.items()
                               if holders >> x & 1) for x in range(n))

    m = Model(
        states=tuple(f"s{i}" for i in range(n)), atoms=atoms, agents=agents,
        labeling=tuple(frozenset(p for p, mask in zip(atoms, atom_masks) if mask >> x & 1)
                       for x in range(n)),
        temporal=pairs(successors),
        belief={a: pairs(c.belief) for a, c in zip(agents, combo)},
        pref={a: families(c.prefers) for a, c in zip(agents, combo)},
        intent={a: (frozenset(),) * n for a in agents},
    )
    report = validate_model(m)
    if not report.passed:
        raise RuntimeError(f"witness not frame-valid: {report.violations}")
    replayed = mask_of(eval_formula(m, core))
    if replayed != holds:
        raise RuntimeError(f"witness replay disagrees: eval_formula gives state mask "
                           f"{replayed:#b}, the candidate check {holds:#b}")
    return m


def _compile(core: Formula, atoms: tuple, agents: tuple) -> tuple:
    """The core formula as (op, a, b) slot operations in postorder, core
    last: a and b are the slots of the operands, except that a is the atom's
    index for an atom and b the agent's index for B, P and I."""
    slots = {}
    program = []
    for g in (*descendants(core), core):
        a, b = slots.get(g.left), slots.get(g.right)
        if g.op == "atom":
            a = atoms.index(g.name)
        elif g.agent is not None:
            b = agents.index(g.agent)
        slots[g] = len(program)
        program.append((g.op, a, b))
    return tuple(program)


def _evaluate(program: tuple, atom_masks: tuple, ex: tuple, combo: tuple) -> int:
    """The mask of the states where the compiled formula holds in one
    candidate: atom_masks per atom, ex the pre-image table of T, and per
    agent its _Choice."""
    full = len(ex) - 1
    v = []
    for op, a, b in program:
        if op == "and":
            r = v[a] & v[b]
        elif op == "not":
            r = full ^ v[a]
        elif op == "atom":
            r = atom_masks[a]
        elif op == "or":
            r = v[a] | v[b]
        elif op == "B":
            r = full ^ combo[b].believes[full ^ v[a]]
        elif op == "P":
            r = combo[b].prefers.get(v[a], 0)
        elif op == "EX":
            r = ex[v[a]]
        elif op == "AX":
            r = full ^ ex[full ^ v[a]]
        elif op == "true":
            r = full
        elif op == "I":
            r = 0
        elif op == "EF":  # least fixpoint of r | EX r
            r = v[a]
            while (step := r | ex[r]) != r:
                r = step
        elif op == "EG":  # greatest fixpoint of v[a] & EX r
            r = v[a]
            while (step := r & ex[r]) != r:
                r = step
        elif op == "EU":  # least fixpoint of v[b] | v[a] & EX r
            r, hold = v[b], v[a]
            while (step := r | hold & ex[r]) != r:
                r = step
        else:
            raise ValueError(f"non-core operator reached the sat search: {op!r}")
        v.append(r)
    return v[-1]


def _pre_image(successors: tuple) -> tuple:
    """For each state mask v, the mask of the states with a successor in v,
    given each state's successor mask."""
    preds = [mask_of(x for x, succ in enumerate(successors) if succ >> y & 1)
             for y in range(len(successors))]
    table = [0]
    for v in range(1, 1 << len(successors)):
        low = v & -v
        table.append(table[v ^ low] | preds[low.bit_length() - 1])
    return tuple(table)


def _labelings(k: int, n: int):
    """The sorted labelings of n states with k atoms, lazily, in the order
    of combinations_with_replacement(range(2 ** k), n) over the per-state
    atom masks, which would first copy all 2^k of them: each as its
    per-atom state masks."""
    last = (1 << k) - 1
    labels = [0] * n
    while True:
        yield tuple(mask_of(x for x, label in enumerate(labels) if label >> j & 1)
                    for j in range(k))
        x = n - 1
        while x >= 0 and labels[x] == last:
            x -= 1
        if x < 0:
            return
        labels[x:] = [labels[x] + 1] * (n - x)


def _keeping(items, kept: list):
    """items, each appended to kept as it is produced."""
    for item in items:
        kept.append(item)
        yield item


def _choices(n: int, needs_families: bool) -> list:
    """One agent's choices at size n: each KD45 belief relation with its
    group of _Choice, one per preference option. When the formula mentions
    preference or intention, the options are the trace-determined
    preference families constant on each belief cluster; otherwise no
    cluster gets a family, and the one option is the empty family."""
    choices = []
    families = {}  # cluster -> its preference families, built on first use
    for belief in _kd45_relations(n):
        clusters = sorted(set(belief), key=lambda k: list(bits(k))) if needs_families else ()
        for k in clusters:
            if k not in families:
                families[k] = list(_trace_families(k, n))
        basins = [mask_of(x for x, c in enumerate(belief) if c == k) for k in clusters]
        believes = _pre_image(belief)
        group = []
        for choice in itertools.product(*(families[k] for k in clusters)):
            prefers = {}
            for basin, family in zip(basins, choice):
                for q in family:
                    prefers[q] = prefers.get(q, 0) | basin
            group.append(_Choice(belief, believes, prefers))
        choices.append((belief, group))
    return choices
