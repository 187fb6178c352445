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
one pass over the belief relations.

Within one search, each size's components (KD45 relations with their
preference families, the sorted labelings) are built once, and the
temporal relations are generated once; the combinations of the agents'
choices are produced lazily, one candidate at a time, so the budget bounds
the work. Nothing is kept between searches.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .checker import eval_formula
from .formula import (
    Formula,
    agents_of,
    atoms_of,
    mentions_neighbourhood,
    mentions_temporal,
    rewrite_derived,
    subformula_closure,
)
from .frames import clashes_with_temporal, validate_model
from .model import Model, mask_of, powerset

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
    """All serial, transitive, euclidean relations on range(n), produced as
    successor functions: every state maps to a nonempty cluster and every
    member of a cluster maps to that same cluster. States are assigned in
    order, each trying the nonempty subsets in bitmask order: a state in a
    cluster already chosen maps to it, any other to a chosen cluster or to
    a new one disjoint from the chosen ones and with no earlier member.
    Every prefix so built extends, so the relations come out in the order
    of itertools.product over those subsets, the order of a filter over
    all (2^n - 1)^n assignments, at a cost that follows their number."""
    nonempty = [q for q in powerset(n) if q]
    relations = []
    assignment = []

    def extend():
        x = len(assignment)
        if x == n:
            relations.append((frozenset(
                (s, y) for s in range(n) for y in assignment[s]
            ), tuple(assignment)))
            return
        chosen = set(assignment)
        own = [c for c in chosen if x in c]
        for k in own or nonempty:
            if own or k in chosen or (
                    min(k) >= x and all(c.isdisjoint(k) for c in chosen)):
                assignment.append(k)
                extend()
                assignment.pop()

    extend()
    return relations


def _trace_families(cluster: frozenset, n: int):
    """Preference families over a cluster K: fam = {Q | Q ∩ K ∈ T} for a
    trace set T of nonempty subsets of K (an empty trace would leave the
    family without a supporting member state) that is closed under
    intersection (P1) and holds t2 whenever it holds t1 and (K - t1) | t2
    (P2). Traces are masks over the sorted members of K."""
    members = sorted(cluster)
    full = (1 << len(members)) - 1
    traced = [(q, mask_of(i for i, s in enumerate(members) if s in q))
              for q in powerset(n)]
    for mask in range(1 << full):
        tset = {t for t in range(1, full + 1) if mask >> t - 1 & 1}
        if all((t2 not in tset or t1 & t2 in tset)                 # P1
               and (t2 in tset or full & ~t1 | t2 not in tset)     # P2
               for t1 in tset for t2 in range(full + 1)):
            yield frozenset(q for q, t in traced if t in tset)


def _temporal_relations(n: int):
    """Every relation on range(n), in bitmask order, with its successor
    masks."""
    pairs = [(x, y) for x in range(n) for y in range(n)]
    row = (1 << n) - 1
    for tmask in range(1 << len(pairs)):
        yield (frozenset(pairs[i] for i in range(len(pairs)) if tmask >> i & 1),
               tuple(tmask >> x * n & row for x in range(n)))


def _clashing(relations, n: int, successors: tuple) -> set:
    """The belief relations that BX1 or BX2 rejects together with the
    temporal relation of these successor masks; none when it is empty (see
    the module docstring)."""
    if not any(successors):
        return set()
    return {rel for rel, succ in relations
            if clashes_with_temporal(n, succ, successors)}


def sat_search(
    f: Formula,
    max_states: int = DEFAULT_MAX_STATES,
    budget: int = DEFAULT_BUDGET,
) -> SatResult:
    """Search for a frame-valid model of f with at most max_states states.

    Returns sat with a witness model, unsat-up-to when the bounded space is
    exhausted, or aborted when the candidate budget runs out first. Raises
    RuntimeError if the witness fails the frame validator."""
    core = rewrite_derived(f)
    atoms = tuple(sorted(atoms_of(core))) or ("p",)
    agents = tuple(sorted(agents_of(core))) or ("a",)
    needs_families = mentions_neighbourhood(core)
    needs_temporal = mentions_temporal(core)
    _, bound = closure_bound(f)
    rows = [frozenset(p for i, p in enumerate(atoms) if mask >> i & 1)
            for mask in range(1 << len(atoms))]

    explored = 0
    for n in range(1, max_states + 1):
        states = tuple(f"s{i}" for i in range(n))
        intent = {a: (frozenset(),) * n for a in agents}
        labelings = [tuple(rows[i] for i in combo) for combo in
                     itertools.combinations_with_replacement(range(len(rows)), n)]
        relations, options = _belief_options(n, needs_families)
        temporals = (_temporal_relations(n) if needs_temporal
                     else ((frozenset(), (0,) * n),))
        for temporal, successors in temporals:
            clash = _clashing(relations, n, successors)
            allowed = [o for o in options if o[0] not in clash]
            for labeling in labelings:
                for combo in itertools.product(allowed, repeat=len(agents)):
                    explored += 1
                    if explored > budget:
                        return SatResult(
                            "aborted", None, None, explored - 1, bound, max_states
                        )
                    m = Model(
                        states=states, atoms=atoms, agents=agents,
                        labeling=labeling, temporal=temporal, intent=intent,
                        belief={a: rel for a, (rel, _) in zip(agents, combo)},
                        pref={a: fam for a, (_, fam) in zip(agents, combo)},
                    )
                    sat = eval_formula(m, core)
                    if sat:
                        report = validate_model(m)
                        if not report.passed:
                            raise RuntimeError(f"witness not frame-valid: {report.violations}")
                        witness = m.states[min(sat)]
                        return SatResult("sat", m, witness, explored, bound, max_states)
    return SatResult("unsat-up-to", None, None, explored, bound, max_states)


def _belief_options(n: int, needs_families: bool):
    """One agent's choices at size n: the KD45 belief relations with their
    successor masks, and the options, each a belief relation paired with,
    when the formula mentions preference or intention, trace-determined
    preference families constant on each belief cluster."""
    relations = []
    options = []
    families = {}  # cluster -> its preference families, built on first use
    for rel, assignment in _kd45_relations(n):
        relations.append((rel, tuple(mask_of(k) for k in assignment)))
        if not needs_families:
            options.append((rel, (frozenset(),) * n))
            continue
        clusters = sorted(set(assignment), key=sorted)
        for k in clusters:
            if k not in families:
                families[k] = list(_trace_families(k, n))
        for choice in itertools.product(*(families[k] for k in clusters)):
            fam_by_cluster = dict(zip(clusters, choice))
            options.append(
                (rel, tuple(fam_by_cluster[assignment[x]] for x in range(n)))
            )
    return relations, options
