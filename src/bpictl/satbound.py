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

No candidate is built as a ``Model``. The core formula is compiled once
per search into a postorder list of slot operations, and each candidate is
checked on state masks (bit x is state x): a labeling is one mask per atom,
boolean operators are bitwise, EX reads a pre-image table of T (for each
state mask v, the states with a successor in v), AX and B hold where the
pre-image of the complement under T or the belief relation does not,
P{a} reads the image of the agent's preference family (member mask ->
states whose family holds it), I{a} is empty because the intention
families are, and EF, EG and EU iterate the EX pre-image to a fixpoint in
at most n rounds. Only the witness becomes a ``Model``: it is validated,
and replayed with ``eval_formula``, and a disagreement with the mask
result raises.
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
from .model import Model, mask_of, neighbourhoods, powerset

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


class _Choice(NamedTuple):
    """One agent's choice in a candidate: a belief option with the tables
    the compiled formula reads."""

    relation: frozenset  # the KD45 belief relation
    families: tuple      # per state: the preference family, as in a Model
    believes: tuple      # pre-image table of the belief relation
    prefers: dict        # member mask -> mask of the states whose family holds it


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
        relations, choices = _choices(n, needs_families)
        temporals = (_temporal_relations(n) if needs_temporal
                     else ((frozenset(), (0,) * n),))
        fresh = _labelings(len(atoms), n)
        kept = []  # with several T, the labelings the first T's pass made
        if needs_temporal:
            fresh = _keeping(fresh, kept)
        for temporal, successors in temporals:
            clash = _clashing(relations, n, successors)
            allowed = [c for c in choices if c.relation not in clash]
            ex = _pre_image(successors)
            for labels, atom_masks in kept or fresh:
                for combo in itertools.product(allowed, repeat=len(agents)):
                    explored += 1
                    if explored > budget:
                        return SatResult(
                            "aborted", None, None, explored - 1, bound, max_states
                        )
                    holds = _evaluate(program, atom_masks, ex, combo)
                    if holds:
                        m = _witness(core, holds, atoms, agents, labels, temporal, combo)
                        witness = m.states[(holds & -holds).bit_length() - 1]
                        return SatResult("sat", m, witness, explored, bound, max_states)
    return SatResult("unsat-up-to", None, None, explored, bound, max_states)


def _witness(core, holds, atoms, agents, labels, temporal, combo) -> Model:
    """The candidate as a Model, validated and replayed with eval_formula."""
    n = len(labels)
    m = Model(
        states=tuple(f"s{i}" for i in range(n)), atoms=atoms, agents=agents,
        labeling=tuple(frozenset(p for j, p in enumerate(atoms) if label >> j & 1)
                       for label in labels),
        temporal=temporal,
        belief={a: c.relation for a, c in zip(agents, combo)},
        pref={a: c.families for a, c in zip(agents, combo)},
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
    of combinations_with_replacement(range(2 ** k), n), which would first
    copy all 2^k label masks: each as its per-state atom masks and its
    per-atom state masks."""
    last = (1 << k) - 1
    labels = [0] * n
    while True:
        yield tuple(labels), tuple(mask_of(x for x, label in enumerate(labels) if label >> j & 1)
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


def _choices(n: int, needs_families: bool):
    """_belief_options with each option's tables, as _Choice."""
    relations, options = _belief_options(n, needs_families)
    believes = {rel: _pre_image(succ) for rel, succ in relations}
    cache = {}  # family -> its member masks, shared across options
    return relations, [
        _Choice(rel, fam, believes[rel], neighbourhoods(fam, cache).image)
        for rel, fam in options
    ]


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
