"""Bounded satisfiability search.

Iterative deepening over the number of states; at each size every candidate
model is enumerated from components that already respect the structural
frame shape (KD45 belief clusters, cluster-constant trace-determined
preference families, empty intention families), then checked for
satisfiability first and full frame validity second. The search is complete
over frame-valid models up to the size bound because those structural
shapes are forced by the frame conditions, not merely convenient:

- a serial, transitive, euclidean relation is exactly a choice of disjoint
  nonempty clusters plus a map sending every state to a cluster;
- agreement closure plus belief persistence force every preference family
  to depend only on how members intersect the local cluster, with the same
  trace set across all states sharing a cluster;
- nonempty intention families cannot survive the combined closure demands
  (the intended states must avoid the cluster, agreement closure then
  admits the empty set, and reachability rejects it), so only the empty
  intention family can appear.
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
    rewrite_derived,
    subformula_closure,
)
from .frames import validate_model
from .model import Model, powerset

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


def _kd45_relations(n: int):
    """All serial, transitive, euclidean relations on range(n), produced as
    successor functions: every state maps to a nonempty cluster and every
    member of a cluster maps to that same cluster."""
    nonempty = [frozenset(q) for q in powerset(n) if q]
    for assignment in itertools.product(nonempty, repeat=n):
        if all(all(assignment[y] == k for y in k) for k in set(assignment)):
            yield frozenset(
                (x, y) for x in range(n) for y in assignment[x]
            ), assignment


def _trace_families(cluster: frozenset, n: int):
    """Preference families over a cluster: fam = {Q | Q ∩ cluster ∈ T} for a
    trace set T of nonempty subsets of the cluster (an empty trace would
    leave the family without a supporting member state)."""
    traces = [frozenset(t) for t in powerset(len(cluster))]
    members = sorted(cluster)
    all_sets = list(powerset(n))
    for mask in range(1 << len(traces)):
        chosen = [traces[i] for i in range(len(traces)) if mask >> i & 1]
        tset = {frozenset(members[i] for i in t) for t in chosen}
        if frozenset() in tset:
            continue
        yield frozenset(q for q in all_sets if (q & cluster) in tset)


def sat_search(
    f: Formula,
    max_states: int = DEFAULT_MAX_STATES,
    budget: int = DEFAULT_BUDGET,
) -> SatResult:
    """Search for a frame-valid model of f with at most max_states states.

    Returns sat with a re-verified witness model, unsat-up-to when the
    bounded space is exhausted, or aborted when the candidate budget runs
    out first."""
    core = rewrite_derived(f)
    atoms = tuple(sorted(atoms_of(core))) or ("p",)
    agents = tuple(sorted(agents_of(core))) or ("a",)
    needs_families = mentions_neighbourhood(core)
    _, bound = closure_bound(f)

    explored = 0
    for n in range(1, max_states + 1):
        states = tuple(f"s{i}" for i in range(n))
        empty_fams = {a: tuple(frozenset() for _ in range(n)) for a in agents}
        pairs = [(x, y) for x in range(n) for y in range(n)]
        for label_mask in itertools.product(range(1 << len(atoms)), repeat=n):
            labeling = tuple(
                frozenset(p for i, p in enumerate(atoms) if mask >> i & 1)
                for mask in label_mask
            )
            for tmask in range(1 << len(pairs)):
                temporal = frozenset(
                    pairs[i] for i in range(len(pairs)) if tmask >> i & 1
                )
                for belief, fams in _belief_and_families(
                    agents, n, needs_families
                ):
                    explored += 1
                    if explored > budget:
                        return SatResult(
                            "aborted", None, None, explored - 1, bound, max_states
                        )
                    m = Model(
                        states=states, atoms=atoms, agents=agents,
                        labeling=labeling, belief=belief, temporal=temporal,
                        pref=fams, intent=dict(empty_fams),
                    )
                    sat = eval_formula(m, core)
                    if not sat:
                        continue
                    if not validate_model(m).passed:
                        continue
                    # re-verify before reporting
                    verified = eval_formula(m, f)
                    if not verified:
                        continue
                    witness = m.states[min(verified)]
                    return SatResult("sat", m, witness, explored, bound, max_states)
    return SatResult("unsat-up-to", None, None, explored, bound, max_states)


def _belief_and_families(agents, n: int, needs_families: bool):
    """Cross product of KD45 belief relations and, when the formula actually
    mentions preference or intention, trace-determined preference families
    constant on each belief cluster."""
    per_agent = []
    for _ in agents:
        options = []
        for rel, assignment in _kd45_relations(n):
            if not needs_families:
                options.append((rel, tuple(frozenset() for _ in range(n))))
                continue
            clusters = sorted(set(assignment), key=sorted)
            for choice in itertools.product(
                *(list(_trace_families(k, n)) for k in clusters)
            ):
                fam_by_cluster = dict(zip(clusters, choice))
                options.append(
                    (rel, tuple(fam_by_cluster[assignment[x]] for x in range(n)))
                )
        per_agent.append(options)
    for combo in itertools.product(*per_agent):
        belief = {a: combo[i][0] for i, a in enumerate(agents)}
        fams = {a: combo[i][1] for i, a in enumerate(agents)}
        yield belief, fams
