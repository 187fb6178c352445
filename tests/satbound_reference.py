"""Reference bounded sat searches that ``bpictl.satbound`` is tested against.

``sat_search`` is the brute-force literal enumerator that ``satbound``
reduces. ``model_per_candidate_search`` enumerates exactly the candidates
of ``satbound.sat_search``, in the same order, but builds every candidate
as a ``Model`` and checks it with ``eval_formula``.

The brute-force search enumerates every labeling and every temporal relation at each size, and
regenerates the KD45 relations and preference families for every
(labeling, temporal relation) pair. Candidates are the same structural
shapes as in ``satbound``: KD45 belief clusters, cluster-constant
trace-determined preference families and empty intention families.
"""

import itertools

from bpictl.checker import eval_formula
from bpictl.formula import (
    agents_of,
    atoms_of,
    mentions_neighbourhood,
    mentions_temporal,
    rewrite_derived,
)
from bpictl.frames import validate_model
from bpictl.model import Model, powerset
from bpictl.satbound import (
    SatResult,
    _belief_options,
    _clashing,
    _temporal_relations,
    closure_bound,
)


def sat_search(f, max_states):
    """(verdict, model, witness, explored): verdict is "sat" with a
    frame-valid model and a state of it satisfying f, or "unsat-up-to"."""
    core = rewrite_derived(f)
    atoms = tuple(sorted(atoms_of(core))) or ("p",)
    agents = tuple(sorted(agents_of(core))) or ("a",)
    needs_families = mentions_neighbourhood(core)

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
                    m = Model(
                        states=states, atoms=atoms, agents=agents,
                        labeling=labeling, belief=belief, temporal=temporal,
                        pref=fams, intent=dict(empty_fams),
                    )
                    sat = eval_formula(m, core)
                    if not sat or not validate_model(m).passed:
                        continue
                    return "sat", m, m.states[min(sat)], explored
    return "unsat-up-to", None, None, explored


def _kd45_relations(n):
    """All serial, transitive, euclidean relations on range(n), with the
    cluster each state maps to."""
    nonempty = [frozenset(q) for q in powerset(n) if q]
    for assignment in itertools.product(nonempty, repeat=n):
        if all(all(assignment[y] == k for y in k) for k in set(assignment)):
            yield frozenset(
                (x, y) for x in range(n) for y in assignment[x]
            ), assignment


def _trace_families(cluster, n):
    """fam = {Q | Q ∩ cluster ∈ T} for each set T of nonempty subsets of
    the cluster."""
    traces = [frozenset(t) for t in powerset(len(cluster))]
    members = sorted(cluster)
    all_sets = list(powerset(n))
    for mask in range(1 << len(traces)):
        chosen = [traces[i] for i in range(len(traces)) if mask >> i & 1]
        tset = {frozenset(members[i] for i in t) for t in chosen}
        if frozenset() in tset:
            continue
        yield frozenset(q for q in all_sets if (q & cluster) in tset)


def _belief_and_families(agents, n, needs_families):
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


def model_per_candidate_search(f, max_states, budget):
    """satbound.sat_search's enumeration with a Model and an eval_formula
    call per candidate: the same SatResult for the same arguments."""
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
                        assert validate_model(m).passed
                        witness = m.states[min(sat)]
                        return SatResult("sat", m, witness, explored, bound, max_states)
    return SatResult("unsat-up-to", None, None, explored, bound, max_states)
