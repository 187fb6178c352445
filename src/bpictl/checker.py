"""Labeling model checker.

Processes core subformulas innermost-first, growing a per-state label set:
boolean cases by set algebra, modalities through Pre primitives, EF/EU by
backward worklist propagation and EG by decomposition into nontrivial
strongly connected components.

Each evaluation reads the adjacency lists of ``Model.view``, each built on
its first read and kept with the model, so a formula of size |f| costs
O(|f|·(|S|+|R|)) (Clarke, Emerson & Sistla, TOPLAS 1986), and a model
checked many times builds them once. It reads none of the view's masks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Formula, agents_of, atoms_of, descendants, rewrite_derived
from .model import Model, StateSet, UndeclaredSymbolError


@dataclass(frozen=True)
class SccPartition:
    components: tuple  # tuple[frozenset[int], ...], disjoint, covering the subgraph
    nontrivial: tuple  # tuple[bool, ...], aligned with components


def pre_modal(kind: str, m: Model, agent: str | None, rho: StateSet) -> StateSet:
    """Pre primitive for one modal operator applied to the state set rho."""
    if kind in ("B", "P", "I"):
        if agent is None:
            raise ValueError(f"pre_modal({kind!r}) needs an agent")
        if agent not in m.agents:
            raise UndeclaredSymbolError("agent", agent)
    if kind in ("B", "AX"):
        # a state fails when some successor lies outside rho
        preds = m.view.preds(agent if kind == "B" else None)
        failing = set()
        for t in range(m.n):
            if t not in rho:
                failing.update(preds[t])
        return m.universe - failing
    if kind == "EX":
        preds = m.view.preds()
        found = set()
        for t in rho:
            found.update(preds[t])
        return frozenset(found)
    if kind == "P":
        return frozenset(s for s in range(m.n) if rho in m.pref[agent][s])
    if kind == "I":
        return frozenset(s for s in range(m.n) if rho in m.intent[agent][s])
    raise ValueError(f"unknown modal kind {kind!r}")


def tarjan_scc(sub: StateSet, succ: list) -> SccPartition:
    """Maximal SCCs of the subgraph that sub induces in the graph with
    successor lists succ; nontrivial components have more than one node or
    a single node with a self-loop."""
    nodes = sorted(sub)
    inside = {s: [t for t in succ[s] if t in sub] for s in nodes}
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    components: list[frozenset] = []

    for root in nodes:
        if root in index:
            continue
        # Iterative Tarjan: (node, iterator position) work stack.
        work = [(root, 0)]
        while work:
            node, child_pos = work.pop()
            if child_pos == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for k in range(child_pos, len(inside[node])):
                child = inside[node][k]
                if child not in index:
                    work.append((node, k + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = set()
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.add(top)
                    if top == node:
                        break
                components.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    flags = tuple(
        len(c) > 1 or next(iter(c)) in inside[next(iter(c))] for c in components
    )
    return SccPartition(components=tuple(components), nontrivial=flags)


def check_symbols(m: Model, f: Formula) -> None:
    """Raise UndeclaredSymbolError for the least atom, else the least agent,
    of f that m does not declare."""
    missing = atoms_of(f).difference(m.atoms)
    if missing:
        raise UndeclaredSymbolError("atom", min(missing))
    missing = agents_of(f).difference(m.agents)
    if missing:
        raise UndeclaredSymbolError("agent", min(missing))


def eval_formula(m: Model, f: Formula) -> StateSet:
    """The set of states of m satisfying f, by the labeling algorithm."""
    check_symbols(m, f)
    core = rewrite_derived(f)
    labels: dict[Formula, frozenset] = {}
    for sub in descendants(core):
        labels[sub] = _eval_node(m, sub, labels)
    return _eval_node(m, core, labels)


def _drain_backward(seed, preds, allowed=None) -> frozenset:
    """Backward propagation: labeled states grow from seed over predecessors.
    The pop order does not matter: whatever order the work list is drained
    in, the result is the seed plus every allowed state with a path of
    allowed states into it."""
    labeled = set(seed)
    work = list(labeled)
    while work:
        for t in preds[work.pop()]:
            if t in labeled:
                continue
            if allowed is not None and t not in allowed:
                continue
            labeled.add(t)
            work.append(t)
    return frozenset(labeled)


def _eval_node(m: Model, f: Formula, labels) -> frozenset:
    op = f.op
    if op == "atom":
        return m.atom_extension(f.name)
    if op == "true":
        return m.universe
    if op == "not":
        return m.universe - labels[f.left]
    if op == "and":
        return labels[f.left] & labels[f.right]
    if op == "or":
        return labels[f.left] | labels[f.right]
    if op in ("B", "P", "I", "AX", "EX"):
        return pre_modal(op, m, f.agent, labels[f.left])
    if op == "EF":
        return _drain_backward(labels[f.left], m.view.preds())
    if op == "EG":
        restricted = labels[f.left]
        part = tarjan_scc(restricted, m.view.successors())
        cyclic = (c for c, flag in zip(part.components, part.nontrivial) if flag)
        return _drain_backward(set().union(*cyclic), m.view.preds(), allowed=restricted)
    if op == "EU":
        return _drain_backward(labels[f.right], m.view.preds(),
                               allowed=labels[f.left] | labels[f.right])
    raise ValueError(f"non-core operator reached the checker: {op!r}")


def is_valid(m: Model, f: Formula) -> bool:
    return eval_formula(m, f) == m.universe


def is_satisfiable_in(m: Model, f: Formula) -> bool:
    return bool(eval_formula(m, f))
