"""Labeling model checker.

Processes core subformulas innermost-first, growing a per-state label set:
boolean cases by set algebra, modalities through Pre primitives, EF/EU by
backward worklist propagation and EG by decomposition into nontrivial
strongly connected components (Tarjan, SIAM J. Comput. 1972, with its
per-node state in n-length lists).

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
    successor lists succ (nodes 0 .. len(succ) - 1); nontrivial components
    have more than one node or a single node with a self-loop. Components
    come out in the order Tarjan's algorithm completes them, roots tried in
    ascending order. Per-node state lives in n-length lists, and successors
    outside sub are skipped where they are read."""
    n = len(succ)
    inside = bytearray(n)
    for s in sub:
        inside[s] = 1
    index = [-1] * n   # discovery order, -1 until visited
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    counter = 0
    components: list[frozenset] = []
    flags: list[bool] = []

    for root in sorted(sub):
        if index[root] >= 0:
            continue
        # Iterative Tarjan: (node, iterator position) work stack.
        work = [(root, 0)]
        while work:
            node, child_pos = work.pop()
            if child_pos == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = 1
            children = succ[node]
            for k in range(child_pos, len(children)):
                child = children[k]
                if not inside[child]:
                    continue
                if index[child] < 0:
                    work.append((node, k + 1))
                    work.append((child, 0))
                    break
                if on_stack[child] and index[child] < low[node]:
                    low[node] = index[child]
            else:
                if low[node] == index[node]:
                    top = len(stack) - 1
                    while stack[top] != node:
                        top -= 1
                    comp = stack[top:]
                    del stack[top:]
                    for v in comp:
                        on_stack[v] = 0
                    components.append(frozenset(comp))
                    flags.append(len(comp) > 1 or node in children)
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]

    return SccPartition(components=tuple(components), nontrivial=tuple(flags))


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
