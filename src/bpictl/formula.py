"""Formula AST for the BPICTL logic and structural utilities.

The core fragment is {atom, true, not, and, or, B, P, I, AX, EX, EF, EG, EU};
implication, biconditional, desire, AG, AU and AF are derived operators that
``rewrite_derived`` eliminates bottom-up.

Formulas are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): each distinct formula is one interned node, so
structural equality is identity and hashing is O(1). A node lazily caches
its core rewrite, its symbols and, once evaluated, the postorder of its
subformulas. Every walk over a formula here is iterative, so nesting depth
is bounded by memory, not by the interpreter's recursion limit.
"""

from __future__ import annotations

from typing import Iterator
from weakref import KeyedRef

# (op, name, agent, left, right) -> weak reference to the one live node with
# those fields. A node's entry goes when the node dies; the key keeps the
# node's children alive, as the node itself does.
_TABLE: dict[tuple, KeyedRef] = {}


def _forget(ref: KeyedRef) -> None:
    # A dead node's key may already name a newer node; keep that entry.
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


# Value of a node's core cache when the node is its own core. Storing the
# node itself would make it reference itself, which delays freeing it until
# the cyclic garbage collector runs.
_IS_CORE = object()


class Formula:
    """Immutable, interned formula node.

    ``Formula(op, name, agent, left, right)`` returns the existing node with
    those fields if one is alive, so structurally equal formulas are the
    same object: ``==`` is identity and the hash is the object's id.
    """

    __slots__ = ("op", "name", "agent", "left", "right", "_core", "_symbols",
                 "_descendants", "__weakref__")

    op: str
    name: str | None        # atom name (op == 'atom')
    agent: str | None       # agent of B/P/I/D modalities
    left: Formula | None
    right: Formula | None

    def __new__(cls, op: str, name: str | None = None, agent: str | None = None,
                left: Formula | None = None, right: Formula | None = None):
        key = (op, name, agent, left, right)
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        _set_op(node, op)
        _set_name(node, name)
        _set_agent(node, agent)
        _set_left(node, left)
        _set_right(node, right)
        _set_core(node, None)
        _set_symbols(node, None)
        _set_descendants(node, None)
        _TABLE[key] = KeyedRef(node, _forget, key)
        return node

    def __setattr__(self, attr, value):
        raise AttributeError(f"formula nodes are immutable (cannot set {attr!r})")

    def __delattr__(self, attr):
        raise AttributeError(f"formula nodes are immutable (cannot delete {attr!r})")

    def __reduce__(self):
        # unpickling and copying go through Formula(...), which re-interns
        return (Formula, (self.op, self.name, self.agent, self.left, self.right))

    def children(self) -> Iterator[Formula]:
        if self.left is not None:
            yield self.left
        if self.right is not None:
            yield self.right

    def __repr__(self) -> str:  # keep pytest diffs readable
        from .textio import render_formula

        return f"<{render_formula(self)}>"


# The slot descriptors write past the __setattr__ guard.
_set_op = Formula.op.__set__
_set_name = Formula.name.__set__
_set_agent = Formula.agent.__set__
_set_left = Formula.left.__set__
_set_right = Formula.right.__set__
_set_core = Formula._core.__set__
_set_symbols = Formula._symbols.__set__
_set_descendants = Formula._descendants.__set__


# Constructor helpers.  Binary temporal operators take (left, right).

def Atom(name: str) -> Formula:
    return Formula("atom", name=name)


TRUE = Formula("true")


def Not(f: Formula) -> Formula:
    return Formula("not", left=f)


def And(f1: Formula, f2: Formula) -> Formula:
    return Formula("and", left=f1, right=f2)


def Or(f1: Formula, f2: Formula) -> Formula:
    return Formula("or", left=f1, right=f2)


def Imp(f1: Formula, f2: Formula) -> Formula:
    return Formula("imp", left=f1, right=f2)


def Iff(f1: Formula, f2: Formula) -> Formula:
    return Formula("iff", left=f1, right=f2)


def B(agent: str, f: Formula) -> Formula:
    return Formula("B", agent=agent, left=f)


def P(agent: str, f: Formula) -> Formula:
    return Formula("P", agent=agent, left=f)


def I(agent: str, f: Formula) -> Formula:
    return Formula("I", agent=agent, left=f)


def D(agent: str, f: Formula) -> Formula:
    return Formula("D", agent=agent, left=f)


def AX(f: Formula) -> Formula:
    return Formula("AX", left=f)


def EX(f: Formula) -> Formula:
    return Formula("EX", left=f)


def EF(f: Formula) -> Formula:
    return Formula("EF", left=f)


def EG(f: Formula) -> Formula:
    return Formula("EG", left=f)


def AG(f: Formula) -> Formula:
    return Formula("AG", left=f)


def AF(f: Formula) -> Formula:
    return Formula("AF", left=f)


def EU(f1: Formula, f2: Formula) -> Formula:
    return Formula("EU", left=f1, right=f2)


def AU(f1: Formula, f2: Formula) -> Formula:
    return Formula("AU", left=f1, right=f2)


CORE_OPS = frozenset(
    {"atom", "true", "not", "and", "or", "B", "P", "I", "AX", "EX", "EF", "EG", "EU"}
)

# Words the formula parser always reads as the constant or an operator, so
# no atom may be named by one.
RESERVED = frozenset({"true", "AX", "EX", "EF", "EG", "AG", "AF"})

# Operators whose semantics read neighbourhood families (D rewrites to P).
_NEIGHBOURHOOD_OPS = frozenset({"P", "I", "D"})

# Operators whose semantics read the temporal relation; the derived ones
# rewrite to EF, EG or EU.
_TEMPORAL_OPS = frozenset({"AX", "EX", "EF", "EG", "EU", "AG", "AF", "AU"})


def _fill(f: Formula, cache: str, compute) -> None:
    """Fill the cache slot named `cache` of f and of every node below f that
    lacks it, children first, with compute(node); no recursion."""
    stack = [f]
    while stack:
        g = stack[-1]
        if getattr(g, cache) is not None:
            stack.pop()
            continue
        pending = [c for c in (g.left, g.right)
                   if c is not None and getattr(c, cache) is None]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        compute(g)


def is_core(f: Formula) -> bool:
    return all(g.op in CORE_OPS for g in subformulas(f))


def rewrite_derived(f: Formula) -> Formula:
    """Eliminate derived operators, bottom-up. Idempotent on core formulas."""
    core = f._core
    if core is None:
        _fill(f, "_core", _rewrite_node)
        core = f._core
    return f if core is _IS_CORE else core


def _core_of(f: Formula | None) -> Formula | None:
    # only called once f's cache is filled
    if f is None:
        return None
    core = f._core
    return f if core is _IS_CORE else core


def _au(a: Formula, b: Formula) -> Formula:
    return And(Not(EU(Not(b), And(Not(a), Not(b)))), Not(EG(Not(b))))


def _rewrite_node(f: Formula) -> None:
    """Set f's core cache from the cores of its children."""
    op = f.op
    a, b = _core_of(f.left), _core_of(f.right)
    if op == "imp":
        core = Or(Not(a), b)
    elif op == "iff":
        core = And(Or(Not(a), b), Or(Not(b), a))
    elif op == "D":
        core = And(P(f.agent, a), B(f.agent, Not(a)))
    elif op == "AG":
        core = Not(EF(Not(a)))
    elif op == "AU":
        core = _au(a, b)
    elif op == "AF":
        core = _au(TRUE, a)
    elif a is f.left and b is f.right:
        _set_core(f, _IS_CORE)
        return
    else:
        core = Formula(op, f.name, f.agent, a, b)
    _set_core(f, core)
    if core._core is None:
        _set_core(core, _IS_CORE)


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of f, including f itself."""
    return frozenset(descendants(f)).union((f,))


def subformula_closure(f: Formula) -> frozenset[Formula]:
    """Subformulas of f together with the negation of each."""
    subs = subformulas(f)
    return subs | {Not(g) for g in subs}


_NO_NAMES: frozenset[str] = frozenset()


def _union(x: frozenset, y: frozenset) -> frozenset:
    # reuse a set when it already holds the other, so chains share one set
    if y <= x:
        return x
    if x <= y:
        return y
    return x | y


def _symbols_node(f: Formula) -> None:
    """Set f's (atoms, agents, mentions P/I/D, mentions a temporal operator)
    cache from its children's."""
    op = f.op
    if op == "atom":
        symbols = (frozenset((f.name,)), _NO_NAMES, False, False)
    elif f.left is None:
        symbols = (_NO_NAMES, _NO_NAMES, False, False)
    else:
        symbols = f.left._symbols
        if f.right is not None:
            right = f.right._symbols
            if right is not symbols:
                symbols = (_union(symbols[0], right[0]), _union(symbols[1], right[1]),
                           symbols[2] or right[2], symbols[3] or right[3])
        if f.agent is not None:
            atoms, agents, neighbourhood, temporal = symbols
            if f.agent not in agents or (op in _NEIGHBOURHOOD_OPS and not neighbourhood):
                symbols = (atoms, agents | {f.agent},
                           neighbourhood or op in _NEIGHBOURHOOD_OPS, temporal)
        elif op in _TEMPORAL_OPS and not symbols[3]:
            symbols = (*symbols[:3], True)
    _set_symbols(f, symbols)


def _symbols(f: Formula) -> tuple:
    symbols = f._symbols
    if symbols is None:
        _fill(f, "_symbols", _symbols_node)
        symbols = f._symbols
    return symbols


def atoms_of(f: Formula) -> frozenset[str]:
    return _symbols(f)[0]


def agents_of(f: Formula) -> frozenset[str]:
    return _symbols(f)[1]


def mentions_neighbourhood(f: Formula) -> bool:
    """Whether f uses P, I or D, i.e. whether its core reads preference or
    intention families."""
    return _symbols(f)[2]


def mentions_temporal(f: Formula) -> bool:
    """Whether f uses a temporal operator, i.e. whether its core reads the
    temporal relation."""
    return _symbols(f)[3]


def descendants(f: Formula) -> tuple[Formula, ...]:
    """The distinct strict subformulas of f, each after its children. Cached
    on f; f itself is left out, so the cache holds no reference to f."""
    out = f._descendants
    if out is None:
        seen: set[Formula] = {f}
        order: list[Formula] = []
        stack = [(c, False) for c in (f.right, f.left) if c is not None]
        while stack:
            g, expanded = stack.pop()
            if expanded:
                order.append(g)
            elif g not in seen:
                seen.add(g)
                stack.append((g, True))
                if g.right is not None:
                    stack.append((g.right, False))
                if g.left is not None:
                    stack.append((g.left, False))
        out = tuple(order)
        _set_descendants(f, out)
    return out
