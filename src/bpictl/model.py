"""Finite BPICTL models.

States are stored as name strings in declared order; all relations,
neighbourhood families and state sets use integer indices into that order.
``Model.view`` is the one compiled form of a model: adjacency lists for the
checker, int bitmasks for the frame validator. Each table is built on its
first read, so each reader builds only its own: a 10^5-state model's
temporal masks alone would be 10^5 ints of up to 12.5 KB each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .formula import RESERVED

StateSet = frozenset  # frozenset[int]


class UndeclaredSymbolError(ValueError):
    """A formula mentions an atom or agent the model does not declare."""

    def __init__(self, kind: str, symbol: str):
        super().__init__(f"undeclared {kind}: {symbol!r}")
        self.kind = kind
        self.symbol = symbol


class ModelError(ValueError):
    """Structurally invalid model (bad endpoints, missing labels, ...)."""


@dataclass
class Model:
    states: tuple[str, ...]
    atoms: tuple[str, ...]
    agents: tuple[str, ...]
    labeling: tuple[frozenset, ...]            # per state index: atom names
    belief: dict                               # agent -> frozenset[(int, int)]
    temporal: frozenset                        # frozenset[(int, int)]
    pref: dict                                 # agent -> tuple per state of frozenset[StateSet]
    intent: dict                               # agent -> tuple per state of frozenset[StateSet]
    _index: dict = field(init=False, repr=False, compare=False)
    _view: View | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # every parse_model call builds a Model: keep these checks cheap
        n = len(self.states)
        if not n:
            raise ModelError("a model needs at least one state")
        self._index = {s: i for i, s in enumerate(self.states)}
        if len(self._index) != n:
            raise ModelError("duplicate state identifiers")
        atoms = frozenset(self.atoms)
        if len(atoms) != len(self.atoms):
            raise ModelError("duplicate atom names")
        agents = set(self.agents)
        if not agents:
            raise ModelError("a model needs at least one agent")
        if len(agents) != len(self.agents):
            raise ModelError("duplicate agent names")
        # render_model writes names as bare words: only identifiers re-parse
        names = (*self.states, *self.atoms, *self.agents)
        if not (all(map(str.isidentifier, names)) and "".join(names).isascii()):
            bad = next(s for s in names if not (s.isascii() and s.isidentifier()))
            raise ModelError(f"name {bad!r} is not an ASCII identifier")
        if atoms & RESERVED:
            raise ModelError(f"atom name {min(atoms & RESERVED)!r} is a reserved word")
        if len(self.labeling) != n:
            raise ModelError(f"labeling has {len(self.labeling)} rows for {n} states")
        for state, row in zip(self.states, self.labeling):
            if not atoms.issuperset(row):
                raise ModelError(f"state {state!r} has undeclared atom {min(set(row) - atoms)!r}")
        if not self.belief.keys() == self.pref.keys() == self.intent.keys() == agents:
            raise ModelError("belief, preference and intention tables must cover "
                             f"exactly the declared agents {sorted(agents)}")
        for rel in (self.temporal, *self.belief.values()):
            for (x, y) in rel:
                if not (0 <= x < n and 0 <= y < n):
                    raise ModelError(f"relation endpoint out of range: {(x, y)}")
        indices = frozenset(range(n))
        for fams in (self.pref, self.intent):
            for agent, per_state in fams.items():
                if len(per_state) != n:
                    raise ModelError(f"family table for {agent!r} has wrong length")
                for family in per_state:
                    for member in family:
                        if not indices.issuperset(member):
                            raise ModelError("neighbourhood member out of range")

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def universe(self) -> StateSet:
        return frozenset(range(self.n))

    def index(self, state: str) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise UndeclaredSymbolError("state", state) from None

    def atom_extension(self, atom: str) -> StateSet:
        if atom not in self.atoms:
            raise UndeclaredSymbolError("atom", atom)
        return frozenset(i for i in range(self.n) if atom in self.labeling[i])

    def state_names(self, ss: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.states[i] for i in sorted(ss))

    @property
    def view(self) -> View:
        """The compiled view, built on first use. Do not change the model after."""
        if self._view is None:
            self._view = View(self)
        return self._view


class Neighbourhoods(NamedTuple):
    """One agent's preference or intention families as masks."""

    sets: tuple   # per state: frozenset of member masks
    image: dict   # member mask -> mask of the states whose family holds it


class View:
    """A model's tables for the checker and the frame validator (bit i of a
    mask is state i), each built on its first read. It holds the model's
    relations, not the model, so no reference cycle delays freeing either."""

    def __init__(self, m: Model):
        self.n = m.n
        self._belief, self._temporal, self._pref, self._intent = (
            m.belief, m.temporal, m.pref, m.intent)
        self._preds = {}  # agent, or None for T -> per state: predecessors
        self._succ = None  # per state: temporal successors

    @cached_property
    def belief(self) -> dict:  # agent -> per state: belief successor mask
        return {a: _successor_masks(rel, self.n) for a, rel in self._belief.items()}

    @cached_property
    def temporal(self) -> tuple:  # per state: temporal successor mask
        return _successor_masks(self._temporal, self.n)

    @cached_property
    def pref(self) -> dict:  # agent -> Neighbourhoods
        cache = {}  # family -> its member masks; states often share families
        return {a: neighbourhoods(t, cache) for a, t in self._pref.items()}

    @cached_property
    def intent(self) -> dict:  # agent -> Neighbourhoods
        cache = {}
        return {a: neighbourhoods(t, cache) for a, t in self._intent.items()}

    @cached_property
    def reach(self) -> tuple:
        """Per state: its reflexive-transitive temporal reach (Warshall on
        bitsets). Built on first use: it costs O(n^2), and only a condition
        capped at 16 states reads it."""
        reach = [1 << x | s for x, s in enumerate(self.temporal)]
        for k in range(self.n):
            for i in range(self.n):
                if reach[i] >> k & 1:
                    reach[i] |= reach[k]
        return tuple(reach)

    def preds(self, agent: str | None = None) -> list:
        """Per state: its predecessors under agent's belief relation, or
        under T when agent is None. Each is built on its first read."""
        lists = self._preds.get(agent)
        if lists is None:
            lists = self._preds[agent] = [[] for _ in range(self.n)]
            for x, t in self._temporal if agent is None else self._belief[agent]:
                lists[t].append(x)
        return lists

    def successors(self) -> list:
        """Per state: its temporal successors."""
        if self._succ is None:
            self._succ = [[] for _ in range(self.n)]
            for x, t in self._temporal:
                self._succ[x].append(t)
        return self._succ


def mask_of(states: Iterable[int]) -> int:
    out = 0
    for i in states:
        out |= 1 << i
    return out


def bits(mask: int):
    """The states of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _successor_masks(rel, n: int) -> tuple:
    succ = [0] * n
    for (x, y) in rel:
        succ[x] |= 1 << y
    return tuple(succ)


def neighbourhoods(per_state, cache: dict) -> Neighbourhoods:
    """Per-state families as masks; cache maps a family to its member
    masks and may be shared across calls."""
    sets = []
    image = {}
    for x, family in enumerate(per_state):
        members = cache.get(family)
        if members is None:
            members = cache[family] = frozenset(map(mask_of, family))
        sets.append(members)
        for q in members:
            image[q] = image.get(q, 0) | 1 << x
    return Neighbourhoods(tuple(sets), image)


def make_model(
    states: Iterable[str],
    atoms: Iterable[str] = (),
    agents: Iterable[str] = ("a",),
    labeling: Mapping[str, Iterable[str]] | None = None,
    belief: Mapping[str, Iterable[tuple[str, str]]] | None = None,
    temporal: Iterable[tuple[str, str]] = (),
    pref: Mapping[str, Mapping[str, Iterable[Iterable[str]]]] | None = None,
    intent: Mapping[str, Mapping[str, Iterable[Iterable[str]]]] | None = None,
) -> Model:
    """Build a Model from name-level data, validating declarations."""
    states = tuple(states)
    atoms = tuple(atoms)
    agents = tuple(agents)
    idx = {s: i for i, s in enumerate(states)}

    labeling = dict(labeling or {})
    label_rows = []
    for s in states:
        row = frozenset(labeling.pop(s, ()))
        for p in row:
            if p not in atoms:
                raise UndeclaredSymbolError("atom", p)
        label_rows.append(row)
    if labeling:
        raise UndeclaredSymbolError("state", next(iter(labeling)))

    def families(table: Mapping | None) -> dict:
        table = dict(table or {})
        out = {}
        for a in agents:
            per_state = [frozenset()] * len(states)
            for s, fam in dict(table.pop(a, {})).items():
                per_state[idx[s]] = frozenset(
                    frozenset(idx[t] for t in member) for member in fam
                )
            out[a] = tuple(per_state)
        if table:
            raise UndeclaredSymbolError("agent", next(iter(table)))
        return out

    # a KeyError is a state name missing from idx, the first one looked up
    try:
        belief = dict(belief or {})
        bel = {a: frozenset((idx[x], idx[y]) for (x, y) in belief.pop(a, ()))
               for a in agents}
        if belief:
            raise UndeclaredSymbolError("agent", next(iter(belief)))
        rx = frozenset((idx[x], idx[y]) for (x, y) in temporal)
        pref, intent = families(pref), families(intent)
    except KeyError as exc:
        raise UndeclaredSymbolError("state", exc.args[0]) from None

    return Model(
        states=states,
        atoms=atoms,
        agents=agents,
        labeling=tuple(label_rows),
        belief=bel,
        temporal=rx,
        pref=pref,
        intent=intent,
    )


def powerset(n: int):
    """All subsets of range(n) as frozensets, in bitmask order."""
    for mask in range(1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)
