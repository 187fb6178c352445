"""Soundness harness for the axiom catalogue.

``SCHEMAS`` is the catalogue in the ``.bpi`` syntax, with the atoms
``phi``, ``psi`` and ``chi`` as metavariables and ``a`` as the agent; it is
parsed once, on import. ``instantiate`` is simultaneous substitution: one
pass over a template's subformulas, children first, puts in the bound
formula for each metavariable and the bound agent for ``a``.

Since the metavariables are distinct atoms, uniform substitution applies
(Chellas, *Modal Logic*, 1980, ch. 7; Blackburn, de Rijke & Venema, *Modal
Logic*, 2001, sect. 1.6): an instance holds at a state under a valuation V
exactly when its schema holds there under the valuation that gives each
metavariable the denotation of its bound formula under V. So a schema
valid on every valuation of a frame, with the instance's agent for ``a``,
has every instance valid on that frame; the same goes for a rule whose
conclusion is valid under every valuation that makes its premises valid.
Frame-valid finite models have empty intention families (README, "A note
on intentions"), so the schemas that mention I hold on them trivially.

An axiom instance must be valid on a model; a rule instance's conclusion
must be valid on it whenever all its premises are. Generated models are
checked against every frame condition before use, so a failure cannot be
blamed on an invalid model.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import formula as F
from .checker import eval_formula, is_valid
from .frames import ValidationReport, validate_model
from .formula import Formula
from .model import Model, make_model, powerset
from .textio import parse_formula

METAVARS = ("phi", "psi", "chi")


@dataclass(frozen=True)
class RuleObligation:
    premises: tuple  # tuple[Formula, ...]
    conclusion: Formula


@dataclass(frozen=True)
class SchemaInstance:
    schema_id: str
    binding: dict
    obligation: object  # Formula (axiom) or RuleObligation (rule)


# One formula is an axiom; with several, the last is a rule's conclusion and
# the others its premises, read as valid on the model: EG2 and EU2 are
# fixpoint inductions whose statewise implication is falsifiable (psi :=
# true where a phi-state steps into !phi), as in the standard CTL system.
SCHEMAS = {
    "B1": ("phi", "B{a} phi"),
    "B2": ("B{a} phi & B{a} (phi -> psi) -> B{a} psi",),
    "B3": ("B{a} phi -> B{a} B{a} phi",),
    "B4": ("!B{a} phi -> B{a} !B{a} phi",),
    "B5": ("B{a} phi -> !B{a} !phi",),
    "P1": ("P{a} phi & P{a} psi -> P{a} (phi & psi)",),
    "P2": ("P{a} phi & P{a} (phi -> psi) -> P{a} psi",),
    "P3": ("P{a} P{a} phi -> P{a} phi",),
    "P4": ("P{a} !P{a} phi -> !P{a} phi",),
    "AX1": ("phi", "AX phi"),
    "AX2": ("AX phi & AX (phi -> psi) -> AX psi",),
    "EX1": ("EX phi <-> !AX !phi",),
    "EF1": ("EF phi <-> E[true U phi]",),
    "EG1": ("EG phi <-> phi & EX EG phi",),
    "EG2": ("psi <-> phi & EX psi", "psi -> EG phi"),
    "EU1": ("E[phi U psi] <-> psi | phi & EX E[phi U psi]",),
    "EU2": ("chi <-> psi | phi & EX chi", "E[phi U psi] -> chi"),
    "BP1": ("B{a} (phi <-> psi) & P{a} phi -> P{a} psi",),
    "BP2": ("P{a} phi -> B{a} P{a} phi",),
    "BP3": ("!P{a} phi -> B{a} !P{a} phi",),
    "BP4": ("B{a} P{a} phi -> P{a} phi",),
    "BP5": ("B{a} !P{a} phi -> !P{a} phi",),
    "BI1": ("B{a} (phi <-> psi) & I{a} phi -> I{a} psi",),
    "BI2": ("I{a} phi -> B{a} I{a} phi",),
    "BI3": ("!I{a} phi -> B{a} !I{a} phi",),
    "BI4": ("B{a} I{a} phi -> I{a} phi",),
    "BI5": ("B{a} !I{a} phi -> !I{a} phi",),
    "BPIEF1": ("I{a} phi -> P{a} phi & (B{a} !phi & B{a} EF phi)",),
    "BX1": ("B{a} AX phi -> B{a} AX B{a} phi",),
    "BX2": ("B{a} EX phi -> B{a} EX B{a} phi",),
    "COR1a": ("phi <-> psi", "P{a} phi <-> P{a} psi"),
    "COR1b": ("phi <-> psi", "I{a} phi <-> I{a} psi"),
    "COR2": ("P{a} phi & P{a} (phi -> P{a} psi) -> P{a} psi",),
}

SCHEMA_IDS = tuple(SCHEMAS)


def _template(texts):
    """One schema parsed: its formulas, their distinct subformulas with each
    after its children, and the metavariables they use."""
    formulas = tuple(map(parse_formula, texts))
    order = dict.fromkeys(g for f in formulas for g in (*F.descendants(f), f))
    atoms = frozenset().union(*map(F.atoms_of, formulas))
    return formulas, tuple(order), tuple(v for v in METAVARS if v in atoms)


_TEMPLATES = {sid: _template(texts) for sid, texts in SCHEMAS.items()}


def instantiate(schema_id: str, bindings: dict) -> SchemaInstance:
    """Plug concrete formulas (and an agent) into one schema: substitute
    each metavariable atom and the agent simultaneously, children first."""
    formulas, order, needed = _TEMPLATES[schema_id]
    missing = [v for v in (*needed, "agent") if v not in bindings]
    if missing:
        raise ValueError(f"{schema_id} needs bindings for {missing}")
    agent = bindings["agent"]
    image = {None: None}
    for g in order:
        if g.op == "atom":
            image[g] = bindings[g.name]
        elif g.left is None:  # true
            image[g] = g
        else:
            image[g] = Formula(g.op, None, g.agent and agent,
                               image[g.left], image[g.right])
    *premises, conclusion = (image[f] for f in formulas)
    obligation = RuleObligation(tuple(premises), conclusion) if premises else conclusion
    return SchemaInstance(
        schema_id=schema_id, binding=dict(bindings), obligation=obligation
    )


def _formula_pool(atoms, agents):
    small = [F.TRUE] + [F.Atom(p) for p in atoms]
    pool = list(small)
    for g in small:
        for wrap in (F.Not, F.EX, F.AX, F.EF, F.EG):
            pool.append(wrap(g))
    for a in agents:
        for g in small:
            pool.append(F.B(a, g))
            pool.append(F.P(a, g))
            pool.append(F.I(a, g))
    for g, h in itertools.product(small, repeat=2):
        pool.append(F.And(g, h))
        pool.append(F.Or(g, h))
        pool.append(F.Imp(g, h))
        pool.append(F.EU(g, h))
    # small vocabularies still need enough distinct shapes for a full
    # binding pool; keep layering negations until there are plenty
    layer = pool
    while len(pool) < 80:
        layer = [F.Not(g) for g in layer]
        pool = pool + layer
    return pool


def binding_pool(schema_id: str, atoms, agents, seed: int, count: int = 50,
                 formulas=None):
    """Deterministic list of `count` metavariable bindings for one schema.
    `formulas` is the formula pool of atoms and agents, when the caller has
    already built it."""
    needed = _TEMPLATES[schema_id][2]
    rng = random.Random(f"{seed}:{schema_id}")
    if formulas is None:
        formulas = _formula_pool(tuple(atoms), tuple(agents))
    agents = tuple(agents)
    combos = list(itertools.islice(
        itertools.product(formulas, repeat=len(needed)), 20 * count))
    rng.shuffle(combos)
    return [dict(zip(needed, tup), agent=agents[i % len(agents)])
            for i, tup in enumerate(combos[:count])]


# --- frame-valid model generation ------------------------------------------

def _cluster_model(rng, max_states: int, with_pref: bool):
    """One candidate: all-agents belief relation S x K for a cluster K,
    temporal relation kept compatible with the cluster (self-loops on K or
    no steps out of K), preferences either empty or a principal filter of
    a nonempty subset of K."""
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    atoms = ("p", "q")
    agents = ("a", "b") if rng.random() < 0.4 else ("a",)
    labeling = {
        s: [p for p in atoms if rng.random() < 0.5] for s in states
    }
    k = sorted(rng.sample(range(n), rng.randint(1, n)))
    kset = frozenset(k)
    belief = {
        a: [(states[x], states[y]) for x in range(n) for y in k] for a in agents
    }
    temporal = set()
    if rng.random() < 0.5:
        temporal.update((states[x], states[x]) for x in k)
    for x in range(n):
        if x in kset:
            continue
        for y in range(n):
            if rng.random() < 0.3:
                temporal.add((states[x], states[y]))
    pref = None
    if with_pref:
        core = frozenset(rng.sample(k, rng.randint(1, len(k))))
        members = [
            tuple(states[i] for i in sorted(q))
            for q in powerset(n)
            if core <= q
        ]
        pref = {a: {s: members for s in states} for a in agents}
    return make_model(
        states=states, atoms=atoms, agents=agents, labeling=labeling,
        belief=belief, temporal=sorted(temporal), pref=pref,
    )


def intention_fixture() -> Model:
    """A model with nonempty intention families. Its belief relation is a
    KD45 cluster and the intended set is temporally reachable, yet the
    closure demands on intention families reject it; kept as a regression
    probe for the validator."""
    states = ("s0", "s1", "s2")
    fam = {s: [("s2",)] for s in states}
    return make_model(
        states=states, atoms=("p",), agents=("a",),
        labeling={"s2": ["p"]},
        belief={"a": [(s, "s1") for s in states]},
        temporal=[("s0", "s0"), ("s1", "s2"), ("s2", "s2")],
        pref={"a": fam}, intent={"a": fam},
    )


def generate_frame_valid_models(seed: int, count: int, max_states: int = 4):
    """Deterministic list of `count` models passing the full validator."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = _cluster_model(rng, max_states, with_pref=rng.random() < 0.5)
        if validate_model(m).passed:
            out.append(m)
    return out


# --- suite runner -----------------------------------------------------------

@dataclass(frozen=True)
class SuiteResult:
    schema_id: str
    model_id: str
    binding_id: int
    verdict: str  # "VALID" or "CEX:<state>"

    @property
    def ok(self) -> bool:
        return self.verdict == "VALID"


def check_instance(m: Model, inst: SchemaInstance) -> str:
    """VALID, or CEX:<state> naming the first falsifying state."""
    if isinstance(inst.obligation, RuleObligation):
        if not all(is_valid(m, p) for p in inst.obligation.premises):
            return "VALID"  # obligation is vacuous on this model
        target = inst.obligation.conclusion
    else:
        target = inst.obligation
    sat = eval_formula(m, target)
    if sat == m.universe:
        return "VALID"
    worst = min(m.universe - sat)
    return f"CEX:{m.states[worst]}"


class InvalidModelError(ValueError):
    """A model given to run_suite fails the frame validator."""

    def __init__(self, index: int, report: ValidationReport):
        super().__init__(f"model {index} is not frame-valid: "
                         f"{report.violations or report.skipped}")
        self.report = report


def run_suite(models, seed: int = 0, bindings_per_schema: int = 50):
    """Check every schema against every model; models failing the frame
    validator are rejected up front (InvalidModelError) rather than tested."""
    results = []
    for mid, m in enumerate(models):
        report = validate_model(m)
        if not report.passed:
            raise InvalidModelError(mid, report)
    for mid, m in enumerate(models):
        formulas = _formula_pool(tuple(m.atoms), tuple(m.agents))
        for schema_id in SCHEMA_IDS:
            pool = binding_pool(
                schema_id, m.atoms, m.agents, seed, bindings_per_schema,
                formulas=formulas,
            )
            for bid, binding in enumerate(pool):
                inst = instantiate(schema_id, binding)
                verdict = check_instance(m, inst)
                results.append(
                    SuiteResult(schema_id, f"m{mid}", bid, verdict)
                )
    return results


def render_suite_report(results) -> str:
    lines = [
        f"{r.schema_id} {r.model_id} {r.binding_id} {r.verdict}" for r in results
    ]
    bad = sum(1 for r in results if not r.ok)
    lines.append(f"total={len(results)} failures={bad}")
    return "\n".join(lines)
