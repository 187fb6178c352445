"""Soundness harness for the axiom catalogue.

Axiom schemas are instantiated over pools of concrete formulas and checked
for validity on frame-valid models; inference rules become conditional
obligations (if every premise is valid in the model, so is the conclusion).
Model generation produces candidates that are verified against the full
frame-condition catalogue before use, so soundness failures cannot be
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


def _iff(a, b):
    return F.Iff(a, b)


def _imp(a, b):
    return F.Imp(a, b)


# Builders take (bindings dict with metavariable formulas and "agent").
# Axiom builders return a Formula; rule builders return a RuleObligation.

def _ax_B2(b):
    a, p, q = b["agent"], b["phi"], b["psi"]
    return _imp(F.And(F.B(a, p), F.B(a, _imp(p, q))), F.B(a, q))


def _ax_B3(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.B(a, p), F.B(a, F.B(a, p)))


def _ax_B4(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.Not(F.B(a, p)), F.B(a, F.Not(F.B(a, p))))


def _ax_B5(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.B(a, p), F.Not(F.B(a, F.Not(p))))


def _ax_P1(b):
    a, p, q = b["agent"], b["phi"], b["psi"]
    return _imp(F.And(F.P(a, p), F.P(a, q)), F.P(a, F.And(p, q)))


def _ax_P2(b):
    a, p, q = b["agent"], b["phi"], b["psi"]
    return _imp(F.And(F.P(a, p), F.P(a, _imp(p, q))), F.P(a, q))


def _ax_P3(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.P(a, F.P(a, p)), F.P(a, p))


def _ax_P4(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.P(a, F.Not(F.P(a, p))), F.Not(F.P(a, p)))


def _ax_AX2(b):
    p, q = b["phi"], b["psi"]
    return _imp(F.And(F.AX(p), F.AX(_imp(p, q))), F.AX(q))


def _ax_EX1(b):
    p = b["phi"]
    return _iff(F.EX(p), F.Not(F.AX(F.Not(p))))


def _ax_EF1(b):
    p = b["phi"]
    return _iff(F.EF(p), F.EU(F.TRUE, p))


def _ax_EG1(b):
    p = b["phi"]
    return _iff(F.EG(p), F.And(p, F.EX(F.EG(p))))


def _rule_EG2(b):
    # fixpoint induction: read with a global hypothesis. The bare statewise
    # implication is falsifiable (take psi := true on a model where some
    # state satisfies phi and steps into !phi), so the hypothesis must be
    # checked as model validity, exactly as in the standard CTL system.
    p, q = b["phi"], b["psi"]
    return RuleObligation(
        premises=(_iff(q, F.And(p, F.EX(q))),),
        conclusion=_imp(q, F.EG(p)),
    )


def _ax_EU1(b):
    p, q = b["phi"], b["psi"]
    return _iff(F.EU(p, q), F.Or(q, F.And(p, F.EX(F.EU(p, q)))))


def _rule_EU2(b):
    # same reading as EG2: the unfolding hypothesis holds globally
    p, q, r = b["phi"], b["psi"], b["chi"]
    return RuleObligation(
        premises=(_iff(r, F.Or(q, F.And(p, F.EX(r)))),),
        conclusion=_imp(F.EU(p, q), r),
    )


def _ax_BP1(b):
    a, p, q = b["agent"], b["phi"], b["psi"]
    return _imp(F.And(F.B(a, _iff(p, q)), F.P(a, p)), F.P(a, q))


def _ax_BP2(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.P(a, p), F.B(a, F.P(a, p)))


def _ax_BP3(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.Not(F.P(a, p)), F.B(a, F.Not(F.P(a, p))))


def _ax_BP4(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.B(a, F.P(a, p)), F.P(a, p))


def _ax_BP5(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.B(a, F.Not(F.P(a, p))), F.Not(F.P(a, p)))


def _ax_BI2(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.I(a, p), F.B(a, F.I(a, p)))


def _ax_BI3(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.Not(F.I(a, p)), F.B(a, F.Not(F.I(a, p))))


def _ax_BI4(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.B(a, F.I(a, p)), F.I(a, p))


def _ax_BI5(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.B(a, F.Not(F.I(a, p))), F.Not(F.I(a, p)))


def _ax_BI1(b):
    a, p, q = b["agent"], b["phi"], b["psi"]
    return _imp(F.And(F.B(a, _iff(p, q)), F.I(a, p)), F.I(a, q))


def _ax_BPIEF1(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.I(a, p), F.And(F.P(a, p), F.And(F.B(a, F.Not(p)), F.B(a, F.EF(p)))))


def _ax_BX1(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.B(a, F.AX(p)), F.B(a, F.AX(F.B(a, p))))


def _ax_BX2(b):
    a, p = b["agent"], b["phi"]
    return _imp(F.B(a, F.EX(p)), F.B(a, F.EX(F.B(a, p))))


def _ax_COR2(b):
    a, p, q = b["agent"], b["phi"], b["psi"]
    return _imp(F.And(F.P(a, p), F.P(a, _imp(p, F.P(a, q)))), F.P(a, q))


def _rule_B1(b):
    a, p = b["agent"], b["phi"]
    return RuleObligation(premises=(p,), conclusion=F.B(a, p))


def _rule_AX1(b):
    p = b["phi"]
    return RuleObligation(premises=(p,), conclusion=F.AX(p))


def _rule_COR1a(b):
    a, p, q = b["agent"], b["phi"], b["psi"]
    return RuleObligation(
        premises=(_iff(p, q),), conclusion=_iff(F.P(a, p), F.P(a, q))
    )


def _rule_COR1b(b):
    a, p, q = b["agent"], b["phi"], b["psi"]
    return RuleObligation(
        premises=(_iff(p, q),), conclusion=_iff(F.I(a, p), F.I(a, q))
    )


SCHEMAS = {
    "B1": ("rule", _rule_B1, ("phi",)),
    "B2": ("axiom", _ax_B2, ("phi", "psi")),
    "B3": ("axiom", _ax_B3, ("phi",)),
    "B4": ("axiom", _ax_B4, ("phi",)),
    "B5": ("axiom", _ax_B5, ("phi",)),
    "P1": ("axiom", _ax_P1, ("phi", "psi")),
    "P2": ("axiom", _ax_P2, ("phi", "psi")),
    "P3": ("axiom", _ax_P3, ("phi",)),
    "P4": ("axiom", _ax_P4, ("phi",)),
    "AX1": ("rule", _rule_AX1, ("phi",)),
    "AX2": ("axiom", _ax_AX2, ("phi", "psi")),
    "EX1": ("axiom", _ax_EX1, ("phi",)),
    "EF1": ("axiom", _ax_EF1, ("phi",)),
    "EG1": ("axiom", _ax_EG1, ("phi",)),
    "EG2": ("rule", _rule_EG2, ("phi", "psi")),
    "EU1": ("axiom", _ax_EU1, ("phi", "psi")),
    "EU2": ("rule", _rule_EU2, ("phi", "psi", "chi")),
    "BP1": ("axiom", _ax_BP1, ("phi", "psi")),
    "BP2": ("axiom", _ax_BP2, ("phi",)),
    "BP3": ("axiom", _ax_BP3, ("phi",)),
    "BP4": ("axiom", _ax_BP4, ("phi",)),
    "BP5": ("axiom", _ax_BP5, ("phi",)),
    "BI1": ("axiom", _ax_BI1, ("phi", "psi")),
    "BI2": ("axiom", _ax_BI2, ("phi",)),
    "BI3": ("axiom", _ax_BI3, ("phi",)),
    "BI4": ("axiom", _ax_BI4, ("phi",)),
    "BI5": ("axiom", _ax_BI5, ("phi",)),
    "BPIEF1": ("axiom", _ax_BPIEF1, ("phi",)),
    "BX1": ("axiom", _ax_BX1, ("phi",)),
    "BX2": ("axiom", _ax_BX2, ("phi",)),
    "COR1a": ("rule", _rule_COR1a, ("phi", "psi")),
    "COR1b": ("rule", _rule_COR1b, ("phi", "psi")),
    "COR2": ("axiom", _ax_COR2, ("phi", "psi")),
}

SCHEMA_IDS = tuple(SCHEMAS)


def instantiate(schema_id: str, bindings: dict) -> SchemaInstance:
    """Plug concrete formulas (and an agent) into one schema."""
    kind, build, needed = SCHEMAS[schema_id]
    missing = [v for v in (*needed, "agent") if v not in bindings]
    if missing:
        raise ValueError(f"{schema_id} needs bindings for {missing}")
    return SchemaInstance(
        schema_id=schema_id, binding=dict(bindings), obligation=build(bindings)
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
    _, _, needed = SCHEMAS[schema_id]
    rng = random.Random(f"{seed}:{schema_id}")
    if formulas is None:
        formulas = _formula_pool(tuple(atoms), tuple(agents))
    agents = tuple(agents)
    combos = []
    for tup in itertools.product(formulas, repeat=len(needed)):
        combos.append(tup)
        if len(combos) >= 20 * count:
            break
    rng.shuffle(combos)
    out = []
    for i, tup in enumerate(combos[:count]):
        binding = dict(zip(needed, tup))
        binding["agent"] = agents[i % len(agents)]
        out.append(binding)
    return out


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
