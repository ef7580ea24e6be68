"""Decision procedures over finite value grids.

biG validity and entailment are decided by exhausting valuations over the
grid {0, 1/(k+1), ..., 1} for k atoms, which is complete for bi-Goedel
logic.  The twist-product logics use denominator 2k+1 so every relative
ordering of the 2k coordinates is realizable; the test suite cross-checks
this against an independent order-type oracle.

The twist decision runs on integer ranks: each formula is compiled once by
:func:`qublogic.algebra.compile_twist`, rank i stands for the grid value
i/(2k+1), and Fractions are built only for the returned witness.  The biG
and QG decisions still evaluate Fractions at every grid point.  A query
over more atoms than a decision admits is refused with a ValueError that
states the number of grid points it would visit.

QG entailment reduces to biG entailment after saturating with modal axiom
instances over the B-atoms in play.  Instances are added both plain and
under delta: a refuting valuation must then satisfy them exactly, which is
what makes every returned witness extend to a genuine uncertainty model.
CPL-equivalent B-atoms are merged first; the saturation forces them to the
same value, so merging changes no verdict but keeps the grid small.

Truth preservation, the outer logic of the Hilbert calculi, is decided by
:func:`truth_preserved` for every language with an outer step.  biG and QG
run a pruned depth-first search over integer ranks, QG after the same
merging and saturation; the twist languages put each premise under their
delta and run the twist decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from . import algebra, bd, syntax
from .algebra import ONE, TwistValue, eval_big
from .measures import assignment_masks, cpl_truth_set
from .syntax import Formula, mk, print_formula


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision query; a witness is present iff it fails."""

    status: str  # "holds" | "fails"
    witness: dict | None = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.witness is not None:
            out["witness"] = {
                k: (algebra.format_twist(v) if isinstance(v, tuple) else str(v))
                for k, v in sorted(self.witness.items())
            }
        return out


HOLDS = Verdict("holds")


def grid(denominator: int) -> list[Fraction]:
    if denominator < 1:
        raise ValueError("grid denominator must be >= 1")
    return [Fraction(i, denominator) for i in range(denominator + 1)]


# ---------------------------------------------------------------------------
# Atom collection
# ---------------------------------------------------------------------------

def _atom_keys(formulas: Iterable[Formula]) -> list[str]:
    """Distinct atom keys (variables and printed modal atoms), sorted."""
    keys: set[str] = set()
    for f in formulas:
        keys |= _keys_one(f)
    return sorted(keys)


def _keys_one(f: Formula) -> set[str]:
    if f.kind == "var":
        return {f.var}
    if f.kind in syntax.MODAL_KINDS:
        return {print_formula(f)}
    out: set[str] = set()
    for c in f.children:
        out |= _keys_one(c)
    return out


# ---------------------------------------------------------------------------
# biG
# ---------------------------------------------------------------------------

def _check_langs(formulas: Iterable[Formula], langs: Sequence[str], decision: str) -> None:
    for f in formulas:
        if f.lang not in langs:
            raise syntax.LanguageError(f"{f.lang} formula passed to {decision}")


MAX_BIG_ATOMS = 8
MAX_G2_ATOMS = 3


def big_entails(gamma: Sequence[Formula], f: Formula) -> Verdict:
    """Decide ``gamma |= f`` in biG; B-atoms are treated as atoms."""
    _check_langs([*gamma, f], ("BIG", "QG"), "a biG decision")
    keys = _atom_keys([*gamma, f])
    k = len(keys)
    if k > MAX_BIG_ATOMS:
        raise ValueError(f"grid decision over {k} atoms (> {MAX_BIG_ATOMS}): "
                         f"{(k + 2) ** k:,} grid points")
    values = grid(k + 1)
    for combo in product(values, repeat=k):
        e = dict(zip(keys, combo))
        target = eval_big(f, e)
        if target == ONE:
            continue
        if all(eval_big(g, e) > target for g in gamma):
            return Verdict("fails", e)
    return HOLDS


def big_valid(f: Formula) -> Verdict:
    return big_entails((), f)


# ---------------------------------------------------------------------------
# G2 (both variants)
# ---------------------------------------------------------------------------

_VARIANT_LANGS = {"G2ORD": ("G2ORD", "MCB"), "G2NEL": ("G2NEL", "NMCB")}


def g2_entails(variant: str, gamma: Sequence[Formula], f: Formula) -> Verdict:
    """Decide the two-coordinate entailment for the chosen twist variant.

    The (~>, o-) variant constrains only the truth coordinate; the (->, -<)
    variant additionally requires the premises' falsity supremum to reach
    the conclusion's falsity (empty sup is 0, so validity means (1,0)).
    """
    if variant not in _VARIANT_LANGS:
        raise ValueError(f"unknown variant {variant!r}")
    _check_langs([*gamma, f], _VARIANT_LANGS[variant], f"a {variant} decision")
    keys = _atom_keys([*gamma, f])
    k = len(keys)
    if k > MAX_G2_ATOMS:
        raise ValueError(f"twist grid decision over {k} atoms (> {MAX_G2_ATOMS}): "
                         f"{(2 * k + 2) ** (2 * k):,} grid points")
    # ranks i stand for the grid values i/d, in the grid's order
    d = 2 * k + 1
    slots = {key: i for i, key in enumerate(keys)}
    nelson = variant == "G2NEL"
    goal = algebra.compile_twist(f, slots, d, nelson)
    premises = [algebra.compile_twist(g, slots, d, nelson) for g in gamma]
    pairs = [(a, b) for a in range(d + 1) for b in range(d + 1)]
    for combo in product(pairs, repeat=k):
        t, fl = goal(combo)
        if (t < d and all(g(combo)[0] > t for g in premises)) or \
                (not nelson and fl > 0 and all(g(combo)[1] < fl for g in premises)):
            return Verdict("fails", {key: TwistValue(Fraction(a, d), Fraction(b, d))
                                     for key, (a, b) in zip(keys, combo)})
    return HOLDS


def g2_valid(variant: str, f: Formula) -> Verdict:
    return g2_entails(variant, (), f)


# ---------------------------------------------------------------------------
# QG: saturation with modal axiom instances
# ---------------------------------------------------------------------------

def qg_b_atoms(formulas: Iterable[Formula]) -> list[Formula]:
    """B-atoms occurring in ``formulas`` plus B(Top) and B(Bot), sorted."""
    atoms = set().union(*map(syntax.modal_atoms, formulas))
    atoms |= {mk("QG", "bmod", mk("CPL", "top")), mk("QG", "bmod", mk("CPL", "bot"))}
    return sorted(atoms, key=print_formula)


def qg_merge_atoms(formulas: Sequence[Formula]) -> tuple[list[Formula], dict[Formula, Formula], list[Formula]]:
    """Merge CPL-equivalent B-atoms.

    Returns (atoms, atom -> representative map, representatives).  Every
    uncertainty model gives equivalent inner formulas the same measure, so
    rewriting through the map preserves entailment exactly.
    """
    atoms = qg_b_atoms(formulas)
    masks, _ = _inner_masks(atoms)
    classes: dict[int, Formula] = {}
    mapping = {a: classes.setdefault(mask, a) for a, mask in zip(atoms, masks)}
    return atoms, mapping, sorted(set(mapping.values()), key=print_formula)


def _inner_masks(atoms: Sequence[Formula]) -> tuple[list[int], int]:
    """Truth tables of the atoms' inner formulas over their joint variables,
    and the full mask."""
    names = sorted({v for a in atoms for v in syntax.vars_of(a.children[0])})
    env = assignment_masks(names)
    full = (1 << (1 << len(names))) - 1
    return [cpl_truth_set(a.children[0], env, full) for a in atoms], full


def _rewrite_atoms(f: Formula, mapping: Mapping[Formula, Formula]) -> Formula:
    if f.kind == "bmod":
        return mapping.get(f, f)
    if f.kind == "var":
        return f
    return mk(f.lang, f.kind, *(_rewrite_atoms(c, mapping) for c in f.children))


def qg_saturation(reps: Sequence[Formula], with_cap: bool = False) -> list[Formula]:
    """Modal-axiom instances over representative atoms.

    reg instances appear plain and under delta; nontriv instances are
    already two-valued.  With ``with_cap`` the two cap' schemas (tautologies
    are fully believed, contradictions fully disbelieved) join in a
    value-forcing shape.
    """
    sat: list[Formula] = []
    masks, full = _inner_masks(reps)
    taut = [mask == full for mask in masks]
    contr = [mask == 0 for mask in masks]
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            if i == j:
                continue
            if masks[i] & ~masks[j] == 0:
                imp = mk("QG", "gimp", a, b)
                sat.append(mk("QG", "delta", imp))
                sat.append(imp)
            if taut[i] and contr[j]:
                sat.append(mk("QG", "snot", mk("QG", "delta", mk("QG", "gimp", a, b))))
        if with_cap:
            if taut[i]:
                sat.append(mk("QG", "delta", a))
            if contr[i]:
                sat.append(mk("QG", "snot", a))
    return sat


def _qg_reduce(premises: Sequence[Formula], target: Formula,
               with_cap: bool) -> tuple[list[Formula], Formula, list[Formula], dict[str, Formula]]:
    """A QG query as biG over merged B-atoms, saturated: the premises, the
    target, the representative atoms, and each B-atom's printed form (a
    witness key) mapped to its representative."""
    atoms, mapping, reps = qg_merge_atoms([*premises, target])
    premises = [*(_rewrite_atoms(g, mapping) for g in premises), *qg_saturation(reps, with_cap)]
    return premises, _rewrite_atoms(target, mapping), reps, \
        {print_formula(a): mapping[a] for a in atoms}


def qg_entails(xi: Sequence[Formula], alpha: Formula, with_cap: bool = False) -> Verdict:
    """Decide QG entailment by axiom saturation over the atoms in play.

    A ``fails`` witness assigns a value to every B-atom of the query and
    extends to a countermodel via the canonical construction in
    :mod:`qublogic.measures`.
    """
    _check_langs([*xi, alpha], ("QG",), "the QG decision")
    premises, goal, _, names = _qg_reduce(xi, alpha, with_cap)
    verdict = big_entails(premises, goal)
    if verdict.holds:
        return verdict
    return Verdict("fails", {name: verdict.witness[print_formula(rep)]
                             for name, rep in names.items()})


# ---------------------------------------------------------------------------
# Truth preservation: the outer logic of the Hilbert calculi
# ---------------------------------------------------------------------------

#: Nodes (one value given to one atom) the biG/QG search may visit before it
#: gives up.  Capped searches took 0.7-2.5 s of CPU on a shared 2-core VM.
_MAX_OUTER_NODES = 750_000

#: Each twist language's delta: designated values stay, others go to the least.
_TWIST_DELTA = {"G2ORD": "delta1", "MCB": "delta1", "G2NEL": "deltan", "NMCB": "deltan"}


def truth_preserved(lang: str, premises: Sequence[Formula], target: Formula,
                    with_cap: bool = False) -> Verdict:
    """Decide whether ``target`` is designated wherever every premise is:
    value 1 in biG and QG, (1, 0) in G2ORD and MCB, truth 1 in G2NEL and
    NMCB.  biG and QG run :func:`_outer_search`.  A twist language puts
    each premise under its delta and decides degree entailment, as
    Gamma |=_1 phi iff delta Gamma |= phi (Baaz 1996); MCB/NMCB add
    value-forcing instances over their C-atoms.  A search or grid that is
    too large raises a ValueError that states its size.
    """
    _check_langs([*premises, target], (lang,), f"a {lang} truth-preservation decision")
    if lang in ("QG", "BIG"):
        return _outer_search(lang, premises, target, with_cap)
    if lang not in _TWIST_DELTA:
        raise ValueError(f"no truth-preservation decision for {lang}")
    forced = [mk(lang, _TWIST_DELTA[lang], g) for g in premises]
    if lang in ("MCB", "NMCB"):
        forced += _layer_saturation(lang, [*premises, target])
    return g2_entails("G2NEL" if _TWIST_DELTA[lang] == "deltan" else "G2ORD", forced, target)


def _layer_saturation(lang: str, formulas: Sequence[Formula]) -> list[Formula]:
    """The layer axioms' (``*_bd``, ``*_neg``) instances over the C-atoms present, under delta."""
    atoms = sorted(set().union(*map(syntax.modal_atoms, formulas)), key=print_formula)
    force = _TWIST_DELTA[lang]
    imp, eq = ("simp", "siff") if lang == "NMCB" else ("gimp", "iff")
    sat: list[Formula] = []
    for a in atoms:
        for b in atoms:
            if a is not b and bd.bd_entails(a.children[0], b.children[0])[0]:
                sat.append(mk(lang, force, mk(lang, imp, a, b)))
            if b.children[0] == mk("BD", "dneg", a.children[0]):
                sat.append(mk(lang, force, mk(lang, eq, b, mk(lang, "dneg", a))))
    return sat


def _parts(f: Formula, kind: str) -> list[Formula]:
    """The ``kind`` ("and" or "or") chain of ``f`` under any delta (1 only
    at 1), <-> read as two implications: ``f`` takes value 1 exactly where
    all of them do ("and"), or one of them does ("or")."""
    if f.kind == "delta":
        return _parts(f.children[0], kind)
    if f.kind == "iff" and kind == "and":
        f = syntax._expand(f.lang, f.kind, f.children)
    if f.kind == kind:
        return [*_parts(f.children[0], kind), *_parts(f.children[1], kind)]
    return [f]


def _outer_search(lang: str, premises: Sequence[Formula], target: Formula,
                  with_cap: bool) -> Verdict:
    """Decide biG or QG truth preservation by a pruned search over ranks.

    Atoms take the integer ranks 0..k+1 of the biG grid for k atoms, rank
    k+1 standing for 1; QG atoms are merged and saturated as for
    :func:`qg_entails`.  Premises and target are cut into their conjuncts,
    and each conjunct of the target is searched for on its own.  The search
    gives the atoms values one at a time and evaluates each premise and
    each disjunct of the target conjunct, compiled once, as soon as its
    last atom has a value: a premise below the top or a disjunct at the top
    closes the branch, so a completed valuation refutes the step.  A fails
    verdict carries it, keyed like ``qg_entails``' witness.  Searches that
    visit more than ``_MAX_OUTER_NODES`` nodes in all raise a ValueError
    that states their size.
    """
    if lang == "QG":
        premises, target, keys, names = _qg_reduce(premises, target, with_cap)
        atoms_of = syntax.modal_atoms
    else:
        keys = sorted(set().union(*map(syntax.vars_of, [*premises, target])))
        names = {key: key for key in keys}
        atoms_of = syntax.vars_of
    k = len(keys)
    top = k + 1
    slots = {key: i for i, key in enumerate(keys)}

    def test(g: Formula, goal: bool) -> tuple:
        """A premise or (``goal``) a target disjunct, compiled, with its atoms' slots."""
        return algebra.compile_twist(g, slots, top, False), goal, {slots[a] for a in atoms_of(g)}

    # reg instances come plain and under delta: one copy is enough
    premise_tests = [test(p, False) for p in dict.fromkeys(p for g in premises for p in _parts(g, "and"))]
    pairs = [(r, 0) for r in range(top + 1)]
    values = [pairs[0]] * k
    nodes = 0

    def refutes(part: Formula) -> bool:
        """Whether some valuation gives every premise 1 and ``part`` less,
        that is, every disjunct of ``part`` less."""
        tests = [*premise_tests, *(test(g, True) for g in _parts(part, "or"))]
        # greedy order: next the atom that completes the most tests, then
        # the one that occurs in the most open ones
        order: list[int] = []
        pending = [set(d) for _, _, d in tests]
        while len(order) < k:
            best = max((s for s in range(k) if s not in order),
                       key=lambda s: (sum(d == {s} for d in pending), sum(s in d for d in pending), -s))
            order.append(best)
            for d in pending:
                d.discard(best)
        depth_of = {s: i + 1 for i, s in enumerate(order)}
        # checks[d] / goals[d]: the premises / disjuncts whose last atom is
        # the d-th one given a value
        checks: list[list] = [[] for _ in range(k + 1)]
        goals: list[list] = [[] for _ in range(k + 1)]
        for ev, goal, d in tests:
            (goals if goal else checks)[max(map(depth_of.get, d), default=0)].append(ev)

        def extends(depth: int) -> bool:
            """Whether the values of order[:depth] extend to a refutation."""
            nonlocal nodes
            for ev in checks[depth]:
                if ev(values)[0] != top:
                    return False
            for ev in goals[depth]:
                if ev(values)[0] == top:
                    return False
            if depth == k:
                return True
            for pair in pairs:
                nodes += 1
                if nodes > _MAX_OUTER_NODES:
                    raise ValueError(
                        f"outer step undecided: the search over {k} atoms stopped after "
                        f"{nodes - 1:,} nodes of a {(k + 2) ** k:,}-point grid")
                values[order[depth]] = pair
                if extends(depth + 1):
                    return True
            return False

        return extends(0)

    for part in dict.fromkeys(_parts(target, "and")):
        if refutes(part):
            return Verdict("fails", {name: Fraction(values[slots[key]][0], top)
                                     for name, key in names.items()})
    return HOLDS
