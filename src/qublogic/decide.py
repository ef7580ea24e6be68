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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from . import algebra, syntax
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

def _check_big_lang(formulas: Iterable[Formula]) -> None:
    for f in formulas:
        if f.lang not in ("BIG", "QG"):
            raise syntax.LanguageError(f"{f.lang} formula passed to a biG decision")


MAX_BIG_ATOMS = 8
MAX_G2_ATOMS = 3


def big_entails(gamma: Sequence[Formula], f: Formula) -> Verdict:
    """Decide ``gamma |= f`` in biG; B-atoms are treated as atoms."""
    _check_big_lang([*gamma, f])
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
    for g in [*gamma, f]:
        if g.lang not in _VARIANT_LANGS[variant]:
            raise syntax.LanguageError(f"{g.lang} formula passed to a {variant} decision")
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
    atoms: set[Formula] = set()
    for f in formulas:
        atoms |= syntax.modal_atoms(f)
    atoms.add(mk("QG", "bmod", mk("CPL", "top")))
    atoms.add(mk("QG", "bmod", mk("CPL", "bot")))
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


def qg_entails(xi: Sequence[Formula], alpha: Formula, with_cap: bool = False,
               extra: Sequence[Formula] = ()) -> Verdict:
    """Decide QG entailment by axiom saturation over the atoms in play.

    ``extra`` premises (for instance explicitly cited axiom instances) join
    the saturated set.  A ``fails`` witness assigns a value to every B-atom
    of the query and extends to a countermodel via the canonical
    construction in :mod:`qublogic.measures`.
    """
    for f in [*xi, alpha, *extra]:
        if f.lang != "QG":
            raise syntax.LanguageError(f"{f.lang} formula passed to the QG decision")
    atoms, mapping, reps = qg_merge_atoms([*xi, alpha, *extra])
    premises = [_rewrite_atoms(g, mapping) for g in [*xi, *extra]]
    goal = _rewrite_atoms(alpha, mapping)
    sat = qg_saturation(reps, with_cap=with_cap)
    verdict = big_entails([*premises, *sat], goal)
    if verdict.holds or verdict.witness is None:
        return verdict
    witness = {print_formula(a): verdict.witness[print_formula(mapping[a])] for a in atoms}
    return Verdict("fails", witness)
