"""Decision procedures over finite value grids and order types.

biG validity and entailment are decided by exhausting valuations over the
grid {0, 1/(k+1), ..., 1} for k atoms, which is complete for bi-Goedel
logic.  The twist-product logics use denominator 2k+1 so every relative
ordering of the 2k coordinates is realizable; the test suite cross-checks
this against an independent order-type oracle.  The twist decision runs
on integer ranks and visits only the first grid point of each order type
(:func:`g2_entails`).  The biG decision walks the grid's Fractions in
product order and skips each prefix on which a disjunct of the goal is
already 1 (:func:`big_entails`); cuts on premises, which would shorten a
refuted QG query's witness scan, and cuts in the twist walk are not made.
Both compile each formula once, by
:func:`qublogic.algebra.compile_twist`.  A query over more atoms than a
grid decision admits (in QG, a refuted query's witness scan) is refused
with a ValueError that states the number of points of its grid.

QG is decided as biG: the outer layer is Goedel logic, and each B-atom is
one of its atoms.  B-atoms with the same sets in the canonical frame are
merged, and two-valued modal axiom instances over the merged atoms are
added, so that every returned witness extends to a genuine uncertainty
model (:func:`qg_merge_atoms`, :func:`qg_saturation`).  MCB and NMCB, C
over Belnap-Dunn logic, are reduced the same way to G2ORD and G2NEL.

Truth preservation, the outer logic of the Hilbert calculi, is decided by
:func:`truth_preserved` for every language with an outer step, through one
pruned depth-first search over the order types of the atoms' coordinates
(one per biG atom, a truth and a falsity per twist atom), QG, MCB and NMCB
after that reduction.  QG entailment runs the same search: by residuation,
min xi <= alpha iff xi_1 -> (... -> alpha) is true (:func:`curried`), so a
QG query that holds visits no grid point.  The biG grid runs for a refuted
QG query only, to name its witness, the first countervaluation in the
order of the printed B-atoms.  Kripke local entailment
(:func:`qublogic.kripke.kentails`) is the truth of the same curried
formula.  The grid decisions above decide degree entailment and take no
part in truth preservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from . import algebra, syntax
from .algebra import ONE, ZERO, TwistValue
from .measures import canonical_frame
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


# ---------------------------------------------------------------------------
# Atom collection
# ---------------------------------------------------------------------------

def _atom_keys(formulas: Sequence[Formula]) -> tuple[str, ...]:
    """Distinct atom keys, sorted: printed modal atoms, or variables in a
    language without them."""
    atoms = set().union(*map(syntax.modal_atoms, formulas))
    keys = map(print_formula, atoms) if atoms else set().union(*map(syntax.vars_of, formulas))
    return tuple(sorted(keys))


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
    """Decide ``gamma |= f`` in biG; B-atoms are treated as atoms.

    The grid is walked in product order, keys sorted, up to its first
    countervaluation.  Each formula is compiled once over the keys at top 1
    (:func:`_compiled`) and run on the pairs (value, 0), whose truth is its
    biG value.  The walk is cut into segments at the goal's disjuncts that
    read only the keys before some cut (:func:`_cuts`), and a prefix on
    which one of them is 1 is skipped: the goal is 1 on every point that
    extends it, so none of them refutes, and the first countervaluation is
    the full grid's.  A prelinearity cycle over sorted keys reaches 1,200
    of its 10^8 points on 8 atoms.  Premises are read at complete points
    only and take no cuts, so a goal without such disjuncts, such as one
    atom, is walked point by point up to the first countervaluation."""
    _check_langs([*gamma, f], ("BIG", "QG"), "a biG decision")
    keys = _atom_keys([*gamma, f])
    k = len(keys)
    if k > MAX_BIG_ATOMS:
        raise ValueError(f"grid decision over {k} atoms (> {MAX_BIG_ATOMS}): "
                         f"{(k + 2) ** k:,} grid points")
    goal, *premises = (_compiled(g, keys, ONE) for g in (f, *gamma))
    point = _first_countervaluation(goal, premises, _big_pairs(k), _cuts(f, keys))
    if point is None:
        return HOLDS
    return Verdict("fails", {key: v for key, (v, _) in zip(keys, point)})


def _cuts(f: Formula, keys: tuple[str, ...]) -> tuple[tuple[int, tuple], ...]:
    """The segments of the walk for the goal ``f`` over ``keys``: each
    segment's number of keys, with the goal's disjuncts that the keys up to
    its end close (all their atoms among them), compiled.  Disjuncts that
    read the last key are not compiled: the last segment closes none.  The
    segments are kept on the goal's node for that key order."""
    def build() -> tuple[tuple[int, tuple], ...]:
        closers: dict[int, list] = {}
        for part in dict.fromkeys(_parts(f, "or", "delta")):
            reads = _atom_keys([part])
            end = keys.index(reads[-1]) + 1 if reads else 0
            if end < len(keys):
                closers.setdefault(end, []).append(_compiled(part, keys, ONE))
        segments, start = [], 0
        for end in sorted(closers):
            segments.append((end - start, tuple(closers[end])))
            start = end
        return (*segments, (len(keys) - start, ()))
    return syntax.memo(f, ("decide._cuts", keys), build)


def _first_countervaluation(goal, premises, pairs, segments, prefix: tuple = ()) -> tuple | None:
    """The first point in product order that extends ``prefix`` by the
    ``segments`` on ``pairs`` and at which the goal is below 1 and every
    premise above it, or None.  A prefix on which a disjunct that its
    segment closes is 1 is skipped: the goal is 1 on every point that
    extends it."""
    (width, closers), *rest = segments
    for combo in product(pairs, repeat=width):
        point = prefix + combo
        if rest:
            if not any(ev(point)[0] == ONE for ev in closers):
                found = _first_countervaluation(goal, premises, pairs, rest, point)
                if found is not None:
                    return found
            continue
        t = goal(point)[0]
        if t != ONE and all(g(point)[0] > t for g in premises):
            return point
    return None


@cache
def _big_pairs(k: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """The biG grid {0, 1/(k+1), ..., 1} for ``k`` atoms as pairs (value, 0)."""
    return tuple((Fraction(i, k + 1), ZERO) for i in range(k + 2))


def _compiled(f: Formula, keys: tuple[str, ...], top):
    """``f`` compiled by :func:`qublogic.algebra.compile_twist` over
    ``keys`` in that order, kept on its node for that order and top."""
    return syntax.memo(f, ("decide._compiled", keys, type(top), top),
                       lambda: algebra.compile_twist(f, dict(zip(keys, range(len(keys)))), top)[0])


def big_valid(f: Formula) -> Verdict:
    return big_entails((), f)


# ---------------------------------------------------------------------------
# G2 (both variants)
# ---------------------------------------------------------------------------

def g2_entails(variant: str, gamma: Sequence[Formula], f: Formula) -> Verdict:
    """Decide the two-coordinate entailment for the chosen twist variant.

    The (~>, o-) variant constrains only the truth coordinate; the (->, -<)
    variant additionally requires the premises' falsity supremum to reach
    the conclusion's falsity (empty sup is 0, so validity means (1,0)).

    The grid is walked in its order (keys sorted, pairs truth-major) but
    only at its gap-free points, the first point of each order type: 11,
    299 and 18,731 of its 16, 4,096 and 262,144 points for 1 to 3 atoms.
    The verdict and witness are the full grid's: every clause depends only
    on order, so compressing a countervaluation's interior ranks to 1..m
    gives a countervaluation that lowers some coordinates and raises none,
    and the grid's first countervaluation is therefore gap-free.
    """
    if variant not in ("G2ORD", "G2NEL"):
        raise ValueError(f"unknown variant {variant!r}")
    # a C-atom is not a free twist value (the layer axioms constrain it), so
    # MCB and NMCB are refused; their steps are decided by truth_preserved
    _check_langs([*gamma, f], (variant,), f"a {variant} decision")
    keys = _atom_keys([*gamma, f])
    k = len(keys)
    if k > MAX_G2_ATOMS:
        raise ValueError(f"twist grid decision over {k} atoms (> {MAX_G2_ATOMS}): "
                         f"{(2 * k + 2) ** (2 * k):,} grid points")
    # ranks i stand for the grid values i/d, in the grid's order
    d = 2 * k + 1
    nelson = syntax.OUTER[variant] == "G2NEL"
    goal, *premises = (_compiled(g, keys, d) for g in (f, *gamma))
    for combo in _gap_free_points(d, 2 * k):
        t, fl = goal(combo)
        if (t < d and all(g(combo)[0] > t for g in premises)) or \
                (not nelson and fl > 0 and all(g(combo)[1] < fl for g in premises)):
            return Verdict("fails", {key: TwistValue(Fraction(a, d), Fraction(b, d))
                                     for key, (a, b) in zip(keys, combo)})
    return HOLDS


def _gap_free_points(d: int, left: int, prefix: tuple = (),
                     mask: int = 0) -> Iterator[tuple[tuple[int, int], ...]]:
    """The points of the twist grid on ranks 0..d, in grid order, whose
    interior ranks (strictly between 0 and d) are exactly 1..m for some m:
    ``prefix``, with interior ranks ``mask``, followed by ``left``
    coordinates, two per atom."""
    if not left:  # reached only with no atoms: the grid's one point
        yield prefix
        return
    left -= 2
    for pair, m in _twist_steps(d, mask, left):
        point = prefix + (pair,)
        if left:
            yield from _gap_free_points(d, left, point, m)
        else:
            yield point


@cache
def _twist_pairs(d: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """The pairs on ranks 0..d, truth-major, each with its interior ranks as
    bits: rank i, for 0 < i < d, is bit i - 1."""
    def bit(x: int) -> int:
        return 1 << (x - 1) if 0 < x < d else 0
    return tuple(((a, b), bit(a) | bit(b)) for a in range(d + 1) for b in range(d + 1))


@cache
def _twist_steps(d: int, mask: int, left: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """The pairs that can follow a prefix with interior ranks ``mask`` when
    ``left`` coordinates follow them: those after which the ranks missing
    below the highest are no more than ``left``, each with the mask it
    leaves."""
    return tuple((pair, m) for pair, bits in _twist_pairs(d)
                 if (m := mask | bits).bit_length() - m.bit_count() <= left)


def g2_valid(variant: str, f: Formula) -> Verdict:
    return g2_entails(variant, (), f)


# ---------------------------------------------------------------------------
# Two-layered languages: merged modal atoms, saturated with axiom instances
# ---------------------------------------------------------------------------

#: Each two-layered language's implication and De Morgan equivalence (QG has no involution).
_LAYER = {"QG": ("gimp", None), "MCB": ("gimp", "iff"), "NMCB": ("simp", "siff")}


def qg_b_atoms(formulas: Sequence[Formula]) -> dict[str, Formula]:
    """Modal atoms occurring in ``formulas``, plus B(Top) and B(Bot) for QG,
    each keyed by its printed form, in the order of those texts."""
    atoms = set().union(*map(syntax.modal_atoms, formulas))
    if formulas and formulas[0].lang == "QG":
        atoms |= {mk("QG", "bmod", mk("CPL", "top")), mk("QG", "bmod", mk("CPL", "bot"))}
    return dict(sorted((print_formula(a), a) for a in atoms))


def qg_merge_atoms(formulas: Sequence[Formula]) -> tuple[dict[str, Formula], dict[Formula, Formula], list[Formula]]:
    """Merge modal atoms whose inner formulas have the same sets in the
    canonical frame: the same CPL truth set, or the same BD positive and
    negative supports.

    Returns (the atoms as :func:`qg_b_atoms` gives them, atom ->
    representative map, representatives in printed order).  Each class is
    represented by its first atom in printed order.  Every model gives the
    atoms of a class the same value, so rewriting through the map
    preserves entailment exactly.
    """
    atoms = qg_b_atoms(formulas)
    masks = canonical_frame(list(atoms.values()))[2]
    classes: dict[tuple[int, int], Formula] = {}
    mapping = {a: classes.setdefault(mask, a) for a, mask in zip(atoms.values(), masks)}
    return atoms, mapping, list(classes.values())


def _rewrite_atoms(f: Formula, outer: str, mapping: Mapping[Formula, Formula]) -> Formula:
    """``f`` in the language ``outer``, each modal atom replaced by its variable in ``mapping``."""
    if f.kind in syntax.MODAL_KINDS:
        return mapping[f]
    return mk(outer, f.kind, *(_rewrite_atoms(c, outer, mapping) for c in f.children))


def qg_saturation(reps: Sequence[Formula], with_cap: bool = False) -> list[Formula]:
    """Two-valued axiom instances over representative atoms.

    delta (a -> b) wherever a's supports lie within b's (reg; the BD rule
    in MCB and NMCB); snot delta (a -> b) for a tautology a and a
    contradiction b (nontriv); delta (b <-> neg a) wherever b's supports
    are a's swapped, and delta (a -> neg b) and delta (neg a -> b), b = a
    included, wherever a's supports lie within neg b's and neg a's within
    b's (MCB, NMCB; without these a witness need not extend to a belief
    model).  With ``with_cap`` the two cap' schemas (tautologies are fully
    believed, contradictions fully disbelieved) join in a value-forcing
    shape.  At the valuation that makes every
    variable both true and false, every BD formula is, so nontriv and cap
    never apply in MCB and NMCB.
    """
    if not reps:
        return []
    lang = reps[0].lang
    imp, eq = _LAYER[lang]
    force = _DELTA[syntax.OUTER[lang]]
    masks = canonical_frame(reps)[2]
    sat: list[Formula] = []
    for i, a in enumerate(reps):
        pos, neg = masks[i]
        for j, b in enumerate(reps):
            pos_b, neg_b = masks[j]
            if eq and j >= i:
                # a |- neg b and neg a |- b; each condition is symmetric in
                # a and b, so one of the two orders is enough
                if pos & ~neg_b == 0 and pos_b & ~neg == 0:
                    sat.append(mk(lang, force, mk(lang, imp, a, mk(lang, "dneg", b))))
                if neg & ~pos_b == 0 and neg_b & ~pos == 0:
                    sat.append(mk(lang, force, mk(lang, imp, mk(lang, "dneg", a), b)))
            if i == j:
                continue
            if pos & ~pos_b == 0 and neg_b & ~neg == 0:
                sat.append(mk(lang, force, mk(lang, imp, a, b)))
            if neg == 0 and pos_b == 0:
                sat.append(mk(lang, "snot", mk(lang, force, mk(lang, imp, a, b))))
            if eq and masks[j] == (neg, pos):
                sat.append(mk(lang, force, mk(lang, eq, b, mk(lang, "dneg", a))))
        if with_cap:
            if neg == 0:
                sat.append(mk(lang, force, a))
            if pos == 0:
                sat.append(mk(lang, "snot", a))
    return sat


def _qg_reduce(premises: Sequence[Formula], target: Formula, with_cap: bool) \
        -> tuple[list[Formula], list[Formula], Formula, list[str], dict[str, str]]:
    """A QG, MCB or NMCB query as a query of its outer variant (biG, G2ORD,
    G2NEL) over one variable per merged atom class: the premises, the
    saturation instances, the target, the variables (named to sort as
    their representatives print), and each modal atom's printed form (a
    witness key) mapped to its variable."""
    atoms, mapping, reps = qg_merge_atoms([*premises, target])
    outer = syntax.OUTER[target.lang]
    width = len(str(len(reps) - 1))
    var_of = {rep: syntax.var(outer, f"b{i:0{width}}") for i, rep in enumerate(reps)}
    big = {a: var_of[rep] for a, rep in mapping.items()}
    return [_rewrite_atoms(g, outer, big) for g in premises], \
        [_rewrite_atoms(g, outer, big) for g in qg_saturation(reps, with_cap)], \
        _rewrite_atoms(target, outer, big), [v.var for v in var_of.values()], \
        {name: big[a].var for name, a in atoms.items()}


def curried(premises: Sequence[Formula], target: Formula) -> Formula:
    """gamma_1 => (... => target), => the implication of biG, G2ORD or G2NEL:
    its truth is the top iff min truth(premises) <= truth(target)."""
    imp = "nimp" if syntax.OUTER[target.lang] == "G2NEL" else "gimp"
    return reduce(lambda f, g: mk(target.lang, imp, g, f), reversed(premises), target)


def qg_entails(xi: Sequence[Formula], alpha: Formula, with_cap: bool = False) -> Verdict:
    """Decide QG entailment as biG entailment over the merged B-atoms,
    saturated with modal axiom instances.

    Entailment is min xi <= alpha, which holds iff xi_1 -> (... -> alpha)
    takes the value 1 (residuation), so :func:`_outer_search` decides it
    as truth preservation from the saturation instances to that formula.
    The instances are two-valued, so the grid's countervaluations (every
    premise and instance above the target) give each of them the value 1:
    the two readings are one relation.  A query the search refutes is
    handed to :func:`big_entails`, whose first countervaluation on the grid
    is the witness.  It assigns a value to every B-atom of the query, keyed
    by its printed form, and extends to a countermodel via the canonical
    construction in :mod:`qublogic.measures`.
    """
    _check_langs([*xi, alpha], ("QG",), "the QG decision")
    premises, saturation, goal, keys, names = _qg_reduce(xi, alpha, with_cap)
    if _outer_search(saturation, curried(premises, goal), keys, names, "QG entailment").holds:
        return HOLDS
    verdict = big_entails([*premises, *saturation], goal)
    if verdict.holds:
        raise AssertionError("the grid and the order-type search disagree")
    return Verdict("fails", {name: verdict.witness[v] for name, v in names.items()})


# ---------------------------------------------------------------------------
# Truth preservation: the outer logic of the Hilbert calculi
# ---------------------------------------------------------------------------

#: Nodes (one value given to one coordinate) the search may visit before it
#: gives up.  Capped searches over biG, QG, G2ORD and G2NEL theorems whose
#: disjuncts read every coordinate took 1.2-1.7 s of CPU on a shared 2-core
#: VM (python 3.11).
_MAX_OUTER_NODES = 750_000

#: Each outer language's delta: designated values stay, others go to the least.
_DELTA = {"BIG": "delta", "G2ORD": "delta1", "G2NEL": "deltan"}


def truth_preserved(lang: str, premises: Sequence[Formula], target: Formula,
                    with_cap: bool = False, decision: str = "truth preservation") -> Verdict:
    """Decide whether ``target`` is designated wherever every premise is:
    value 1 in biG and QG, (1, 0) in G2ORD and MCB, truth 1 in G2NEL and
    NMCB.  QG, MCB and NMCB are first reduced to their outer variant as
    :func:`qg_entails` reduces QG, the saturation instances joining the
    premises; then :func:`_outer_search` decides.  A search that grows too
    large raises a ValueError that names ``decision`` and states its size.
    """
    _check_langs([*premises, target], (lang,), f"a {lang} truth-preservation decision")
    if lang in _LAYER:
        premises, saturation, target, keys, names = _qg_reduce(premises, target, with_cap)
        premises = [*premises, *saturation]
    elif lang in _DELTA:
        keys = _atom_keys([*premises, target])
        names = {key: key for key in keys}
    else:
        raise ValueError(f"no truth-preservation decision for {lang}")
    return _outer_search(premises, target, keys, names, decision)


def _parts(f: Formula, kind: str, delta: str | None) -> list[Formula]:
    """The ``kind`` ("and" or "or") chain of ``f`` under any ``delta``, with
    <->, ==> and <==> read as conjunctions of implications.  ``f`` is
    designated exactly where all its "and" parts are, and its value (biG)
    or truth (twist) is the top where that of one "or" part is.  The
    truth of delta1 reads both coordinates, so a twist formula's "or" chain
    is taken with ``delta`` None.
    """
    if f.kind == delta:
        return _parts(f.children[0], kind, delta)
    if kind == "and" and f.kind in ("iff", "simp", "siff"):
        f = syntax._expand(f.lang, f.kind, f.children)
    if f.kind == kind:
        return [*_parts(f.children[0], kind, delta), *_parts(f.children[1], kind, delta)]
    return [f]


def _outer_search(premises: Sequence[Formula], target: Formula, keys: Sequence,
                  names: Mapping[str, object], decision: str) -> Verdict:
    """Decide truth preservation by a pruned search over order types.

    The search gives the coordinates one at a time a value on the chain of
    values given so far: 0, the top, a value already on it, or a new value
    strictly inside a gap between two of its neighbours.  Only the order
    of values matters in Goedel logic and its twist products (Dummett
    1959), so each order type of the coordinates is visited once.  The
    target's language, BIG, G2ORD or G2NEL (two-layered queries arrive
    reduced), picks the clauses.  A biG atom has one coordinate; a twist
    atom has a truth and a falsity coordinate on the same chain.  Ranks are
    spaced integers, the top being 2^n for n coordinates, so n bisections
    always fit.

    Premises and target are cut into their conjuncts, and each conjunct
    of the target is searched for on its own: a valuation that designates
    every premise and leaves the conjunct's value (biG) or truth (twist)
    below the top.  In G2ORD a falsity above 0 also leaves a conjunct
    undesignated, but the truth is enough: reading each atom's (t, f) as
    (top - f, top - t) reads every value (t, f) as (top - f, top - t),
    designated values included, so a valuation with the falsity above 0
    gives one with the truth below the top.

    Each premise and each disjunct of the target conjunct is compiled once
    by :func:`qublogic.algebra.compile_twist`, which returns with the
    function the coordinates that its truth and its falsity read, and it
    is read as soon as those coordinates have values: a premise not
    designated (in G2ORD, by its truth or by its falsity) or a disjunct at
    the top closes the branch, so a completed valuation refutes the step.
    A fails verdict carries it on the grid i/(k+1) (biG) or i/(2k+1)
    (twist) for k atoms, the i-th least value strictly between 0 and the
    top standing for i, keyed by ``names`` (each witness key mapped to
    its atom's key in ``keys``).  Searches that visit more than
    ``_MAX_OUTER_NODES`` nodes in all raise a ValueError that names the
    ``decision`` left undecided and states its atoms, its coordinates and
    the nodes it visited.
    """
    lang = target.lang
    twist = lang != "BIG"
    k = len(keys)
    coords = range(2 * k) if twist else range(0, 2 * k, 2)
    n = len(coords)
    top = 1 << n
    d = 2 * k + 1 if twist else k + 1
    slots = {key: i for i, key in enumerate(keys)}
    delta = _DELTA[lang]

    def test(g: Formula) -> tuple:
        """``g`` compiled, with the coordinates its truth and its falsity
        read, as bitmasks."""
        return algebra.compile_twist(g, slots, top)

    # (evaluator, 0 for a truth check or 1 for a falsity check, coordinates
    # as a bitmask)
    premise_tests = []
    for ev, truth, falsity in map(test, dict.fromkeys(
            p for g in premises for p in _parts(g, "and", delta))):
        premise_tests.append((ev, 0, truth))
        if lang == "G2ORD":
            premise_tests.append((ev, 1, falsity))
    values = [(0, 0)] * k
    nodes = 0
    successors: dict[tuple, list] = {}

    def refutes(part: Formula) -> bool:
        """Whether some valuation designates every premise and leaves the
        value, or truth, of every disjunct of ``part`` below the top."""
        tests = [*premise_tests, *((ev, 2, truth) for ev, truth, _ in
                                   map(test, _parts(part, "or", None if twist else delta)))]
        # greedy order: next the coordinate that completes the most tests,
        # then the one that occurs in the most open ones
        order: list[int] = []
        pending = [c for _, _, c in tests]
        while len(order) < n:
            best = max((c for c in coords if c not in order),
                       key=lambda c: (pending.count(1 << c), sum(p >> c & 1 for p in pending), -c))
            order.append(best)
            pending = [p & ~(1 << best) for p in pending]
        # truths[d] / falsities[d] / goals[d]: the premise checks / target
        # disjuncts whose last coordinate is the d-th one given a value
        truths: list[list] = [[] for _ in range(n + 1)]
        falsities: list[list] = [[] for _ in range(n + 1)]
        goals: list[list] = [[] for _ in range(n + 1)]
        for ev, role, c in tests:
            depth = max((i for i, x in enumerate(order, 1) if c >> x & 1), default=0)
            (truths, falsities, goals)[role][depth].append(ev)
        at = [(c >> 1, c & 1) for c in order]

        def extends(depth: int, chain: tuple) -> bool:
            """Whether the values of order[:depth], on ``chain``, extend to a refutation."""
            nonlocal nodes
            for ev in truths[depth]:
                if ev(values)[0] != top:
                    return False
            for ev in falsities[depth]:
                if ev(values)[1]:
                    return False
            for ev in goals[depth]:
                if ev(values)[0] == top:
                    return False
            if depth == n:
                return True
            slot, falsity = at[depth]
            other = values[slot][1 - falsity]
            steps = successors.get(chain)
            if steps is None:
                steps = successors[chain] = _chain_steps(chain)
            for x, longer in steps:
                nodes += 1
                if nodes > _MAX_OUTER_NODES:
                    raise ValueError(
                        f"{decision} undecided: the search over {k} atoms and {n} coordinates "
                        f"stopped after visiting {nodes - 1:,} nodes")
                values[slot] = (other, x) if falsity else (x, other)
                if extends(depth + 1, longer):
                    return True
            return False

        # ``extends`` calls itself through its own cell: empty the cell when
        # the search ends, so that no reference cycle is left behind
        try:
            return extends(0, (0, top))
        finally:
            del extends

    for part in dict.fromkeys(_parts(target, "and", delta)):
        if refutes(part):
            return Verdict("fails", _on_grid(values, names, slots, top, d, twist))
    return HOLDS


def _chain_steps(chain: tuple) -> list[tuple[int, tuple]]:
    """The values a coordinate may take on ``chain`` (sorted, 0 and the top
    at its ends), in increasing order, each with the chain it leaves: every
    value on the chain, and the midpoint of each gap."""
    steps = []
    for i, x in enumerate(chain):
        if i:
            mid = (chain[i - 1] + x) >> 1
            steps.append((mid, chain[:i] + (mid,) + chain[i:]))
        steps.append((x, chain))
    return steps


def _on_grid(values: Sequence[tuple[int, int]], names: Mapping[str, object],
             slots: Mapping, top: int, d: int, twist: bool) -> dict:
    """The spaced ranks ``values`` as a witness on the grid i/d: 0 and the
    top stay, the i-th least value between them becomes i/d."""
    used = {x for pair in values for x in (pair if twist else pair[:1])}
    grid_of = {0: Fraction(0), top: ONE,
               **{x: Fraction(i, d) for i, x in enumerate(sorted(used - {0, top}), 1)}}
    if twist:
        return {name: TwistValue(*map(grid_of.get, values[slots[key]])) for name, key in names.items()}
    return {name: grid_of[values[slots[key]][0]] for name, key in names.items()}
