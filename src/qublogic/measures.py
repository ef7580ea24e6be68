"""Two-layered models over uncertainty measures, and the inner CPL layer.

This module owns the semantics of the inner layer.
:func:`cpl_truth_set` is the one recursion over the CPL connectives: model
truth sets, truth tables (``calculi``) and QP truth sets (``qp``) go
through it.  :func:`canonical_frame` is the one construction over every
inner valuation of some modal atoms, the 2^n assignments for B-atoms and
the 4^n valuations of 4 for C-atoms, with each atom's positive and
negative sets.  The atom merge and saturation of the decisions
(``decide``) and both canonical models read it.

An uncertainty model pairs a classical valuation with a measure given
extensionally on every subset of the (small) state space; a belief model
pairs a Belnap-Dunn valuation with such a measure.  Storing the measure
densely is what lets the property checkers quantify over arbitrary subsets
rather than just definable ones.  State sets are bitmasks; their JSON form
is the state list of :mod:`qublogic.bd`.

The outer layer of QG, MCB and NMCB formulas is evaluated by
:func:`qublogic.algebra.compile_twist`.  It reads the measure only through
the order of its values, so the frame searches compare integer ranks, 0
and 1 at the ends: frame validity ranks its measure once, and the
countermodel search and the correspondence test enumerate one rank
function per measure order type.  Only the countervaluation or model they
return carries Fractions.  One model's evaluation runs the same compiled
formula on the measure's own values.

Inner truth is statewise and does not depend on the measure, so frame
searches bit-slice the inner valuations: one mask over (valuation, state)
bits per coordinate, one run of :func:`cpl_truth_set` or of the BD support
recursion per inner formula on those masks, and each valuation reads its
atoms' sets as a slice, 64 valuations at a time, so that frame validity
still stops at the first failing valuation.  The countermodel search and
the correspondence test do this once per state count and reuse the sets
for every order type.  A state count with more than ``_MAX_FRAME_VALUATIONS``
inner valuations is refused before it starts, with its count.

Frame validity, the correspondence test and the countermodel search share
one loop, :func:`_countervaluation`.  The outer value at a valuation
depends only on the ranks of the atoms' values, so it runs the caller's
test once per distinct tuple of them and returns the first failing
valuation's index.  The countermodel search and the correspondence test
also share the loop around it, :func:`_frame_search`, which stops past
``_MAX_SEARCH_VALUATIONS`` inner valuations, stating where.  The measure
properties of :func:`check_property` compare ranks too, and refuse past
``_MAX_PROPERTY_TUPLES`` tuples of subsets."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import bd
from .algebra import ONE, ZERO, RankPair, TwistValue, compile_twist, parse_fraction, unit
from .syntax import Formula, LanguageError, memo, modal_atoms, parse, print_formula, vars_of

MAX_DENSE_STATES = 16
MAX_CPL_VARS = 20

#: the rank of 1: a measure on at most MAX_DENSE_STATES states takes at
#: most 2^MAX_DENSE_STATES values strictly between 0 and 1, ranked below it
_RANK_TOP = (1 << MAX_DENSE_STATES) + 1


def _mask_key(mask: int) -> str:
    return json.dumps(bd._mask_to_list(mask), separators=(",", ":"))


def _key_mask(key: str) -> int:
    body = key.strip()[1:-1].strip()
    return bd._list_to_mask([int(part) for part in body.split(",")]) if body else 0


def _measure_from_json(obj: Mapping) -> dict[int, Fraction]:
    """The measure under ``mu``: an object of state lists, written as JSON
    text, to values."""
    mu = bd._checked(obj["mu"], dict, "'mu'")
    return {_key_mask(k): parse_fraction(q) for k, q in mu.items()}


def _check_measure(states: int, mu: Mapping[int, Fraction]) -> None:
    if not 1 <= states <= MAX_DENSE_STATES:
        raise ValueError(f"state count must be in 1..{MAX_DENSE_STATES}")
    if set(mu) != set(range(1 << states)):
        raise ValueError("measure must be total on all subsets")
    for v in mu.values():
        unit(v)


def measure_monotone(states: int, mu: Mapping[int, Fraction]) -> tuple[bool, tuple | None]:
    """Monotonicity w.r.t. inclusion; checks one-element extensions."""
    for x in range(1 << states):
        for i in range(states):
            if not x >> i & 1:
                y = x | 1 << i
                if mu[x] > mu[y]:
                    return False, (x, y)
    return True, None


def measure_nontrivial(states: int, mu: Mapping[int, Fraction]) -> tuple[bool, tuple | None]:
    full = (1 << states) - 1
    return (True, None) if mu[full] > mu[0] else (False, (0, full))


def measure_capacity(states: int, mu: Mapping[int, Fraction]) -> tuple[bool, tuple | None]:
    return _capacity(states, mu, ONE)


def _capacity(states: int, mu: Mapping, one=_RANK_TOP) -> tuple[bool, tuple | None]:
    """Monotone, 0 at the empty set and ``one`` (by default the rank of 1)
    at the full one."""
    ok, wit = measure_monotone(states, mu)
    if not ok:
        return ok, wit
    full = (1 << states) - 1
    if mu[0] != 0:
        return False, (0,)
    if mu[full] != one:
        return False, (full,)
    return True, None


@dataclass(frozen=True, slots=True)
class UncertaintyModel:
    """Classical inner valuation plus a dense measure over subsets."""

    states: int
    v: Mapping[str, int] = field(default_factory=dict)
    mu: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        _check_measure(self.states, self.mu)
        for name, mask in self.v.items():
            if mask >> self.states:
                raise ValueError(f"valuation of {name!r} references unknown states")

    @property
    def full(self) -> int:
        return (1 << self.states) - 1

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "v": {p: bd._mask_to_list(m) for p, m in sorted(self.v.items())},
            "mu": {_mask_key(m): str(q) for m, q in sorted(self.mu.items())},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "UncertaintyModel":
        return cls(
            states=bd._checked(obj["states"], int, "'states'"),
            v=bd._masks_from_json(obj, "v"),
            mu=_measure_from_json(obj),
        )


@dataclass(frozen=True, slots=True)
class BeliefModel:
    """BD inner valuation plus a dense measure over subsets."""

    states: int
    vplus: Mapping[str, int] = field(default_factory=dict)
    vminus: Mapping[str, int] = field(default_factory=dict)
    pi: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        _check_measure(self.states, self.pi)
        for name, mask in [*self.vplus.items(), *self.vminus.items()]:
            if mask >> self.states:
                raise ValueError(f"valuation of {name!r} references unknown states")

    @property
    def full(self) -> int:
        return (1 << self.states) - 1

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "v": {p: bd._mask_to_list(m) for p, m in sorted(self.vplus.items())},
            "vminus": {p: bd._mask_to_list(m) for p, m in sorted(self.vminus.items())},
            "mu": {_mask_key(m): str(q) for m, q in sorted(self.pi.items())},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BeliefModel":
        return cls(
            states=bd._checked(obj["states"], int, "'states'"),
            vplus=bd._masks_from_json(obj, "v" if "v" in obj else "vplus"),
            vminus=bd._masks_from_json(obj, "vminus"),
            pi=_measure_from_json(obj),
        )


# ---------------------------------------------------------------------------
# Inner-layer truth sets and two-layered evaluation
# ---------------------------------------------------------------------------

def cpl_truth_set(f: Formula, env: Mapping[str, int], full: int,
                  other: Callable[[str, int, int], int] | None = None) -> int:
    """States satisfying a CPL formula, as a bitmask.

    ``env`` maps each variable to its truth mask and ``full`` is the mask of
    all states.  A binary kind outside CPL goes to ``other`` with the masks
    of its operands; QP passes its comparisons this way.
    """
    kind = f.kind
    if kind == "var":
        try:
            return env[f.var]
        except KeyError:
            raise KeyError(f"variable {f.var!r} unbound in model") from None
    if kind == "top":
        return full
    if kind == "bot":
        return 0
    if kind == "not":
        return full & ~cpl_truth_set(f.children[0], env, full, other)
    a = cpl_truth_set(f.children[0], env, full, other)
    b = cpl_truth_set(f.children[1], env, full, other)
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    if kind == "matimp":
        return (full & ~a) | b
    if kind == "iff":
        return full & ~(a ^ b)
    if other is not None:
        return other(kind, a, b)
    raise ValueError(f"kind {kind!r} is not a CPL connective")


def assignment_masks(names: Sequence) -> dict:
    """Variable masks of the model whose states are the assignments to
    ``names``: state ``a`` makes ``names[i]`` true iff ``a >> i & 1``.
    Its full mask is ``(1 << (1 << len(names))) - 1``."""
    if len(names) > MAX_CPL_VARS:
        raise ValueError(f"too many variables (> {MAX_CPL_VARS})")
    return {p: bd._coordinate_mask(1, i, len(names)) for i, p in enumerate(names)}


def truth_set(m: UncertaintyModel, f: Formula) -> int:
    """States of the model satisfying a CPL formula, as a bitmask."""
    return cpl_truth_set(f, m.v, m.full)


def eval_qg(m: UncertaintyModel, alpha: Formula) -> Fraction:
    """Value of a QG formula: B-atoms get the measure of their truth set.

    The formula is compiled once, on its first evaluation, and kept on its
    node (:func:`_compile`); the model's truth sets and measure values are
    read, and range-checked, on every call."""
    if alpha.lang != "QG":
        raise LanguageError("eval_qg expects a QG formula")
    inners, (ev,) = _compile("QG", [alpha], ONE)
    supports = _supports("QG", inners, {"v": m.v}, m.full)
    return unit(ev(next(_valuations("QG", supports, m.states, 1, m.mu)))[0])


def eval_layer(m: BeliefModel, variant: str, alpha: Formula) -> TwistValue:
    """Value of an MCB/NMCB formula over a belief model.  As in
    :func:`eval_qg`, the compiled formula is kept on its node and the model
    is read on every call."""
    if variant not in ("MCB", "NMCB"):
        raise ValueError("variant must be MCB or NMCB")
    if alpha.lang != variant:
        raise LanguageError(f"eval_layer expects an {variant} formula")
    inners, (ev,) = _compile(variant, [alpha], ONE)
    supports = _supports(variant, inners, {"vplus": m.vplus, "vminus": m.vminus}, m.full)
    return TwistValue(*ev(next(_valuations(variant, supports, m.states, 1, m.pi))))


def _compile(layer: str, formulas: Sequence[Formula], top) \
        -> tuple[tuple[Formula, ...], tuple[Callable, ...]]:
    """Compile ``formulas`` for values on the chain from 0 to ``top``.

    Returns the inner formulas of the modal atoms of all of them, in slot
    order, and each formula compiled over those slots by
    :func:`qublogic.algebra.compile_twist`.  A compiled formula maps the
    atoms' values (:func:`_valuations`) to a (truth, falsity) pair; QG
    atoms enter as (value, 0) and a QG value is the truth coordinate.

    A single formula's compilation is kept on its node
    (:func:`qublogic.syntax.memo`), by layer and by the type and value of
    ``top``: 1 and the Fraction 1 are equal keys, but compile to ints and to
    Fractions.
    """
    def build():
        atoms = list(set().union(*map(modal_atoms, formulas)))
        slots = {a: i for i, a in enumerate(atoms)}
        return (tuple(a.children[0] for a in atoms),
                tuple(compile_twist(f, slots, top, layer == "NMCB")[0] for f in formulas))

    if len(formulas) == 1:
        return memo(formulas[0], ("measures._compile", layer, type(top), top), build)
    return build()


def _supports(layer: str, inners: Sequence[Formula], val: Mapping[str, Mapping[str, int]],
              full: int) -> list[int]:
    """Each inner formula's truth set (QG), or its positive and negative
    support sets in turn (MCB/NMCB), under an inner valuation given as the
    keyword arguments of the layer's model, with ``full`` the mask of all
    states: one recursion per inner formula.  On bit-sliced valuations
    (:func:`_frame_supports`) each set holds every valuation's at once."""
    if layer == "QG":
        v = val["v"]
        return [cpl_truth_set(inner, v, full) for inner in inners]
    masks = bd._support_masks(val["vplus"], val["vminus"])
    return [s for inner in inners for s in masks(inner)]


def _valuations(layer: str, supports: Sequence[int], states: int, count: int,
                rank: Mapping[int, object] | Sequence) -> Iterator[tuple]:
    """The atoms' values under each of ``count`` valuations in turn, read
    lazily from their bit-sliced ``supports``: for ``rank`` the measure on
    the chain, the measure of each atom's truth set, or of its two support
    sets, as a tuple of (truth, falsity) pairs by slot.  Past 64 valuations
    the masks are cut into words of 64 valuations, so that no slice shifts
    a long mask."""
    chunks: Iterable[Sequence[int]] = [supports]
    if count > 64:
        size = 8 * states  # bytes of 64 valuations
        data = [s.to_bytes(count * states // 8, "little") for s in supports]
        chunks = ([int.from_bytes(d[i:i + size], "little") for d in data]
                  for i in range(0, len(data[0]), size))
    low = (1 << states) - 1
    offsets = range(0, min(count, 64) * states, states)
    for words in chunks:
        if layer == "QG":
            for o in offsets:
                yield tuple([(rank[w >> o & low], 0) for w in words])
        else:
            pairs = list(zip(words[::2], words[1::2]))
            for o in offsets:
                yield tuple([(rank[pos >> o & low], rank[neg >> o & low]) for pos, neg in pairs])


def _ranks(mu: Mapping[int, Fraction]) -> dict[int, int]:
    """The measure on integer ranks: 0 and 1 go to 0 and ``_RANK_TOP``, and
    the values between them to 1, 2, ... in ascending order."""
    by_value: dict = {}
    for x, v in mu.items():  # hashes each value once: Fraction hashes are slow
        by_value.setdefault(v, []).append(x)
    rank = dict.fromkeys(by_value.pop(ZERO, ()), 0)
    rank.update(dict.fromkeys(by_value.pop(ONE, ()), _RANK_TOP))
    for i, v in enumerate(sorted(by_value), 1):
        rank.update(dict.fromkeys(by_value[v], i))
    return rank


# ---------------------------------------------------------------------------
# Measure properties
# ---------------------------------------------------------------------------

def _cond_i(states, mu):
    full = (1 << states) - 1
    for x in range(1 << states):
        if (mu[x] == _RANK_TOP) != (mu[full & ~x] == 0):
            return False, (x,)
    return True, None


def _cond_ii(states, mu):
    for y, y2 in product(range(1 << states), repeat=2):
        if mu[y & y2] == 0 and mu[y] > 0 and mu[y2] > 0 \
                and not (mu[y | y2] > mu[y] and mu[y | y2] > mu[y2]):
            return False, (y, y2)
    return True, None


def _cond_iii(states, mu):
    for y, y2 in product(range(1 << states), repeat=2):
        if mu[y] == 0 and mu[y | y2] != mu[y2]:
            return False, (y, y2)
    return True, None


def _mu_pm(states, mu):
    for x, y, z in product(range(1 << states), repeat=3):
        if not (x & ~y or x == y or y & z) and mu[x] < mu[y] and mu[x | z] >= mu[y | z]:
            return False, (x, y, z)
    return True, None


def _mu_kps(states: int, mu, m: int):
    """KPS_m: search for a balanced violating tuple via sums of pair vectors.

    A violation is one pair with mu(X) < mu(Y) plus m pairs with
    mu(X_j) <= mu(Y_j) whose membership-count difference vectors cancel.
    """
    if states > 6 or m > 8 or (2 * m + 3) ** states > 2_000_000:
        raise ValueError("muKPS bounds exceeded (states <= 6, m <= 8, joint cost bound)")
    le_vecs: dict[tuple[int, ...], tuple[int, int]] = {}
    lt_vecs: dict[tuple[int, ...], tuple[int, int]] = {}
    for x, y in product(range(1 << states), repeat=2):
        d = tuple((x >> i & 1) - (y >> i & 1) for i in range(states))
        if mu[x] <= mu[y]:
            le_vecs.setdefault(d, (x, y))
        if mu[x] < mu[y]:
            lt_vecs.setdefault(d, (x, y))
    # sums of exactly m vectors from le_vecs (the zero vector is always
    # present, so this includes shorter sums)
    frontier: dict[tuple[int, ...], tuple] = {tuple(0 for _ in range(states)): ()}
    for _ in range(m):
        nxt: dict[tuple[int, ...], tuple] = {}
        for s, path in frontier.items():
            for d, pair in le_vecs.items():
                t = tuple(a + b for a, b in zip(s, d))
                if t not in nxt:
                    nxt[t] = path + (pair,)
        frontier = nxt
    for d, pair in lt_vecs.items():
        need = tuple(-a for a in d)
        if need in frontier:
            premises = frontier[need]
            return False, (pair, premises)
    return True, None


def _mcb_i(states, pi):
    """Exact frame condition of the paraconsistent disj+ axiom.

    X/Y are the positive/negative sets of one variable, X'/Y' of the other;
    the hypothesis and conclusion mirror the axiom's delta-structure.
    """
    for x, y, x2, y2 in product(range(1 << states), repeat=4):
        if pi[x & x2] == 0 and pi[y | y2] == _RANK_TOP \
                and not (pi[x] == 0 and pi[y] == _RANK_TOP) \
                and not (pi[x2] == 0 and pi[y2] == _RANK_TOP):
            if not ((pi[x | x2] > pi[x] or pi[y & y2] < pi[y])
                    and (pi[x | x2] > pi[x2] or pi[y & y2] < pi[y2])):
                return False, (x, y, x2, y2)
    return True, None


def _mcb_ii(states, pi):
    for x, y, x2, y2 in product(range(1 << states), repeat=4):
        if pi[x] == 0 and pi[y] == _RANK_TOP:
            if pi[x | x2] != pi[x2] or pi[y & y2] != pi[y2]:
                return False, (x, y, x2, y2)
    return True, None


_PROPS: dict[str, Callable] = {
    "monotone": measure_monotone,
    "nontrivial": measure_nontrivial,
    "capacity": _capacity,
    "cond_i": _cond_i,
    "cond_ii": _cond_ii,
    "cond_iii": _cond_iii,
    "cond_iv": _capacity,
    "mupm": _mu_pm,
    "mcb_i": _mcb_i,
    "mcb_ii": _mcb_ii,
    "mcb_iii": _cond_ii,
    "mcb_iv": _cond_iii,
}


#: the subsets each property ranges over at once (else one), and the tuples
#: of them one check may visit: mcb_i on 6 states, 3.2 s of CPU, 2-core VM
_ARITY = dict(cond_ii=2, cond_iii=2, mcb_iii=2, mcb_iv=2, mupm=3, mcb_i=4, mcb_ii=4)
_MAX_PROPERTY_TUPLES = 1 << 24


def check_property(states: int, measure: Mapping[int, Fraction], prop: str,
                   m: int | None = None) -> tuple[bool, tuple | None]:
    """Exhaustively check a named measure property; returns a violating tuple.

    Every property reads the measure only through the order of its values
    and their equality to 0 and 1, so each runs on the measure's ranks
    (:func:`_ranks`), 0 and ``_RANK_TOP`` standing for 0 and 1.  A property
    over k subsets at once is refused past ``_MAX_PROPERTY_TUPLES`` of its
    2^(k * states) tuples, stating their count; muKPS has its own bounds."""
    _check_measure(states, measure)
    if prop == "mukps":
        if m is None or m < 0:
            raise ValueError(f"mukps needs a parameter m >= 0, not {m}")
        return _mu_kps(states, _ranks(measure), m)
    try:
        fn = _PROPS[prop]
    except KeyError:
        raise ValueError(f"unknown property {prop!r}") from None
    tuples = 1 << states * _ARITY.get(prop, 1)
    if tuples > _MAX_PROPERTY_TUPLES:
        raise ValueError(f"property {prop} on {states} states: {tuples:,} tuples of subsets "
                         f"(> {_MAX_PROPERTY_TUPLES:,})")
    return fn(states, _ranks(measure))


# ---------------------------------------------------------------------------
# Frame validity and correspondence
# ---------------------------------------------------------------------------

#: inner valuations per state count that a frame search admits: 2 MCB/NMCB
#: or 4 QG variables on 4 states.  At the cap one frame validation took
#: 0.07-0.34 s of CPU on 4 states and 0.6 s on 16 (python 3.11, shared
#: 2-core VM), and each mask has 2^16 * states bits, at most 128 KiB
_MAX_FRAME_VALUATIONS = 1 << 16


def frame_validates(states: int, measure: Mapping[int, Fraction], formula: Formula,
                    layer: str) -> tuple[bool, dict | None]:
    """Validity of a two-layered formula on the frame (all inner valuations).

    The formula is compiled on ranks once and kept on its node
    (:func:`_compile`), so validating it on many frames compiles it once;
    the measure's ranks and the inner formulas' bit-sliced sets are computed
    on every call."""
    _check_layer(layer, [formula])
    _check_measure(states, measure)
    names = sorted(vars_of(formula))
    inners, (ev,) = _compile(layer, [formula], _RANK_TOP)
    count, supports = _frame_supports(layer, inners, names, states)
    a = _countervaluation(layer, lambda atoms: _designated(layer, ev(atoms)), supports, states,
                          count, _ranks(measure))
    return (True, None) if a is None else (False, _inner_valuation(layer, names, states, a))


def _check_layer(layer: str, formulas: Sequence[Formula]) -> None:
    if layer not in ("QG", "MCB", "NMCB"):
        raise ValueError(f"unknown layer {layer!r}")
    for f in formulas:
        if f.lang != layer:
            raise LanguageError(f"the {layer} layer takes {layer} formulas, not {f.lang}")


# Frame searches range over every inner valuation of the variables ``names``
# on ``states`` states: one subset of states per coordinate, a coordinate
# per variable in QG and two (vplus, vminus) interleaved in MCB/NMCB, in
# product order, the last coordinate fastest.  Valuation ``a`` then gives
# coordinate ``c`` of ``k`` the subset in bits ``(k-1-c)*states`` up of
# ``a``.  They are bit-sliced: a state set over all valuations at once is a
# mask with bit ``a*states + x`` for state ``x`` under valuation ``a``, so one
# run of the inner recursion gives each inner formula's sets under all of
# them, and valuation ``a`` reads its slice.

def _coordinates(layer: str, names: Sequence[str]) -> int:
    return len(names) if layer == "QG" else 2 * len(names)


def _frame_size(layer: str, names: Sequence[str], states: int) -> int:
    """The number of inner valuations; refuses more than
    ``_MAX_FRAME_VALUATIONS``."""
    count = 1 << states * _coordinates(layer, names)
    if count > _MAX_FRAME_VALUATIONS:
        raise ValueError(f"frame validation over {len(names)} variables on {states} states: "
                         f"{count:,} inner valuations (> {_MAX_FRAME_VALUATIONS:,})")
    return count


def _inner_valuation(layer: str, names: Sequence[str], states: int,
                     a: int | None = None) -> dict[str, dict[str, int]]:
    """Inner valuation ``a`` of ``names``, or with ``a`` None all of them
    bit-sliced, as the keyword arguments of the layer's model: ``v`` for QG,
    ``vplus`` and ``vminus`` for MCB/NMCB."""
    k = _coordinates(layer, names)
    if a is None:
        coords = [bd._coordinate_mask(states, k - 1 - c, k) for c in range(k)]
    else:
        coords = [a >> (k - 1 - c) * states & (1 << states) - 1 for c in range(k)]
    if layer == "QG":
        return {"v": dict(zip(names, coords))}
    return {"vplus": dict(zip(names, coords[::2])), "vminus": dict(zip(names, coords[1::2]))}


def _frame_supports(layer: str, inners: Sequence[Formula], names: Sequence[str],
                    states: int) -> tuple[int, list[int]]:
    """The number of inner valuations, refused over the cap, and the inner
    formulas' sets under all of them, bit-sliced."""
    count = _frame_size(layer, names, states)
    val = _inner_valuation(layer, names, states)
    return count, _supports(layer, inners, val, (1 << count * states) - 1)


def _countervaluation(layer: str, test: Callable[[tuple], bool], supports: Sequence[int],
                      states: int, count: int,
                      rank: Mapping[int, int] | Sequence[int]) -> int | None:
    """The index of the first of ``count`` inner valuations whose atom
    values on the measure's ranks fail ``test``, or None.

    This is the one loop of the frame searches.  The outer layer reads a
    valuation only through its atoms' values, so ``test`` runs once per
    distinct tuple of them: a tuple already seen passed, and is skipped."""
    passed: set[tuple] = set()
    for a, atoms in enumerate(_valuations(layer, supports, states, count, rank)):
        if atoms not in passed:
            if not test(atoms):
                return a
            passed.add(atoms)
    return None


def _designated(layer: str, value: RankPair) -> bool:
    """Whether a value on ranks is designated: (top, 0) in MCB, truth top in
    QG and NMCB."""
    return value == (_RANK_TOP, 0) if layer == "MCB" else value[0] == _RANK_TOP


#: frame-condition name -> (layer, named formula text, property name)
CORRESPONDENCES: dict[str, tuple[str, str, str]] = {
    "cond_i": ("QG", "delta B(p) <-> snot B(~p)", "cond_i"),
    "cond_ii": ("QG",
                "(snot B(p & q) & snot snot B(p) & snot snot B(q)) -> "
                "(snot delta(B(p | q) -> B(p)) & snot delta(B(p | q) -> B(q)))",
                "cond_ii"),
    "cond_iii": ("QG", "snot B(p) -> delta(B(q) <-> B(p | q))", "cond_iii"),
    "cond_iv": ("QG", "B(Top) & snot B(Bot)", "cond_iv"),
    "mcb_i": ("MCB",
              "(delta1 snot C(p & q) & snot delta1 snot C(p) & snot delta1 snot C(q)) -> "
              "(snot delta1(C(p | q) -> C(p)) & snot delta1(C(p | q) -> C(q)))",
              "mcb_i"),
    "mcb_ii": ("MCB", "delta1 snot C(p) -> delta1(C(q) <-> C(p | q))", "mcb_ii"),
    "mcb_iii": ("NMCB",
                "(deltaN snot C(p & q) & snot snot C(p) & snot snot C(q)) ~> "
                "(snot deltaN(C(p | q) ~> C(p)) & snot deltaN(C(p | q) ~> C(q)))",
                "mcb_iii"),
    "mcb_iv": ("NMCB", "deltaN snot C(p) ~> deltaN(C(q) <-> C(p | q))", "mcb_iv"),
}


def _check_bounds(states: int, denominator: int) -> None:
    """Refuse a state bound or a grid denominator below 1: nothing is under it."""
    if states < 1 or denominator < 1:
        raise ValueError(f"state bound and grid denominator must be >= 1, not {states}, {denominator}")


def _grid_order(states: int) -> list[int]:
    """The subsets in the grid's order: by size, then mask."""
    return sorted(range(1 << states), key=lambda x: (x.bit_count(), x))


def _rank_functions(states: int, m: int, capacity: bool = False) -> Iterator[tuple[int, ...]]:
    """The ranks, by subset, of each monotone nontrivial measure with ``m``
    interior values, 1..m, in the grid's order; with ``capacity``, 0 and
    ``_RANK_TOP`` at the ends."""
    full = (1 << states) - 1
    levels = [(0, 0), *((r, 1 << r - 1) for r in range(1, m + 1)), (_RANK_TOP, 0)]
    ends = {0: levels[:1], full: levels[-1:]} if capacity else {}
    steps = [(x, [x & ~(1 << i) for i in range(states) if x >> i & 1], ends.get(x, levels))
             for x in _grid_order(states)]
    for rank in _ranks_from(steps, [0] * (full + 1), m, 0, 0):
        if rank[full] > rank[0]:
            yield rank


def _ranks_from(steps: Sequence[tuple], rank: list[int], m: int, i: int,
                used: int) -> Iterator[tuple[int, ...]]:
    """The rank functions extending ``rank`` on ``steps[:i]``, its interior
    ranks the bits of ``used``: monotone, with room for the unused ones."""
    if i == len(steps):
        yield tuple(rank)
        return
    x, below, levels = steps[i]
    lo = max([rank[y] for y in below], default=0)
    for r, bit in levels:
        if r >= lo and m - (used | bit).bit_count() < len(steps) - i:
            rank[x] = r
            yield from _ranks_from(steps, rank, m, i + 1, used | bit)


def _grid_measures(rank: Sequence[int], m: int, denominator: int) -> Iterator[dict[int, Fraction]]:
    """The grid measures of the order type ``rank``, keyed in the grid's
    order: the grid of denominator d has the order types of at most d - 1
    interior values, one with ``m`` once per choice of m of its d - 1."""
    order = _grid_order(len(rank).bit_length() - 1)
    for values in combinations(range(1, denominator), m):
        value = [ZERO, *(Fraction(v, denominator) for v in values)]
        yield {x: ONE if rank[x] == _RANK_TOP else value[rank[x]] for x in order}


#: inner valuations a frame search may read over all its order types: about
#: 3 s of CPU for 2 MCB variables on 3 states (python 3.11, 2-core VM)
_MAX_SEARCH_VALUATIONS = 1 << 21


def _frame_search(search: str, layer: str, formulas: Sequence[Formula],
                  kept: Callable[[list[RankPair]], bool], max_states: int, denominator: int,
                  capacity: bool = False) -> Iterator[tuple[int, int, tuple, dict | None]]:
    """(states, m, ranks, the first inner valuation where ``kept`` fails on
    the formulas' values or None) for each state count and each order type
    of at most ``denominator - 1`` interior values, fewest first; past
    ``_MAX_SEARCH_VALUATIONS`` valuations, a ValueError naming ``search``."""
    _check_layer(layer, formulas)
    _check_bounds(max_states, denominator)
    names = sorted(set().union(*map(vars_of, formulas)))
    inners, evs = _compile(layer, formulas, _RANK_TOP)
    test = lambda atoms: kept([ev(atoms) for ev in evs])
    read = 0
    for states in range(1, max_states + 1):
        count, supports = _frame_supports(layer, inners, names, states)
        for m in range(denominator):
            for rank in _rank_functions(states, m, capacity):
                a = _countervaluation(layer, test, supports, states, count, rank)
                val = None if a is None else _inner_valuation(layer, names, states, a)
                yield states, m, rank, val
                read += count
                if read > _MAX_SEARCH_VALUATIONS:
                    raise ValueError(
                        f"{search} undecided: stopped on {states} states at denominator {m + 1} "
                        f"after reading {read:,} inner valuations (> {_MAX_SEARCH_VALUATIONS:,})")


def correspondence_test(cond: str, max_states: int, denominator: int) -> dict:
    """Compare frame validity of the named formula with its measure property
    on every monotone nontrivial frame within the bounds: each order type
    once, counted as its grid measures, each mismatching one listed as them."""
    layer, text, prop = CORRESPONDENCES[cond]
    formula = parse(layer, text)
    _check_bounds(max_states, denominator)
    _frame_size(layer, sorted(vars_of(formula)), max_states)
    frames, mismatched = 0, []
    for states, m, rank, val in _frame_search("correspondence test", layer, [formula],
                                              lambda values: _designated(layer, values[0]),
                                              max_states, denominator):
        frames += comb(denominator - 1, m)
        if (val is None) != _PROPS[prop](states, rank)[0]:
            mismatched += [(states, tuple(mu.values()), mu, val is None)
                           for mu in _grid_measures(rank, m, denominator)]
    mismatches = [{"states": states, "mu": {_mask_key(k): str(v) for k, v in mu.items()},
                   "frame_validates": valid, "property": not valid}
                  for states, _, mu, valid in sorted(mismatched, key=lambda row: row[:2])]
    return {"condition": cond, "frames": frames, "mismatches": mismatches,
            "equivalent": not mismatches}


# ---------------------------------------------------------------------------
# Countermodel search
# ---------------------------------------------------------------------------

def _refuted_on(xi_values: Sequence[RankPair], alpha_value: RankPair, layer: str) -> bool:
    """Whether rank values refute the entailment: the premises' least truth
    exceeds the conclusion's, or, in MCB, their greatest falsity is below
    the conclusion's."""
    t, fl = alpha_value
    if min((v[0] for v in xi_values), default=_RANK_TOP) > t:
        return True
    return layer == "MCB" and max((v[1] for v in xi_values), default=0) < fl


def find_frame_countermodel(xi: Sequence[Formula], alpha: Formula, layer: str,
                            max_states: int = 4, denominator: int = 4,
                            *, capacity: bool = False) -> UncertaintyModel | BeliefModel | None:
    """Iterative-deepening search for a model refuting ``xi |= alpha``.

    Deterministic order: ascending state count, then grid denominator, then
    lexicographic measures and valuations; returns the first hit or None.
    Each order type is tried once, deepening over m = 0..denominator - 1
    interior values: the grids' first hit, on the least grid d' with one,
    has d' - 1 (one with fewer was tried on a smaller grid).  Past
    ``_MAX_SEARCH_VALUATIONS`` valuations read it stops, stating where.
    """
    for states, m, rank, val in _frame_search(
            "countermodel search", layer, [*xi, alpha],
            lambda values: not _refuted_on(values[:-1], values[-1], layer),
            max_states, denominator, capacity):
        if val is not None:
            mu = next(_grid_measures(rank, m, m + 1))
            if layer == "QG":
                return UncertaintyModel(states, mu=mu, **val)
            return BeliefModel(states, pi=mu, **val)
    return None


# ---------------------------------------------------------------------------
# The canonical frame and canonical models
# ---------------------------------------------------------------------------

def canonical_frame(atoms: Sequence[Formula]) -> tuple[int, dict, list[tuple[int, int]]]:
    """The canonical frame of modal atoms, a state per inner valuation of
    their variables (sorted by name): the state count, the valuation as the
    keyword arguments of the layer's model, and each atom's positive and
    negative sets by :func:`_supports`.  B-atoms have the 2^n assignments of
    :func:`assignment_masks`, a truth set and its complement; C-atoms the
    4^n valuations of 4 in ``bd.valuation_masks`` order and the supports."""
    if not atoms:
        return 1, {}, []
    inners = [a.children[0] for a in atoms]
    names = sorted(set().union(*map(vars_of, inners)))
    if atoms[0].kind == "bmod":
        val, states = {"v": assignment_masks(names)}, 1 << len(names)
    else:
        val, states = dict(zip(("vplus", "vminus"), bd.valuation_masks(names))), 4 ** len(names)
    full = (1 << states) - 1
    sets = _supports(atoms[0].lang, inners, val, full)
    pairs = zip(sets, [full & ~t for t in sets]) if "v" in val else zip(sets[::2], sets[1::2])
    return states, val, list(pairs)


class CanonicalModelError(ValueError):
    """The given valuation cannot come from any measure (reg violated)."""


def canonical_qg_model(e: Mapping[str, Fraction], formulas: Sequence[Formula]) -> UncertaintyModel:
    """Replay the completeness construction on the canonical frame of the
    B-atoms, where state ``a`` makes the ``i``-th variable true iff ``a >> i
    & 1``.  ``e`` maps printed B-atoms to values and must respect
    reg-monotonicity on the definable sets; elsewhere the measure takes the
    supremum of definable subsets (0 when none)."""
    return _canonical_model(e, formulas, False)


def canonical_mcb_model(e: Mapping[str, TwistValue], formulas: Sequence[Formula]) -> BeliefModel:
    """The same on the canonical frame of the C-atoms, where state ``a``, the
    ``a``-th valuation of 4, stands for the literal set {p : p true at a} |
    {neg p : p false at a}.  One state supports every inner formula both
    ways and one none, so the end points pi(W)=1, pi(0)=0 are safe."""
    return _canonical_model(e, formulas, True)


def _completion(states: int, values: Iterable[tuple[int, Fraction, str]]) -> dict[int, Fraction]:
    """The least monotone measure through the given (set, value, what)
    triples: every set takes the greatest value of a given subset (0 when
    none).  A CanonicalModelError if one set is given two values or the
    values are not monotone."""
    defined: dict[int, Fraction] = {}
    for x, val, what in values:
        if defined.setdefault(x, val) != val:
            raise CanonicalModelError(f"{what} got values {defined[x]} and {val}")
    for x, vx in defined.items():
        for y, vy in defined.items():
            if x & ~y == 0 and vx > vy:
                raise CanonicalModelError(
                    f"values violate monotonicity on {_mask_key(x)} vs {_mask_key(y)}")
    return {x: max((vy for y, vy in defined.items() if y & ~x == 0), default=ZERO)
            for x in range(1 << states)}


def _canonical_model(e: Mapping, formulas: Sequence[Formula], belief: bool):
    """The :func:`_completion` through each atom's value on its sets in
    :func:`canonical_frame`: truth and falsity for a belief model, whose
    full and empty sets take 1 and 0."""
    atoms = sorted(set().union(*map(modal_atoms, formulas)), key=print_formula)
    count = len(set().union(*(vars_of(a.children[0]) for a in atoms)))
    if (4 if belief else 2) ** count > MAX_DENSE_STATES:
        raise ValueError(f"too many {'literals' if belief else 'inner variables'} "
                         "for a dense canonical model")
    states, val, sets = canonical_frame(atoms)

    def values() -> Iterator[tuple[int, Fraction, str]]:
        for a, (pos, neg) in zip(atoms, sets):
            key = print_formula(a)
            if key not in e:
                raise KeyError(f"no value for atom {key!r}")
            if not belief:
                yield pos, unit(e[key]), f"the truth set of {key}"
                continue
            inner = print_formula(a.children[0])
            yield pos, unit(e[key][0]), f"|{inner}|+"
            yield neg, unit(e[key][1]), f"|{inner}|-"
        if belief:
            yield (1 << states) - 1, ONE, "the full set"
            yield 0, ZERO, "the empty set"

    measure = _completion(states, values())
    if belief:
        return BeliefModel(states, pi=measure, **val)
    return UncertaintyModel(states, mu=measure, **val)
