"""Exact evaluation over the bi-Goedel algebra and its twist product.

Values are :class:`fractions.Fraction`: every law the package tests is an
exact order statement, so floats are never used.  Twist values are pairs
(truth, falsity) ordered by ``(x, y) <= (x', y')`` iff ``x <= x'`` and
``y >= y'``.  Every twist clause depends only on the order of its
arguments, so every outer language is computed by one compiler,
:func:`compile_twist`: :func:`eval_g2` and :func:`eval_big` run it on
Fractions with top 1, and the twist decisions on integer ranks of a finite
chain.  Each of its clauses also states which atom coordinates the truth
and the falsity of its value read; the outer-step search
(:mod:`qublogic.decide`) prunes on those reads, so value and reads come
from one pass and cannot disagree.  The outer layers of
two-layered models go through it too (:mod:`qublogic.measures`): a QG
formula compiles with its B-atoms as atoms, and on pairs ``(x, 0)`` the
truth coordinate of each clause is the biG value, biG ``delta`` being the
truth-only clause of ``deltaN``.  Frame searches run it on the integer
ranks of a measure's values, and the biG decision on the grid's Fractions.

Sugar connectives are evaluated directly from their value tables rather
than by expanding them, which keeps the reserved expansion variable out of
valuations.  The tables equal the expansions of
:func:`qublogic.syntax.desugar` on both coordinates, in both variants.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Sequence

from . import bd
from .syntax import OUTER, RESERVED_VAR, Formula, memo, print_formula

ZERO = Fraction(0)
ONE = Fraction(1)


def unit(value) -> Fraction:
    """Coerce to an exact rational in [0, 1]."""
    q = value if isinstance(value, Fraction) else Fraction(value)
    # the denominator is positive, so this is exactly 0 <= q <= 1
    if not 0 <= q.numerator <= q.denominator:
        raise ValueError(f"value {q} outside [0, 1]")
    return q


def parse_fraction(value) -> Fraction:
    """An exact rational read from JSON: a string or a number, else a
    ValueError."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float, Fraction)):
        raise ValueError(f"expected a number, not {value!r}")
    return Fraction(value)


class TwistValue(NamedTuple):
    truth: Fraction
    falsity: Fraction


TV_TOP = TwistValue(ONE, ZERO)
TV_BOT = TwistValue(ZERO, ONE)


def parse_twist(pair) -> TwistValue:
    a, b = bd._checked(pair, list, "a twist value")
    a, b = parse_fraction(a), parse_fraction(b)
    return TwistValue(unit(a), unit(b))


def format_twist(v: TwistValue) -> list[str]:
    return [str(v.truth), str(v.falsity)]


def twist_le(a: TwistValue, b: TwistValue) -> bool:
    return a.truth <= b.truth and a.falsity >= b.falsity


# ---------------------------------------------------------------------------
# biG / outer-QG evaluation
# ---------------------------------------------------------------------------

class UnboundVariableError(KeyError):
    pass


def _key(f: Formula) -> str:
    """The valuation key of an atom: a variable's name or a modal atom's text."""
    return f.var if f.kind == "var" else print_formula(f)


def _lookup(e: Mapping[str, object], key: str, default=None):
    try:
        return e[key]
    except KeyError:
        if key == RESERVED_VAR and default is not None:
            # the variable reserved for sugar expansion defaults to the
            # bottom value, keeping desugared formulas evaluable
            return default
        raise UnboundVariableError(f"no value for atom {key!r}") from None


def eval_big(f: Formula, e: Mapping[str, Fraction]) -> Fraction:
    """Evaluate a biG formula, or a QG formula with its B-atoms as atoms,
    each keyed by its printed form.

    The value is the truth coordinate of the formula compiled at top 1
    (:func:`compile_twist`) on the pairs (value, 0).  As in :func:`eval_g2`,
    the atom keys and the compiled function are kept on the node, every
    value read is range-checked, and the first atom from the left without
    one is the one reported."""
    if OUTER.get(f.lang) != "BIG":
        raise ValueError(f"formula language {f.lang} has no biG value")
    keys, ev = memo(f, "algebra._plan", lambda: _plan(f))
    return ev([(unit(_lookup(e, key, ZERO)), ZERO) for key in keys])[0]


# ---------------------------------------------------------------------------
# Twist-product evaluation (both G2 variants, outer MCB/NMCB)
# ---------------------------------------------------------------------------

def eval_g2(f: Formula, e: Mapping[str, TwistValue], variant: str | None = None) -> TwistValue:
    """Evaluate over [0,1]^twist by the clauses of the formula's language;
    a ``variant`` of the other family (G2ORD and MCB, G2NEL and NMCB) is refused.

    The formula's atom keys, left to right, and its compiled function are
    kept on its node (:func:`qublogic.syntax.memo`, as :func:`eval_big` does),
    so a formula evaluated again is neither compiled nor printed again.  The
    valuation is read on every call: each atom's value is range-checked, and
    the first atom from the left without one is the one reported."""
    lang = variant or f.lang
    if OUTER.get(lang) not in ("G2ORD", "G2NEL"):
        raise ValueError(f"{lang} is not a twist-product language")
    if OUTER.get(f.lang) != OUTER[lang]:
        raise ValueError(f"a {f.lang} formula has no {lang} value")
    keys, ev = memo(f, "algebra._plan", lambda: _plan(f))
    values = []
    for key in keys:
        v = _lookup(e, key, (ZERO, ZERO))
        values.append((unit(v[0]), unit(v[1])))
    return TwistValue(*ev(values))


def _plan(f: Formula) -> tuple[tuple[str, ...], Callable]:
    """The atom keys of a formula, left to right, and the formula compiled
    at top 1 over them in that order."""
    keys = tuple(dict.fromkeys(map(_key, _atoms(f))))
    return keys, compile_twist(f, {key: i for i, key in enumerate(keys)}, ONE)[0]


def _atoms(f: Formula) -> list[Formula]:
    """The variables and modal atoms of an outer formula, left to right."""
    if f.kind == "var" or f.kind == "cmod" or f.kind == "bmod":
        return [f]
    return [a for c in f.children for a in _atoms(c)]


# ---------------------------------------------------------------------------
# Twist-product evaluation on integer ranks
# ---------------------------------------------------------------------------

RankPair = tuple[int, int]


def compile_twist(f: Formula, slots: Mapping[str | Formula, int], top: int) \
        -> tuple[Callable[[Sequence[RankPair]], RankPair], int, int]:
    """Compile a twist or QG formula to a function of (truth, falsity) pairs,
    with the atom coordinates that the truth and the falsity of its value
    read, by the clauses of its language's outer variant.

    The function takes a sequence of (truth, falsity) pairs on the chain
    from the zero of ``top``'s type to ``top``, indexed by the atoms' slots,
    and returns the formula's value as such a pair.  Every clause depends
    only on the order of its arguments and on the endpoints, so the same
    function evaluates integer ranks 0..``top`` and, with ``top`` the
    Fraction 1, values in [0, 1] (:func:`eval_g2`); dividing the ranks'
    result by ``top`` gives the value on the ranks divided by ``top``.  A QG
    formula's value is the truth coordinate; it reads only truth
    coordinates.  ``slots`` maps each atom, or its key (a variable's name, a
    modal atom's printed form), to its index.  Atoms are resolved once, here;
    an atom without a slot raises :class:`UnboundVariableError`.

    The reads are bitmasks over the coordinates, bit ``2 * slot`` an atom's
    truth and bit ``2 * slot + 1`` its falsity, and each clause states them
    next to its value: a coordinate not read leaves that side of the value
    as it is.  A search that gives the coordinates values one at a time may
    read one side of the value as soon as the coordinates it reads have
    values.
    """
    kind = f.kind
    if kind == "var" or kind == "cmod" or kind == "bmod":
        slot = _slot(f, slots)
        return itemgetter(slot), 1 << 2 * slot, 2 << 2 * slot
    bot = ZERO if type(top) is Fraction else 0  # Fractions in give Fractions out
    if kind == "top" or kind == "bot":
        tv = (top, bot) if kind == "top" else (bot, top)
        return (lambda v: tv), 0, 0
    nelson = OUTER.get(f.lang) == "G2NEL"
    if kind in ("dneg", "snot", "delta", "delta1", "deltabang", "deltan"):
        a, t, fl = compile_twist(f.children[0], slots, top)
        if kind == "dneg":
            def ev(v):
                x, y = a(v)
                return y, x
            return ev, fl, t
        if kind == "snot" and nelson:
            def ev(v):
                x = a(v)[0]
                return (top if x == bot else bot), x
            return ev, t, t
        if kind == "snot":
            def ev(v):
                x, y = a(v)
                return (top if x == bot else bot), (top if y < top else bot)
            return ev, t, fl
        tv_top, tv_bot = (top, bot), (bot, top)
        if kind == "deltan" or kind == "delta":
            def ev(v):
                return tv_top if a(v)[0] == top else tv_bot
            return ev, t, t
        def ev(v):
            return tv_top if a(v) == tv_top else tv_bot
        return ev, t | fl, t | fl
    left, right = f.children
    a, ta, fa = compile_twist(left, slots, top)
    b, tb, fb = compile_twist(right, slots, top)
    if kind == "and":
        def ev(v):
            x, y = a(v)
            x2, y2 = b(v)
            return (x if x < x2 else x2), (y if y > y2 else y2)
    elif kind == "or":
        def ev(v):
            x, y = a(v)
            x2, y2 = b(v)
            return (x if x > x2 else x2), (y if y < y2 else y2)
    elif kind == "gimp":
        def ev(v):
            x, y = a(v)
            x2, y2 = b(v)
            return (top if x <= x2 else x2), (bot if y2 <= y else y2)
    elif kind == "gcoimp":
        def ev(v):
            x, y = a(v)
            x2, y2 = b(v)
            return (bot if x <= x2 else x), (top if y2 <= y else y)
    # a Nelson implication's falsity compares the antecedent's truth with
    # the consequent's falsity; a co-implication's, the other way round
    elif kind == "nimp":
        def ev(v):
            x, _ = a(v)
            x2, y2 = b(v)
            return (top if x <= x2 else x2), (x if x < y2 else y2)
        return ev, ta | tb, ta | fb
    elif kind == "ncoimp":
        def ev(v):
            x, y = a(v)
            x2, _ = b(v)
            return (bot if x <= x2 else x), (y if y > x2 else x2)
        return ev, ta | tb, fa | tb
    elif kind == "iff":
        def ev(v):
            p, q = a(v), b(v)
            return _conj(_imp(p, q, top, bot, nelson), _imp(q, p, top, bot, nelson))
        if nelson:
            return ev, ta | tb, ta | tb | fa | fb
    elif kind == "simp" or kind == "siff":
        both = kind == "siff"

        def ev(v):
            p, q = a(v), b(v)
            np_, nq = (p[1], p[0]), (q[1], q[0])
            out = _conj(_imp(p, q, top, bot, nelson), _imp(nq, np_, top, bot, nelson))
            return _conj(out, _conj(_imp(q, p, top, bot, nelson), _imp(np_, nq, top, bot, nelson))) \
                if both else out
        return ev, ta | tb | fa | fb, ta | tb | fa | fb
    else:
        raise ValueError(f"cannot evaluate kind {kind!r} over the twist product")
    # the rest read truths for the truth and falsities for the falsity
    return ev, ta | tb, fa | fb


def _imp(a: RankPair, b: RankPair, top, bot, nelson: bool) -> RankPair:
    t = top if a[0] <= b[0] else b[0]
    if nelson:
        return t, (a[0] if a[0] < b[1] else b[1])
    return t, (bot if b[1] <= a[1] else b[1])


def _conj(a: RankPair, b: RankPair) -> RankPair:
    return (a[0] if a[0] < b[0] else b[0]), (a[1] if a[1] > b[1] else b[1])


def _slot(atom: Formula, slots: Mapping[str | Formula, int]) -> int:
    slot = slots.get(atom)
    if slot is None:
        slot = slots.get(_key(atom))
        if slot is None:
            raise UnboundVariableError(f"no slot for atom {_key(atom)!r}")
    return slot


# ---------------------------------------------------------------------------
# Valuation (de)serialization
# ---------------------------------------------------------------------------

def valuation_from_json(obj: Mapping[str, str]) -> dict[str, Fraction]:
    return {k: unit(parse_fraction(v)) for k, v in bd._checked(obj, dict, "a valuation").items()}


def twist_valuation_from_json(obj: Mapping[str, list]) -> dict[str, TwistValue]:
    return {k: parse_twist(v) for k, v in bd._checked(obj, dict, "a valuation").items()}


def twist_valuation_to_json(e: Mapping[str, TwistValue]) -> dict[str, list[str]]:
    return {k: format_twist(v) for k, v in e.items()}
