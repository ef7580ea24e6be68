"""Exact evaluation over the bi-Goedel algebra and its twist product.

Values are :class:`fractions.Fraction`: every law the package tests is an
exact order statement, so floats are never used.  Twist values are pairs
(truth, falsity) ordered by ``(x, y) <= (x', y')`` iff ``x <= x'`` and
``y >= y'``.  Since every twist clause depends only on the order of its
arguments, :func:`compile_twist` also evaluates twist formulas on integer
ranks of a finite chain; the twist decision uses it, while biG evaluation
(:func:`eval_big`) stays on Fractions.

Sugar connectives are evaluated directly from their value tables rather
than by expanding them, which keeps the reserved expansion variable out of
valuations.  For the Nelson-style sugar only the truth coordinate is pinned
by those tables; the falsity coordinate uses the definable (1,0)/(0,1)
constants.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Sequence

from .syntax import RESERVED_VAR, Formula, print_formula

ZERO = Fraction(0)
ONE = Fraction(1)


def unit(value) -> Fraction:
    """Coerce to an exact rational in [0, 1]."""
    q = value if isinstance(value, Fraction) else Fraction(value)
    # the denominator is positive, so this is exactly 0 <= q <= 1
    if not 0 <= q.numerator <= q.denominator:
        raise ValueError(f"value {q} outside [0, 1]")
    return q


def parse_unit(text: str) -> Fraction:
    return unit(Fraction(text))


class TwistValue(NamedTuple):
    truth: Fraction
    falsity: Fraction


TV_TOP = TwistValue(ONE, ZERO)
TV_BOT = TwistValue(ZERO, ONE)


def twist(truth, falsity) -> TwistValue:
    return TwistValue(unit(truth), unit(falsity))


def parse_twist(pair) -> TwistValue:
    a, b = pair
    return twist(Fraction(a), Fraction(b))


def format_twist(v: TwistValue) -> list[str]:
    return [str(v.truth), str(v.falsity)]


def twist_le(a: TwistValue, b: TwistValue) -> bool:
    return a.truth <= b.truth and a.falsity >= b.falsity


# ---------------------------------------------------------------------------
# Goedel operations
# ---------------------------------------------------------------------------

def godel_impl(a: Fraction, b: Fraction) -> Fraction:
    return ONE if a <= b else b


def godel_coimpl(b: Fraction, a: Fraction) -> Fraction:
    """Co-implication ``b -< a``: 0 if b <= a, else b."""
    return ZERO if b <= a else b


def meet(a: Fraction, b: Fraction) -> Fraction:
    return min(a, b)


def join(a: Fraction, b: Fraction) -> Fraction:
    return max(a, b)


# ---------------------------------------------------------------------------
# biG / outer-QG evaluation
# ---------------------------------------------------------------------------

class UnboundVariableError(KeyError):
    pass


def _lookup(e: Mapping[str, object], f: Formula, default=None):
    key = f.var if f.kind == "var" else print_formula(f)
    try:
        return e[key]
    except KeyError:
        if key == RESERVED_VAR and default is not None:
            # the variable reserved for sugar expansion defaults to the
            # bottom value, keeping desugared formulas evaluable
            return default
        raise UnboundVariableError(f"no value for atom {key!r}") from None


def eval_big(f: Formula, e: Mapping[str, Fraction]) -> Fraction:
    """Evaluate a biG formula (or a QG formula with B-atoms as atoms)."""
    kind = f.kind
    if kind == "var" or kind == "bmod":
        return unit(_lookup(e, f, ZERO))
    if kind == "top":
        return ONE
    if kind == "bot":
        return ZERO
    if kind == "snot":
        return ONE if eval_big(f.children[0], e) == ZERO else ZERO
    if kind == "delta":
        return ONE if eval_big(f.children[0], e) == ONE else ZERO
    if kind == "and":
        return meet(eval_big(f.children[0], e), eval_big(f.children[1], e))
    if kind == "or":
        return join(eval_big(f.children[0], e), eval_big(f.children[1], e))
    if kind == "gimp":
        return godel_impl(eval_big(f.children[0], e), eval_big(f.children[1], e))
    if kind == "gcoimp":
        return godel_coimpl(eval_big(f.children[0], e), eval_big(f.children[1], e))
    if kind == "iff":
        a, b = (eval_big(c, e) for c in f.children)
        return meet(godel_impl(a, b), godel_impl(b, a))
    raise ValueError(f"cannot evaluate kind {kind!r} as biG")


# ---------------------------------------------------------------------------
# Twist-product evaluation (both G2 variants, outer MCB/NMCB)
# ---------------------------------------------------------------------------

_ORD_LANGS = {"G2ORD", "MCB"}
_NEL_LANGS = {"G2NEL", "NMCB"}


def eval_g2(f: Formula, e: Mapping[str, TwistValue], variant: str | None = None) -> TwistValue:
    """Evaluate over [0,1]^twist.  ``variant`` defaults to the formula tag."""
    lang = variant or f.lang
    if lang not in _ORD_LANGS | _NEL_LANGS:
        raise ValueError(f"{lang} is not a twist-product language")
    if f.lang not in _ORD_LANGS | _NEL_LANGS:
        raise ValueError(f"formula language {f.lang} has no twist semantics")
    nelson = lang in _NEL_LANGS
    return _ev2(f, e, nelson)


def _ev2(f: Formula, e: Mapping[str, TwistValue], nelson: bool) -> TwistValue:
    kind = f.kind
    if kind == "var" or kind == "cmod":
        v = _lookup(e, f, (ZERO, ZERO))
        return TwistValue(unit(v[0]), unit(v[1]))
    if kind == "top":
        return TV_TOP
    if kind == "bot":
        return TV_BOT
    if kind == "dneg":
        a = _ev2(f.children[0], e, nelson)
        return TwistValue(a.falsity, a.truth)
    if kind == "and":
        a, b = (_ev2(c, e, nelson) for c in f.children)
        return TwistValue(meet(a.truth, b.truth), join(a.falsity, b.falsity))
    if kind == "or":
        a, b = (_ev2(c, e, nelson) for c in f.children)
        return TwistValue(join(a.truth, b.truth), meet(a.falsity, b.falsity))
    if kind == "gimp":
        a, b = (_ev2(c, e, nelson) for c in f.children)
        return TwistValue(godel_impl(a.truth, b.truth), godel_coimpl(b.falsity, a.falsity))
    if kind == "gcoimp":
        a, b = (_ev2(c, e, nelson) for c in f.children)
        return TwistValue(godel_coimpl(a.truth, b.truth), godel_impl(b.falsity, a.falsity))
    if kind == "nimp":
        # falsity clause: antecedent true and consequent false
        a, b = (_ev2(c, e, nelson) for c in f.children)
        return TwistValue(godel_impl(a.truth, b.truth), meet(a.truth, b.falsity))
    if kind == "ncoimp":
        a, b = (_ev2(c, e, nelson) for c in f.children)
        return TwistValue(godel_coimpl(a.truth, b.truth), join(a.falsity, b.truth))
    if kind == "snot":
        a = _ev2(f.children[0], e, nelson)
        t = ONE if a.truth == ZERO else ZERO
        if nelson:
            return TwistValue(t, a.truth)
        return TwistValue(t, ONE if a.falsity < ONE else ZERO)
    if kind == "delta1" or kind == "deltabang":
        a = _ev2(f.children[0], e, nelson)
        return TV_TOP if a == TV_TOP else TV_BOT
    if kind == "deltan":
        a = _ev2(f.children[0], e, nelson)
        return TV_TOP if a.truth == ONE else TV_BOT
    if kind in ("iff", "simp", "siff"):
        a, b = (_ev2(c, e, nelson) for c in f.children)
        imp = "nimp" if nelson else "gimp"
        fwd = _apply2(imp, a, b)
        bwd = _apply2(imp, b, a)
        if kind == "iff":
            return _apply2("and", fwd, bwd)
        fwd_n = _apply2(imp, TwistValue(b.falsity, b.truth), TwistValue(a.falsity, a.truth))
        s1 = _apply2("and", fwd, fwd_n)
        if kind == "simp":
            return s1
        bwd_n = _apply2(imp, TwistValue(a.falsity, a.truth), TwistValue(b.falsity, b.truth))
        s2 = _apply2("and", bwd, bwd_n)
        return _apply2("and", s1, s2)
    raise ValueError(f"cannot evaluate kind {kind!r} over the twist product")


def _apply2(kind: str, a: TwistValue, b: TwistValue) -> TwistValue:
    if kind == "and":
        return TwistValue(meet(a.truth, b.truth), join(a.falsity, b.falsity))
    if kind == "gimp":
        return TwistValue(godel_impl(a.truth, b.truth), godel_coimpl(b.falsity, a.falsity))
    if kind == "nimp":
        return TwistValue(godel_impl(a.truth, b.truth), meet(a.truth, b.falsity))
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Twist-product evaluation on integer ranks
# ---------------------------------------------------------------------------

RankPair = tuple[int, int]


def compile_twist(f: Formula, slots: Mapping[str, int], top: int,
                  nelson: bool) -> Callable[[Sequence[RankPair]], RankPair]:
    """Compile a twist formula to a function of integer rank pairs.

    The function takes a sequence of (truth, falsity) ranks on the chain
    0 < 1 < ... < ``top``, indexed by ``slots[key]`` for each atom key, and
    returns the formula's value as such a pair.  Every clause of
    :func:`eval_g2` depends only on the order of its arguments and on the
    endpoints, so dividing the result by ``top`` gives exactly what
    ``eval_g2`` returns on the valuation of the ranks divided by ``top``.
    Atom keys are resolved once, here; an atom without a slot raises
    :class:`UnboundVariableError`.
    """
    tv_top = (top, 0)
    tv_bot = (0, top)

    def imp(a: RankPair, b: RankPair) -> RankPair:
        t = top if a[0] <= b[0] else b[0]
        if nelson:
            return t, (a[0] if a[0] < b[1] else b[1])
        return t, (0 if b[1] <= a[1] else b[1])

    def conj(a: RankPair, b: RankPair) -> RankPair:
        return (a[0] if a[0] < b[0] else b[0]), (a[1] if a[1] > b[1] else b[1])

    def comp(f: Formula) -> Callable[[Sequence[RankPair]], RankPair]:
        kind = f.kind
        if kind == "var" or kind == "cmod":
            key = f.var if kind == "var" else print_formula(f)
            if key not in slots:
                raise UnboundVariableError(f"no slot for atom {key!r}")
            return itemgetter(slots[key])
        if kind == "top":
            return lambda v: tv_top
        if kind == "bot":
            return lambda v: tv_bot
        if kind in ("dneg", "snot", "delta1", "deltabang", "deltan"):
            a = comp(f.children[0])
            if kind == "dneg":
                def ev(v):
                    x, y = a(v)
                    return y, x
            elif kind == "snot" and nelson:
                def ev(v):
                    x = a(v)[0]
                    return (top if x == 0 else 0), x
            elif kind == "snot":
                def ev(v):
                    x, y = a(v)
                    return (top if x == 0 else 0), (top if y < top else 0)
            elif kind == "deltan":
                def ev(v):
                    return tv_top if a(v)[0] == top else tv_bot
            else:
                def ev(v):
                    return tv_top if a(v) == tv_top else tv_bot
            return ev
        a, b = (comp(c) for c in f.children)
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
                return (top if x <= x2 else x2), (0 if y2 <= y else y2)
        elif kind == "gcoimp":
            def ev(v):
                x, y = a(v)
                x2, y2 = b(v)
                return (0 if x <= x2 else x), (top if y2 <= y else y)
        elif kind == "nimp":
            def ev(v):
                x, _ = a(v)
                x2, y2 = b(v)
                return (top if x <= x2 else x2), (x if x < y2 else y2)
        elif kind == "ncoimp":
            def ev(v):
                x, y = a(v)
                x2, _ = b(v)
                return (0 if x <= x2 else x), (y if y > x2 else x2)
        elif kind == "iff":
            def ev(v):
                p, q = a(v), b(v)
                return conj(imp(p, q), imp(q, p))
        elif kind == "simp" or kind == "siff":
            both = kind == "siff"

            def ev(v):
                p, q = a(v), b(v)
                np_, nq = (p[1], p[0]), (q[1], q[0])
                out = conj(imp(p, q), imp(nq, np_))
                return conj(out, conj(imp(q, p), imp(np_, nq))) if both else out
        else:
            raise ValueError(f"cannot evaluate kind {kind!r} over the twist product")
        return ev

    return comp(f)


# ---------------------------------------------------------------------------
# Valuation (de)serialization
# ---------------------------------------------------------------------------

def valuation_from_json(obj: Mapping[str, str]) -> dict[str, Fraction]:
    return {k: parse_unit(v) for k, v in obj.items()}


def twist_valuation_from_json(obj: Mapping[str, list]) -> dict[str, TwistValue]:
    return {k: parse_twist(v) for k, v in obj.items()}


def twist_valuation_to_json(e: Mapping[str, TwistValue]) -> dict[str, list[str]]:
    return {k: format_twist(v) for k, v in e.items()}
