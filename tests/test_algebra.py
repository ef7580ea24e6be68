from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qublogic.algebra import (ONE, ZERO, TV_BOT, TV_TOP, TwistValue, eval_big, eval_g2,
                              twist_le, unit, UnboundVariableError)
from qublogic.syntax import mk, parse, var

unit_fracs = st.fractions(min_value=0, max_value=1, max_denominator=12)


def test_godel_operation_examples():
    imp, coimp = parse("BIG", "p -> q"), parse("BIG", "p -< q")
    assert eval_big(imp, {"p": F(7, 10), "q": F(3, 10)}) == F(3, 10)
    assert eval_big(imp, {"p": F(3, 10), "q": F(7, 10)}) == ONE
    assert eval_big(coimp, {"p": ONE, "q": ONE}) == ZERO


def test_unit_bounds_enforced():
    with pytest.raises(ValueError):
        unit(F(3, 2))
    with pytest.raises(ValueError):
        unit(F(-1, 2))


@pytest.mark.parametrize("lang, key", [("BIG", "p"), ("QG", "B(p)")])
def test_eval_big_range_checks_atom_values(lang, key):
    f = parse(lang, key)
    for bad in (F(3, 2), F(-1, 2), 2, "-1/3"):
        with pytest.raises(ValueError):
            eval_big(f, {key: bad})
    assert eval_big(f, {key: 1}) == ONE
    assert eval_big(f, {key: "1/3"}) == F(1, 3)


@pytest.mark.parametrize("lang, key", [("G2ORD", "p"), ("MCB", "C(p)"), ("NMCB", "C(p)")])
def test_eval_g2_range_checks_atom_values(lang, key):
    f = parse(lang, key)
    for bad in ((F(3, 2), ZERO), (ZERO, F(-1, 2)), (0, "2")):
        with pytest.raises(ValueError):
            eval_g2(f, {key: bad})
    assert eval_g2(f, {key: (1, "1/3")}) == TwistValue(ONE, F(1, 3))


def test_eval_g2_refuses_a_variant_of_the_other_family():
    """A formula is evaluated with its own family's clauses: the G2ORD
    strong negation of p = (1/2, 1/3) is (0, 1), while G2NEL's clause would
    give (0, 1/2)."""
    e = {"p": TwistValue(F(1, 2), F(1, 3)), "C(p)": TwistValue(F(1, 2), F(1, 3))}
    for lang, key, same, other in (("G2ORD", "p", "MCB", "G2NEL"), ("MCB", "C(p)", "G2ORD", "NMCB"),
                                   ("G2NEL", "p", "NMCB", "G2ORD"), ("NMCB", "C(p)", "G2NEL", "MCB")):
        f = parse(lang, f"snot {key}")
        assert eval_g2(f, e, same) == eval_g2(f, e)
        with pytest.raises(ValueError, match=f"^a {lang} formula has no {other} value$"):
            eval_g2(f, e, other)
    assert eval_g2(parse("G2ORD", "snot p"), e) == TwistValue(ZERO, ONE)
    assert eval_g2(parse("G2NEL", "snot p"), e) == TwistValue(ZERO, F(1, 2))


def test_residuation_exhaustive_denominator_six():
    grid = [F(i, 6) for i in range(7)]
    meet, imp, coimp, join = (parse("BIG", t) for t in ("p & q", "q -> r", "p -< q", "q | r"))
    for a in grid:
        for b in grid:
            for c in grid:
                e = {"p": a, "q": b, "r": c}
                assert (eval_big(meet, e) <= c) == (a <= eval_big(imp, e))
                assert (eval_big(coimp, e) <= c) == (a <= eval_big(join, e))


def test_eval_big_remark_value():
    e = {"B(p)": F(7, 10), "B(q)": F(6, 10), "B(r)": F(5, 10), "B(s)": F(4, 10)}
    f = parse("QG", "(B(p) -> B(q)) -> (B(r) -> B(s))")
    assert eval_big(f, e) == F(2, 5)


@given(a=unit_fracs, b=unit_fracs)
def test_eval_big_prelinearity(a, b):
    f = parse("BIG", "(p -> q) | (q -> p)")
    assert eval_big(f, {"p": a, "q": b}) == ONE


def test_eval_big_delta_and_snot_tables():
    d = parse("BIG", "delta p")
    s = parse("BIG", "snot p")
    assert eval_big(d, {"p": ONE}) == ONE
    assert eval_big(d, {"p": F(9, 10)}) == ZERO
    assert eval_big(s, {"p": ZERO}) == ONE
    assert eval_big(s, {"p": F(1, 10)}) == ZERO


def test_eval_big_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_big(parse("BIG", "p"), {})


@pytest.mark.parametrize("lang, text", [("G2ORD", "p & q"), ("MCB", "C(p)"), ("CPL", "p")])
def test_eval_big_refuses_other_languages(lang, text):
    with pytest.raises(ValueError, match=f"^formula language {lang} has no biG value$"):
        eval_big(parse(lang, text), {"p": ONE, "q": ONE, "C(p)": ONE})


@given(a=unit_fracs, b=unit_fracs)
def test_order_determinacy(a, b):
    e = {"p": a, "q": b}
    for text in ("p -> q", "p -< q", "(p & q) | (q -> p)", "delta p | snot q"):
        v = eval_big(parse("BIG", text), e)
        assert v in {ZERO, ONE, a, b}


def test_eval_g2_examples():
    e = {"p": TwistValue(F(1, 2), F(1, 4))}
    assert eval_g2(parse("G2ORD", "neg neg p"), e) == TwistValue(F(1, 2), F(1, 4))
    e11 = {"p": TwistValue(ONE, ONE)}
    assert eval_g2(parse("G2NEL", "p ~> p"), e11) == TwistValue(ONE, ONE)
    d1 = parse("G2ORD", "delta1 p")
    assert eval_g2(d1, {"p": TV_TOP}) == TV_TOP
    assert eval_g2(d1, {"p": TwistValue(ONE, F(1, 2))}) == TV_BOT


def test_twist_order():
    assert twist_le(TV_BOT, TV_TOP)
    assert not twist_le(TwistValue(ZERO, ZERO), TwistValue(F(1, 2), F(1, 2)))
    assert not twist_le(TwistValue(F(1, 2), F(1, 2)), TwistValue(ZERO, ZERO))


twists = st.tuples(unit_fracs, unit_fracs).map(lambda t: TwistValue(*t))


@given(p=twists, q=twists)
@settings(max_examples=200)
def test_self_duality_of_order_variant(p, q):
    e = {"p": p, "q": q}
    for text in ("p -> q", "p -< q", "p & q", "p | q", "neg p"):
        f = parse("G2ORD", text)
        v = eval_g2(f, e)
        vn = eval_g2(mk("G2ORD", "dneg", f), e)
        assert v.truth == vn.falsity and v.falsity == vn.truth


@given(p=twists, q=twists)
@settings(max_examples=200)
def test_de_morgan_soundness_order_variant(p, q):
    e = {"p": p, "q": q}
    pairs = [("neg (p & q)", "neg p | neg q"),
             ("neg (p | q)", "neg p & neg q"),
             ("neg (p -> q)", "neg q -< neg p"),
             ("neg (p -< q)", "neg q -> neg p")]
    for left, right in pairs:
        assert eval_g2(parse("G2ORD", left), e) == eval_g2(parse("G2ORD", right), e)


@given(p=twists, q=twists)
@settings(max_examples=200)
def test_de_morgan_soundness_nelson_variant(p, q):
    # the Nelson De Morgan axioms are stated with the weak biconditional,
    # which pins the truth coordinate only
    e = {"p": p, "q": q}
    pairs = [("neg (p ~> q)", "p & neg q"),
             ("neg (p o- q)", "neg p | q")]
    for left, right in pairs:
        assert eval_g2(parse("G2NEL", left), e).truth == eval_g2(parse("G2NEL", right), e).truth


@given(p=twists)
@settings(max_examples=100)
def test_two_valued_outputs(p):
    e = {"p": p}
    assert eval_big(parse("BIG", "delta p"), {"p": p.truth}) in (ZERO, ONE)
    assert eval_big(parse("BIG", "snot p"), {"p": p.truth}) in (ZERO, ONE)
    assert eval_g2(parse("G2ORD", "delta1 p"), e) in (TV_TOP, TV_BOT)
    assert eval_g2(parse("G2NEL", "deltaBangN p"), e) in (TV_TOP, TV_BOT)


@given(p=twists, q=twists)
@settings(max_examples=150)
def test_sugar_matches_expansion(p, q):
    """Sugar tables agree with their expansions on both coordinates, in
    both variants and under the De Morgan negation."""
    from qublogic.syntax import desugar

    e = {"p": p, "q": q}
    for lang, texts in (("G2ORD", ("snot p", "Top", "Bot", "delta1 (p -> q)", "p <-> q")),
                        ("G2NEL", ("snot p", "Top", "Bot", "deltaN (p ~> q)", "deltaBangN p",
                                   "p ==> q", "p <==> q", "p <-> q"))):
        for text in texts:
            for f in (parse(lang, text), parse(lang, f"neg ({text})")):
                assert eval_g2(f, e) == eval_g2(desugar(f), e), (lang, text)


def test_nelson_strong_arrow_convention():
    # e1(a ==> b) = 1 iff e1(a) <= e1(b) and e2(a) >= e2(b)
    f = parse("NMCB", "C(p) ==> C(q)")
    e = {"C(p)": TwistValue(F(1, 2), F(1, 2)), "C(q)": TwistValue(F(3, 4), F(1, 4))}
    assert eval_g2(f, e, "NMCB").truth == ONE
    e2 = {"C(p)": TwistValue(F(1, 2), F(1, 4)), "C(q)": TwistValue(F(3, 4), F(1, 2))}
    assert eval_g2(f, e2, "NMCB").truth < ONE
