"""Data derived from a formula alone is kept on its node (``syntax.memo``):
each formula compiles once per key, warm results equal cold ones, errors
are never kept, and a node's memo changes none of its value semantics."""

import copy
import dataclasses
import pickle
import random
import re
from fractions import Fraction as F
from itertools import product

import pytest

from qublogic import algebra, decide, measures, qp, syntax
from qublogic.algebra import ONE, TwistValue, UnboundVariableError, eval_big, eval_g2
from qublogic.measures import (BeliefModel, UncertaintyModel, eval_layer, eval_qg,
                               frame_validates)
from qublogic.syntax import mk, parse, print_formula

import oracles
from helpers import gen_g2, gen_sifs

THIRDS = [F(i, 3) for i in range(4)]


@pytest.fixture
def compiles(monkeypatch):
    """The formulas ``compile_twist`` was called on at the top of a
    compilation, each with its top's type; the compiler's own recursion
    into children is left out."""
    calls = []
    real = algebra.compile_twist
    depth = [0]

    def counting(f, slots, top):
        if depth[0] == 0:
            calls.append((f, type(top)))
        depth[0] += 1
        try:
            return real(f, slots, top)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(algebra, "compile_twist", counting)
    monkeypatch.setattr(measures, "compile_twist", counting)
    return calls


def _fresh(f):
    """An equal node with an empty memo: a copy is rebuilt through its
    fields."""
    return copy.copy(f)


def test_eval_g2_compiles_once_per_formula_and_variant_family(compiles):
    for lang, other in (("G2ORD", "MCB"), ("G2NEL", "NMCB")):
        nelson = lang == "G2NEL"
        f = _fresh(parse(lang, "neg (p -> q) | snot (q & neg p)" if lang == "G2ORD"
                         else "neg (p ~> q) | snot (q & neg p)"))
        compiles.clear()
        for coords in product(THIRDS, repeat=4):
            e = {"p": TwistValue(*coords[:2]), "q": TwistValue(*coords[2:])}
            value = eval_g2(f, e)
            assert value == oracles.chain_eval_g2(f, e, ONE, nelson), coords
            # a variant of the same family is the same key
            assert eval_g2(f, e, other) == value
        assert compiles == [(f, F)]


def test_eval_big_compiles_once_per_formula(compiles):
    for lang, text in (("BIG", "snot (p -> q) | delta (q -< p) & (p <-> q)"),
                       ("QG", "snot (B(p) -> B(q)) | delta (B(q) -< B(p))")):
        f = _fresh(parse(lang, text))
        keys = ["p", "q"] if lang == "BIG" else ["B(p)", "B(q)"]
        compiles.clear()
        for a, b in product(THIRDS, repeat=2):
            e = dict(zip(keys, (a, b)))
            assert eval_big(f, e) == oracles.chain_eval_big(f, e, ONE), (a, b)
        assert compiles == [(f, F)]


def test_grid_decisions_compile_once_per_formula_and_slot_order(compiles):
    """A formula decided again over the same sorted atoms is not compiled
    again; over other atoms, or at another top, it is."""
    f, g = _fresh(parse("BIG", "q -> p")), _fresh(parse("BIG", "q"))
    r = parse("BIG", "r")
    compiles.clear()
    for _ in range(2):
        assert not decide.big_entails([g], f).holds
    assert compiles == [(f, F), (g, F)]
    assert not decide.big_entails([g, r], f).holds
    assert compiles[2:] == [(f, F), (g, F), (r, F)]
    compiles.clear()
    h, k = _fresh(parse("G2NEL", "q ~> p")), _fresh(parse("G2NEL", "q"))
    for _ in range(2):
        assert not decide.g2_entails("G2NEL", [k], h).holds
    assert compiles == [(h, int), (k, int)]


def test_cut_walk_compiles_each_prefix_closing_disjunct_once_per_key_order(compiles):
    """The biG walk compiles the goal's disjuncts that close a proper
    prefix of the keys, once for each key order, and none that reads the
    last key."""
    f = _fresh(parse("BIG", "(p -> q) | delta (q -> r) | (r -> s) | (s -< p)"))
    pq, qr, rs, sp = decide._parts(f, "or", "delta")
    g = _fresh(parse("BIG", "q"))
    compiles.clear()
    for _ in range(2):
        decide.big_entails([g], f)
    assert compiles == [(f, F), (g, F), (pq, F), (qr, F)]
    # the table of cuts itself is kept on the goal, for that key order
    assert decide._cuts(f, ("p", "q", "r", "s")) is decide._cuts(f, ("p", "q", "r", "s"))
    # a key sorting first moves every cut; one sorting last closes them all
    for extra, closers in (("a", [pq, qr]), ("t", [pq, qr, rs, sp])):
        compiles.clear()
        for _ in range(2):
            decide.big_entails([g, parse("BIG", extra)], f)
        assert compiles[:2] == [(f, F), (g, F)] and compiles[3:] == [(c, F) for c in closers]


def test_layer_evaluation_compiles_once_per_formula_and_layer(compiles):
    rng = random.Random(5)
    qg = _fresh(parse("QG", "snot delta(B(p & ~q) -> B(~p & q)) | B(p)"))
    mcb = _fresh(parse("MCB", "delta1 (C(p) -> C(p | q)) & neg C(q)"))
    nmcb = _fresh(parse("NMCB", "deltaN (C(p) ~> C(p | q)) & neg C(q)"))
    compiles.clear()
    for _ in range(60):
        mu = {x: rng.choice(THIRDS) for x in range(4)}
        um = UncertaintyModel(2, {"p": rng.randrange(4), "q": rng.randrange(4)}, mu)
        bm = BeliefModel(2, {"p": rng.randrange(4), "q": rng.randrange(4)},
                         {"p": rng.randrange(4), "q": rng.randrange(4)}, mu)
        assert eval_qg(um, qg) == oracles.layer_value("QG", qg, 2, {"v": um.v}, mu)
        for layer, f in (("MCB", mcb), ("NMCB", nmcb)):
            val = {"vplus": bm.vplus, "vminus": bm.vminus}
            assert eval_layer(bm, layer, f) == oracles.layer_value(layer, f, 2, val, mu)
    assert compiles == [(qg, F), (mcb, F), (nmcb, F)]


def test_frame_validation_compiles_once_over_every_frame(compiles):
    """All 52 frames of 1 and 2 states on grid 3 for one QG correspondence
    formula, and its value on a model in between: one compilation on ranks,
    one on Fractions."""
    layer, text, prop = measures.CORRESPONDENCES["cond_iii"]
    f = _fresh(parse(layer, text))
    compiles.clear()
    frames = [(states, mu) for states in (1, 2) for mu in oracles.monotone_measures(states, 3)]
    assert len(frames) == 52
    for i, (states, mu) in enumerate(frames):
        valid, _ = frame_validates(states, mu, f, layer)
        assert valid == oracles.measure_property(states, mu, prop)[0]
        if i == 10:
            eval_qg(UncertaintyModel(states, {"p": 1, "q": 0}, mu), f)
    assert compiles == [(f, int), (f, F)]


def _random_formulas(rng, lang, atoms, unary, binary, count):
    def grow(depth):
        if depth == 0 or rng.random() < 0.2:
            return rng.choice(atoms)
        if rng.random() < 0.3:
            return mk(lang, rng.choice(unary), grow(depth - 1))
        return mk(lang, rng.choice(binary), grow(depth - 1), grow(depth - 1))

    return [grow(3) for _ in range(count)]


def _layer_formulas(rng, lang, count):
    if lang == "QG":
        atoms = [mk("QG", "bmod", parse("CPL", t)) for t in ("p", "p & q", "~q", "Top")]
        return _random_formulas(rng, "QG", atoms, ("snot", "delta"),
                                ("and", "or", "gimp", "gcoimp", "iff"), count)
    atoms = [mk(lang, "cmod", parse("BD", t)) for t in ("p", "p | neg q", "q & neg q")]
    if lang == "MCB":
        return _random_formulas(rng, lang, atoms, ("dneg", "snot", "delta1"),
                                ("and", "or", "gimp", "gcoimp", "iff"), count)
    return _random_formulas(rng, lang, atoms, ("dneg", "snot", "deltan", "deltabang"),
                            ("and", "or", "nimp", "ncoimp", "simp"), count)


def test_warm_results_equal_cold_ones_and_the_oracles():
    """Generated QG, MCB, NMCB and twist formulas, shuffled together and
    evaluated across models three times over: the first pass is cold, the
    later ones warm, and every value is the oracle's."""
    rng = random.Random(25)
    jobs = [(lang, f) for lang in ("QG", "MCB", "NMCB") for f in _layer_formulas(rng, lang, 40)]
    jobs += [(lang, f) for lang in ("G2ORD", "G2NEL") for f in rng.sample(gen_g2(lang, 3), 40)]
    models = []
    for _ in range(4):
        mu = {x: rng.choice(THIRDS) for x in range(4)}
        models.append((UncertaintyModel(2, {"p": rng.randrange(4), "q": rng.randrange(4)}, mu),
                       BeliefModel(2, {"p": rng.randrange(4), "q": rng.randrange(4)},
                                   {"p": rng.randrange(4), "q": rng.randrange(4)}, mu),
                       {p: TwistValue(rng.choice(THIRDS), rng.choice(THIRDS)) for p in "pq"}))
    first = {}
    for _ in range(3):
        rng.shuffle(jobs)
        for i, (um, bm, e) in enumerate(models):
            for lang, f in jobs:
                if lang == "QG":
                    value = eval_qg(um, f)
                    want = oracles.layer_value("QG", f, 2, {"v": um.v}, um.mu)
                elif lang in ("MCB", "NMCB"):
                    value = eval_layer(bm, lang, f)
                    want = oracles.layer_value(lang, f, 2, {"vplus": bm.vplus,
                                                            "vminus": bm.vminus}, bm.pi)
                else:
                    value = eval_g2(f, e)
                    want = oracles.chain_eval_g2(f, e, ONE, lang == "G2NEL")
                assert value == want, (lang, print_formula(f))
                assert first.setdefault((i, lang, f), value) == value
    # frame validity on ranks next to the warm Fraction compilations
    for lang, f in jobs[:30]:
        if lang in ("QG", "MCB", "NMCB"):
            mu = {0: F(0), 1: F(1, 2), 2: F(1, 3), 3: ONE}
            valid, wit = frame_validates(2, mu, f, lang)
            assert wit == oracles.frame_countervaluation(lang, f, 2, mu)
            assert valid == (wit is None)


def test_sif_translation_is_kept_and_errors_are_not():
    sifs = gen_sifs()[:40]
    for s in sifs:
        t = qp.translate_sif(s)
        assert qp.translate_sif(s) is t
        assert t == qp.translate_sif(_fresh(s))
    bad = parse("QP", "p | (p <= q)")
    for _ in range(2):
        with pytest.raises(syntax.LanguageError, match="^formula is not a simple inequality "
                                                       "formula$"):
            qp.translate_sif(bad)
    with pytest.raises(syntax.LanguageError, match="^is_sif applies to QP formulas only$"):
        qp.translate_sif(parse("CPL", "p"))


def test_a_warm_node_reports_the_same_first_bad_atom():
    """The valuation is read on every call: a missing or out-of-range atom
    on a warm node gives the cold node's error, for the first bad atom from
    the left."""
    f = parse("G2ORD", "q & (p -> r) | neg p")
    good = {k: TwistValue(F(1, 2), F(1, 3)) for k in "pqr"}

    def error(g, e):
        with pytest.raises((UnboundVariableError, ValueError)) as info:
            eval_g2(g, e)
        return type(info.value), str(info.value)

    eval_g2(f, good)
    for e in ({"p": good["p"]}, {"p": good["p"], "q": good["q"]},
              {**good, "q": (F(3, 2), 0), "r": (2, 0)}, {**good, "p": (0, F(-1, 2))},
              {"r": (F(5, 4), 0)}):
        assert error(f, e) == error(_fresh(f), e)
    assert error(f, {"p": good["p"]}) == (UnboundVariableError, "\"no value for atom 'q'\"")
    assert error(f, {**good, "q": (F(3, 2), 0), "r": (2, 0)}) == \
        (ValueError, "value 3/2 outside [0, 1]")
    big = parse("BIG", "q & (p -> r) | snot p")
    eval_big(big, {k: F(1, 2) for k in "pqr"})
    for e in ({"p": ONE}, {"p": ONE, "q": ONE, "r": 2}, {"r": F(-1, 2)}):
        with pytest.raises((UnboundVariableError, ValueError)) as warm:
            eval_big(big, e)
        with pytest.raises(type(warm.value), match=re.escape(str(warm.value))):
            eval_big(_fresh(big), e)
    with pytest.raises(UnboundVariableError, match="no value for atom 'q'"):
        eval_big(big, {"p": ONE})
    # a two-layered model missing a variable, warm and cold
    g = parse("QG", "B(p) -> B(q)")
    model = UncertaintyModel(1, {"p": 1}, {0: F(0), 1: ONE})
    eval_qg(UncertaintyModel(1, {"p": 1, "q": 0}, {0: F(0), 1: ONE}), g)
    for node in (g, _fresh(g)):
        with pytest.raises(KeyError, match=re.escape("variable 'q' unbound in model")):
            eval_qg(model, node)


def test_a_warm_node_keeps_its_value_semantics():
    f = parse("MCB", "delta1 (C(p) -> C(p | q)) & neg C(q)")
    cold = _fresh(f)
    assert not hasattr(cold, "_memo")
    frame_validates(1, {0: F(0), 1: ONE}, f, "MCB")
    eval_g2(f, {"C(p)": (ONE, 0), "C(p | q)": (0, 0), "C(q)": (0, ONE)})
    assert f._memo
    assert f == cold and hash(f) == hash(cold)
    assert [fl.name for fl in dataclasses.fields(f)] == ["lang", "kind", "children", "var"]
    assert pickle.dumps(f) == pickle.dumps(cold)
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert copied == f and hash(copied) == hash(f)
        assert getattr(copied, "_memo", {}) == {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        f._memo = {}


def test_compile_keys_by_the_type_of_top():
    """1 and the Fraction 1 are equal keys, but compile to ints and to
    Fractions, on the same node."""
    f = parse("QG", "(B(p) -> B(q)) & (B(q) -< B(p))")
    for top, kind in ((1, int), (ONE, F), (1, int)):
        inners, (ev,) = measures._compile([f], top)
        assert sorted(map(print_formula, inners)) == ["p", "q"]
        truth, falsity = ev([(top, 0), (top, 0)])
        assert (truth, falsity) == (0, 1)
        assert type(truth) is kind and type(falsity) is kind
    assert measures._compile([f], 1) is measures._compile([f], 1)
    assert measures._compile([f], ONE) is not measures._compile([f], 1)
