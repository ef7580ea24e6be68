import random
import time
from fractions import Fraction as F

import pytest

import oracles
from qublogic.algebra import ONE, TwistValue, eval_g2
from qublogic.kripke import (G2KripkeModel, global_support, kentails, ksupport,
                             model_to_valuation, support_table, valuation_to_model)
from qublogic.syntax import LanguageError, desugar, parse, print_formula, vars_of

from helpers import depth, gen_bd, gen_big, gen_g2


def test_implication_fails_at_bottom_when_top_violates():
    m = G2KripkeModel(2, (0, 1), {"p": 0b10, "q": 0}, {"p": 0, "q": 0})
    assert ksupport(m, 0, parse("G2ORD", "p -> q"))[0] is False


def test_nelson_negative_support_is_local():
    m = G2KripkeModel(2, (0, 1), {"p": 0b11, "q": 0b10}, {"p": 0b10, "q": 0b11})
    f = parse("G2NEL", "p ~> q")
    for s in range(2):
        pos_p = bool(m.vplus["p"] >> s & 1)
        neg_q = bool(m.vminus["q"] >> s & 1)
        assert ksupport(m, s, f)[1] == (pos_p and neg_q)


def test_nelson_coimplication_two_chain():
    # p holds from the bottom, q nowhere: the existential clause finds the
    # bottom state, so the co-implication is positively supported at the top
    m = G2KripkeModel(2, (0, 1), {"p": 0b11, "q": 0}, {})
    assert ksupport(m, 1, parse("G2NEL", "p o- q")) == (True, False)
    assert ksupport(m, 0, parse("G2NEL", "p o- q")) == (True, False)


def _assert_refutes_at(m, gamma, f, state):
    """``state`` is the least state of ``m`` that positively supports every
    premise and not ``f``, by the support masks and by the quantifier
    clauses of the oracle alike."""
    table = support_table(m, [*gamma, f])
    for supports in (table.__getitem__, lambda g: oracles.kripke_supports(m, desugar(g))):
        refuted = [s for s in range(m.states)
                   if all(supports(g)[0] >> s & 1 for g in gamma) and not supports(f)[0] >> s & 1]
        assert refuted and refuted[0] == state, [print_formula(g) for g in [*gamma, f]]


def _without_state(m, t):
    """The submodel of ``m`` on its states other than ``t``, renumbered."""
    keep = [s for s in range(m.states) if s != t]
    ranks = sorted(m.order[s] for s in keep)

    def restrict(mask):
        return sum(1 << i for i, s in enumerate(keep) if mask >> s & 1)

    return oracles.ChainModel(len(keep), tuple(ranks.index(m.order[s]) for s in keep),
                              {p: restrict(x) for p, x in m.vplus.items()},
                              {p: restrict(x) for p, x in m.vminus.items()})


def _refuted_by_quantifiers(m, gamma, f) -> bool:
    """Whether a state of ``m`` supports every premise and not ``f``, by
    the oracle's quantifier clauses."""
    premises = [oracles.kripke_supports(m, desugar(g))[0] for g in gamma]
    target = oracles.kripke_supports(m, desugar(f))[0]
    return any(all(p >> s & 1 for p in premises) and not target >> s & 1
               for s in range(m.states))


def test_kentails_examples():
    f = parse("G2ORD", "p | neg p")
    ok, m, s = kentails([], f)
    assert not ok
    _assert_refutes_at(m, [], f, s)
    assert kentails([parse("G2ORD", "p")], parse("G2ORD", "p"))[0]
    assert kentails([parse("G2ORD", "p -> q"), parse("G2ORD", "p")],
                    parse("G2ORD", "q"))[0]
    # biG's delta has a Kripke clause through its expansion
    assert kentails([], parse("BIG", "delta p | snot delta p"))[0]
    gamma, f = [parse("BD", "p & neg p")], parse("BD", "q")
    ok, m, s = kentails(gamma, f)
    assert not ok
    _assert_refutes_at(m, gamma, f, s)


def test_kentails_refuses_other_languages():
    with pytest.raises(LanguageError):
        kentails([], parse("QG", "B(p)"))
    with pytest.raises(LanguageError):
        kentails([parse("G2ORD", "p")], parse("G2NEL", "p"))


def _kentails_queries(lang: str, rng: random.Random, count: int):
    """``count`` queries over p and q: 0-2 premises of depth at most 2 and a
    target of depth at most 3."""
    pool = {"BD": lambda: gen_bd(3), "BIG": lambda: gen_big(3),
            "G2ORD": lambda: gen_g2("G2ORD", 3), "G2NEL": lambda: gen_g2("G2NEL", 3)}[lang]()
    small = [f for f in pool if depth(f) <= 2]
    return [(rng.sample(small, rng.randint(0, 2)), rng.choice(pool)) for _ in range(count)]


@pytest.mark.parametrize("lang", ["BD", "BIG", "G2ORD", "G2NEL"])
def test_kentails_agrees_with_the_bounded_chain_search(lang):
    """The exact decision and the chain-model search up to 3 states give
    the same verdict, and every countermodel refutes at its state, and at
    none once any one of its states is taken out."""
    refuted = 0
    for gamma, f in _kentails_queries(lang, random.Random(7), 50):
        ok, m, s = kentails(gamma, f)
        # the variable of the sugar expansions is supported nowhere
        variables = sorted(set().union(*map(vars_of, [*gamma, f])))
        ref = oracles.chain_countermodel([desugar(g) for g in gamma], desugar(f), variables, 3)
        assert ok == (ref is None), [print_formula(g) for g in [*gamma, f]]
        if not ok:
            refuted += 1
            _assert_refutes_at(m, gamma, f, s)
            for t in range(m.states if m.states > 1 else 0):
                assert not _refuted_by_quantifiers(_without_state(m, t), gamma, f), \
                    ([print_formula(g) for g in [*gamma, f]], m, t)
    assert 0 < refuted < 50


@pytest.mark.parametrize("text", [
    "(p & q) -> (p & q)",
    "(p -> q) | (q -> r) | (r -> s) | (s -> p)",
])
def test_kentails_decides_past_the_old_bound_quickly(text):
    f = parse("G2ORD", text)
    start = time.process_time()
    assert kentails([], f)[0]
    assert time.process_time() - start < 0.1


def test_model_validation():
    with pytest.raises(ValueError):
        G2KripkeModel(2, (0, 1), {"p": 0b01}, {})  # not upward closed
    with pytest.raises(ValueError):
        G2KripkeModel(2, (0, 0), {}, {})
    m = G2KripkeModel(2, (1, 0), {"p": 0b01}, {})  # rank 1 state is index 0
    assert m.bottom() == 1


def test_valuation_to_model_examples():
    m = valuation_to_model({"p": TwistValue(F(1), F(0))})
    assert m.vplus["p"] == (1 << m.states) - 1 and m.vminus["p"] == 0

    m2 = valuation_to_model({"p": TwistValue(F(0), F(0)), "q": TwistValue(F(0), F(0))})
    assert m2.vplus["p"] == m2.vplus["q"] == 0

    e = {"p": TwistValue(F(1, 2), F(1, 4)), "q": TwistValue(F(3, 4), F(1, 4))}
    m3 = valuation_to_model(e)
    assert m3.vplus["p"] & ~m3.vplus["q"] == 0 and m3.vplus["p"] != m3.vplus["q"]
    assert m3.vminus["p"] == m3.vminus["q"]


def test_lemma_a7_small_grid():
    grid = [F(i, 2) for i in range(3)]
    vals = [TwistValue(a, b) for a in grid for b in grid]
    for sugar in (False, True):
        formulas = gen_g2("G2ORD", 3, sugar=sugar) + gen_g2("G2NEL", 3, sugar=sugar)
        for vp in vals:
            e = {"p": vp, "q": TwistValue(F(1, 2), F(1, 2))}
            m = valuation_to_model(e)
            full = (1 << m.states) - 1
            table = support_table(m, formulas)
            for f in formulas[::17]:
                v = eval_g2(f, e, f.lang)
                assert (v.truth == ONE) == (table[f][0] == full), print_formula(f)
                assert (v.falsity == ONE) == (table[f][1] == full), print_formula(f)


def test_persistence():
    formulas = gen_g2("G2ORD", 3, sugar=False) + gen_g2("G2NEL", 3, sugar=False)
    suffix = lambda n, k: ((1 << n) - 1) ^ ((1 << k) - 1)
    for n in (1, 2, 3):
        m = G2KripkeModel(n, tuple(range(n)),
                          {"p": suffix(n, n // 2), "q": suffix(n, n - 1)},
                          {"p": suffix(n, n - 1), "q": suffix(n, 0)})
        table = support_table(m, formulas)
        for f in formulas:
            for mask in table[f]:
                ranks = {i for i in range(n) if mask >> i & 1}
                assert all(r in ranks for r in range(min(ranks, default=n), n))


def test_model_to_valuation_round_trip():
    e = {"p": TwistValue(F(1, 3), F(2, 3)), "q": TwistValue(F(1), F(1, 3))}
    m = valuation_to_model(e)
    constraints, e2 = model_to_valuation(m)
    m2 = valuation_to_model(e2)
    formulas = gen_g2("G2ORD", 3, sugar=False)
    t1 = support_table(m, formulas)
    t2 = support_table(m2, formulas)
    full1 = (1 << m.states) - 1
    full2 = (1 << m2.states) - 1
    for f in formulas:
        assert (t1[f][0] == full1) == (t2[f][0] == full2)
        assert (t1[f][1] == full1) == (t2[f][1] == full2)
    assert {"slot": "pos:q", "is": "one"} in constraints


def test_chain_model_iteration_counts():
    # (n+1)^(2 vars * 2 polarities) chain models per size
    models = list(oracles.chain_models(["p"], 2))
    assert len(models) == 2 ** 2 + 3 ** 2
    # each is a valid model: the constructor checks that supports are up-sets
    assert all(G2KripkeModel(*m) for m in models)


def test_global_support():
    m = G2KripkeModel(2, (0, 1), {"p": 0b11}, {"p": 0})
    assert global_support(m, parse("G2ORD", "p")) == (True, False)


def test_closure_masks_match_the_quantifier_clauses_on_permuted_orders():
    formulas = gen_g2("G2ORD", 3, sugar=False) + gen_g2("G2NEL", 3, sugar=False)
    rng = random.Random(3)
    for _ in range(12):
        n = rng.randint(1, 4)
        order = rng.sample(range(n), n)
        by_rank = sorted(range(n), key=order.__getitem__)
        up = lambda: sum(1 << s for s in by_rank[rng.randint(0, n):])
        m = G2KripkeModel(n, tuple(order), {"p": up(), "q": up()}, {"p": up(), "q": up()})
        table = support_table(m, formulas)
        for f in formulas[::13]:
            assert table[f] == oracles.kripke_supports(m, f), (order, print_formula(f))
