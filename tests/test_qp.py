import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from qublogic import measures
from qublogic.algebra import ONE, ZERO
from qublogic.qp import (GardenforsModel, OrderInstance, a4_instance,
                         e_g_notation, e_notation, g_counterpart, kps_instance,
                         qp_counterpart, qp_sat, qp_true, represent_order_lp,
                         translate_sif)
from qublogic.syntax import LanguageError, parse, print_formula, var

from helpers import ac_normal, gen_sifs, nontrivial_orders, measure_from_rank, random_gardenfors
from oracles import grid_weight_witness

LP_WITNESSES = Path(__file__).parent / "data" / "lp_witnesses.json"


def _remark_model():
    weights = {x: (F(4, 10), F(3, 10), F(2, 10), F(1, 10)) for x in range(4)}
    return GardenforsModel(4, weights, {"p": 0b0011, "q": 0b0101, "r": 0b0110, "s": 0b0001})


def test_qp_sat_remark_data():
    m = _remark_model()
    assert m.prob(0, m.v["p"]) == F(7, 10)
    assert m.prob(0, m.v["q"]) == F(6, 10)
    assert qp_sat(m, 0, parse("QP", "(p <= q) => (r <= s)"))
    assert not qp_sat(m, 0, parse("QP", "p <= q"))


def test_qp_axiom_shapes_always_satisfied():
    m = _remark_model()
    for x in range(m.states):
        assert qp_sat(m, x, parse("QP", "Bot <= p"))
        assert qp_sat(m, x, parse("QP", "(p <= q) | (q <= p)"))
        assert qp_sat(m, x, parse("QP", "Bot << Top"))
    assert qp_true(m, parse("QP", "Bot <= p"))


def test_nested_comparison_semantics():
    m = _remark_model()
    f = parse("QP", "(p <= q) <= (r <= s)")
    # ||p<=q|| is empty, ||r<=s|| is empty; P(empty) <= P(empty) everywhere
    assert qp_true(m, f)


def test_translate_sif_examples():
    assert translate_sif(parse("QP", "p <= q")) == parse("QG", "delta(B(p) -> B(q))")
    assert translate_sif(parse("QP", "~(q <= p)")) == parse("QG", "snot delta(B(q) -> B(p))")
    assert translate_sif(parse("QP", "(p <= q) => (r <= s)")) == \
        parse("QG", "delta(B(p) -> B(q)) -> delta(B(r) -> B(s))")
    with pytest.raises(LanguageError):
        translate_sif(parse("QP", "(p <= q) <= (r <= s)"))


def test_translation_values_are_two_valued():
    rng = random.Random(5)
    sifs = gen_sifs()[::9]
    translations = [translate_sif(s) for s in sifs]
    for _ in range(10):
        m = random_gardenfors(rng)
        um = g_counterpart(m, 0)
        for t in translations:
            assert measures.eval_qg(um, t) in (ZERO, ONE)


def test_e_notation_printed_expansion():
    phis = [var("QP", "p1"), var("QP", "p2")]
    chis = [var("QP", "q1"), var("QP", "q2")]
    generated = e_notation(phis, chis)
    printed = parse("QP",
        "(p1 & p2 & q1 & q2"
        " | ~p1 & p2 & ~q1 & q2"
        " | ~p1 & p2 & q1 & ~q2"
        " | p1 & ~p2 & q1 & ~q2"
        " | p1 & ~p2 & ~q1 & q2"
        " | ~p1 & ~p2 & ~q1 & ~q2) ~~ Top")
    assert ac_normal(generated) == ac_normal(printed)


def test_e_notation_singleton():
    got = e_notation([var("QP", "p")], [var("QP", "q")])
    expect = parse("QP", "(p & q | ~p & ~q) ~~ Top")
    assert ac_normal(got) == ac_normal(expect)


def test_e_notation_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        e_notation([var("QP", "p")], [var("QP", "q"), var("QP", "r")])
    with pytest.raises(ValueError):
        e_g_notation([], [])


def test_a4_instance_shape():
    f = a4_instance(1, [var("QP", "p")], [var("QP", "q")])
    # m=1: empty premise conjunction, conclusion swaps the lists
    assert f.kind == "matimp"
    assert f.children[1] == parse("QP", "q <= p")
    assert ac_normal(f.children[0]) == ac_normal(e_notation([var("QP", "p")], [var("QP", "q")]))


def test_kps_instance_shape():
    cpl = lambda t: parse("CPL", t)
    f = kps_instance(1, [cpl("p"), cpl("q")], [cpl("Top"), cpl("r")])
    assert f.kind == "gimp"
    assert f.children[1] == parse("QG", "delta(B(r) -> B(q))")
    lhs = f.children[0]
    assert lhs.kind == "and"
    assert lhs.children[1] == parse("QG", "delta(B(p) -> B(Top))")
    with pytest.raises(ValueError):
        kps_instance(2, [cpl("p")], [cpl("q")])


def test_g_counterpart_reproduces_remark():
    um = g_counterpart(_remark_model(), 0)
    f = parse("QG", "(B(p) -> B(q)) -> (B(r) -> B(s))")
    assert measures.eval_qg(um, f) == F(2, 5)
    single = GardenforsModel(1, {0: (F(1),)}, {"p": 1})
    um1 = g_counterpart(single, 0)
    assert um1.mu[0] == ZERO and um1.mu[um1.full] == ONE


def test_sif_faithfulness_on_random_models():
    rng = random.Random(99)
    sifs = gen_sifs()
    translations = {s: translate_sif(s) for s in sifs[::5]}
    for _ in range(12):
        m = random_gardenfors(rng, max_states=3)
        x = rng.randrange(m.states)
        um = g_counterpart(m, x)
        for s, t in translations.items():
            assert qp_sat(m, x, s) == (measures.eval_qg(um, t) == ONE)


def test_represent_order_lp_hand_example():
    order = OrderInstance(2, {0b00: 0, 0b01: 1, 0b10: 1, 0b11: 2})
    witness = represent_order_lp(order)
    assert witness is not None
    assert witness.weights == (F(1, 2), F(1, 2))
    strict, equal = order.consecutive_pairs()
    assert witness.verifies(strict, equal)


def test_represent_order_lp_rejects_antimonotone():
    order = OrderInstance(2, {0b00: 0, 0b10: 1, 0b01: 2, 0b11: 1})  # {a} above {a,b}
    assert represent_order_lp(order) is None


def lp_witness_text() -> str:
    """One JSON line per nontrivial monotone order on 1-3 atoms: its ranks by
    mask and represent_order_lp's witness, or null."""
    lines = []
    for n in (1, 2, 3):
        for rank in nontrivial_orders(n):
            witness = represent_order_lp(OrderInstance(n, rank))
            entry = {"n": n, "rank": [rank[mask] for mask in range(1 << n)],
                     "witness": None if witness is None else witness.to_json()}
            lines.append(json.dumps(entry))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_represent_order_lp_witnesses_match_golden_file():
    # the exact weights and eps depend on the simplex's pivot sequence, so
    # any change to the pivoting rule shows up here
    assert lp_witness_text() == LP_WITNESSES.read_text()


def test_lp_agrees_with_coarse_grid_search():
    rng = random.Random(3)
    orders = list(nontrivial_orders(2))
    for rank in orders:
        order = OrderInstance(2, rank)
        witness = represent_order_lp(order)
        strict, equal = order.consecutive_pairs()
        gridw = grid_weight_witness(2, strict, equal, denominator=8)
        if witness is None:
            assert gridw is None
        else:
            assert witness.verifies(strict, equal)


def test_lp_cross_check_with_mukps_small():
    for n in (1, 2):
        for rank in nontrivial_orders(n):
            order = OrderInstance(n, rank)
            mu = measure_from_rank(rank)
            witness = represent_order_lp(order)
            kps = all(measures.check_property(n, mu, "mukps", m)[0] for m in range(5))
            assert (witness is not None) == kps


def test_mukps_up_to_powerset_size_implies_witness():
    # measures passing the balanced-tuple condition for every m up to 2^|W|
    # are order-representable
    rng = random.Random(31)
    orders = list(nontrivial_orders(3))
    for rank in rng.sample(orders, 60):
        mu = measure_from_rank(rank)
        if all(measures.check_property(3, mu, "mukps", m)[0] for m in range(9)):
            assert represent_order_lp(OrderInstance(3, rank)) is not None


def test_qp_counterpart_and_faithfulness():
    mu2 = {0: F(0), 1: F(1, 4), 2: F(1, 2), 3: F(1)}
    weights3 = (F(1, 6), F(1, 3), F(1, 2))
    mu3 = {mask: sum((weights3[i] for i in range(3) if mask >> i & 1), F(0))
           for mask in range(8)}
    models = [measures.UncertaintyModel(2, {"p": 0b01, "q": 0b10}, mu2),
              measures.UncertaintyModel(3, {"p": 0b011, "q": 0b110}, mu3)]
    for um in models:
        result = qp_counterpart(um)
        assert result is not None
        gm, x = result
        for s in gen_sifs()[::7]:
            assert qp_sat(gm, x, s) == (measures.eval_qg(um, translate_sif(s)) == ONE)


def test_qp_counterpart_none_for_unrepresentable():
    # additivity failure: two disjoint atoms tie with their union
    mu = {0: F(0), 1: F(1, 2), 2: F(1, 2), 3: F(1, 2)}
    um = measures.UncertaintyModel(2, {"p": 0b01}, mu)
    assert qp_counterpart(um) is None


def test_order_instance_validation():
    with pytest.raises(ValueError):
        OrderInstance(2, {0: 0, 1: 2, 2: 2, 3: 3})  # ranks skip 1
    with pytest.raises(ValueError):
        OrderInstance(2, {0: 0})


def test_model_json_round_trip():
    m = _remark_model()
    assert GardenforsModel.from_json(m.to_json()) == m
