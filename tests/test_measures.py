import random
from fractions import Fraction as F

import pytest

from qublogic import calculi, measures
from qublogic.algebra import ONE, ZERO, TwistValue, twist_le
from qublogic.measures import (BeliefModel, CanonicalModelError, UncertaintyModel,
                               canonical_mcb_model, canonical_qg_model, check_property,
                               correspondence_test, eval_layer, eval_qg,
                               find_frame_countermodel, frame_validates,
                               iter_monotone_measures, truth_set)
from qublogic.syntax import mk, parse

from helpers import gen_bd


def _example_model():
    mu = {0b00: F(0), 0b01: F(2, 3), 0b10: F(1, 3), 0b11: F(1)}
    return UncertaintyModel(2, {"p": 0b01, "q": 0b10}, mu)


def test_eval_qg_belief_comparison_example():
    m = _example_model()
    assert eval_qg(m, parse("QG", "B(p & ~q)")) == F(2, 3)
    assert eval_qg(m, parse("QG", "B(~p & q)")) == F(1, 3)
    assert eval_qg(m, parse("QG", "snot delta(B(p & ~q) -> B(~p & q))")) == ONE


def test_eval_qg_non_normalized_top():
    m = UncertaintyModel(1, {"r": 0b1}, {0: F(0), 1: F(1, 2)})
    assert eval_qg(m, parse("QG", "B(r | ~r)")) == F(1, 2)
    assert eval_qg(m, parse("QG", "B(Bot)")) == ZERO


def test_eval_layer_evidence_triples():
    pi = {0: F(0), 1: F(3, 10), 2: F(0), 3: F(1, 2),
          4: F(0), 5: F(1, 2), 6: F(1, 2), 7: F(1)}
    m = BeliefModel(3, {"q": 0b011, "p": 0, "r": 0b111},
                    {"q": 0b001, "p": 0, "r": 0}, pi)
    vq = eval_layer(m, "MCB", parse("MCB", "C(q & neg q)"))
    vp = eval_layer(m, "MCB", parse("MCB", "C(p & neg p)"))
    vr = eval_layer(m, "MCB", parse("MCB", "C(r & neg r)"))
    assert vq == TwistValue(F(3, 10), F(1, 2))
    assert vp == TwistValue(ZERO, ZERO)
    assert vr == TwistValue(ZERO, ONE)
    assert twist_le(vr, vp) and twist_le(vr, vq)
    assert not twist_le(vp, vq) and not twist_le(vq, vp)


def test_check_property_examples():
    mu = {0: F(0), 1: F(1, 2), 2: F(1, 2), 3: F(1)}
    assert check_property(2, mu, "capacity")[0]
    bad = {0: F(0), 1: F(0), 2: F(0), 3: F(1, 2)}
    ok, witness = check_property(2, bad, "cond_iii")
    assert not ok and witness is not None
    y, y2 = witness
    assert bad[y] == ZERO and bad[y | y2] != bad[y2]


def test_mukps_on_probability_measure():
    weights = [F(1, 3), F(2, 3)]
    mu = {mask: sum(weights[i] for i in range(2) if mask >> i & 1) for mask in range(4)}
    mu = {k: F(v) for k, v in mu.items()}
    for m in range(4):
        assert check_property(2, mu, "mukps", m)[0]


def test_mukps_violation_has_witness():
    # mu({0}) tied with the empty set but the full set exceeds {1}
    mu = {0: F(0), 1: F(0), 2: F(1, 2), 3: F(1)}
    ok, witness = check_property(2, mu, "mukps", 1)
    if not ok:
        (x, y), premises = witness
        assert mu[x] < mu[y]


def test_frame_validates_examples():
    cap = parse("QG", "B(Top) & snot B(Bot)")
    assert frame_validates(2, {0: F(0), 1: F(1, 2), 2: F(1, 2), 3: F(1)}, cap, "QG")[0]
    assert not frame_validates(1, {0: F(1, 4), 1: F(1)}, cap, "QG")[0]
    disj0 = parse("QG", "snot B(p) -> delta(B(q) <-> B(p | q))")
    bad = {0: F(0), 1: F(0), 2: F(0), 3: F(1, 2)}
    ok, cv = frame_validates(2, bad, disj0, "QG")
    assert not ok and cv is not None
    assert frame_validates(1, {0: F(0), 1: F(1)},
                           parse("QG", "delta B(p) <-> snot B(~p)"), "QG")[0]


def test_frame_checks_validate_the_measure_once(monkeypatch):
    checked = []
    real = measures._check_measure
    monkeypatch.setattr(measures, "_check_measure",
                        lambda states, mu: checked.append(states) or real(states, mu))
    mu = {0: F(0), 1: F(1, 2), 2: F(1, 2), 3: F(1)}
    assert frame_validates(2, mu, parse("QG", "B(p) -> B(p | q)"), "QG")[0]
    assert frame_validates(2, mu, parse("MCB", "C(p & q) -> C(p)"), "MCB")[0]
    assert checked == [2, 2]
    checked.clear()
    # the search visits many frames and valuations; only the hit is built
    m = find_frame_countermodel([parse("QG", "B(p)")], parse("QG", "B(p & q)"), "QG", 2, 2)
    assert m is not None and checked == [m.states]


def test_mask_keys():
    assert measures._mask_key(0) == "[]"
    assert measures._mask_key(0b1101) == "[0,2,3]"
    for key in ("[0,2,3]", " [ 0 , 2, 3 ] ", "[3,2,0]", "[0,0,2,3]"):
        assert measures._key_mask(key) == 0b1101
    assert measures._key_mask("[ ]") == 0


def test_correspondence_small_bounds():
    for cond in ("cond_i", "cond_iv"):
        report = correspondence_test(cond, 1, 2)
        assert report["equivalent"] and report["frames"] > 0


def test_counterexample_search_examples():
    m = find_frame_countermodel([], parse("QG", "B(p => Bot) -> (B(p) -> B(Bot))"), "QG")
    assert m is not None and m.states == 2
    m2 = find_frame_countermodel([], parse("QG", "B(r | ~r)"), "QG")
    assert m2 is not None and m2.states == 1 and m2.mu[m2.full] == F(1, 2)
    assert find_frame_countermodel([], parse("QG", "B(p & q) -> B(p)"), "QG", 2, 3) is None


def test_k_formula_valid_on_single_point_frames():
    k = parse("QG", "B(p => Bot) -> (B(p) -> B(Bot))")
    for mu in iter_monotone_measures(1, 4):
        assert frame_validates(1, mu, k, "QG")[0]


def test_reg_soundness_invariant():
    rng = random.Random(7)
    pairs = [("p & q", "p"), ("p", "p | q"), ("p & q", "q | r"), ("Bot", "p")]
    for _ in range(40):
        states = rng.randint(1, 3)
        mu = rng.choice(list(iter_monotone_measures(states, 2)))
        v = {name: rng.randrange(1 << states) for name in "pqr"}
        model = UncertaintyModel(states, v, mu)
        for left, right in pairs:
            assert calculi.cpl_valid(parse("CPL", f"({left}) => ({right})"))
            bl = eval_qg(model, parse("QG", f"B({left})"))
            br = eval_qg(model, parse("QG", f"B({right})"))
            assert bl <= br


def test_layer_soundness_and_negation_bridge():
    rng = random.Random(13)
    formulas = gen_bd(2)
    for _ in range(25):
        states = rng.randint(1, 3)
        pi = rng.choice(list(iter_monotone_measures(states, 2)))
        vplus = {n: rng.randrange(1 << states) for n in "pq"}
        vminus = {n: rng.randrange(1 << states) for n in "pq"}
        model = BeliefModel(states, vplus, vminus, pi)
        for phi in formulas[::3]:
            for chi in formulas[::5]:
                from qublogic.bd import bd_entails

                if bd_entails(phi, chi)[0]:
                    a = eval_layer(model, "MCB", mk("MCB", "cmod", phi))
                    b = eval_layer(model, "MCB", mk("MCB", "cmod", chi))
                    assert a.truth <= b.truth and a.falsity >= b.falsity
        for phi in formulas[::4]:
            neg = eval_layer(model, "MCB", mk("MCB", "cmod", mk("BD", "dneg", phi)))
            pos = eval_layer(model, "MCB", mk("MCB", "cmod", phi))
            assert neg == TwistValue(pos.falsity, pos.truth)


def test_canonical_qg_model():
    e = {"B(p)": F(1, 2), "B(p | q)": F(3, 4), "B(Top)": F(1), "B(Bot)": F(0)}
    formulas = [parse("QG", t) for t in ("B(p)", "B(p | q)", "B(Top)", "B(Bot)")]
    m = canonical_qg_model(e, formulas)
    assert m.states == 4
    for text, val in e.items():
        assert eval_qg(m, parse("QG", text)) == val
    assert m.mu[m.full] == ONE and m.mu[0] == ZERO


def test_canonical_qg_model_rejects_reg_violations():
    e = {"B(p)": F(3, 4), "B(p | q)": F(1, 2), "B(Top)": F(1), "B(Bot)": F(0)}
    formulas = [parse("QG", t) for t in ("B(p)", "B(p | q)", "B(Top)", "B(Bot)")]
    with pytest.raises(CanonicalModelError):
        canonical_qg_model(e, formulas)


def test_canonical_mcb_model():
    e = {"C(p)": TwistValue(F(1, 2), F(1, 4))}
    m = canonical_mcb_model(e, [parse("MCB", "C(p)")])
    assert m.states == 4  # powerset of {p, neg p}
    assert eval_layer(m, "MCB", parse("MCB", "C(p)")) == TwistValue(F(1, 2), F(1, 4))
    assert m.pi[m.full] == ONE and m.pi[0] == ZERO


def test_truth_set_classical_connectives():
    m = _example_model()
    assert truth_set(m, parse("CPL", "p | q")) == 0b11
    assert truth_set(m, parse("CPL", "p => q")) == 0b10
    assert truth_set(m, parse("CPL", "Top")) == 0b11
    assert truth_set(m, parse("CPL", "~p <-> q")) == 0b11


def test_model_json_round_trip():
    m = _example_model()
    assert UncertaintyModel.from_json(m.to_json()) == m
    pi = next(iter(iter_monotone_measures(3, 2)))
    bm = BeliefModel(3, {"p": 0b1}, {"p": 0b10}, pi)
    assert BeliefModel.from_json(bm.to_json()) == bm


def test_measure_validation():
    with pytest.raises(ValueError):
        UncertaintyModel(2, {}, {0: F(0)})
    with pytest.raises(ValueError):
        UncertaintyModel(2, {"p": 0b100}, {i: F(0) for i in range(4)})
