import json
import random
from fractions import Fraction as F

import pytest

from qublogic import calculi, cli, measures
from qublogic.algebra import ONE, ZERO, TwistValue, twist_le
from qublogic.measures import (BeliefModel, CanonicalModelError, UncertaintyModel,
                               canonical_mcb_model, canonical_qg_model, check_property,
                               correspondence_test, eval_layer, eval_qg,
                               find_frame_countermodel, frame_validates,
                               iter_monotone_measures, truth_set)
from qublogic.syntax import (BINARY_KINDS, NULLARY_KINDS, PRIMITIVE_KINDS, SUGAR_KINDS,
                             UNARY_KINDS, mk, parse, print_formula, vars_of)

import oracles
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


def test_frame_validation_refusal_states_the_valuation_count(tmp_path, capsys):
    mu = {0: F(0), 1: F(1, 2), 2: F(1, 2), 3: F(1)}
    with pytest.raises(ValueError, match=r"^frame validation over 5 variables \(> 4\): "
                                         r"1,024 inner valuations$"):
        frame_validates(2, mu, parse("QG", "B(p & q & r & s & t)"), "QG")
    with pytest.raises(ValueError, match=r" 1,048,576 inner valuations$"):
        frame_validates(2, mu, parse("MCB", "C(p & q & r & s & t)"), "MCB")
    path = tmp_path / "belief.json"
    path.write_text(json.dumps({"states": 2, "v": {}, "mu": {"[]": "0", "[0]": "1/2",
                                                              "[1]": "1/2", "[0,1]": "1"}}))
    assert cli.main(["model", "frame-validates", "--model", str(path), "--layer", "nmcb",
                     "C(p & q & r & s & t)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError: frame validation over 5 variables "
                                                 "(> 4): 1,048,576 inner valuations"}


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


# ---------------------------------------------------------------------------
# Two-layered evaluation against the Fraction oracle
# ---------------------------------------------------------------------------

_INNER = {"QG": ("CPL", ("p", "q", "~p", "p & q", "p | ~q", "p => q", "p <-> q", "Top", "Bot")),
          "MCB": ("BD", ("p", "q", "neg p", "p & q", "p | neg q", "neg (p & neg q)")),
          "NMCB": ("BD", ("p", "q", "neg p", "p & q", "p | neg q", "neg (p & neg q)"))}


def _layer_formula(rng, layer, depth, kind=None):
    """A random formula of the layer; ``kind`` fixes the root connective."""
    inner_lang, pool = _INNER[layer]
    atom = "bmod" if layer == "QG" else "cmod"
    if kind is None:
        if depth == 0 or rng.random() < 0.3:
            return mk(layer, atom, parse(inner_lang, rng.choice(pool)))
        kind = rng.choice(sorted((PRIMITIVE_KINDS[layer] | SUGAR_KINDS[layer]) - {atom}))
    if kind in NULLARY_KINDS:
        return mk(layer, kind)
    kids = [_layer_formula(rng, layer, depth - 1)
            for _ in range(1 if kind in UNARY_KINDS else 2 if kind in BINARY_KINDS else 0)]
    return mk(layer, kind, *kids)


def _random_measure(rng, states):
    """A measure on every subset with values in [0, 1] off the grids the
    searches use, endpoints and repeats included."""
    values = [F(0), F(1), F(3, 10), F(5, 7), F(1, 3), F(3, 10)]
    return {x: rng.choice(values) for x in range(1 << states)}


def _layer_cases(layer, seed, count):
    rng = random.Random(seed)
    kinds = sorted((PRIMITIVE_KINDS[layer] | SUGAR_KINDS[layer]) - {"bmod", "cmod"})
    out = [_layer_formula(rng, layer, 2, kind) for kind in kinds]
    out += [_layer_formula(rng, layer, 3) for _ in range(count)]
    if layer == "QG":
        out.append(parse("QG", "delta (Top -< B(q))"))
    else:
        out.append(parse(layer, "delta1 (Top -< C(q))" if layer == "MCB" else "deltaN (Top o- C(q))"))
    return out


@pytest.mark.parametrize("layer", ["QG", "MCB", "NMCB"])
def test_two_layered_evaluation_matches_the_fraction_oracle(layer):
    rng = random.Random(41)
    for f in _layer_cases(layer, 3, 30):
        for _ in range(4):
            states = rng.randint(1, 3)
            mu = _random_measure(rng, states)
            masks = {p: rng.randrange(1 << states) for p in "pq"}
            if layer == "QG":
                val = {"v": masks}
                got = eval_qg(UncertaintyModel(states, masks, mu), f)
                assert type(got) is F
            else:
                val = {"vplus": masks, "vminus": {p: rng.randrange(1 << states) for p in "pq"}}
                got = eval_layer(BeliefModel(states, pi=mu, **val), layer, f)
            assert got == oracles.layer_value(layer, f, states, val, mu), print_formula(f)


@pytest.mark.parametrize("layer", ["QG", "MCB", "NMCB"])
def test_frame_validity_matches_the_fraction_oracle(layer):
    rng = random.Random(43)
    for f in _layer_cases(layer, 5, 12):
        names = sorted(vars_of(f))
        for states in (1, 2):
            mu = _random_measure(rng, states)
            first = next((val for val in oracles.inner_valuations(layer, states, names)
                          if not oracles.layer_valid(
                              layer, oracles.layer_value(layer, f, states, val, mu))), None)
            assert frame_validates(states, mu, f, layer) == (first is None, first), \
                print_formula(f)


@pytest.mark.parametrize("layer", ["QG", "MCB", "NMCB"])
def test_countermodel_search_matches_the_fraction_oracle(layer):
    """The search returns the first refuting (measure, valuation) in its
    documented order, or None when no frame within the bounds refutes."""
    rng = random.Random(47)
    cases = [([], _layer_formula(rng, layer, 2)) for _ in range(5)]
    cases += [([_layer_formula(rng, layer, 1)], _layer_formula(rng, layer, 2)) for _ in range(5)]
    for xi, alpha in cases:
        names = sorted(set().union(*(vars_of(g) for g in [*xi, alpha])))
        search = ((states, val, mu) for states in (1, 2) for denom in (1, 2)
                  for mu in iter_monotone_measures(states, denom)
                  for val in oracles.inner_valuations(layer, states, names))
        first = next((hit for hit in search if oracles.layer_refutes(
            layer, [oracles.layer_value(layer, g, *hit) for g in xi],
            oracles.layer_value(layer, alpha, *hit))), None)
        got = find_frame_countermodel(xi, alpha, layer, 2, 2)
        if first is None:
            assert got is None, print_formula(alpha)
            continue
        states, val, mu = first
        want = (UncertaintyModel(states, mu=mu, **val) if layer == "QG"
                else BeliefModel(states, pi=mu, **val))
        assert got == want, print_formula(alpha)
