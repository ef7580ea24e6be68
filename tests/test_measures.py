import copy
import gc
import itertools
import json
import pickle
import random
import re
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from qublogic import bd, calculi, cli, kripke, measures, qp
from qublogic.algebra import ONE, ZERO, TwistValue, twist_le
from qublogic.measures import (BeliefModel, CanonicalModelError, UncertaintyModel,
                               canonical_mcb_model, canonical_qg_model, check_property,
                               correspondence_test, eval_layer, eval_qg,
                               find_frame_countermodel, frame_validates,
                               truth_set)
from qublogic.syntax import (BINARY_KINDS, NULLARY_KINDS, PRIMITIVE_KINDS, SUGAR_KINDS,
                             UNARY_KINDS, mk, modal_atoms, parse, print_formula, vars_of)

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
    # 5 QG variables on 2 states are 1,024 inner valuations, under the cap
    f = parse("QG", "B(p & q & r & s & t)")
    ok, val = frame_validates(2, mu, f, "QG")
    assert not ok and not oracles.layer_valid("QG", oracles.layer_value("QG", f, 2, val, mu))
    assert frame_validates(2, mu, parse("QG", "B(p & q & r & s & t) -> B(p | t)"), "QG") == \
        (True, None)
    refusal = (r"^frame validation over 5 variables on 2 states: "
               r"1,048,576 inner valuations \(> 65,536\)$")
    with pytest.raises(ValueError, match=refusal):
        frame_validates(2, mu, parse("MCB", "C(p & q & r & s & t)"), "MCB")
    with pytest.raises(ValueError, match=refusal):
        frame_validates(2, mu, parse("NMCB", "C(p & q & r & s & t)"), "NMCB")
    path = tmp_path / "belief.json"
    path.write_text(json.dumps({"states": 2, "v": {}, "mu": {"[]": "0", "[0]": "1/2",
                                                              "[1]": "1/2", "[0,1]": "1"}}))
    assert cli.main(["model", "frame-validates", "--model", str(path), "--layer", "nmcb",
                     "C(p & q & r & s & t)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError: frame validation over 5 variables "
                                                 "on 2 states: 1,048,576 inner valuations "
                                                 "(> 65,536)"}


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


_CAP = r"\(> 65,536\)"


def test_frame_searches_refuse_oversized_state_counts_with_the_count(monkeypatch):
    pi = next(oracles.monotone_measures(3, 2))
    with pytest.raises(ValueError, match=r"^frame validation over 3 variables on 3 states: "
                                         r"262,144 inner valuations " + _CAP + "$"):
        frame_validates(3, pi, parse("MCB", "C(p & q & r)"), "MCB")
    mu = next(oracles.monotone_measures(5, 1))
    with pytest.raises(ValueError, match=r"^frame validation over 4 variables on 5 states: "
                                         r"1,048,576 inner valuations " + _CAP + "$"):
        frame_validates(5, mu, parse("QG", "B(p & q & r & s)"), "QG")
    # 2 MCB variables on 4 states, 2^16 valuations, are admitted
    assert measures._frame_size("MCB", ["p", "q"], 4) == 1 << 16
    # a search that answers below the cap still answers; one that does not
    # is refused on reaching the first state count over it
    m = find_frame_countermodel([], parse("MCB", "C(p & q & r)"), "MCB", 4, 4)
    assert m is not None and m.states == 1
    with pytest.raises(ValueError, match=r"^frame validation over 3 variables on 3 states: "
                                         r"262,144 inner valuations " + _CAP + "$"):
        find_frame_countermodel([], parse("MCB", "C(p & q & r) -> C(p)"), "MCB", 3, 1)
    # the correspondence test refuses before it visits any frame
    monkeypatch.setattr(measures, "_rank_functions", None)
    with pytest.raises(ValueError, match=r"^frame validation over 2 variables on 9 states: "
                                         r"262,144 inner valuations " + _CAP + "$"):
        correspondence_test("cond_ii", 9, 1)


def test_frame_searches_run_the_inner_recursion_once_per_inner_formula(monkeypatch):
    calls = []
    depth = [0]
    real_cpl = measures.cpl_truth_set

    def cpl_truth_set(f, env, full, other=None):
        if not depth[0]:
            calls.append(f)
        depth[0] += 1
        try:
            return real_cpl(f, env, full, other)
        finally:
            depth[0] -= 1

    real_bd = bd._SupportMasks

    def support_masks(vplus, vminus, other=None):
        rec = real_bd(vplus, vminus, other)
        return lambda f: calls.append(f) or rec(f)

    monkeypatch.setattr(measures, "cpl_truth_set", cpl_truth_set)
    monkeypatch.setattr(bd, "_SupportMasks", support_masks)
    mu = {0: F(0), 1: F(1, 2), 2: F(1, 2), 3: F(1)}
    for cond in ("cond_ii", "mcb_i", "mcb_iii"):
        layer, text, _ = measures.CORRESPONDENCES[cond]
        f = parse(layer, text)
        inners = {a.children[0] for a in modal_atoms(f)}
        calls.clear()
        frame_validates(2, mu, f, layer)
        assert sorted(calls, key=print_formula) == sorted(inners, key=print_formula), cond
        calls.clear()
        assert correspondence_test(cond, 2, 2)["frames"] > 1
        assert len(calls) == 2 * len(inners), cond
    for layer, text in (("QG", "B(p & q) -> B(p)"), ("MCB", "C(p & q) -> C(p)"),
                        ("NMCB", "C(p & q) ~> C(p)")):
        calls.clear()
        assert find_frame_countermodel([], parse(layer, text), layer, 2, 2) is None
        assert len(calls) == 2 * 2, layer
    # a model's evaluation is the same recursion on one valuation
    calls.clear()
    assert eval_qg(_example_model(), parse("QG", "B(p & ~q) -> B(~p & q)")) == F(1, 3)
    assert len(calls) == 2


def test_check_property_refuses_past_its_tuple_cap(capsys):
    """A property over k subsets at once ranges over 2^(k * states) tuples:
    past 2^24 it is refused before it loops, stating the count.  mcb_i on
    6 states is admitted; on 9 states it would take hours."""
    def refused(prop, states):
        tuples = 1 << states * {"mcb_i": 4, "mupm": 3, "cond_ii": 2}[prop]
        return re.escape(f"property {prop} on {states} states: {tuples:,} tuples of subsets "
                         f"(> 16,777,216)")

    for prop, states in (("mcb_i", 7), ("mupm", 9), ("cond_ii", 13)):
        mu = {x: F(bin(x).count("1"), states) for x in range(1 << states)}
        with pytest.raises(ValueError, match=f"^{refused(prop, states)}$"):
            check_property(states, mu, prop)
    assert measures._MAX_PROPERTY_TUPLES == 1 << 4 * 6
    assert check_property(6, {x: F(bin(x).count("1"), 6) for x in range(64)}, "monotone")[0]
    model = json.dumps({"states": 9, "v": {}, "mu": {measures._mask_key(x): str(F(bin(x).count("1"), 9))
                                                     for x in range(1 << 9)}})
    start = time.process_time()
    assert cli.main(["model", "check-property", "--model", model, "--prop", "mcb_i"]) == 2
    assert time.process_time() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"ValueError: {refused('mcb_i', 9)}", json.loads(captured.err)["error"])


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


def test_correspondence_test_agrees_with_frame_validates_frame_by_frame(monkeypatch):
    """Each frame's verdict in the report is frame_validates' verdict: with
    the property stubbed to hold, the mismatches are the invalid frames, in
    the grid's order.  On grids 1 and 2 each order type is one grid
    measure, so the property runs once per frame; up to 2 states the
    invalid frames are also those of the per-valuation oracle."""
    calls = []
    for max_states, denominator in ((3, 1), (2, 2)):
        frames = [(states, mu) for states in range(1, max_states + 1)
                  for mu in oracles.monotone_measures(states, denominator)]
        for cond in ("mcb_i", "mcb_ii", "mcb_iii", "mcb_iv"):
            layer, text, prop = measures.CORRESPONDENCES[cond]
            monkeypatch.setitem(measures._PROPS, prop,
                                lambda states, rank: calls.append(states) or (True, None))
            f = parse(layer, text)
            invalid = [(states, mu) for states, mu in frames
                       if not frame_validates(states, mu, f, layer)[0]]
            if max_states <= 2:
                rows = oracles.correspondence_report(layer, f, prop, max_states, denominator)
                assert invalid == [(states, mu) for states, mu, valid, _ in rows if not valid]
            calls.clear()
            report = correspondence_test(cond, max_states, denominator)
            assert report["frames"] == len(calls) == len(frames)
            assert set(calls) == set(range(1, max_states + 1))
            assert report["mismatches"] == [
                {"states": states, "mu": {measures._mask_key(k): str(v) for k, v in mu.items()},
                 "frame_validates": False, "property": True} for states, mu in invalid], cond


def test_frame_searches_evaluate_each_measure_order_type_once(monkeypatch):
    """The countermodel search tries each order type of at most d - 1
    values strictly between 0 and 1 once, not once per grid 1..d that has
    it: at d = 4, 4, 42 and 2,049 of them on 1 to 3 states, where the grids
    hold 20, 167 and 4,551 measures.  The correspondence test evaluates
    each order type once too, and counts it as its C(d - 1, m) grid
    measures."""
    calls = []
    real = measures._countervaluation

    def counted(test, frame, rank):
        calls.append(frame.states)
        return real(test, frame, rank)

    monkeypatch.setattr(measures, "_countervaluation", counted)
    assert find_frame_countermodel([], parse("QG", "B(p & q) -> B(p)"), "QG", 3, 4) is None
    assert [calls.count(states) for states in (1, 2, 3)] == [4, 42, 2049]
    assert [sum(1 for d in range(1, 5) for _ in oracles.monotone_measures(states, d))
            for states in (1, 2)] == [20, 167]
    calls.clear()
    report = correspondence_test("cond_iii", 2, 4)
    assert [calls.count(states) for states in (1, 2)] == [4, 42]
    assert report["equivalent"]
    assert report["frames"] == sum(1 for states in (1, 2)
                                   for _ in oracles.monotone_measures(states, 4))


def test_counterexample_search_examples():
    m = find_frame_countermodel([], parse("QG", "B(p => Bot) -> (B(p) -> B(Bot))"), "QG")
    assert m is not None and m.states == 2
    m2 = find_frame_countermodel([], parse("QG", "B(r | ~r)"), "QG")
    assert m2 is not None and m2.states == 1 and m2.mu[m2.full] == F(1, 2)
    assert find_frame_countermodel([], parse("QG", "B(p & q) -> B(p)"), "QG", 2, 3) is None


def test_bounds_below_one_are_refused():
    f = parse("QG", "B(p)")
    for max_states, denominator in ((0, 4), (4, 0)):
        with pytest.raises(ValueError):
            find_frame_countermodel([], f, "QG", max_states, denominator)
        with pytest.raises(ValueError):
            correspondence_test("cond_iii", max_states, denominator)
    with pytest.raises(ValueError):
        check_property(1, {0: F(0), 1: F(1)}, "mukps", -1)


def test_k_formula_valid_on_single_point_frames():
    k = parse("QG", "B(p => Bot) -> (B(p) -> B(Bot))")
    for mu in oracles.monotone_measures(1, 4):
        assert frame_validates(1, mu, k, "QG")[0]


def test_reg_soundness_invariant():
    rng = random.Random(7)
    pairs = [("p & q", "p"), ("p", "p | q"), ("p & q", "q | r"), ("Bot", "p")]
    for _ in range(40):
        states = rng.randint(1, 3)
        mu = rng.choice(list(oracles.monotone_measures(states, 2)))
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
        pi = rng.choice(list(oracles.monotone_measures(states, 2)))
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
    assert m.states == 4  # the valuations of 4 to p: the literal sets over {p, neg p}
    assert eval_layer(m, "MCB", parse("MCB", "C(p)")) == TwistValue(F(1, 2), F(1, 4))
    assert m.pi[m.full] == ONE and m.pi[0] == ZERO


@pytest.mark.parametrize("layer", ["MCB", "NMCB"])
@pytest.mark.parametrize("names", [("p",), ("p", "q")])
def test_canonical_belief_models_take_every_atom_value_of_a_belief_model(layer, names):
    """On n variables the canonical belief model has a state per valuation
    of 4, 4^n, gives every C-atom back the value it has in the belief model
    it is built from, and its pi is monotone, 0 on the empty set and 1 on
    the full one."""
    rng = random.Random(len(names))
    inners = gen_bd(3 if len(names) == 1 else 2, names)
    capacities = {states: list(oracles.monotone_measures(states, 3, capacity=True))
                  for states in (1, 2, 3)}
    for _ in range(15):
        states = rng.randint(1, 3)
        pi = rng.choice(capacities[states])
        source = BeliefModel(states, {p: rng.randrange(1 << states) for p in names},
                             {p: rng.randrange(1 << states) for p in names}, pi)
        atoms = [mk(layer, "cmod", phi) for phi in rng.sample(inners, 6)]
        atoms.append(mk(layer, "cmod", mk("BD", "var", var=names[-1])))
        e = {print_formula(a): eval_layer(source, layer, a) for a in atoms}
        m = canonical_mcb_model(e, atoms)
        assert m.states == 4 ** len(names)
        assert all(eval_layer(m, layer, a) == e[print_formula(a)] for a in atoms)
        assert check_property(m.states, m.pi, "monotone") == (True, None)
        assert m.pi[0] == ZERO and m.pi[m.full] == ONE


def test_truth_set_classical_connectives():
    m = _example_model()
    assert truth_set(m, parse("CPL", "p | q")) == 0b11
    assert truth_set(m, parse("CPL", "p => q")) == 0b10
    assert truth_set(m, parse("CPL", "Top")) == 0b11
    assert truth_set(m, parse("CPL", "~p <-> q")) == 0b11


def test_model_json_round_trip():
    m = _example_model()
    assert UncertaintyModel.from_json(m.to_json()) == m
    pi = next(oracles.monotone_measures(3, 2))
    bm = BeliefModel(3, {"p": 0b1}, {"p": 0b10}, pi)
    assert BeliefModel.from_json(bm.to_json()) == bm


def test_model_dataclasses_are_slotted_and_pickle():
    """Models, orders and LP witnesses keep no instance dict, and each
    comes back equal from a pickle round trip."""
    pi = {0: F(0), 1: F(1, 2), 2: F(1, 2), 3: F(1)}
    values = [
        UncertaintyModel(2, {"p": 0b01}, pi),
        BeliefModel(2, {"p": 0b01}, {"p": 0b10}, pi),
        qp.GardenforsModel(2, {0: (F(1), F(0)), 1: (F(1, 2), F(1, 2))}, {"p": 0b10}),
        qp.OrderInstance(2, {0: 0, 1: 1, 2: 1, 3: 2}),
        qp.MeasureWitness((F(1, 2), F(1, 2)), F(1, 2)),
        bd.BDModel(2, {"p": 0b11}, {"q": 0b01}),
        kripke.G2KripkeModel(2, (1, 0), {"p": 0b01}, {}),
    ]
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        assert pickle.loads(pickle.dumps(value)) == value, type(value).__name__


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
        for states in (1, 2, 3):
            mu = _random_measure(rng, states)
            first = oracles.frame_countervaluation(layer, f, states, mu)
            assert frame_validates(states, mu, f, layer) == (first is None, first), \
                print_formula(f)


@pytest.mark.parametrize("layer", ["QG", "MCB", "NMCB"])
def test_frame_validity_on_monotone_frames_matches_the_per_valuation_oracle(layer):
    """The one loop tests each distinct atom-rank tuple once; on monotone
    frames, where ranks repeat most, it still returns the first
    countervaluation that evaluating every valuation on its own finds."""
    rng = random.Random(53)
    frames = [(states, mu) for states, denominator in ((1, 4), (2, 2), (3, 1))
              for mu in oracles.monotone_measures(states, denominator)]
    for f in _layer_cases(layer, 7, 8):
        for states, mu in rng.sample(frames, 6):
            first = oracles.frame_countervaluation(layer, f, states, mu)
            assert frame_validates(states, mu, f, layer) == (first is None, first), \
                print_formula(f)


@pytest.mark.parametrize("layer", ["QG", "MCB", "NMCB"])
def test_countermodel_search_matches_the_fraction_oracle(layer):
    """The search returns the first refuting (measure, valuation) in its
    documented order, or None when no frame within the bounds refutes: on
    up to 2 states with grid 2, and up to 3 states with grid 1."""
    rng = random.Random(47)
    cases = [([], _layer_formula(rng, layer, 2)) for _ in range(5)]
    cases += [([_layer_formula(rng, layer, 1)], _layer_formula(rng, layer, 2)) for _ in range(5)]
    for xi, alpha in cases:
        for max_states, denominator in ((2, 2), (3, 1)):
            first = oracles.frame_countermodel(layer, xi, alpha, max_states, denominator)
            got = find_frame_countermodel(xi, alpha, layer, max_states, denominator)
            if first is None:
                assert got is None, print_formula(alpha)
                continue
            states, val, mu = first
            want = (UncertaintyModel(states, mu=mu, **val) if layer == "QG"
                    else BeliefModel(states, pi=mu, **val))
            assert got == want, print_formula(alpha)


def test_countermodel_search_first_refuting_on_three_states():
    """Three pairwise disjoint sets of positive capacity need three states."""
    alpha = parse("QG", "snot (snot snot B(p & ~q) & snot snot B(q & ~p) & snot snot B(~p & ~q))")
    states, val, mu = oracles.frame_countermodel("QG", [], alpha, 3, 2, capacity=True)
    assert states == 3
    got = find_frame_countermodel([], alpha, "QG", 3, 2, capacity=True)
    assert got == UncertaintyModel(states, mu=mu, **val)


def _wrong_correspondences():
    """Each condition's formula paired with another condition's property of
    the same layer, so that the reports have mismatches to compare."""
    conds = measures.CORRESPONDENCES
    out = {}
    for cond, (layer, text, _) in conds.items():
        other = next(c for c in conds if c != cond and conds[c][0] == layer)
        out[f"{cond}/{other}"] = (layer, text, conds[other][2])
    return out


@pytest.mark.parametrize("max_states,denominator", [(2, 2), (3, 1)])
def test_correspondence_reports_match_the_per_valuation_oracle(monkeypatch, max_states,
                                                               denominator):
    """Each report's frame count and mismatches are those of the plain
    per-valuation frame evaluator and the Fraction property definitions,
    for the paper's pairs and for mismatched ones."""
    pairs = {**measures.CORRESPONDENCES, **_wrong_correspondences()}
    monkeypatch.setattr(measures, "CORRESPONDENCES", pairs)
    mismatched = 0
    for cond, (layer, text, prop) in pairs.items():
        if layer != "QG" and max_states == 3:
            continue  # 4,096 valuations a frame: the oracle is too slow
        rows = oracles.correspondence_report(layer, parse(layer, text), prop, max_states,
                                             denominator)
        report = correspondence_test(cond, max_states, denominator)
        assert report == {
            "condition": cond, "frames": len(rows),
            "mismatches": [{"states": states,
                            "mu": {measures._mask_key(x): str(v) for x, v in mu.items()},
                            "frame_validates": valid, "property": holds}
                           for states, mu, valid, holds in rows if valid != holds],
            "equivalent": all(valid == holds for _, _, valid, holds in rows)}, cond
        mismatched += len(report["mismatches"])
    assert mismatched > 20


def test_check_property_on_ranks_matches_the_fraction_definitions():
    """Every property, run on the measure's ranks, gives the verdict and the
    witness of its definition on Fraction values: on monotone measures and
    on arbitrary ones, endpoints and repeated values included."""
    rng = random.Random(59)
    frames = [(states, mu) for states, denominator in ((1, 3), (2, 3), (3, 1))
              for mu in oracles.monotone_measures(states, denominator)]
    frames += [(states, _random_measure(rng, states)) for states in (1, 2, 3) for _ in range(12)]
    props = sorted(measures._PROPS)
    assert set(props) == set(oracles._PROPERTIES)
    for states, mu in frames:
        for prop in props:
            assert check_property(states, mu, prop) == \
                oracles.measure_property(states, mu, prop), (prop, mu)
        for m in range(4):
            assert check_property(states, mu, "mukps", m) == \
                oracles.measure_property(states, mu, "mukps", m), (m, mu)
    # the public check keeps its value semantics
    for states, mu in frames:
        assert measures.measure_monotone(states, mu) == oracles.measure_property(states, mu, "monotone")


def _mcb_ii_on_four_states():
    layer, text, _ = measures.CORRESPONDENCES["mcb_ii"]
    return parse(layer, text), {x: F(bin(x).count("1"), 4) for x in range(16)}


def test_frame_validation_tests_each_atom_rank_tuple_once(monkeypatch):
    """On 4 states, mu(X) = |X|/4 and mcb_ii's 2^16 inner valuations, the
    compiled formula runs once per distinct tuple of its atoms' ranks."""
    f, mu = _mcb_ii_on_four_states()
    seen = []
    real = measures._compile

    def compile_counted(formulas, top):
        inners, evs = real(formulas, top)
        return inners, [lambda atoms, ev=ev: seen.append(atoms) or ev(atoms) for ev in evs]

    monkeypatch.setattr(measures, "_compile", compile_counted)
    assert frame_validates(4, mu, f, "MCB") == (True, None)
    # the atoms C(p), C(q), C(p | q) read the measure at |p+|, |p-|, |q+|,
    # |q-|, |p+ or q+| and |p- and q-|: one rank per state count
    pop = [bin(x).count("1") for x in range(16)]
    distinct = {(pop[pp], pop[pn], pop[qp], pop[qn], pop[pp | qp], pop[pn & qn])
                for pp in range(16) for pn in range(16) for qp in range(16) for qn in range(16)}
    assert len(seen) == len(set(seen)) == len(distinct) < 1 << 16


def test_frame_loop_finds_the_first_countervaluation_where_no_tuple_repeats():
    """With a distinct value on each subset of 3 states, no two of the 4,096
    two-variable MCB valuations share their atoms' ranks; the countervaluation
    the loop returns late in the walk is still the first."""
    mu = {x: F(x, 7) for x in range(8)}
    f = parse("MCB", "delta1 C(p) -> C(q)")
    first = oracles.frame_countervaluation("MCB", f, 3, mu)
    assert first == {"vplus": {"p": 7, "q": 0}, "vminus": {"p": 0, "q": 0}}
    assert frame_validates(3, mu, f, "MCB") == (False, first)
    assert frame_validates(3, mu, parse("MCB", "delta1 (C(p & q) -> C(q))"), "MCB") == (True, None)


def _loop_oracle(layer, f, states):
    """What the class loop must do on one frame, from a plain walk over the
    inner valuations whose atom sets come from the per-state oracle: for a
    rank function, the atom-rank tuples in order of first occurrence up to
    the first failing one, and that valuation's index or None."""
    names = sorted(vars_of(f))
    inners, (ev,) = measures._compile([f], measures._RANK_TOP)
    printed = {a.children[0]: print_formula(a) for a in modal_atoms(f)}
    keys = [printed[inner] for inner in inners]
    sets = [[oracles.layer_atom_sets(layer, [f], states, val)[key] for key in keys]
            for val in oracles.inner_valuations(layer, states, names)]
    test = lambda atoms: measures._designated(layer, ev(atoms))

    def expect(rank):
        seen, order = set(), []
        for a, row in enumerate(sets):
            atoms = tuple((rank[x], 0) if layer == "QG" else (rank[x[0]], rank[x[1]]) for x in row)
            if atoms not in seen:
                seen.add(atoms)
                order.append(atoms)
                if not test(atoms):
                    return order, a
        return order, None

    return measures._frame(layer, inners, names, states), test, expect


def _loop_cases(layer, states, variables, ranks, seed):
    """The layer's correspondence formulas over ``variables`` variables,
    generated formulas over as many that pass the first valuation on some
    of the frames ``ranks``, three in all, and one atom over p, which fails
    there on every frame: p empty."""
    rng = random.Random(seed)
    out = [f for f in (parse(lay, text) for lay, text, _ in measures.CORRESPONDENCES.values()
                       if lay == layer) if len(vars_of(f)) == variables][:1]
    while len(out) < 3:
        f = _layer_formula(rng, layer, 3)
        if len(vars_of(f)) == variables and f not in out:
            expect = _loop_oracle(layer, f, states)[2]
            if any(expect(rank)[1] != 0 for rank in ranks[::50]):
                out.append(f)
    return out + [parse(layer, "B(p)" if layer == "QG" else "C(p)")]


@pytest.mark.parametrize("layer", ["QG", "MCB", "NMCB"])
def test_class_loop_tests_each_rank_tuple_in_walk_order(layer):
    """On every monotone order type up to 3 states (MCB/NMCB over one
    variable there, two on fewer states), and on 4 states for QG over two
    variables (the first 40 order types of each interior count), the loop
    hands ``test`` exactly the distinct atom-rank tuples that a walk over
    the valuations meets, in that order, up to the first failing one, and
    returns that valuation; sampled frames agree with the Fraction oracle
    too."""
    frames = [(states, [r for m in range((1 << states) - 1)
                        for r in measures._rank_functions(states, m)]) for states in (1, 2, 3)]
    if layer == "QG":
        frames.append((4, [r for m in range(15)
                           for r in itertools.islice(measures._rank_functions(4, m), 40)]))
    first_fails = 0
    for states, ranks in frames:
        variables = 1 if layer != "QG" and states == 3 else 2
        for f in _loop_cases(layer, states, variables, ranks, 61 + states):
            frame, test, expect = _loop_oracle(layer, f, states)
            for i, rank in enumerate(ranks):
                tested = []
                got = measures._countervaluation(lambda atoms: tested.append(atoms) or test(atoms),
                                                 frame, rank)
                assert (tested, got) == expect(rank), (print_formula(f), rank)
                first_fails += got == 0 and len(tested) == 1
                if i % 97 == 0:
                    mu = {x: F(r, measures._RANK_TOP) for x, r in enumerate(rank)}
                    want = oracles.frame_countervaluation(layer, f, states, mu)
                    assert want == (None if got is None else measures._inner_valuation(
                        layer, sorted(vars_of(f)), states, got)), print_formula(f)
    assert first_fails >= sum(len(ranks) for _, ranks in frames)


@pytest.mark.parametrize("layer", ["QG", "MCB", "NMCB"])
def test_sliced_inner_valuations_are_state_major(layer):
    """Bit ``x * count + a`` of a coordinate of every inner valuation is
    state ``x`` of that coordinate under valuation ``a``, and lane ``a``
    above those bits holds its subset: read either way at every ``a``, the
    valuation is valuation ``a`` itself."""
    for names in (["p"], ["p", "q"]):
        for states in (1, 2, 3):
            k = measures._coordinates(layer, names)
            count = 1 << states * k
            top, lane = count * states, 8 * measures._lane(states)
            every = measures._valuation(layer, names, measures._frame_coordinates(k, states)[0])
            for a in range(count):
                sliced = {side: {p: sum((mask >> x * count + a & 1) << x for x in range(states))
                                 for p, mask in masks.items()} for side, masks in every.items()}
                laned = {side: {p: mask >> top + lane * a & (1 << lane) - 1
                                for p, mask in masks.items()} for side, masks in every.items()}
                assert sliced == laned == measures._inner_valuation(layer, names, states, a)


@pytest.mark.parametrize("states", [1, 2, 3, 4, 9, 10])
def test_class_loop_reads_frames_without_masks_by_subset(states):
    """One QG variable has as many valuations as subsets of states, so its
    frames have no masks by subset and the loop reads every valuation off
    the tables, two bytes a lane past 8 states: on rank functions with
    every value distinct, few values, or random ones, it hands ``test`` the
    walk's tuples in the walk's order and returns the walk's valuation."""
    rng = random.Random(states)
    subsets = 1 << states
    ranks = [list(range(subsets)), [bin(x).count("1") for x in range(subsets)],
             *([rng.randrange(4) for _ in range(subsets)] for _ in range(3))]
    for text in ("B(p)", "(B(p) & B(~p)) -> B(p)", "delta B(p) <-> snot B(~p)",
                 "snot B(p | ~p) | (B(p) -> B(~p))"):
        f = parse("QG", text)
        frame, test, expect = _loop_oracle("QG", f, states)
        assert frame.splits is None and frame.count == subsets
        for rank in ranks:
            tested = []
            got = measures._countervaluation(lambda atoms: tested.append(atoms) or test(atoms),
                                             frame, rank)
            assert (tested, got) == expect(rank), (text, rank)


def test_frame_validation_of_one_variable_on_sixteen_states_within_its_peak():
    """One QG variable on 16 states has 65,536 valuations, and a measure
    with a distinct value on each subset makes each one a class of its own.
    The loop reads them off the sets' tables, and the validation allocates
    17 MiB at its peak; masks by subset, one per subset of states, would
    take 512 MiB a set."""
    mu = {x: F(sum(8 ** i for i in range(16) if x >> i & 1), sum(8 ** i for i in range(16)))
          for x in range(1 << 16)}
    f = parse("QG", "(B(p) & B(~p)) -> B(p)")
    tracemalloc.start()
    try:
        assert frame_validates(16, mu, f, "QG") == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak


def test_ranks_keep_the_order_of_the_values():
    """Ranks order the subsets as their values do, 0 and 1 at 0 and the top;
    on 16 states with 65,536 distinct denominators, 1/(x + 1), they are
    found with a small peak, where scaling the values to their least common
    denominator would hold 65,536 numbers of 94,000 bits."""
    rng = random.Random(5)
    for _ in range(200):
        mu = {x: F(rng.randrange(7), 6) for x in range(8)}
        rank = measures._ranks(mu)
        for x, y in itertools.product(range(8), repeat=2):
            assert (mu[x] < mu[y]) == (rank[x] < rank[y])
            assert (mu[x] == mu[y]) == (rank[x] == rank[y])
        assert all((rank[x] == 0) == (mu[x] == 0) for x in range(8))
        assert all((rank[x] == measures._RANK_TOP) == (mu[x] == 1) for x in range(8))
    mu = {x: F(1, x + 1) for x in range(1 << 16)}
    tracemalloc.start()
    try:
        rank = measures._ranks(mu)
        peak = tracemalloc.get_traced_memory()[1]
        assert check_property(16, mu, "monotone")[0] is False
    finally:
        tracemalloc.stop()
    assert rank[0] == measures._RANK_TOP and rank[1:] == list(range(65535, 0, -1))
    assert peak < 32 << 20, peak


def test_frame_validation_on_four_states_within_its_budget():
    """0.15 s of CPU for the 2^16 valuations of mcb_ii on 4 states.  They
    fall into 1,225 classes of atom ranks, each tested once, and one
    validation takes 0.010-0.014 s (python 3.11, shared 2-core VM), where a
    walk over every valuation took 0.08-0.17 s; the fastest of five runs
    is held to the budget, so a load spike on one run does not fail it.
    Each run validates a fresh copy of the formula, whose memo is empty, so
    each one compiles it, as a first validation does."""
    f, mu = _mcb_ii_on_four_states()
    elapsed = []
    for _ in range(5):
        f = copy.copy(f)
        start = time.process_time()
        assert frame_validates(4, mu, f, "MCB") == (True, None)
        elapsed.append(time.process_time() - start)
    assert min(elapsed) < 0.15, elapsed


def test_countermodel_search_stops_past_its_work_cap(monkeypatch, capsys):
    """The search counts the inner valuations it reads over all measures and
    stops past ``_MAX_SEARCH_VALUATIONS``, stating where; a search that finds
    its model first is unaffected."""
    k = parse("QG", "B(p => Bot) -> (B(p) -> B(Bot))")
    assert find_frame_countermodel([], k, "QG").states == 2
    start = time.process_time()
    assert cli.main(["model", "search-countermodel", "--layer", "mcb", "C(p & q) -> C(p)"]) == 2
    assert time.process_time() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError: countermodel search undecided: stopped on 3 states at "
                 "denominator 3 after reading 2,099,776 inner valuations (> 2,097,152)"}
    # 4 valuations an order type on 1 state, 4 order types with at most 2
    # interior values, then 16 on 2 states: the second order type there
    # passes the cap
    monkeypatch.setattr(measures, "_MAX_SEARCH_VALUATIONS", 40)
    with pytest.raises(ValueError, match=r"^countermodel search undecided: stopped on 2 states at "
                                         r"denominator 1 after reading 48 inner valuations "
                                         r"\(> 40\)$"):
        find_frame_countermodel([], parse("QG", "B(p & q) -> B(p)"), "QG", 2, 3)
    assert find_frame_countermodel([], parse("QG", "B(r | ~r)"), "QG").states == 1


def test_correspondence_test_stops_past_the_shared_work_cap():
    """The correspondence test counts the inner valuations it reads under
    the countermodel search's cap: mcb_i up to 4 states on grid 3, 160,944
    grid measures on 4 states alone at 65,536 valuations each, stops on 3
    states."""
    start = time.process_time()
    with pytest.raises(ValueError, match=r"^correspondence test undecided: stopped on 3 states at "
                                         r"denominator 3 after reading 2,097,472 inner valuations "
                                         r"\(> 2,097,152\)$"):
        correspondence_test("mcb_i", 4, 3)
    assert time.process_time() - start < 10


def test_frame_searches_leave_no_reference_cycles():
    mu = {0: F(0), 1: F(1, 2), 2: F(1, 2), 3: F(1)}
    mcb = parse("MCB", "C(p & q) -> C(p)")
    calls = [lambda: frame_validates(2, mu, mcb, "MCB"),
             lambda: frame_validates(2, mu, parse("QG", "B(p) -> B(p | q)"), "QG"),
             lambda: find_frame_countermodel([], mcb, "MCB", 2, 2),
             lambda: correspondence_test("mcb_ii", 2, 2),
             lambda: check_property(2, mu, "mcb_i")]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            for _ in range(20):
                call()
            assert gc.collect() == 0
    finally:
        gc.enable()
