import gc
import json
import random
import re
import time
import tracemalloc
from fractions import Fraction as F
from itertools import product

import pytest

from qublogic import bd, cli, kripke
from qublogic.algebra import ONE, ZERO
from qublogic.bd import (MAX_BD_VARS, BDModel, FOUR, bd_entails, four_eval, four_eval_table, le4,
                         sequent_valid_on_model, single_point_counterpart, support,
                         support_table, truth_sets)
from qublogic.kripke import G2KripkeModel
from qublogic.measures import BeliefModel, UncertaintyModel
from qublogic.qp import GardenforsModel
from qublogic.syntax import parse, print_formula, vars_of

from helpers import gen_bd
from oracles import bd_support_clauses


def test_support_direct_clause():
    m = BDModel(2, {"p": 0b01}, {"p": 0b01})
    assert support(m, 0, parse("BD", "p")) == (True, True)
    assert support(m, 1, parse("BD", "p")) == (False, False)


def test_de_morgan_clause_identity():
    m = BDModel(3, {"p": 0b011, "q": 0b101}, {"p": 0b100, "q": 0b010})
    left = parse("BD", "neg (p & q)")
    right = parse("BD", "neg p | neg q")
    for s in range(3):
        assert support(m, s, left) == support(m, s, right)


def test_disjunction_clause():
    m = BDModel(1, {"p": 1, "q": 0}, {"p": 0, "q": 0})
    assert support(m, 0, parse("BD", "p | q")) == (True, False)
    m2 = BDModel(1, {"p": 1, "q": 0}, {"p": 1, "q": 1})
    assert support(m2, 0, parse("BD", "p | q")) == (True, True)


def test_truth_sets_examples():
    m = BDModel(3, {"p": 0b101}, {"p": 0})
    assert truth_sets(m, parse("BD", "p")) == (0b101, 0)
    m2 = BDModel(1, {"p": 0}, {"p": 0})
    assert truth_sets(m2, parse("BD", "p & neg p")) == (0, 0)
    m3 = BDModel(2, {"q": 0b01}, {"q": 0b10})
    assert truth_sets(m3, parse("BD", "q & neg q")) == (0, 0b11)


def test_truth_sets_against_clause_oracle():
    m = BDModel(3, {"p": 0b011, "q": 0b110}, {"p": 0b100, "q": 0b011})
    vplus = {"p": {0, 1}, "q": {1, 2}}
    vminus = {"p": {2}, "q": {0, 1}}
    for f in gen_bd(3):
        pos, neg = truth_sets(m, f)
        for s in range(3):
            assert (bool(pos >> s & 1), bool(neg >> s & 1)) == \
                bd_support_clauses(vplus, vminus, s, f)


def test_sequents_on_models():
    m = BDModel(2, {"p": 0b01, "q": 0b11}, {"p": 0b10, "q": 0})
    assert sequent_valid_on_model(m, parse("BD", "p & q"), parse("BD", "q"))
    m2 = BDModel(1, {"p": 1, "q": 0}, {"p": 0, "q": 0})
    assert not sequent_valid_on_model(m2, parse("BD", "p"), parse("BD", "q | neg q"))
    f = parse("BD", "p & neg (q | p)")
    assert sequent_valid_on_model(m, f, f)


def test_bd_entails_examples():
    assert bd_entails(parse("BD", "p"), parse("BD", "p | q"))[0]
    ok, witness = bd_entails(parse("BD", "p & neg p"), parse("BD", "q"))
    assert not ok
    assert not le4(four_eval(witness, parse("BD", "p & neg p")), four_eval(witness, parse("BD", "q")))
    assert bd_entails(parse("BD", "neg neg p"), parse("BD", "p"))[0]
    assert bd_entails(parse("BD", "p & q"), parse("BD", "q"))[0]
    assert not bd_entails(parse("BD", "p"), parse("BD", "q | neg q"))[0]


def _table_entails(phi, chi):
    """The sequent on the four values, valuation by valuation in
    ``product(FOUR)`` order, through the lattice tables."""
    names = sorted(vars_of(phi) | vars_of(chi))
    valuations = [dict(zip(names, v)) for v in product(FOUR, repeat=len(names))]
    table = four_eval_table(valuations, [phi, chi])
    for v, x, y in zip(valuations, table[phi], table[chi]):
        if not le4(x, y):
            return False, v
    return True, None


def test_bd_entails_agrees_with_the_four_valued_tables():
    # the support masks over all valuations at once against the lattice,
    # countervaluations included
    rng = random.Random(7)
    pools = {1: gen_bd(3, ("p",)), 2: gen_bd(3), 4: gen_bd(2, ("p", "q", "r", "s"))}
    seen = []
    for _ in range(600):
        phi, chi = (rng.choice(pools[rng.choice((1, 2, 4))]) for _ in range(2))
        verdict = bd_entails(phi, chi)
        assert verdict == _table_entails(phi, chi), (print_formula(phi), print_formula(chi))
        seen.append(verdict[0])
    assert seen.count(True) >= 60 and seen.count(False) >= 60, seen.count(True)


def test_bd_entails_refuses_past_its_variable_cap(capsys):
    names = [f"x{i}" for i in range(MAX_BD_VARS + 1)]
    phi, chi = parse("BD", " & ".join(names)), parse("BD", " | ".join(names))
    message = f"BD decision over 13 variables (> 12): {4 ** 13:,} valuations"
    assert MAX_BD_VARS == 12 and message.endswith("67,108,864 valuations")
    start = time.process_time()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bd_entails(phi, chi)
    assert time.process_time() - start < 0.1
    assert cli.main(["bd-entails", print_formula(phi), print_formula(chi)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": f"ValueError: {message}"}


def test_bd_entails_keeps_only_the_masks_still_to_be_read():
    # over 10 variables every mask has 4**10 bits: the variables take 20,
    # and the 39 conjunctions and disjunctions 78 more if every subformula's
    # masks were kept to the end, as support_table keeps them
    x = [f"x{i}" for i in range(10)]
    phi = parse("BD", " & ".join(f"(neg {a} | {b})" for a, b in zip(x, x[1:] + x[:1])))
    chi = parse("BD", "(" + " & ".join(f"(neg {b} | {a})" for a, b in zip(x, x[1:] + x[:1]))
                + ") | neg x3")

    def traced_peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def keep_every_mask():
        masks = bd._SupportMasks(*bd.valuation_masks(x))
        return masks(phi), masks(chi)

    (p1, n1), (p2, n2) = keep_every_mask()
    assert p1 & ~p2 | n2 & ~n1
    _, kept = traced_peak(keep_every_mask)
    verdict, peak = traced_peak(lambda: bd_entails(phi, chi))
    assert verdict == (False, {**{p: "t" for p in x[:8]}, "x8": "b", "x9": "n"})
    assert peak < kept / 2, (peak, kept)
    assert bd_entails(phi, parse("BD", f"{print_formula(chi)} | {print_formula(phi)}")) == (True, None)


def test_four_eval_examples():
    assert four_eval({"p": "b"}, parse("BD", "neg p")) == "b"
    assert four_eval({"p": "t", "q": "n"}, parse("BD", "p & q")) == "n"
    assert four_eval({"p": "t", "q": "b"}, parse("BD", "p | q")) == "t"


def test_counterpart_example():
    m = single_point_counterpart({"p": "b"})
    assert m.vplus["p"] == 1 and m.vminus["p"] == 1


def test_counterpart_bridge_small():
    formulas = gen_bd(3)
    for vp in FOUR:
        for vq in FOUR:
            v = {"p": vp, "q": vq}
            m = single_point_counterpart(v)
            for f in formulas:
                val = four_eval(v, f)
                assert support(m, 0, f) == (val in ("t", "b"), val in ("f", "b"))


def test_no_bd_tautologies():
    v = {"p": "n", "q": "n"}
    for f in gen_bd(3):
        assert four_eval(v, f) == "n"


def _model_search_valid(phi, chi, max_states=2):
    names = sorted(vars_of(phi) | vars_of(chi))
    for n in range(1, max_states + 1):
        masks = list(range(1 << n))
        for combo in product(masks, repeat=2 * len(names)):
            vplus = {p: combo[2 * i] for i, p in enumerate(names)}
            vminus = {p: combo[2 * i + 1] for i, p in enumerate(names)}
            if not sequent_valid_on_model(BDModel(n, vplus, vminus), phi, chi):
                return False
    return True


def test_four_valued_decision_agrees_with_model_search():
    formulas = gen_bd(2)
    for phi in formulas:
        for chi in formulas:
            assert bd_entails(phi, chi)[0] == _model_search_valid(phi, chi)


def test_batch_tables_agree_with_pointwise():
    m = BDModel(2, {"p": 0b01, "q": 0b11}, {"p": 0b10, "q": 0b01})
    formulas = gen_bd(3)
    table = support_table(m, formulas)
    for f in formulas[::7]:
        assert table[f] == truth_sets(m, f)
    vals = [dict(zip(("p", "q"), combo)) for combo in product(FOUR, repeat=2)]
    table4 = four_eval_table(vals, formulas)
    for f in formulas[::11]:
        assert table4[f] == tuple(four_eval(v, f) for v in vals)


def test_model_validation():
    with pytest.raises(ValueError):
        BDModel(0)
    with pytest.raises(ValueError):
        BDModel(1, {"p": 0b10}, {})
    with pytest.raises(KeyError):
        truth_sets(BDModel(1), parse("BD", "p"))


def test_one_sided_bindings_read_as_empty():
    m = BDModel(2, {"p": 0b01}, {"q": 0b10})
    f = parse("BD", "p | neg q")
    assert truth_sets(m, parse("BD", "p")) == (0b01, 0)
    assert truth_sets(m, parse("BD", "q")) == (0, 0b10)
    assert truth_sets(m, f) == support_table(m, [f])[f] == (0b11, 0)
    g = parse("G2ORD", "p | neg q")
    assert kripke.support_table(G2KripkeModel(2, (0, 1), {"p": 0b11}, {"q": 0b10}), [g]) == \
        {g: (0b11, 0)}
    with pytest.raises(KeyError):
        truth_sets(m, parse("BD", "r"))


@pytest.mark.parametrize("build", [
    lambda: BDModel(1, {"p": 0b10}, {"p": 0}),
    lambda: BeliefModel(1, {"p": 0b10}, {"p": 0}, {0: ZERO, 1: ONE}),
    lambda: G2KripkeModel(1, (0,), {"p": 0b10}, {"p": 0}),
], ids=["BDModel", "BeliefModel", "G2KripkeModel"])
def test_both_valuations_are_range_checked(build):
    # a variable bound in both maps used to be checked in its negative map only
    with pytest.raises(ValueError):
        build()


_PAST = {"p": 0b10}  # state 1, past a one-state model


@pytest.mark.parametrize("build", [
    lambda: UncertaintyModel(1, _PAST, {0: ZERO, 1: ONE}),
    lambda: BeliefModel(1, _PAST, {}, {0: ZERO, 1: ONE}),
    lambda: BeliefModel(1, {}, _PAST, {0: ZERO, 1: ONE}),
    lambda: BDModel(1, _PAST, {}),
    lambda: BDModel(1, {}, _PAST),
    lambda: G2KripkeModel(1, (0,), _PAST, {}),
    lambda: G2KripkeModel(1, (0,), {}, _PAST),
    lambda: GardenforsModel(1, {0: (ONE,)}, _PAST),
], ids=["UncertaintyModel", "BeliefModel+", "BeliefModel-", "BDModel+", "BDModel-",
        "G2KripkeModel+", "G2KripkeModel-", "GardenforsModel"])
def test_every_model_refuses_a_state_past_it_with_one_message(build):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == "valuation of 'p' references unknown states"


def test_model_json_round_trip():
    m = BDModel(3, {"p": 0b011}, {"p": 0b100, "q": 0b001})
    assert BDModel.from_json(m.to_json()) == m


_MU3 = {x: F(bin(x).count("1"), 3) for x in range(8)}


@pytest.mark.parametrize("model", [
    UncertaintyModel(3, {"p": 0b101, "q": 0, "r": 0b111}, _MU3),
    BeliefModel(3, {"p": 0b011, "q": 0}, {"p": 0b100, "q": 0b111}, _MU3),
    GardenforsModel(2, {0: (F(1, 3), F(2, 3)), 1: (ONE, ZERO)}, {"p": 0b10, "q": 0}),
    G2KripkeModel(3, (2, 0, 1), {"p": 0b101, "q": 0}, {"p": 0b001}),
], ids=lambda m: type(m).__name__)
def test_two_layered_model_json_round_trip(model):
    assert type(model).from_json(model.to_json()) == model


def test_support_recursions_leave_no_reference_cycles():
    phi, chi = parse("BD", "p & (q | neg r)"), parse("BD", "neg neg p | r")
    m = BDModel(3, {"p": 0b011, "q": 0b101, "r": 0b110}, {"p": 0b100, "r": 0b001})
    k = G2KripkeModel(3, (0, 1, 2), {"p": 0b110, "q": 0b100}, {"p": 0b100, "q": 0b111})
    g = parse("G2ORD", "(p -> q) | neg (q -< p)")
    calls = [lambda: bd_entails(phi, chi), lambda: bd_entails(chi, phi),
             lambda: support_table(m, [phi, chi]), lambda: kripke.support_table(k, [g])]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            for _ in range(50):
                call()
            assert gc.collect() == 0
    finally:
        gc.enable()
