"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact rational equalities; the time limits are the
stated budgets.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines.
"""

import copy
import json
import pathlib
import random
import time
from fractions import Fraction as F
from itertools import product

from qublogic import bd, calculi, decide, kripke, measures, qp
from qublogic.algebra import ONE, ZERO, TwistValue, eval_big, eval_g2, twist_le
from qublogic.syntax import mk, parse, print_formula, var

from helpers import (ac_normal, gen_bd, gen_big, gen_g2, gen_sifs, instantiate_schema,
                     measure_from_rank, nontrivial_orders, random_gardenfors, schema_metas)
from oracles import chain_eval_big, monotone_measures, oracle_big_valid, oracle_g2_valid

DATA = pathlib.Path(__file__).parent / "data"


def _criterion(n: int, limit: float, body) -> None:
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {n}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"[acceptance] criterion {n}: PASS ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {n} exceeded its {limit}s budget"


def test_criterion_01_algebra_tables():
    def body():
        grid = [F(i, 6) for i in range(7)]
        meet, imp, coimp, join = (parse("BIG", t) for t in ("p & q", "q -> r", "p -< q", "q | r"))
        triples = 0
        for a in grid:
            for b in grid:
                for c in grid:
                    e = {"p": a, "q": b, "r": c}
                    assert (eval_big(meet, e) <= c) == (a <= eval_big(imp, e))
                    assert (eval_big(coimp, e) <= c) == (a <= eval_big(join, e))
                    triples += 1
        assert triples == 343
        assert eval_big(imp, {"q": F(7, 10), "r": F(3, 10)}) == F(3, 10)

    _criterion(1, 1.0, body)


def test_criterion_02_remark_reproduction():
    def body():
        e = {"B(p)": F(7, 10), "B(q)": F(6, 10), "B(r)": F(5, 10), "B(s)": F(4, 10)}
        assert eval_big(parse("QG", "(B(p) -> B(q)) -> (B(r) -> B(s))"), e) == F(2, 5)
        weights = {x: (F(4, 10), F(3, 10), F(2, 10), F(1, 10)) for x in range(4)}
        m = qp.GardenforsModel(4, weights,
                               {"p": 0b0011, "q": 0b0101, "r": 0b0110, "s": 0b0001})
        assert m.prob(0, m.v["p"]) == F(7, 10) and m.prob(0, m.v["s"]) == F(4, 10)
        assert qp.qp_sat(m, 0, parse("QP", "(p <= q) => (r <= s)"))

    _criterion(2, 1.0, body)


def test_criterion_03_big_decision():
    def body():
        names = ("p", "q", "r")
        for schema in calculi.schema_table("HBIG"):
            metas = sorted({v for v in schema_metas(schema.sugared)})
            for combo in product(names, repeat=len(metas)):
                subst = {m_: var("BIG", n) for m_, n in zip(metas, combo)}
                inst = instantiate_schema(schema.sugared, subst)
                assert decide.big_valid(inst).holds, schema.name
        # the comparability formula of the belief-comparison example, in the
        # form the recap section prints (the in-text variant with a strong
        # negation on the second disjunct is a misprint and refutable)
        assert decide.big_valid(parse("BIG", "delta(a -> b) | delta(b -> a)")).holds
        misprint = parse("BIG", "delta(a -> b) | snot delta(b -> a)")
        verdict = decide.big_valid(misprint)
        assert not verdict.holds and chain_eval_big(misprint, verdict.witness, ONE) < ONE
        v = decide.big_valid(parse("BIG", "p -> q"))
        assert not v.holds and v.witness["p"] > v.witness["q"]

    _criterion(3, 5.0, body)


def test_criterion_04_grid_vs_oracle():
    def body():
        for f in gen_big(3):
            assert decide.big_valid(f).holds == oracle_big_valid(f, ["p", "q"]), \
                print_formula(f)
        for lang, nelson in (("G2ORD", False), ("G2NEL", True)):
            for f in gen_g2(lang, 3):
                assert decide.g2_valid(lang, f).holds == \
                    oracle_g2_valid(f, ["p", "q"], nelson), print_formula(f)

    _criterion(4, 60.0, body)


def test_criterion_05_bd():
    def body():
        sequents = [("p & q", "q", True), ("p", "q | neg q", False),
                    ("p", "p | q", True), ("p & neg p", "q", False)]
        for left, right, expected in sequents:
            phi, chi = parse("BD", left), parse("BD", right)
            ok, witness = bd.bd_entails(phi, chi)
            assert ok == expected
            if not ok:
                assert not bd.le4(bd.four_eval(witness, phi), bd.four_eval(witness, chi))
        formulas = gen_bd(4)
        valuations = [dict(zip(("p", "q"), combo)) for combo in product(bd.FOUR, repeat=2)]
        table4 = bd.four_eval_table(valuations, formulas)
        # BD clauses are state-local, so the 16 one-state counterparts stack
        # into a single model whose state i carries valuation i
        points = [bd.single_point_counterpart(v) for v in valuations]
        stacked = bd.BDModel(
            16,
            {p: sum(m.vplus[p] << i for i, m in enumerate(points)) for p in ("p", "q")},
            {p: sum(m.vminus[p] << i for i, m in enumerate(points)) for p in ("p", "q")},
        )
        supports = bd.support_table(stacked, formulas)
        for f in formulas:
            pos, neg = supports[f]
            for i in range(16):
                val = table4[f][i]
                assert bool(pos >> i & 1) == (val in ("t", "b"))
                assert bool(neg >> i & 1) == (val in ("f", "b"))
        # and the stacking is faithful to the one-state counterparts
        for f in formulas[::4001]:
            for i, m in enumerate(points):
                assert bd.support(m, 0, f) == \
                    (bool(supports[f][0] >> i & 1), bool(supports[f][1] >> i & 1))

    _criterion(5, 10.0, body)


def test_criterion_06_correspondence():
    def body():
        for cond in ("cond_i", "cond_ii", "cond_iii", "cond_iv"):
            report = measures.correspondence_test(cond, 2, 3)
            assert report["equivalent"], report["mismatches"][:1]
            assert report["frames"] >= 46

    _criterion(6, 60.0, body)


def _qbel_frames():
    for states, denom in ((1, 3), (2, 3), (3, 2)):
        for mu in monotone_measures(states, denom):
            yield states, mu


def test_criterion_07_qbel():
    def body():
        witness_text = ("snot delta(B(p | q) -> B(p)) -> "
                        "snot delta(B((p | q) | (~q & r)) -> B(p | (~q & r)))")
        witness_formula = parse("QG", witness_text)
        genuine = parse("QG", "snot delta(B(q) -> B(p & q)) -> "
                              "snot delta(B(q | (~q & r)) -> B((p & q) | (~q & r)))")
        spot_pool = _qbel_instances()
        n_violating = n_satisfying = 0
        for states, mu in _qbel_frames():
            full = (1 << states) - 1
            ok, wit = measures.check_property(states, mu, "mupm")
            if not ok:
                n_violating += 1
                x, y, z = wit
                v = {"p": x, "q": y, "r": z}
                model = measures.UncertaintyModel(states, v, mu)
                assert measures.eval_qg(model, witness_formula) == ZERO
                assert measures.eval_qg(model, genuine) == ZERO
            else:
                n_satisfying += 1
                # exact sweep: instances depend on the frame only through the
                # realizable truth-set triples (A subset of B, B disjoint C)
                for a in range(full + 1):
                    for b in range(full + 1):
                        if a & ~b:
                            continue
                        for c in range(full + 1):
                            if b & c:
                                continue
                            if mu[a] < mu[b]:
                                assert mu[a | c] < mu[b | c], (states, mu, a, b, c)
                if states <= 2:
                    for phi, chi, psi in spot_pool:
                        inst = _qbel_formula(phi, chi, psi)
                        assert measures.frame_validates(states, mu, inst, "QG")[0]
        assert n_violating > 0 and n_satisfying > 0

    _criterion(7, 120.0, body)


def _qbel_instances():
    pool = [("p & q", "q", "~q & r"), ("p", "p | q", "~p & ~q"),
            ("p & r", "r", "~r"), ("q & (p | r)", "q", "~q & r")]
    out = []
    for phi_t, chi_t, psi_t in pool:
        phi, chi, psi = (parse("CPL", t) for t in (phi_t, chi_t, psi_t))
        assert calculi.cpl_valid(mk("CPL", "matimp", phi, chi))
        assert calculi.cpl_valid(mk("CPL", "not", mk("CPL", "and", chi, psi)))
        assert not calculi.cpl_valid(mk("CPL", "matimp", chi, phi))
        out.append((phi, chi, psi))
    return out


def _qbel_formula(phi, chi, psi):
    b = lambda g: mk("QG", "bmod", g)
    lhs = mk("QG", "snot", mk("QG", "delta", mk("QG", "gimp", b(chi), b(phi))))
    rhs = mk("QG", "snot", mk("QG", "delta", mk("QG", "gimp",
             b(mk("CPL", "or", chi, psi)), b(mk("CPL", "or", phi, psi)))))
    return mk("QG", "gimp", lhs, rhs)


def test_criterion_08_sif_faithfulness():
    def body():
        sifs = gen_sifs()
        assert len(sifs) == 308
        translations = [qp.translate_sif(s) for s in sifs]
        rng = random.Random(20240817)
        for _ in range(200):
            m = random_gardenfors(rng)
            x = rng.randrange(m.states)
            um = qp.g_counterpart(m, x)
            for s, t in zip(sifs, translations):
                assert qp.qp_sat(m, x, s) == (measures.eval_qg(um, t) == ONE), \
                    (print_formula(s), m.to_json(), x)

    _criterion(8, 60.0, body)


def test_criterion_09_lp_representability():
    def body():
        total = 0
        for n in (1, 2, 3):
            for rank in nontrivial_orders(n):
                total += 1
                order = qp.OrderInstance(n, rank)
                witness = qp.represent_order_lp(order)
                mu = measure_from_rank(rank)
                kps = all(measures.check_property(n, mu, "mukps", m)[0] for m in range(5))
                assert (witness is not None) == kps, (n, rank)
                if witness is not None:
                    strict, equal = order.consecutive_pairs()
                    assert witness.verifies(strict, equal)
        assert total == 1795

    _criterion(9, 120.0, body)


def test_criterion_10_proof_checker():
    def body():
        fixtures = [json.loads((DATA / name).read_text())
                    for name in ("deriv_a0_translation.json", "deriv_additivity.json",
                                 "deriv_reg.json")]
        assert [len(f["steps"]) for f in fixtures] == [9, 4, 6]
        for obj in fixtures:
            deriv = calculi.Derivation.from_json(obj)
            report = calculi.check_derivation(deriv.calculus, deriv)
            assert report.accepted, report.to_json()
        for obj in fixtures:
            for i in range(len(obj["steps"])):
                mutated = copy.deepcopy(obj)
                mutated["steps"][i]["formula"] = \
                    "snot (" + mutated["steps"][i]["formula"] + ")"
                deriv = calculi.Derivation.from_json(mutated)
                assert not calculi.check_derivation(deriv.calculus, deriv).accepted, \
                    (obj["calculus"], i + 1)

    _criterion(10, 5.0, body)


def test_criterion_11_countermodel_search():
    def body():
        k = parse("QG", "B(p => Bot) -> (B(p) -> B(Bot))")
        m = measures.find_frame_countermodel([], k, "QG", 4, 4)
        assert m is not None and m.states == 2
        assert measures.eval_qg(m, k) != ONE

        taut = parse("QG", "B(r | ~r)")
        m2 = measures.find_frame_countermodel([], taut, "QG", 4, 4)
        assert m2 is not None and m2.states == 1 and m2.mu[m2.full] == F(1, 2)

        mcb = parse("MCB", "delta1(C(p) -> C(q)) | delta1(C(q) -> C(p))")
        m3 = measures.find_frame_countermodel([], mcb, "MCB", 4, 4)
        assert m3 is not None
        nmcb = parse("NMCB", "deltaN(C(p) ==> C(q)) | deltaN(C(q) ==> C(p))")
        m4 = measures.find_frame_countermodel([], nmcb, "NMCB", 4, 4)
        assert m4 is not None

    _criterion(11, 10.0, body)


def test_criterion_12_mcb_evidence_triple():
    def body():
        pi = {0: F(0), 1: F(3, 10), 2: F(0), 3: F(1, 2),
              4: F(0), 5: F(1, 2), 6: F(1, 2), 7: F(1)}
        m = measures.BeliefModel(3, {"q": 0b011, "p": 0, "r": 0b111},
                                 {"q": 0b001, "p": 0, "r": 0}, pi)
        vq = measures.eval_layer(m, "MCB", parse("MCB", "C(q & neg q)"))
        vp = measures.eval_layer(m, "MCB", parse("MCB", "C(p & neg p)"))
        vr = measures.eval_layer(m, "MCB", parse("MCB", "C(r & neg r)"))
        assert vq == TwistValue(F(3, 10), F(1, 2))
        assert vp == TwistValue(ZERO, ZERO)
        assert vr == TwistValue(ZERO, ONE)
        assert twist_le(vr, vp) and vr != vp
        assert twist_le(vr, vq) and vr != vq
        assert not twist_le(vp, vq) and not twist_le(vq, vp)

    _criterion(12, 1.0, body)


def test_criterion_13_appendix_lemmas():
    def body():
        grid = [F(i, 3) for i in range(4)]
        vals = [TwistValue(a, b) for a in grid for b in grid]
        formulas = gen_g2("G2ORD", 3, sugar=False) + gen_g2("G2NEL", 3, sugar=False)
        for vp in vals:
            for vq in vals:
                e = {"p": vp, "q": vq}
                m = kripke.valuation_to_model(e)
                table = kripke.support_table(m, formulas)
                full = (1 << m.states) - 1
                pairs = set()
                for f in formulas:
                    v = eval_g2(f, e, f.lang)
                    pos, neg = table[f]
                    assert (v.truth == ONE) == (pos == full)
                    assert (v.falsity == ONE) == (neg == full)
                    pairs.add((v.truth, bin(pos).count("1")))
                    pairs.add((v.falsity, bin(neg).count("1")))
                for (v1, s1) in pairs:
                    for (v2, s2) in pairs:
                        assert (v1 <= v2) == (s1 <= s2)
                _, e2 = kripke.model_to_valuation(m)
                m2 = kripke.valuation_to_model(e2)
                t2 = kripke.support_table(m2, formulas)
                full2 = (1 << m2.states) - 1
                for f in formulas:
                    assert (table[f][0] == full) == (t2[f][0] == full2)
                    assert (table[f][1] == full) == (t2[f][1] == full2)

    _criterion(13, 60.0, body)


def test_criterion_14_e_notation():
    def body():
        phis = [var("QP", "p1"), var("QP", "p2")]
        chis = [var("QP", "q1"), var("QP", "q2")]
        generated = qp.e_notation(phis, chis)
        printed = parse("QP",
            "(p1 & p2 & q1 & q2"
            " | ~p1 & p2 & ~q1 & q2"
            " | ~p1 & p2 & q1 & ~q2"
            " | p1 & ~p2 & q1 & ~q2"
            " | p1 & ~p2 & ~q1 & q2"
            " | ~p1 & ~p2 & ~q1 & ~q2) ~~ Top")
        assert ac_normal(generated) == ac_normal(printed)

    _criterion(14, 1.0, body)
