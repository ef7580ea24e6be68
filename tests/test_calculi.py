import copy
import json
import pathlib
import random
from itertools import product

import pytest

from qublogic import calculi, decide, measures, qp
from qublogic.calculi import (CALC_LANG, Derivation, check_derivation, cpl_valid,
                              match_axiom, match_sequent_axiom, qp_tautology, truth_table)
from qublogic.syntax import RESERVED_VAR, mk, parse, print_formula, var, vars_of

DATA = pathlib.Path(__file__).parent / "data"
FIXTURES = ("deriv_a0_translation.json", "deriv_additivity.json", "deriv_reg.json")


def _load(name: str) -> dict:
    return json.loads((DATA / name).read_text())


def test_cpl_valid_examples():
    assert cpl_valid(parse("CPL", "(p | Bot) <-> p"))
    assert cpl_valid(parse("CPL", "(p => q) => ((p | (~p & q)) <-> q)"))
    assert not cpl_valid(parse("CPL", "p => q"))


def test_truth_table():
    assert truth_table(parse("CPL", "p"), ["p", "q"]) == 0b1010
    assert truth_table(parse("CPL", "p & q"), ["p", "q"]) == 0b1000


def test_qp_tautology_abstracts_comparisons():
    assert qp_tautology(parse("QP", "(p <= q) | ~(p <= q)"))
    assert not qp_tautology(parse("QP", "p <= q"))
    assert qp_tautology(parse("QP", "((p <= q) & p) => p"))


def test_match_axiom_examples():
    name, sub = match_axiom("HQG", parse("QG", "B(p & q) -> B(p)"))
    assert name == "reg" and print_formula(sub["phi"]) == "p & q"
    assert match_axiom("HQG", parse("QG", "snot delta(B(p | ~p) -> B(q & ~q))"))[0] == "nontriv"
    assert match_axiom("HMCB", parse("MCB", "C(p & q) -> C(p)"))[0] == "mcb_bd"
    assert match_axiom("HNMCB", parse("NMCB", "C(p & q) ==> C(p)"))[0] == "nmcb_bd"
    assert match_axiom("HMCB", parse("MCB", "C(neg p) <-> neg C(p)"))[0] == "mcb_neg"
    assert match_axiom("HQP", parse("QP", "Bot <= p & q"))[0] == "A1"
    assert match_axiom("HQP", parse("QP", "Bot << Top"))[0] == "A3"
    # a metavariable binds its first occurrence as written; a later one may
    # spell it differently with the same expansion
    iff = parse("BIG", "p <-> q")
    assert match_axiom("HBIG", parse("BIG", "((p <-> q) & r) -> ((p -> q) & (q -> p))")) == \
        ("biG4a", {"a": iff, "b": parse("BIG", "r")})


def _instantiate(f, args):
    if f.kind == "var" and f.var.startswith(calculi._META_PREFIX):
        return args[f.var[len(calculi._META_PREFIX):]]
    if not f.children:
        return f
    return mk(f.lang, f.kind, *(_instantiate(c, args) for c in f.children))


@pytest.mark.parametrize("calc", ["HG2NEL", "HNMCB"])
def test_match_axiom_binds_subformulas_as_written(calc):
    # each schema instantiated with Nelson sugar: the substitution gives the
    # arguments back as written, so none shows the reserved variable
    lang = CALC_LANG[calc]
    p, q, r = ("p", "q", "r") if lang == "G2NEL" else ("C(p)", "C(q)", "C(r)")
    args = {"a": parse(lang, f"snot {p}"), "b": parse(lang, f"deltaN {q}"),
            "c": parse(lang, f"snot deltaN ({r} ==> {p})"),
            "phi": parse("BD", "p & q"), "chi": parse("BD", "p")}
    for schema in calculi.schema_table(calc):
        name, binding = match_axiom(calc, _instantiate(schema.sugared, args))
        if schema.name == "biG7":
            # snot x expands to x ~> Bot, so the table's biG1 comes first
            # and binds c to the expansion of Bot
            assert name == "biG1" and binding["a"] == args["a"] and binding["b"] == args["b"]
            continue
        assert name == schema.name
        assert binding == {k: args[k] for k in binding}, (name, binding)
        assert all(RESERVED_VAR not in vars_of(v) for v in binding.values())


def test_match_axiom_respects_side_conditions():
    # p => q is not a classical tautology, so this is not a reg instance
    assert match_axiom("HQG", parse("QG", "B(p) -> B(q)")) is None
    # nontriv requires a tautological antecedent and contradictory consequent
    assert match_axiom("HQG", parse("QG", "snot delta(B(p) -> B(q))")) is None
    assert match_axiom("HMCB", parse("MCB", "C(p) -> C(q)")) is None


def test_match_axiom_cap_schemas():
    assert match_axiom("HQPG_TOP", parse("QG", "B(p | ~p)"))[0] == "cap1"
    assert match_axiom("HQPG_TOP", parse("QG", "snot B(p & ~p)"))[0] == "cap2"
    assert match_axiom("HQPG", parse("QG", "B(p | ~p)")) is None


def test_match_axiom_kps():
    cpl = lambda t: parse("CPL", t)
    inst = qp.kps_instance(1, [cpl("p & q"), cpl("q")], [cpl("Top"), cpl("p")])
    name, params = match_axiom("HQPG", inst)
    assert name == "KPS" and params["m"] == 1
    inst2 = qp.kps_instance(0, [cpl("p")], [cpl("q")])
    assert match_axiom("HQPG", inst2)[0] == "KPS"


def test_match_axiom_a4():
    f = qp.a4_instance(1, [var("QP", "p")], [var("QP", "q")])
    name, params = match_axiom("HQP", f)
    assert name == "A4" and params["m"] == 1


def test_a0_pattern_matches():
    a0 = parse("QP", "(((p <-> q) ~~ Top) & ((r <-> s) ~~ Top)) => ((p <= r) <-> (q <= s))")
    assert match_axiom("HQP", a0)[0] == "A0"


def _atomic_instantiations(calc, schema, names):
    metas = sorted({v for v in _metas(schema.sugared)})
    lang = CALC_LANG[calc]
    for combo in product(names, repeat=len(metas)):
        subst = dict(zip(metas, combo))

        def inst(pat):
            if pat.kind == "var" and pat.var.startswith("mv_"):
                inner = subst[pat.var]
                if pat.lang in ("CPL", "BD"):
                    return parse(pat.lang, inner)
                if lang == "QG":
                    return mk("QG", "bmod", parse("CPL", inner))
                if lang in ("MCB", "NMCB"):
                    return mk(lang, "cmod", parse("BD", inner))
                return parse(lang, inner)
            if pat.kind == "var":
                return pat
            return mk(pat.lang, pat.kind, *(inst(c) for c in pat.children))

        yield inst(schema.sugared)


def _metas(pattern):
    if pattern.kind == "var" and pattern.var.startswith("mv_"):
        yield pattern.var
    for c in pattern.children:
        yield from _metas(c)


def test_soundness_audit_bi_goedel_axioms_exhaustive():
    for schema in calculi.schema_table("HBIG"):
        for inst in _atomic_instantiations("HBIG", schema, ("p", "q")):
            assert decide.big_valid(inst).holds, schema.name


def _instantiate_with(calc, schema, names):
    metas = sorted({v for v in _metas(schema.sugared)})
    subst = {m_: names[i % len(names)] for i, m_ in enumerate(metas)}
    lang = CALC_LANG[calc]

    def inst(pat):
        if pat.kind == "var" and pat.var.startswith("mv_"):
            inner = subst[pat.var]
            if pat.lang in ("CPL", "BD"):
                return parse(pat.lang, inner)
            if lang == "QG":
                return mk("QG", "bmod", parse("CPL", inner))
            if lang in ("MCB", "NMCB"):
                return mk(lang, "cmod", parse("BD", inner))
            return parse(lang, inner)
        if pat.kind == "var":
            return pat
        return mk(pat.lang, pat.kind, *(inst(c) for c in pat.children))

    return inst(schema.sugared)


def test_soundness_audit_g2_axioms():
    rng = random.Random(11)
    depth2 = ["p", "q", "neg p", "p & q", "p | q"]
    for calc, variant in (("HG2ORD", "G2ORD"), ("HG2NEL", "G2NEL")):
        for schema in calculi.schema_table(calc):
            picks = [("p", "q", "p"), tuple(rng.sample(depth2, 3))]
            for names in picks:
                inst = _instantiate_with(calc, schema, names)
                assert decide.g2_valid(variant, inst).holds, (calc, schema.name)


def test_soundness_audit_qg_axioms():
    rng = random.Random(2)
    inners = ["p", "q", "p & q", "p | q", "~p", "p => q", "Top", "Bot"]
    for calc in ("HQG", "HQPG_TOP"):
        with_cap = calc == "HQPG_TOP"
        for schema in calculi.schema_table(calc):
            hits = 0
            for inst in _atomic_instantiations(calc, schema, tuple(rng.sample(inners, 4))):
                hit = match_axiom(calc, inst)
                if hit is None or hit[0] != schema.name:
                    continue  # side condition filtered this instantiation out
                hits += 1
                assert decide.qg_entails([], inst, with_cap=with_cap).holds, schema.name
                if hits >= 4:
                    break


def test_soundness_audit_kps_on_probability_frames():
    cpl = lambda t: parse("CPL", t)
    inst = qp.kps_instance(1, [cpl("p"), cpl("q")], [cpl("p | q"), cpl("p & q")])
    from fractions import Fraction as F

    for weights in ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)), (F(1), F(0))):
        mu = {mask: sum((weights[i] for i in range(2) if mask >> i & 1), F(0))
              for mask in range(4)}
        assert measures.frame_validates(2, mu, inst, "QG")[0]


def test_soundness_audit_layer_axioms():
    # the BD-monotonicity and negation axioms hold on every belief model
    # (not for free twist valuations), so the audit quantifies over frames
    instances = []
    for calc, imp, eq in (("HMCB", "gimp", "iff"), ("HNMCB", "simp", "siff")):
        lang = CALC_LANG[calc]
        c = lambda t: mk(lang, "cmod", parse("BD", t))
        for left, right in (("p & q", "p"), ("p", "p | q"), ("neg neg p", "p")):
            instances.append((lang, mk(lang, imp, c(left), c(right))))
        instances.append((lang, mk(lang, eq, c("neg p"), mk(lang, "dneg", c("p")))))
    for states in (1, 2):
        for pi in measures.iter_monotone_measures(states, 2):
            for lang, inst in instances:
                assert measures.frame_validates(states, pi, inst, lang)[0], \
                    print_formula(inst)


@pytest.mark.parametrize("name", FIXTURES)
def test_paper_derivations_accepted(name):
    deriv = Derivation.from_json(_load(name))
    report = check_derivation(deriv.calculus, deriv)
    assert report.accepted, report.to_json()


def test_mutated_step_rejected_at_that_step():
    obj = _load("deriv_a0_translation.json")
    obj = copy.deepcopy(obj)
    obj["steps"][2]["formula"] = "snot (" + obj["steps"][2]["formula"] + ")"
    deriv = Derivation.from_json(obj)
    report = check_derivation(deriv.calculus, deriv)
    assert not report.accepted and report.first_failure == 3


def test_nec_taint_discipline():
    deriv = Derivation.from_json({
        "calculus": "HBIG",
        "premises": ["p"],
        "steps": [
            {"formula": "p", "just": {"premise": 1}},
            {"formula": "delta p", "just": {"nec": 1}},
        ],
    })
    report = check_derivation("HBIG", deriv)
    assert not report.accepted
    assert "premise-dependent" in report.steps[1]["reason"]


def test_nec_on_axiom_accepted():
    deriv = Derivation.from_json({
        "calculus": "HBIG",
        "steps": [
            {"formula": "(p -> q) | (q -> p)", "just": {"axiom": "prel1"}},
            {"formula": "delta((p -> q) | (q -> p))", "just": {"nec": 1}},
        ],
    })
    assert check_derivation("HBIG", Derivation.from_json({
        "calculus": "HBIG", "steps": []})).accepted
    assert check_derivation("HBIG", deriv).accepted


def test_modus_ponens_steps():
    deriv = Derivation.from_json({
        "calculus": "HBIG",
        "premises": ["p", "p -> q"],
        "steps": [
            {"formula": "p", "just": {"premise": 1}},
            {"formula": "p -> q", "just": {"premise": 2}},
            {"formula": "q", "just": {"mp": [1, 2]}},
        ],
    })
    assert check_derivation("HBIG", deriv).accepted
    bad = Derivation.from_json({
        "calculus": "HBIG",
        "premises": ["p", "p -> q"],
        "steps": [
            {"formula": "p", "just": {"premise": 1}},
            {"formula": "p -> q", "just": {"premise": 2}},
            {"formula": "p & q", "just": {"mp": [1, 2]}},
        ],
    })
    assert not check_derivation("HBIG", bad).accepted


def test_monotone_in_premises():
    obj = _load("deriv_additivity.json")
    deriv = Derivation.from_json(obj)
    extra = [*deriv.premises, parse("QG", "B(p)")]
    assert check_derivation(deriv.calculus, deriv, premises=extra).accepted


def test_hqp_derivation_with_nec():
    deriv = Derivation.from_json({
        "calculus": "HQP",
        "steps": [
            {"formula": "Bot <= p", "just": {"axiom": "A1"}},
            {"formula": "(Bot <= p) ~~ Top", "just": {"nec": 1}},
        ],
    })
    assert check_derivation("HQP", deriv).accepted


def test_kps_bound_error():
    obj = {
        "calculus": "HQPG",
        "steps": [{"formula": "B(p) -> B(p)",
                   "just": {"axiom": "KPS", "m": 9, "phis": [], "chis": []}}],
    }
    report = check_derivation("HQPG", Derivation.from_json(obj))
    assert not report.accepted
    assert "m <= 4" in report.steps[0]["reason"]


def test_rfde_derivation():
    deriv = Derivation.from_json({
        "calculus": "RFDE",
        "steps": [
            {"lhs": "p", "rhs": "p | q", "just": {"axiom": "or_intro_l"}},
            {"lhs": "q", "rhs": "p | q", "just": {"axiom": "or_intro_r"}},
            {"lhs": "p | q", "rhs": "p | q", "just": {"rule": "or_elim", "from": [1, 2]}},
            {"lhs": "neg (p & q)", "rhs": "neg p | neg q", "just": {"axiom": "dem_and_l"}},
            {"lhs": "neg neg p", "rhs": "p", "just": {"axiom": "dneg_elim"}},
        ],
    })
    assert check_derivation("RFDE", deriv).accepted


def test_rfde_rejects_wrong_rule_use():
    deriv = Derivation.from_json({
        "calculus": "RFDE",
        "steps": [
            {"lhs": "p & q", "rhs": "p", "just": {"axiom": "and_elim_l"}},
            {"lhs": "p & q", "rhs": "q", "just": {"axiom": "and_elim_r"}},
            {"lhs": "p & q", "rhs": "q & q", "just": {"rule": "and_intro", "from": [1, 2]}},
        ],
    })
    report = check_derivation("RFDE", deriv)
    assert not report.accepted and report.first_failure == 3


def test_sequent_axiom_matching():
    assert match_sequent_axiom(parse("BD", "p & (q | r)"),
                               parse("BD", "(p & q) | (p & r)")) == "distrib"
    assert match_sequent_axiom(parse("BD", "p"), parse("BD", "q")) is None


# ---------------------------------------------------------------------------
# The order-fact engine against the exact QG decision
# ---------------------------------------------------------------------------

def _engine_verdict(calc, cited, instances, target, max_atoms):
    """"holds", "fails" or None (undecided) from the order-fact engine for
    one outer step, or "skip" when the step has more than ``max_atoms``
    merged atoms."""
    engine = calculi._OuterEngine(calc, [*cited, *instances], target)
    if len(engine.reps) > max_atoms:
        return "skip"
    if engine.check():
        return "holds"
    return None if engine.canonical_refutation() is None else "fails"


def _exact_verdict(calc, cited, instances, target):
    return calculi._outer_exact(calc, cited, instances, target).status


def _fixture_outer_steps():
    """Each outer step of the fixtures and its strong-negation mutation, as
    (calculus, cited formulas, cited axiom instances, target)."""
    out = []
    for name in FIXTURES:
        deriv = Derivation.from_json(_load(name))
        lang = CALC_LANG[deriv.calculus]
        for step in deriv.steps:
            if "outer" not in step.just:
                continue
            cited = [deriv.steps[r - 1].formula for r in step.just["outer"]]
            instances = []
            if "axiom" in step.just:
                params = dict(step.just["axiom"])
                params.setdefault("schema", params.get("axiom"))
                instances.append(calculi._axiom_from_params(deriv.calculus, params))
            for target in (step.formula, mk(lang, "snot", step.formula)):
                out.append((deriv.calculus, cited, instances, target))
    return out


def test_order_fact_engine_agrees_with_exact_decision_on_fixtures():
    # the steps over 6 merged atoms take seconds each to decide exactly
    seen = []
    for calc, cited, instances, target in _fixture_outer_steps():
        verdict = _engine_verdict(calc, cited, instances, target, 5)
        if verdict in ("holds", "fails"):
            assert _exact_verdict(calc, cited, instances, target) == verdict, \
                print_formula(target)
        seen.append(verdict)
    assert seen.count("holds") >= 5 and seen.count("fails") >= 5, seen


def test_order_fact_engine_agrees_with_exact_decision_on_generated_steps():
    # both routes decide truth preservation, so premises may take any value
    pool = [parse("CPL", t) for t in (
        "p", "q", "r", "~p", "p & q", "p | q", "p => q", "~(~p)", "p | ~p", "p & ~p", "Top", "Bot")]
    shapes = ("delta({a} -> {b})", "snot {a}", "delta {a}", "snot delta({a} -> {b})",
              "delta({a} <-> {b})", "delta({a} -> {b}) & snot {b}",
              "{a} -> {b}", "{a} & {b}", "{a} | {b}", "{a}")
    rng = random.Random(17)
    seen = []
    while len(seen) < 80:
        calc = rng.choice(("HQG", "HQPG", "HQPG_TOP"))
        atoms = [f"B({print_formula(phi)})" for phi in rng.sample(pool, 3)]

        def formula():
            a, b = rng.sample(atoms, 2)
            return parse("QG", rng.choice(shapes).format(a=a, b=b))

        cited = [formula() for _ in range(rng.randint(0, 3))]
        target = rng.choice(cited) if cited and rng.random() < 0.2 else formula()
        verdict = _engine_verdict(calc, cited, [], target, 4)
        if verdict == "skip":
            continue
        if verdict is not None:
            assert _exact_verdict(calc, cited, [], target) == verdict, \
                ([print_formula(g) for g in cited], print_formula(target))
        seen.append(verdict)
    assert seen.count("holds") >= 10 and seen.count("fails") >= 10, seen


def test_outer_steps_decide_truth_preservation():
    # B(p) |=_1 delta B(p), though B(p) does not entail delta B(p) by degree;
    # the order-fact engine cannot force a disjunction to 1
    for calc, lang, text in (("HQG", "QG", "B(p)"), ("HBIG", "BIG", "p"),
                             ("HQG", "QG", "B(p) | B(q)")):
        premise = parse(lang, text)
        target = mk(lang, "delta", premise)
        deriv = Derivation.from_json({
            "calculus": calc,
            "premises": [text],
            "steps": [
                {"formula": text, "just": {"premise": 1}},
                {"formula": print_formula(target), "just": {"outer": [1]}},
            ],
        })
        assert check_derivation(calc, deriv).accepted
        assert calculi._outer_exact(calc, [premise], [], target).holds
        assert calculi._outer_exact(calc, [target], [], premise).holds
    assert not decide.qg_entails([parse("QG", "B(p)")], parse("QG", "delta B(p)")).holds
    assert not calculi._outer_exact("HQG", [parse("QG", "B(p) | B(q)")], [],
                                    parse("QG", "B(p)")).holds
