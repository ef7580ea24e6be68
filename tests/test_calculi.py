import copy
import dataclasses
import json
import pathlib
import random
import re
from fractions import Fraction as F
from itertools import product

import pytest

import oracles
from helpers import layer_instances, schema_metas
from qublogic import calculi, decide, measures, qp
from qublogic.calculi import (CALC_LANG, Derivation, check_derivation, cpl_valid,
                              match_axiom, match_sequent_axiom, qp_tautology, truth_table)
from qublogic.syntax import (INNER_LANG, RESERVED_VAR, mk, modal_atoms, parse, print_formula,
                             var, vars_of)

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


_SIDE_ARGS = {"CPL": ("p", "p | ~p", "p & ~p", "p & q"), "BD": ("p", "p & q", "p | q", "neg p")}


def _side_verdicts(calc, schema):
    """A side condition's verdicts on every (phi, chi) of the inner formulas
    in _SIDE_ARGS, or None if the schema has none."""
    if schema.side is None:
        return None
    inner = "CPL" if CALC_LANG[calc] == "QG" else "BD"
    texts = _SIDE_ARGS[inner]
    return [schema.side({"phi": parse(inner, a), "chi": parse(inner, b)})
            for a, b in product(texts, texts)]


def _tables_json() -> dict:
    """Every calculus' schema table and R_fde's axiom sequents as printed
    text: names in order, sugared and desugared forms, side verdicts."""
    return {
        "calculi": {calc: [{"name": s.name, "sugared": print_formula(s.sugared),
                            "pattern": print_formula(s.pattern), "side": _side_verdicts(calc, s)}
                           for s in calculi.schema_table(calc)] for calc in calculi.CALCULI},
        "sequents": [{"name": name, "lhs": print_formula(lhs), "rhs": print_formula(rhs)}
                     for name, lhs, rhs in calculi._rfde_axioms()],
    }


def _tagged(f, lang) -> bool:
    """Every node of ``f`` carries ``lang``, or inside a modal atom the
    atom's inner language."""
    inner = INNER_LANG.get(f.kind, lang)
    return f.lang == lang and all(_tagged(c, inner) for c in f.children)


def test_schema_tables_match_the_golden_file():
    # tests/data/schemas.json holds the tables as they were built before
    # the axioms were written as text; the text pins every node but its
    # language, which _tagged checks
    assert _tables_json() == _load("schemas.json")
    for calc in calculi.CALCULI:
        for s in calculi.schema_table(calc):
            assert _tagged(s.sugared, CALC_LANG[calc]) and _tagged(s.pattern, CALC_LANG[calc])
    assert all(_tagged(f, "BD") for _, *sequent in calculi._rfde_axioms() for f in sequent)


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
        assert name == schema.name
        assert binding == {k: args[k] for k in binding}, (name, binding)
        assert all(RESERVED_VAR not in vars_of(v) for v in binding.values())


#: plain and sugared arguments of the propositional rows, by variant, over
#: the atoms p, q, r and s
_ARGS = {
    "BIG": ({"a": "p -> q", "b": "q & r", "c": "r -< p"},
            {"a": "snot p", "b": "delta q", "c": "snot delta(r -> p)"}),
    "G2ORD": ({"a": "p -> q", "b": "q & neg r", "c": "r -< p"},
              {"a": "snot p", "b": "delta1 q", "c": "snot delta1(r -> neg p)"}),
    "QP": ({"a": "p => q", "b": "q & ~r", "c": "r | p", "d": "s"},
           {"a": "p <-> q", "b": "Top", "c": "(p <= q) ~~ Top", "d": "Bot"}),
}
#: plain and sugared arguments of the modal rows: reg needs phi => chi,
#: nontriv and cap1 a tautological phi, nontriv and cap2 a contradictory
#: chi or phi, mcb_bd a valid BD sequent phi |- chi
_INNER = {
    "reg": ({"phi": "p & q", "chi": "p"}, {"phi": "p <-> q", "chi": "p => q"}),
    "nontriv": ({"phi": "p | ~p", "chi": "p & ~p"}, {"phi": "Top", "chi": "Bot"}),
    "cap1": ({"phi": "p | ~p"}, {"phi": "Top"}),
    "cap2": ({"phi": "p & ~p"}, {"phi": "Bot"}),
    "mcb_bd": ({"phi": "p & q", "chi": "p"}, {"phi": "neg (p | q)", "chi": "neg p"}),
    "mcb_neg": ({"phi": "p & q"}, {"phi": "neg neg p"}),
}


@pytest.mark.parametrize("calc", ["HBIG", "HG2ORD", "HQG", "HQPG", "HQPG_TOP", "HMCB", "HQP"])
def test_match_axiom_names_schemas_without_the_reserved_variable(calc):
    # every row, instantiated with plain and with sugared arguments, is
    # named with its arguments given back; a match that binds only
    # subformulas as written comes first: biG7 is named biG7, not biG1 with
    # c bound to the expansion of Bot
    lang = CALC_LANG[calc]
    atom = {"QG": r"B(\1)", "MCB": r"C(\1)"}.get(lang, r"\1")
    inner = "BD" if lang == "MCB" else "CPL"
    table = {s.name: s for s in calculi.schema_table(calc)}
    for schema in table.values():
        for style in (0, 1):
            if schema.name in _INNER:
                args = {k: parse(inner, t) for k, t in _INNER[schema.name][style].items()}
            else:
                texts = _ARGS[calculi.VARIANT[calc]][style]
                args = {k: parse(lang, re.sub(r"\b([pqrs])\b", atom, t)) for k, t in texts.items()}
            name, binding = match_axiom(calc, _instantiate(schema.sugared, args))
            assert name == schema.name or table[name].pattern == schema.pattern, (schema.name, name)
            assert binding == {k: args[k] for k in binding}, (name, binding)
            assert all(RESERVED_VAR not in print_formula(v) for v in binding.values()), binding


def test_match_sequent_axiom_names_every_sequent():
    for args in ({"a": "p & q", "b": "neg r", "c": "p | r"},
                 {"a": "neg neg p", "b": "q | neg q", "c": "neg (p & r)"}):
        args = {k: parse("BD", t) for k, t in args.items()}
        for name, lhs, rhs in calculi._rfde_axioms():
            assert match_sequent_axiom(_instantiate(lhs, args), _instantiate(rhs, args)) == name


@pytest.mark.parametrize("calc", [c for c in calculi.CALCULI if c != "RFDE"])
def test_top_and_bot_are_no_axiom_instances(calc):
    # Top's expansion instantiates reg (HQG, HQPG, HQPG_TOP) and mcb_bd
    # (HMCB) only with the reserved variable bound; HQP's PC takes Top as a
    # tautology.  An outer step that cites nothing still derives Top.
    lang = CALC_LANG[calc]
    qp_calc = calc == "HQP"
    assert match_axiom(calc, parse(lang, "Top")) == (("PC", {}) if qp_calc else None)
    assert match_axiom(calc, parse(lang, "Bot")) is None
    deriv = Derivation.from_json({"calculus": calc, "steps": [
        {"formula": "Top", "just": {"axiom": "any"}},
        {"formula": "Top", "just": {"outer": []}},
        {"formula": "Bot", "just": {"axiom": "any"}}]})
    no_axiom = "not an instance of axiom 'any'"
    assert check_derivation(calc, deriv).to_json() == _report(
        [None, f"outer steps are not supported for {calc}", no_axiom] if qp_calc
        else [no_axiom, None, no_axiom])


@pytest.mark.parametrize("calc,p,q", [("HBIG", "p", "q"), ("HQG", "B(p)", "B(q)")])
def test_match_axiom_binds_an_expanded_bot_as_written_bot(calc, p, q):
    # biG3 with c := Bot: c can only bind the Bot inside snot's expansion
    lang = CALC_LANG[calc]
    name, binding = match_axiom(calc, parse(lang, f"snot {p} -> (snot {q} -> snot ({p} | {q}))"))
    assert name == "biG3"
    assert {k: print_formula(v) for k, v in binding.items()} == {"a": p, "b": q, "c": "Bot"}


@pytest.mark.parametrize("cited", ["biG1", "biG7", "any"])
def test_axiom_step_may_cite_any_schema_the_line_instantiates(cited):
    # match_axiom names biG7; the line is a biG1 instance too, with c := Bot
    line = "(p -> q) -> (snot q -> snot p)"
    assert match_axiom("HBIG", parse("BIG", line)) == \
        ("biG7", {"a": parse("BIG", "p"), "b": parse("BIG", "q")})
    deriv = Derivation.from_json({"calculus": "HBIG", "steps": [
        {"formula": line, "just": {"axiom": cited}}]})
    assert check_derivation("HBIG", deriv).accepted
    deriv = Derivation.from_json({"calculus": "HBIG", "steps": [
        {"formula": line, "just": {"axiom": "biG3"}}]})
    assert not check_derivation("HBIG", deriv).accepted


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
    metas = sorted({v for v in schema_metas(schema.sugared)})
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


def test_soundness_audit_bi_goedel_axioms_exhaustive():
    for schema in calculi.schema_table("HBIG"):
        for inst in _atomic_instantiations("HBIG", schema, ("p", "q")):
            assert decide.big_valid(inst).holds, schema.name


def _instantiate_with(calc, schema, names):
    metas = sorted({v for v in schema_metas(schema.sugared)})
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
        for pi in oracles.monotone_measures(states, 2):
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
    more = dataclasses.replace(deriv, premises=(*deriv.premises, parse("QG", "B(p)")))
    assert check_derivation(more.calculus, more).accepted


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
# Every step-failure reason, in whole reports
# ---------------------------------------------------------------------------

_KPS0 = "delta (B(p & q | ~p & ~q) <-> B(Top)) -> delta (B(q) -> B(p))"
_KPS0_PARAMS = {"m": 0, "phis": ["p"], "chis": ["q"]}
_NOT_PREMISE = "formula is not among the declared premises"
_MP_UNAVAILABLE = "modus ponens cites unavailable steps"
_NEC_TAINTED = "necessitation applied to a premise-dependent line"


def _hbig_steps():
    """An HBIG derivation with every Hilbert reason but the axiom-parameter
    ones, and the taint each failing step leaves for a later nec."""
    steps = [
        ("p", {"premise": 1}, None),
        ("q", {"premise": 2}, _NOT_PREMISE),
        ("p -> q", {"premise": "any"}, None),
        ("(p -> q) | (q -> p)", {"axiom": "prel1"}, None),
        ("p -> p", {"axiom": "biG1"}, "not an instance of axiom 'biG1'"),
        ("q", {"mp": [1, 3]}, None),
        ("q", {"mp": [1, 9]}, _MP_UNAVAILABLE),
        ("q", {"mp": [1]}, _MP_UNAVAILABLE),
        ("p & q", {"mp": [1, 3]}, "modus ponens does not apply to the cited steps"),
        ("delta((p -> q) | (q -> p))", {"nec": 4}, None),
        ("delta p", {"nec": 1}, _NEC_TAINTED),
        ("delta q", {"nec": 12}, "necessitation cites an unavailable step"),
        ("delta p", {"nec": 4}, "formula is not the necessitation of the cited step"),
        # a failed axiom line is not premise-dependent; a failed mp line is
        # when a cited line is, and an unavailable citation always is
        ("delta (p -> p)", {"nec": 5}, None),
        ("delta (p & q)", {"nec": 9}, _NEC_TAINTED),
        ("delta q", {"nec": 7}, _NEC_TAINTED),
        ("q", {"outer": [1, 3]}, None),
        ("r", {"outer": [1]}, "not an outer-logic consequence of the cited steps"),
        ("delta r", {"nec": 18}, _NEC_TAINTED),
        ("q", {"outer": [0]}, "outer step cites unavailable steps"),
        ("delta q", {"nec": 20}, _NEC_TAINTED),
        ("(p -> q) | (q -> p)", {"outer": []}, None),
        ("delta ((p -> q) | (q -> p))", {"nec": 22}, None),
        ("p", {"bogus": 1}, "unknown justification ['bogus']"),
        ("delta p", {"nec": 24}, _NEC_TAINTED),
        ("p", {"axiom": "KPS", "m": 0}, "malformed justification: 'phis'"),
        ("delta p", {"nec": 26}, _NEC_TAINTED),
    ]
    obj = {"calculus": "HBIG", "premises": ["p", "p -> q"],
           "steps": [{"formula": f, "just": j} for f, j, _ in steps]}
    return Derivation.from_json(obj), [r for _, _, r in steps]


def _param_steps():
    """Axiom parameters, flat or under ``axiom``, on HQPG axiom and outer
    steps."""
    steps = [
        (_KPS0, {"axiom": "KPS", **_KPS0_PARAMS}, None),
        (_KPS0, {"axiom": {"schema": "KPS", **_KPS0_PARAMS}}, None),
        (_KPS0, {"axiom": {"schema": "KPS"}, **_KPS0_PARAMS}, None),
        ("B(p) -> B(p)", {"axiom": "KPS", **_KPS0_PARAMS},
         "formula differs from the named axiom instance"),
        ("B(p) -> B(p)", {"axiom": "KPS", "m": 9, "phis": [], "chis": []},
         "malformed justification: KPS instances are recognized for m <= 4 only"),
        ("B(p) -> B(p)", {"axiom": {"schema": "Foo"}},
         "malformed justification: cannot build an instance of schema 'Foo' from parameters"),
        ("B(p) -> B(p)", {"axiom": "KPS", "m": 0, "phis": ["p &"], "chis": ["q"]},
         "malformed justification: unexpected end of input (at position 3)"),
        ("B(p) -> B(p)", {"axiom": "KPS", "m": 0, "phis": ["B(p)"], "chis": ["q"]},
         "malformed justification: modal atom 'B' not in language CPL (position 0)"),
        ("delta (B(p & q | ~p & ~q) <-> B(Top))", {"axiom": "any"}, "not an instance of axiom 'any'"),
        ("delta (B(q) -> B(p))", {"outer": [9], "axiom": {"schema": "KPS", **_KPS0_PARAMS}}, None),
        ("delta (B(q) -> B(p))", {"outer": [9], "axiom": {"schema": "KPS", "m": 5}},
         "malformed justification: KPS instances are recognized for m <= 4 only"),
        ("delta (B(q) -> B(p))", {"outer": [9], "axiom": {"m": 0}},
         "malformed justification: cannot build an instance of schema None from parameters"),
        ("delta (B(q) -> B(p))", {"outer": [9]},
         "not an outer-logic consequence of the cited steps"),
    ]
    obj = {"calculus": "HQPG", "steps": [{"formula": f, "just": j} for f, j, _ in steps]}
    return Derivation.from_json(obj), [r for _, _, r in steps]


def _hqp_steps():
    steps = [
        ("Bot <= p", {"axiom": "A1"}, None),
        ("(p & q | ~p & ~q ~~ Top) => (q <= p)",
         {"axiom": "A4", "m": 1, "phis": ["p"], "psis": ["q"]}, None),
        ("Bot <= p", {"axiom": "A4", "m": 6, "phis": [], "psis": []},
         "malformed justification: A4 instances are recognized for m <= 5 only"),
        ("(Bot <= p) ~~ Top", {"nec": 1}, None),
        ("Bot <= q", {"outer": [1]}, "outer steps are not supported for HQP"),
    ]
    obj = {"calculus": "HQP", "steps": [{"formula": f, "just": j} for f, j, _ in steps]}
    return Derivation.from_json(obj), [r for _, _, r in steps]


def _hg2ord_steps():
    steps = [
        ("(p -> q) | (q -> p)", {"outer": []}, None),
        ("(p -> q) | (q -> r) | (r -> s)", {"outer": []},
         "not an outer-logic consequence of the cited steps"),
    ]
    obj = {"calculus": "HG2ORD", "steps": [{"formula": f, "just": j} for f, j, _ in steps]}
    return Derivation.from_json(obj), [r for _, _, r in steps]


def _missing_formula_steps():
    # each rule that reads cited lines refuses one that has no formula
    steps = (calculi.Step(None, None, {"axiom": "any"}),
             calculi.Step(parse("BIG", "(p -> q) | (q -> p)"), None, {"axiom": "any"}),
             calculi.Step(parse("BIG", "delta p"), None, {"nec": 1}),
             calculi.Step(parse("BIG", "q"), None, {"mp": [2, 1]}),
             calculi.Step(parse("BIG", "q"), None, {"outer": [2, 1]}))
    return Derivation("HBIG", (), steps), ["missing formula", None] + \
        ["rule cites malformed steps"] * 3


def _rfde_steps():
    steps = [
        ("p", "q", {"premise": 1}, None),
        ("q", "p", {"premise": 1}, "sequent is not among the declared premises"),
        ("p", "p | r", {"axiom": "or_intro_l"}, None),
        ("p", "p | r", {"axiom": "or_intro_r"}, "not an instance of sequent axiom 'or_intro_r'"),
        ("r", "p | r", {"axiom": "any"}, None),
        ("p | r", "p | r", {"rule": "or_elim", "from": [3, 5]}, None),
        ("p | r", "p | r", {"rule": "or_elim", "from": [3, 9]}, "rule cites unavailable steps"),
        ("p", "q & q", {"rule": "and_intro"}, "rule cites unavailable steps"),
        ("p", "q & (p | r)", {"rule": "and_intro", "from": [1, 3]}, None),
        ("p", "q & p", {"rule": "and_intro", "from": [1, 3]},
         "sequent rule does not apply to the cited steps"),
        ("p", "q", {"rule": "cut", "from": [1, 3]}, "unknown sequent rule 'cut'"),
        ("p", "q", {"mp": [1, 3]}, "unknown justification ['mp']"),
    ]
    obj = {"calculus": "RFDE", "premises": [["p", "q"]],
           "steps": [{"lhs": l, "rhs": r, "just": j} for l, r, j, _ in steps]}
    return Derivation.from_json(obj), [r for *_, r in steps]


def _missing_sequent_steps():
    p, q = parse("BD", "p"), parse("BD", "q")
    steps = (calculi.Step(None, None, {"axiom": "any"}),
             calculi.Step(None, (p, mk("BD", "or", q, q)), {"rule": "or_elim", "from": [1, 1]}))
    return Derivation("RFDE", (), steps), ["missing sequent", "rule cites malformed steps"]


def _report(reasons):
    """The report a check gives for these step reasons (None: the step holds)."""
    failed = [i + 1 for i, r in enumerate(reasons) if r is not None]
    return {"accepted": not failed,
            "steps": [{"step": i + 1, "status": "ok"} if r is None else
                      {"step": i + 1, "status": "fail", "reason": r}
                      for i, r in enumerate(reasons)],
            "first_failure": failed[0] if failed else None}


@pytest.mark.parametrize("case", [_hbig_steps, _param_steps, _hqp_steps, _hg2ord_steps,
                                  _missing_formula_steps, _rfde_steps, _missing_sequent_steps])
def test_every_step_failure_reason_in_whole_reports(case):
    deriv, reasons = case()
    assert check_derivation(deriv.calculus, deriv).to_json() == _report(reasons)


_PREL1 = "(p -> q) | (q -> p)"
_KPS1 = {"phis": ["p & q", "q"], "chis": ["Top", "p"]}


@pytest.mark.parametrize("calc,line,just,reason", [
    ("HBIG", _PREL1, {"mp": 1}, "'mp' takes a list of step numbers, not 1"),
    ("HBIG", _PREL1, {"mp": ["a", 2]}, "'mp' takes a list of step numbers, not ['a', 2]"),
    ("HBIG", _PREL1, {"nec": "1"}, "'nec' takes a step number, not '1'"),
    ("HBIG", _PREL1, {"outer": "1"}, "'outer' takes a list of step numbers, not '1'"),
    ("HQPG", _KPS0, {"axiom": "KPS", "m": "2", **_KPS1}, "KPS parameter 'm' is not a number: '2'"),
    ("HQPG", _KPS0, {"axiom": "KPS", "m": 1, "phis": [1, 2], "chis": ["Top", "p"]},
     "KPS parameter 'phis' is not a list of formulas: [1, 2]"),
    ("HQPG", _KPS0, {"outer": [], "axiom": {"schema": "KPS", "m": "2", **_KPS1}},
     "KPS parameter 'm' is not a number: '2'"),
])
def test_wrong_typed_justification_fields_fail_their_step(calc, line, just, reason):
    # the step fails as malformed, and being unreadable it is not a theorem
    # line for a later nec; the steps around it are checked as usual
    deriv = Derivation.from_json({"calculus": calc, "steps": [
        {"formula": line, "just": {"axiom": "any"}},
        {"formula": line, "just": just},
        {"formula": f"delta ({line})", "just": {"nec": 1}},
        {"formula": f"delta ({line})", "just": {"nec": 2}}]})
    assert check_derivation(calc, deriv).to_json() == _report(
        [None, f"malformed justification: {reason}", None, _NEC_TAINTED])


def test_wrong_typed_rule_citation_fails_its_step():
    deriv = Derivation.from_json({"calculus": "RFDE", "steps": [
        {"lhs": "p", "rhs": "p | q", "just": {"axiom": "or_intro_l"}},
        {"lhs": "q", "rhs": "p | q", "just": {"axiom": "or_intro_r"}},
        {"lhs": "p | q", "rhs": "p | q", "just": {"rule": "or_elim", "from": 3}},
        {"lhs": "p | q", "rhs": "p | q", "just": {"rule": "or_elim", "from": [1, 2]}}]})
    assert check_derivation("RFDE", deriv).to_json() == _report(
        [None, None, "malformed justification: 'from' takes a list of step numbers, not 3", None])


def test_hilbert_justification_that_is_not_a_mapping_fails_its_step():
    # an API-built step; being unreadable it is not a theorem line for nec
    line = parse("BIG", _PREL1)
    deriv = Derivation("HBIG", (), (calculi.Step(line, None, 5),
                                    calculi.Step(line, None, {"axiom": "prel1"}),
                                    calculi.Step(mk("BIG", "delta", line), None, {"nec": 1})))
    assert check_derivation("HBIG", deriv).to_json() == _report(
        ["malformed justification: a justification is an object, not 5", None, _NEC_TAINTED])


def test_step_too_deep_for_the_recursive_checks_fails_with_a_reason():
    # PC desugars A4_6 (a 924-disjunct E-notation, past the A4 bound) by
    # recursion; the step fails, and as unchecked it is no theorem for nec
    qs = [var("QP", x) for x in "pqrstu"]
    deep = qp.a4_instance(6, qs, qs[1:] + qs[:1])
    line = parse("QP", "Bot << Top")
    deriv = Derivation("HQP", (), (calculi.Step(deep, None, {"axiom": "any"}),
                                   calculi.Step(line, None, {"axiom": "A3"}),
                                   calculi.Step(mk("QP", "approx", deep, mk("QP", "top")), None,
                                                {"nec": 1})))
    assert check_derivation("HQP", deriv).to_json() == _report(
        ["formula nests too deeply", None, _NEC_TAINTED])


def test_sequent_justification_that_is_not_a_mapping_fails_its_step():
    p, q = parse("BD", "p"), parse("BD", "q")
    deriv = Derivation("RFDE", (), (calculi.Step(None, (p, mk("BD", "or", p, q)), [1]),
                                    calculi.Step(None, (p, mk("BD", "or", p, q)),
                                                 {"axiom": "or_intro_l"})))
    assert check_derivation("RFDE", deriv).to_json() == _report(
        ["malformed justification: a justification is an object, not [1]", None])


@pytest.mark.parametrize("calc,reason", [
    ("HQPG", None), ("HQG", "malformed justification: HQG has no KPS axioms")])
def test_only_the_probability_calculi_take_kps_steps(calc, reason):
    # QG refutes the KPS_0 instance, so HQG may not take it as an axiom
    # step or as an outer step's instance
    assert not decide.qg_entails([], parse("QG", _KPS0)).holds
    deriv = Derivation.from_json({"calculus": calc, "steps": [
        {"formula": "delta (B(p & q | ~p & ~q) <-> B(Top))", "just": {"axiom": "any"}},
        {"formula": _KPS0, "just": {"axiom": "KPS", **_KPS0_PARAMS}},
        {"formula": "delta (B(q) -> B(p))",
         "just": {"outer": [1], "axiom": {"schema": "KPS", **_KPS0_PARAMS}}}]})
    assert check_derivation(calc, deriv).to_json() == _report(
        ["not an instance of axiom 'any'", reason, reason])


# the calculi that have each parameterized family, the language of its
# lists, its smallest and largest m, its list keys and its builder
_FAMILIES = {
    "KPS": (("HQPG", "HQPG_TOP"), "CPL", 0, 4, ("phis", "chis"), qp.kps_instance),
    "A4": (("HQP",), "QP", 1, 5, ("phis", "psis"), qp.a4_instance),
}
_FAMILY_LISTS = [("p", "q"), ("q", "r"), ("r", "p"), ("p & q", "Top"), ("q | r", "~q")]


def _family_instance(name, m, texts=_FAMILY_LISTS):
    """The family's instance of index m over the first entries of ``texts``
    (pairs of list entries), with its parameters."""
    _, lang, low, _, keys, build = _FAMILIES[name]
    rows = texts[:m + 1 - low]
    lists = [[parse(lang, row[i]) for row in rows] for i in (0, 1)]
    return build(m, *lists), {"m": m, keys[0]: lists[0], keys[1]: lists[1]}


def test_family_instances_at_the_bound_are_recognized():
    # the E-notation chains of KPS_4 and A4_5 (252 disjuncts) nest deeper
    # than Formula.__eq__ can recurse
    for name, calc in (("KPS", "HQPG"), ("A4", "HQP")):
        f, params = _family_instance(name, _FAMILIES[name][3])
        assert match_axiom(calc, f) == (name, params)


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_family_instances_are_recognized_iff_the_calculus_has_the_family_within_the_bound(name):
    calcs_with, lang, low, high, _, _ = _FAMILIES[name]
    rng = random.Random(19)
    pool = ["p", "q", "~r", "p & q", "q | ~p", "Top", "r => p", "p & ~q | r"]
    calcs = [c for c in calculi.CALCULI if CALC_LANG[c] == ("QG" if lang == "CPL" else "QP")]
    # KPS_5 is past the bound; A4_6 is left out because the PC check
    # (qp_tautology) recurses too deep on its E-notation
    for m in range(low, high + (name == "KPS") + 1):
        for _ in range(3):
            texts = [tuple(rng.sample(pool, 2)) for _ in range(m + 1 - low)]
            f, params = _family_instance(name, m, texts)
            lhs, concl = f.children
            swapped = (mk(f.lang, "leq", *reversed(concl.children)) if name == "A4" else
                       mk(f.lang, "delta", mk(f.lang, "gimp", *reversed(concl.children[0].children))))
            near = [mk(f.lang, f.kind, lhs, swapped)]
            if lhs.kind == "and":
                near += [mk(f.lang, f.kind, part, concl) for part in lhs.children]
            for calc in calcs:
                has = calc in calcs_with and m <= high
                assert match_axiom(calc, f) == ((name, params) if has else None), (calc, m, texts)
                for g in near:
                    if g != f:
                        hit = match_axiom(calc, g)
                        assert hit is None or hit[0] != name, (calc, m, texts)


def test_outer_step_reads_flat_axiom_parameters():
    # the flat form an axiom step accepts, on the outer step of deriv_reg
    obj = _load("deriv_reg.json")
    just = obj["steps"][1]["just"]
    params = just.pop("axiom")
    just.update(params, axiom=params.pop("schema"))
    assert just == {"outer": [1], "axiom": "KPS", "m": 1, "phis": params["phis"],
                    "chis": params["chis"]}
    deriv = Derivation.from_json(obj)
    assert check_derivation(deriv.calculus, deriv).to_json() == _report([None] * 6)


# ---------------------------------------------------------------------------
# The outer-step search against the exact grid decision
# ---------------------------------------------------------------------------

def _truth_preserved(calc, premises, target):
    return decide.truth_preserved(CALC_LANG[calc], premises, target, with_cap=calc == "HQPG_TOP")


def _search_verdict(calc, cited, instances, target):
    """The search's verdict on one outer step; a fails witness is checked
    on a model before it is returned."""
    verdict = _truth_preserved(calc, [*cited, *instances], target)
    if not verdict.holds:
        _check_refutation(calc, [*cited, *instances], target, verdict.witness)
    return verdict.status


def _check_refutation(calc, premises, target, witness):
    """Every premise takes value 1 and the target less, on the canonical
    model of a QG witness (read by the oracle evaluator) or directly on a
    biG witness."""
    if CALC_LANG[calc] == "BIG":
        values = [oracles.chain_eval_big(g, witness, F(1)) for g in [*premises, target]]
    else:
        m = measures.canonical_qg_model(witness, [*premises, target])
        values = [oracles.layer_value("QG", g, m.states, {"v": m.v}, m.mu)
                  for g in [*premises, target]]
    *premise_values, target_value = values
    assert all(v == 1 for v in premise_values) and target_value < 1, \
        ([print_formula(g) for g in premises], print_formula(target), witness)


def _exact_verdict(calc, cited, instances, target):
    """Truth preservation through the grid decisions: premises under delta
    take only 0 and 1, so that is degree entailment from the guarded
    premises (Gamma |=_1 phi iff delta Gamma |= phi; Baaz 1996)."""
    lang = CALC_LANG[calc]
    guarded = [mk(lang, "delta", g) for g in [*cited, *instances]]
    if lang == "QG":
        return decide.qg_entails(guarded, target, with_cap=calc == "HQPG_TOP").status
    return decide.big_entails(guarded, target).status


def _merged_atoms(calc, formulas):
    if CALC_LANG[calc] == "QG":
        return len(decide.qg_merge_atoms(formulas)[2])
    return len(set().union(*map(vars_of, formulas)))


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


def test_outer_search_agrees_with_exact_decision_on_fixtures():
    # every step is decided; those over 6 merged atoms take seconds each
    # to decide on the grid, so only the smaller ones are compared
    seen = []
    for calc, cited, instances, target in _fixture_outer_steps():
        verdict = _truth_preserved(calc, [*cited, *instances], target).status
        if _merged_atoms(calc, [*cited, *instances, target]) <= 5:
            assert _exact_verdict(calc, cited, instances, target) == verdict, \
                print_formula(target)
        seen.append(verdict)
    assert seen.count("holds") >= 5 and seen.count("fails") >= 5, seen


_SHAPES = ("delta({a} -> {b})", "snot {a}", "delta {a}", "snot delta({a} -> {b})",
           "delta({a} <-> {b})", "delta({a} -> {b}) & snot {b}",
           "{a} -> {b}", "{a} & {b}", "{a} | {b}", "{a}")


def test_outer_search_agrees_with_exact_decision_on_generated_steps():
    # premises may take any value: both routes decide truth preservation
    pool = [parse("CPL", t) for t in (
        "p", "q", "r", "~p", "p & q", "p | q", "p => q", "~(~p)", "p | ~p", "p & ~p", "Top", "Bot")]
    rng = random.Random(17)
    seen = []
    while len(seen) < 120:
        calc = rng.choice(("HQG", "HQPG", "HQPG_TOP")) if len(seen) < 80 else "HBIG"
        if calc == "HBIG":
            lang, atoms = "BIG", rng.sample(["p", "q", "r", "s"], 3)
        else:
            lang, atoms = "QG", [f"B({print_formula(phi)})" for phi in rng.sample(pool, 3)]

        def formula():
            a, b = rng.sample(atoms, 2)
            return parse(lang, rng.choice(_SHAPES).format(a=a, b=b))

        cited = [formula() for _ in range(rng.randint(0, 3))]
        target = rng.choice(cited) if cited and rng.random() < 0.2 else formula()
        if _merged_atoms(calc, [*cited, target]) > 4:
            continue
        verdict = _search_verdict(calc, cited, [], target)
        assert _exact_verdict(calc, cited, [], target) == verdict, \
            ([print_formula(g) for g in cited], print_formula(target))
        seen.append(verdict)
    assert seen.count("holds") >= 30 and seen.count("fails") >= 30, seen


def test_outer_search_decides_steps_over_many_atoms():
    # 7 to 9 merged atoms, past the grid decision's reach in a test; four
    # inner variables keep the 16-state canonical model in reach
    pool = [parse("CPL", t) for t in (
        "p", "q", "r", "s", "~p", "p & q", "p | q", "p => q", "q & r", "r | s", "~(p & s)",
        "q => s", "~r", "p & q & r", "(p | q) & ~s", "r & s", "~q | r")]
    rng = random.Random(5)
    sizes = []
    seen = []
    while len(seen) < 60:
        calc = rng.choice(("HQG", "HQPG", "HQPG_TOP"))
        atoms = [f"B({print_formula(phi)})" for phi in rng.sample(pool, rng.randint(5, 8))]

        def formula():
            a, b = rng.sample(atoms, 2)
            return parse("QG", rng.choice(_SHAPES).format(a=a, b=b))

        cited = [formula() for _ in range(rng.randint(1, 5))]
        target = formula()
        k = _merged_atoms(calc, [*cited, target])
        if not 7 <= k <= 9:
            continue
        # the search raises when it reaches its node cap
        seen.append(_search_verdict(calc, cited, [], target))
        sizes.append(k)
    assert seen.count("holds") >= 10 and seen.count("fails") >= 10, seen
    assert set(sizes) == {7, 8, 9}, sizes


@pytest.mark.parametrize("calc,atom", [("HBIG", "{}"), ("HQG", "B({})")])
def test_outer_search_splits_formulas_over_many_atoms(calc, atom):
    # no conjunct is complete before the eighth atom, so a search over the
    # whole formulas would visit the 10^8-point grid; their parts are small
    lang = CALC_LANG[calc]
    a, b, c, d, e, f, g, h = (atom.format(x) for x in "abcdefgh")
    x = parse(lang, f"({a} -> {b}) & ({c} -> {d}) & ({e} -> {f}) & ({g} -> {h})")
    assert calculi._outer_step_ok(calc, [x], [], x)[0]
    assert calculi._outer_step_ok(calc, [mk(lang, "delta", x)], [], mk(lang, "delta", x))[0]
    assert calculi._outer_step_ok(calc, [x], [], parse(lang, f"{e} -> {f}"))[0]
    assert calculi._outer_step_ok(calc, [x], [], parse(lang, f"{a} -> {c}")) == \
        (False, "not an outer-logic consequence of the cited steps")
    theorem = parse(lang, f"(({a} -> {b}) | ({b} -> {a})) & (({c} -> {d}) | ({d} -> {c})) & "
                          f"(({e} -> {f}) | ({f} -> {e})) & (({g} -> {h}) | ({h} -> {g}))")
    assert calculi._outer_step_ok(calc, [], [], theorem)[0]
    # a disjunct at 1 closes the branch as soon as its atoms have values
    theorem = parse(lang, f"({a} -> {b}) | ({b} -> {a}) | ({c} -> {d}) | ({e} -> {f}) | ({g} -> {h})")
    assert calculi._outer_step_ok(calc, [], [], theorem)[0]


def test_outer_search_cap_fails_the_step(monkeypatch):
    # a biG theorem over 8 variables whose two disjuncts each have all 8:
    # nothing prunes before the leaves
    monkeypatch.setattr(decide, "_MAX_OUTER_NODES", 1000)
    target = parse("BIG", "((a | b | c | d) -> (e | f | g | h)) | ((e | f | g | h) -> (a | b | c | d))")
    ok, reason = calculi._outer_step_ok("HBIG", [], [], target)
    assert not ok
    assert reason == ("outer step undecided: the search over 8 atoms and 8 coordinates stopped "
                      "after visiting 1,000 nodes")
    deriv = Derivation.from_json({"calculus": "HBIG", "steps": [
        {"formula": print_formula(target), "just": {"outer": []}}]})
    assert check_derivation("HBIG", deriv).steps[0]["reason"] == reason


@pytest.mark.parametrize("k,nodes", [(2, 14), (3, 65), (4, 364)])
def test_outer_search_visits_each_order_type_once(monkeypatch, k, nodes):
    # nothing prunes this theorem before its leaves, so the search visits
    # each order type of j = 1..k atoms between 0 and 1 once: 3, 11, 51
    # and 299 of them
    atoms = "abcd"[:k]
    target = parse("BIG", f"({' & '.join(atoms)}) -> ({' | '.join(atoms)})")
    monkeypatch.setattr(decide, "_MAX_OUTER_NODES", nodes)
    assert decide.truth_preserved("BIG", [], target).holds
    monkeypatch.setattr(decide, "_MAX_OUTER_NODES", nodes - 1)
    with pytest.raises(ValueError, match=f"^truth preservation undecided: the search over {k} "
                                         f"atoms and {k} coordinates stopped after visiting "
                                         f"{nodes - 1} nodes$"):
        decide.truth_preserved("BIG", [], target)


@pytest.mark.parametrize("lang,premise,target", [
    # only p = q strictly between 0 and 1 refutes: q takes a value already
    # on the chain
    ("BIG", "p <-> q", "delta p | snot p"),
    # every refutation gives p or q the truth 1 and a falsity above 0: read
    # as q's truth, the truth of delta1 q would close every branch
    ("G2ORD", "p | q", "delta1 q | p"),
])
def test_outer_search_refutes_steps_whose_refutations_are_few(lang, premise, target):
    premises, target = [parse(lang, premise)], parse(lang, target)
    verdict = decide.truth_preserved(lang, premises, target)
    assert not verdict.holds
    if lang == "BIG":
        _check_refutation("HBIG", premises, target, verdict.witness)
    else:
        top = 2 * len(verdict.witness) + 1
        env = {key: (int(v.truth * top), int(v.falsity * top)) for key, v in verdict.witness.items()}
        assert _refutes_by_ranks(lang, premises, target, env, top), verdict.witness


def test_outer_steps_decide_truth_preservation():
    # B(p) |=_1 delta B(p), though B(p) does not entail delta B(p) by degree;
    # likewise for each twist calculus and its delta
    for calc, text, force in (("HQG", "B(p)", "delta"), ("HBIG", "p", "delta"),
                              ("HQG", "B(p) | B(q)", "delta"), ("HG2ORD", "p", "delta1"),
                              ("HG2NEL", "p", "deltan"), ("HMCB", "C(p)", "delta1"),
                              ("HNMCB", "C(p)", "deltan")):
        lang = CALC_LANG[calc]
        premise = parse(lang, text)
        target = mk(lang, force, premise)
        for line, cited in ((target, premise), (premise, target)):
            deriv = Derivation.from_json({
                "calculus": calc,
                "premises": [print_formula(cited)],
                "steps": [
                    {"formula": print_formula(cited), "just": {"premise": 1}},
                    {"formula": print_formula(line), "just": {"outer": [1]}},
                ],
            })
            assert check_derivation(calc, deriv).accepted, (calc, print_formula(line))
            if lang in ("QG", "BIG"):
                assert _exact_verdict(calc, [cited], [], line) == "holds"
    assert not decide.qg_entails([parse("QG", "B(p)")], parse("QG", "delta B(p)")).holds
    assert not decide.g2_entails("G2ORD", [parse("G2ORD", "p")], parse("G2ORD", "delta1 p")).holds
    assert not decide.g2_entails("G2NEL", [parse("G2NEL", "p")], parse("G2NEL", "deltaN p")).holds
    assert _exact_verdict("HQG", [parse("QG", "B(p) | B(q)")], [], parse("QG", "B(p)")) == "fails"


@pytest.mark.parametrize("calc,imp,iff", [("HMCB", "->", "<->"), ("HNMCB", "==>", "<==>")])
def test_layer_axiom_instances_are_outer_consequences(calc, imp, iff):
    # each instance holds in every belief model, so it follows from nothing
    lang = CALC_LANG[calc]
    for phi, chi in (("p", "p | q"), ("p & q", "q"), ("neg (p | q)", "neg p"),
                     ("neg neg p", "p"), ("p & (q | r)", "(p & q) | r")):
        target = parse(lang, f"C({phi}) {imp} C({chi})")
        assert match_axiom(calc, target)[0].endswith("_bd")
        assert calculi._outer_step_ok(calc, [], [], target)[0], print_formula(target)
    for phi in ("p", "p & q", "neg p"):
        target = parse(lang, f"C(neg ({phi})) {iff} neg C({phi})")
        assert match_axiom(calc, target)[0].endswith("_neg")
        assert calculi._outer_step_ok(calc, [], [], target)[0], print_formula(target)


_TWIST_SHAPES = ("{a} {i} {b}", "{a} {c} {b}", "{a} & {b}", "{a} | {b}", "{a}", "neg {a}",
                 "snot {a}", "{d} ({a} {i} {b})", "{d} {a}", "neg ({a} {i} {b})", "Top {c} {a}")


def _designated(lang, g, env, top):
    """Whether ``g`` is designated on the rank chain 0..top: (top, 0), or
    truth top in the Nelson variant."""
    nelson = lang in ("G2NEL", "NMCB")
    value = oracles.chain_eval_g2(g, env, top, nelson)
    return value[0] == top if nelson else value == (top, 0)


def _refutes_by_ranks(lang, premises, target, env, top):
    return all(_designated(lang, g, env, top) for g in premises) and \
        not _designated(lang, target, env, top)


def _designated_by_ranks(lang, premises, target):
    """Truth preservation by brute force on the rank chain 0..2k+1 for k
    variables: every premise designated makes the target designated."""
    names = sorted(set().union(*map(vars_of, [*premises, target])))
    top = 2 * len(names) + 1
    return not any(
        _refutes_by_ranks(lang, premises, target,
                          {p: (ranks[2 * i], ranks[2 * i + 1]) for i, p in enumerate(names)}, top)
        for ranks in product(range(top + 1), repeat=2 * len(names)))


def test_twist_truth_preservation_agrees_with_rank_brute_force():
    # truth preservation contains degree entailment: every step that the
    # degree reading accepts is accepted, and some only by truth
    rng = random.Random(11)
    seen = []
    for _ in range(200):
        lang = rng.choice(("G2ORD", "G2NEL"))
        tokens = {"i": "->", "c": "-<", "d": "delta1"} if lang == "G2ORD" else \
            {"i": "~>", "c": "o-", "d": "deltaN"}

        def formula():
            a, b = rng.choice((("p", "q"), ("q", "p"), ("p", "p")))
            return parse(lang, rng.choice(_TWIST_SHAPES).format(a=a, b=b, **tokens))

        premises = [formula() for _ in range(rng.randint(0, 2))]
        target = rng.choice(premises) if premises and rng.random() < 0.2 else formula()
        verdict = decide.truth_preserved(lang, premises, target)
        assert verdict.holds == _designated_by_ranks(lang, premises, target), \
            ([print_formula(g) for g in premises], print_formula(target))
        if not verdict.holds:
            # the witness, on the grid i/(2k+1), read back as ranks
            top = 2 * len(verdict.witness) + 1
            env = {p: (int(v[0] * top), int(v[1] * top)) for p, v in verdict.witness.items()}
            assert _refutes_by_ranks(lang, premises, target, env, top), verdict.witness
        degree = decide.g2_entails(lang, premises, target).holds
        assert verdict.holds or not degree
        seen.append((verdict.status, degree))
    assert seen.count(("holds", True)) >= 30 and seen.count(("fails", False)) >= 30, seen
    assert seen.count(("holds", False)) >= 5, seen


def test_twist_outer_steps_over_four_atoms_are_decided(monkeypatch):
    # past the twist grid decision's 3 atoms
    theorem = parse("G2ORD", "(p -> q) | (q -> r) | (r -> s) | (s -> p)")
    assert calculi._outer_step_ok("HG2ORD", [], [], theorem) == (True, "outer-logic consequence")
    assert calculi._outer_step_ok("HG2ORD", [], [], parse("G2ORD", "(p -> q) | (q -> r) | (r -> s)")) \
        == (False, "not an outer-logic consequence of the cited steps")
    # each disjunct's truth reads all 6 coordinates, so nothing prunes
    # before the leaves; the cap states the 2k coordinates of k atoms
    monkeypatch.setattr(decide, "_MAX_OUTER_NODES", 1000)
    target = parse("G2ORD", "((p | neg p | q) -> (neg q | r | neg r)) | "
                          "((neg q | r | neg r) -> (p | neg p | q))")
    reason = ("outer step undecided: the search over 3 atoms and 6 coordinates stopped after "
              "visiting 1,000 nodes")
    assert calculi._outer_step_ok("HG2ORD", [], [], target) == (False, reason)
    deriv = Derivation.from_json({"calculus": "HG2ORD", "steps": [
        {"formula": print_formula(target), "just": {"outer": []}}]})
    assert check_derivation("HG2ORD", deriv).steps[0]["reason"] == reason


_LAYER_ATOMS = [f"C({t})" for t in ("p", "q", "p | q", "p & q", "neg p", "neg (p | q)",
                                    "neg p & neg q", "neg neg p")]


def _as_variables(f, variant, names):
    """``f`` in the language ``variant``, each C-atom renamed to the variable ``names`` gives it."""
    if f.kind == "cmod":
        return var(variant, names[print_formula(f)])
    if f.kind == "var":
        return var(variant, f.var)
    return mk(variant, f.kind, *(_as_variables(c, variant, names) for c in f.children))


def _delta_grid_premises(lang, premises, target):
    """The premises under the language's delta and, in MCB/NMCB, the layer
    axioms' instances over the C-atoms present, by their definition."""
    delta = "deltan" if lang in ("G2NEL", "NMCB") else "delta1"
    forced = [mk(lang, delta, g) for g in premises]
    if lang in ("MCB", "NMCB"):
        forced += layer_instances([*premises, target])
    return forced


def _delta_grid_verdict(lang, premises, target):
    """Truth preservation by the twist grid decision: degree entailment
    from the delta-guarded premises and layer instances (Gamma |=_1 phi
    iff delta Gamma |= phi; Baaz 1996), C-atoms renamed to variables."""
    variant = "G2NEL" if lang in ("G2NEL", "NMCB") else "G2ORD"
    forced = _delta_grid_premises(lang, premises, target)
    atoms = sorted({print_formula(a) for g in [*forced, target] for a in modal_atoms(g)})
    names = {a: f"c{i}" for i, a in enumerate(atoms)}
    return decide.g2_entails(variant, [_as_variables(g, variant, names) for g in forced],
                             _as_variables(target, variant, names)).status


def test_twist_outer_search_agrees_with_the_delta_grid_decision():
    # twist steps over at most 3 atoms, C-atoms for MCB/NMCB, against the
    # grid decision that decided them before the order-type search; most
    # take 2 atoms, whose grid has 4,096 points rather than 262,144
    rng = random.Random(29)
    seen, sizes = [], []
    while len(seen) < 160:
        lang = ("G2ORD", "G2NEL", "MCB", "NMCB")[len(seen) % 4]
        nelson = lang in ("G2NEL", "NMCB")
        tokens = {"i": "~>", "c": "o-", "d": "deltaN"} if nelson else \
            {"i": "->", "c": "-<", "d": "delta1"}
        atoms = rng.sample(_LAYER_ATOMS, 3) if lang in ("MCB", "NMCB") else ["p", "q", "r"]
        atoms = atoms[:3 if rng.random() < 0.4 else 2]

        def formula():
            a, b = rng.choice([(a, b) for a in atoms for b in atoms])
            return parse(lang, rng.choice(_TWIST_SHAPES).format(a=a, b=b, **tokens))

        premises = [formula() for _ in range(rng.randint(0, 2))]
        target = rng.choice(premises) if premises and rng.random() < 0.2 else formula()
        verdict = decide.truth_preserved(lang, premises, target)
        assert verdict.status == _delta_grid_verdict(lang, premises, target), \
            (lang, [print_formula(g) for g in premises], print_formula(target))
        if not verdict.holds:
            # on the grid i/(2k+1) for k merged atoms, read back as ranks:
            # the premises and layer instances designated, the target not
            merged = decide.qg_merge_atoms([*premises, target])[2] if lang in ("MCB", "NMCB") \
                else verdict.witness
            top = 2 * len(merged) + 1
            env = {key: (int(v.truth * top), int(v.falsity * top))
                   for key, v in verdict.witness.items()}
            assert all((x * top).denominator == 1 for v in verdict.witness.values() for x in v)
            assert _refutes_by_ranks(lang, _delta_grid_premises(lang, premises, target),
                                     target, env, top), verdict.witness
        seen.append((lang, verdict.status))
        sizes.append(len(set().union(*map(vars_of, [*premises, target]),
                                     *map(modal_atoms, [*premises, target]))))
    for lang in ("G2ORD", "G2NEL", "MCB", "NMCB"):
        assert seen.count((lang, "holds")) >= 8 and seen.count((lang, "fails")) >= 8, seen
    assert sizes.count(3) >= 10, sizes
