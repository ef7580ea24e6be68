import ast
import copy
import gc
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction as F
from functools import partial, reduce
from itertools import combinations, product

import oracles
import pytest
from helpers import gen_big, gen_g2, instantiate_schema, layer_instances

from qublogic import algebra, bd, calculi, cli, decide, kripke, measures, syntax
from qublogic.algebra import ONE, TwistValue, UnboundVariableError, compile_twist, eval_g2
from qublogic.decide import (Verdict, big_entails, big_valid, g2_entails, g2_valid, qg_entails,
                             qg_merge_atoms, qg_saturation)
from qublogic.syntax import (BINARY_KINDS, NULLARY_KINDS, PRIMITIVE_KINDS, SUGAR_KINDS,
                             UNARY_KINDS, LanguageError, mk, modal_atoms, parse, print_formula, var,
                             vars_of)


def test_big_valid_examples():
    assert big_valid(parse("BIG", "(p -> q) | (q -> p)")).holds
    verdict = big_valid(parse("BIG", "p -> q"))
    assert not verdict.holds
    e = verdict.witness
    assert e["p"] > e["q"]  # the witness genuinely refutes


def test_comparability_formula_and_its_misprint():
    # the comparability fact used to simplify the belief-comparison example:
    # delta(a->b) | delta(b->a) is valid...
    assert big_valid(parse("BIG", "delta(a -> b) | delta(b -> a)")).holds
    # ...whereas the variant with a strong negation on the second disjunct
    # (as the running example misprints it) is refutable
    verdict = big_valid(parse("BIG", "delta(a -> b) | snot delta(b -> a)"))
    assert not verdict.holds
    misprint = parse("BIG", "delta(a -> b) | snot delta(b -> a)")
    assert oracles.chain_eval_big(misprint, verdict.witness, ONE) < ONE


def test_all_bi_goedel_axioms_hold_atomically():
    names = ["p", "q", "r"]
    for schema in calculi.schema_table("HBIG"):
        subst = {f"mv_{n}": var("BIG", v) for n, v in zip("abc", names)}
        inst = instantiate_schema(schema.sugared, subst)
        assert big_valid(inst).holds, schema.name


def test_big_entails():
    gamma = [parse("BIG", "p -> q"), parse("BIG", "p")]
    assert big_entails(gamma, parse("BIG", "q")).holds
    assert not big_entails([parse("BIG", "p")], parse("BIG", "q")).holds
    # empty premises: entailment is validity
    assert big_entails([], parse("BIG", "p -> p")).holds


def _big_queries(seed, count):
    """biG queries over 1 to 4 of the variables p, q, r, s: 0-2 premises of
    depth at most 2 and a target of depth at most 3."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        atoms = [var("BIG", n) for n in rng.sample("pqrs", rng.randint(1, 4))]
        gamma = [_outer_qg(rng, atoms, 2, "BIG") for _ in range(rng.randint(0, 2))]
        queries.append((gamma, _outer_qg(rng, atoms, 3, "BIG")))
    return queries


def test_big_entails_matches_the_grid_oracle():
    """Verdict and witness are the first countervaluation of the chain
    oracle's loop over the grid in product order."""
    statuses, widest = set(), 0
    for gamma, f in _big_queries(21, 150):
        names = sorted(set().union(*map(vars_of, [*gamma, f])))
        witness = oracles.oracle_big_entails(gamma, f, names)
        expected = Verdict("holds") if witness is None else Verdict("fails", witness)
        assert big_entails(gamma, f) == expected, [print_formula(g) for g in [*gamma, f]]
        statuses.add(expected.status)
        widest = max(widest, len(names))
    assert statuses == {"holds", "fails"} and widest == 4


def _disjunctive_queries(seed, count, lang):
    """biG queries over variables, or QG queries over B-atoms, on 1 to 5
    atoms: 0-2 premises of depth at most 2, and a goal that joins 2 to 4
    disjuncts of depth at most 2, each over the first atoms in key order,
    the last ones or all of them, and some under delta."""
    inner = ("p", "q", "r", "~p", "p & q", "p | r", "q => r", "Top")
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        k = rng.randint(1, 5)
        if lang == "BIG":
            atoms = [var("BIG", n) for n in sorted(rng.sample("abcdefg", k))]
        else:
            atoms = sorted((mk("QG", "bmod", parse("CPL", t)) for t in rng.sample(inner, k)),
                           key=print_formula)
        disjuncts = []
        for _ in range(rng.randint(2, 4)):
            cut = rng.randint(1, k)
            pool = rng.choice([atoms[:cut], atoms[cut - 1:], atoms])
            g = _outer_qg(rng, pool, 2, lang)
            disjuncts.append(mk(lang, "delta", g) if rng.random() < 0.3 else g)
        f = reduce(lambda x, y: mk(lang, "or", x, y), disjuncts)
        if rng.random() < 0.2:
            f = mk(lang, "delta", f)
        gamma = [_outer_qg(rng, atoms, 2, lang) for _ in range(rng.randint(0, 2))]
        queries.append((gamma, f))
    return queries


@pytest.mark.parametrize("lang", ["BIG", "QG"])
def test_cut_walk_matches_the_grid_oracle(lang):
    """Goals whose disjuncts close a prefix of the keys: verdict and witness
    are the chain oracle's first countervaluation over the whole grid, for
    queries that hold and fail, with premises and without."""
    seen, widest, cut = set(), 0, 0
    for gamma, f in _disjunctive_queries(30 if lang == "BIG" else 31, 120, lang):
        names = list(decide._atom_keys([*gamma, f]))
        witness = oracles.oracle_big_entails(gamma, f, names)
        expected = Verdict("holds") if witness is None else Verdict("fails", witness)
        assert big_entails(gamma, f) == expected, [print_formula(g) for g in [*gamma, f]]
        seen.add((expected.status, bool(gamma)))
        widest = max(widest, len(names))
        cut += len(decide._cuts(f, tuple(names))) > 1
    assert seen == {(status, premised) for status in ("holds", "fails")
                    for premised in (False, True)}
    assert widest == 5 and cut > 40


def _cycle(k, coimp=None):
    """The prelinearity cycle (a -> b) | (b -> c) | ... over the first ``k``
    letters, its ``coimp``-th implication turned into -<."""
    names = "abcdefgh"[:k]
    return parse("BIG", " | ".join(
        f"({x} {'-<' if i == coimp else '->'} {names[(i + 1) % k]})" for i, x in enumerate(names)))


@pytest.mark.parametrize("k", [6, 7, 8])
def test_prelinearity_cycles_hold_within_their_budget(k):
    """(10^8 points on 8 atoms; the walk skips each prefix on which a link
    between its keys is 1, and reaches 1,200 of them.)"""
    start = time.process_time()
    assert big_valid(_cycle(k)).holds
    elapsed = time.process_time() - start
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize("k", range(2, 9))
def test_a_cycle_with_a_coimplication_fails(k):
    for i in range(k):
        f = _cycle(k, i)
        verdict = big_valid(f)
        assert not verdict.holds
        assert oracles.chain_eval_big(f, verdict.witness, ONE) < ONE
        if k <= 5:
            assert verdict.witness == oracles.oracle_big_entails([], f, sorted(verdict.witness))


@pytest.mark.parametrize("with_cap", [False, True])
def test_qg_witnesses_match_the_grid_oracle(with_cap):
    """A refuted QG query's witness is the oracle's first countervaluation
    over its merged atoms in printed order, premises and saturation above
    the target, each merged atom taking its representative's value."""
    refuted = 0
    for xi, alpha in _qg_queries(17, 120):
        _, mapping, reps = qg_merge_atoms([*xi, alpha])
        aliases = {print_formula(a): print_formula(rep) for a, rep in mapping.items() if a != rep}
        witness = oracles.oracle_big_entails([*xi, *qg_saturation(reps, with_cap)], alpha,
                                             [print_formula(rep) for rep in reps], aliases)
        verdict = qg_entails(xi, alpha, with_cap)
        assert verdict.holds == (witness is None)
        if witness is not None:
            refuted += 1
            assert verdict.witness == witness, ([print_formula(g) for g in xi],
                                                print_formula(alpha))
    assert refuted > 20


def test_grid():
    assert decide._big_pairs(2) == tuple((v, F(0)) for v in (F(0), F(1, 3), F(2, 3), F(1)))
    assert decide._big_pairs(0) == ((F(0), F(0)), (F(1), F(0)))


def test_g2_entails_examples():
    assert g2_entails("G2NEL", [], parse("G2NEL", "p ~> p")).holds
    v = g2_entails("G2ORD", [], parse("G2ORD", "delta1(a -> b) | delta1(b -> a)"))
    assert not v.holds
    v2 = g2_entails("G2NEL", [], parse("G2NEL", "deltaN(a ==> b) | deltaN(b ==> a)"))
    assert not v2.holds


def test_g2_witnesses_refute():
    f = parse("G2ORD", "delta1(a -> b) | delta1(b -> a)")
    verdict = g2_valid("G2ORD", f)
    value = eval_g2(f, verdict.witness, "G2ORD")
    assert (value.truth, value.falsity) != (ONE, F(0))


def test_g2_variant_mismatch():
    with pytest.raises(LanguageError):
        g2_entails("G2ORD", [], parse("G2NEL", "p ~> p"))
    # C-atoms are not free twist values: the grid would refute this
    # mcb_bd instance with C(p) = (1/5, 0) and C(p | q) = (0, 0)
    with pytest.raises(LanguageError):
        g2_entails("G2ORD", [], parse("MCB", "C(p) -> C(p | q)"))
    with pytest.raises(LanguageError):
        g2_entails("G2NEL", [], parse("NMCB", "C(p) ==> C(p | q)"))


def test_qg_entails_examples():
    assert qg_entails([parse("QG", "B(p)")], parse("QG", "B(p | q)")).holds
    v = qg_entails([], parse("QG", "B(r | ~r)"))
    assert not v.holds
    assert v.witness["B(r | ~r)"] < ONE
    assert not qg_entails([], parse("QG", "B(p => Bot) -> (B(p) -> B(Bot))")).holds


def test_qg_entails_with_cap():
    # with the cap' schemas, tautologies are fully believed
    assert qg_entails([], parse("QG", "B(r | ~r)"), with_cap=True).holds
    assert qg_entails([], parse("QG", "snot B(r & ~r)"), with_cap=True).holds


def test_qg_witness_extends_to_countermodel():
    xi = [parse("QG", "B(p)")]
    alpha = parse("QG", "delta B(q)")
    verdict = qg_entails(xi, alpha)
    assert not verdict.holds
    model = measures.canonical_qg_model(verdict.witness, [*xi, alpha,
                                                          parse("QG", "B(Top)"), parse("QG", "B(Bot)")])
    vals = [measures.eval_qg(model, g) for g in xi]
    assert min(vals) > measures.eval_qg(model, alpha)


def test_qg_coherence_with_frame_search():
    queries = [
        ([], parse("QG", "B(r | ~r)")),
        ([], parse("QG", "B(p => Bot) -> (B(p) -> B(Bot))")),
        ([parse("QG", "B(p)")], parse("QG", "B(p | q)")),
        ([], parse("QG", "B(p & q) -> B(p)")),
    ]
    for xi, alpha in queries:
        verdict = qg_entails(xi, alpha)
        found = measures.find_frame_countermodel(xi, alpha, "QG", 2, 3)
        if found is not None:
            assert not verdict.holds
        if not verdict.holds:
            model = measures.canonical_qg_model(
                verdict.witness, [*xi, alpha, parse("QG", "B(Top)"), parse("QG", "B(Bot)")])
            vals = [measures.eval_qg(model, g) for g in xi]
            assert min(vals, default=ONE) > measures.eval_qg(model, alpha)


def _pairwise_saturation(reps, with_cap):
    """qg_saturation by its definition, one validity check per side
    condition: reg, nontriv and cap on classical validity (QG); the BD
    rule and the De Morgan equivalence on the four values (MCB, NMCB)."""
    if reps[0].lang != "QG":
        return layer_instances(reps)
    inners = [a.children[0] for a in reps]
    taut = [calculi.cpl_valid(phi) for phi in inners]
    contr = [calculi.cpl_valid(mk("CPL", "not", phi)) for phi in inners]
    sat = []
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            if i != j and calculi.cpl_valid(mk("CPL", "matimp", inners[i], inners[j])):
                sat.append(mk("QG", "delta", mk("QG", "gimp", a, b)))
            if i != j and taut[i] and contr[j]:
                sat.append(mk("QG", "snot", mk("QG", "delta", mk("QG", "gimp", a, b))))
        if with_cap and taut[i]:
            sat.append(mk("QG", "delta", a))
        if with_cap and contr[i]:
            sat.append(mk("QG", "snot", a))
    return sat


#: inner formulas with equivalent members; tautologies and contradictions
#: (CPL), De Morgan duals written apart (BD)
_SATURATION_POOLS = {
    "bmod": ("CPL", ("p", "~(~p)", "(p & q) | (p & ~q)", "q", "r", "~p", "p & q", "p | q",
                     "p => q", "p <-> q", "~(q => p)", "p | ~p", "q => q", "Top", "p & ~p", "Bot",
                     "r & ~r")),
    "cmod": ("BD", ("p", "neg neg p", "p & (p | q)", "q", "r", "neg p", "p & q", "neg (p & q)",
                    "neg p | neg q", "p | q", "neg (p | q)", "neg p & neg q", "neg (neg p & neg q)",
                    "p & neg p", "neg p | p", "p | (q & neg q)", "neg r & (p | r)")),
}


@pytest.mark.parametrize("with_cap", [False, True])
def test_qg_saturation_matches_pairwise_reference(with_cap):
    """The instances over every pair of atoms, merged or not, are those the
    side conditions give, checked one pair at a time; the BD layers get
    reg, negated-reg and De Morgan instances only."""
    rng = random.Random(3)
    for lang, modal in (("QG", "bmod"), ("MCB", "cmod"), ("NMCB", "cmod")):
        inner, texts = _SATURATION_POOLS[modal]
        pool = [parse(inner, t) for t in texts]
        kinds = set()
        for _ in range(60):
            atoms = sorted({mk(lang, modal, phi) for phi in rng.sample(pool, rng.randint(1, 7))},
                           key=print_formula)
            _, _, reps = qg_merge_atoms(atoms)
            for group in (atoms, reps):
                sat = qg_saturation(group, with_cap)
                assert sat == _pairwise_saturation(group, with_cap), \
                    (lang, [print_formula(a) for a in group])
                kinds |= {g.children[0].kind for g in sat}
        # reg, nontriv (under snot delta) and cap (on the atom) in QG
        expected = {"QG": {"gimp", "delta", *(["bmod"] if with_cap else [])},
                    "MCB": {"gimp", "iff"}, "NMCB": {"simp", "siff"}}
        assert kinds == expected[lang], (lang, kinds)


def test_canonical_frame_sets_are_equal_exactly_where_atoms_merge():
    """Over generated B- and C-atom sets, two atoms get equal sets in the
    canonical frame exactly when qg_merge_atoms merges them, and exactly
    when their inner formulas are equivalent: classically, or both ways in
    BD.  The frame has a state per assignment, or per valuation of 4."""
    rng = random.Random(22)
    for lang, modal in (("QG", "bmod"), ("MCB", "cmod"), ("NMCB", "cmod")):
        inner, texts = _SATURATION_POOLS[modal]
        pool = [parse(inner, t) for t in texts]
        merged = 0
        for _ in range(40):
            atoms = sorted({mk(lang, modal, phi) for phi in rng.sample(pool, rng.randint(2, 7))},
                           key=print_formula)
            states, _, sets = measures.canonical_frame(atoms)
            names = set().union(*(vars_of(a.children[0]) for a in atoms))
            assert states == (2 if lang == "QG" else 4) ** len(names)
            _, mapping, _ = qg_merge_atoms(atoms)
            for (a, sa), (b, sb) in combinations(zip(atoms, sets), 2):
                x, y = a.children[0], b.children[0]
                if lang == "QG":
                    equivalent = calculi.cpl_valid(mk("CPL", "iff", x, y))
                else:
                    equivalent = bd.bd_entails(x, y)[0] and bd.bd_entails(y, x)[0]
                assert (sa == sb) == (mapping[a] == mapping[b]) == equivalent, \
                    (print_formula(a), print_formula(b))
                merged += equivalent
        assert merged >= 10, (lang, merged)


def test_qg_rejects_foreign_languages():
    with pytest.raises(LanguageError):
        qg_entails([], parse("BIG", "p -> p"))


_INNER = ("p", "q", "r", "~p", "p & q", "p | q", "p => q", "~(~p)", "p | (q & r)",
          "q | ~q", "r & ~r", "Top", "Bot")


#: the connectives generated outer formulas draw from, by language
_OUTER_KINDS = {"QG": ("and", "or", "gimp", "gimp", "gcoimp", "snot", "delta", "iff"),
                "MCB": ("and", "or", "gimp", "gimp", "gcoimp", "dneg", "snot", "delta1", "iff"),
                "NMCB": ("and", "or", "simp", "nimp", "ncoimp", "dneg", "snot", "deltan", "siff")}


def _outer_qg(rng, atoms, depth, lang="QG"):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    kind = rng.choice(_OUTER_KINDS.get(lang, _OUTER_KINDS["QG"]))
    if kind in UNARY_KINDS:
        return mk(lang, kind, _outer_qg(rng, atoms, depth - 1, lang))
    return mk(lang, kind, _outer_qg(rng, atoms, depth - 1, lang),
              _outer_qg(rng, atoms, depth - 1, lang))


def _qg_queries(seed, count):
    """QG queries over at most 5 merged B-atoms, B(Top) and B(Bot) included;
    the inner pool has CPL-equivalent, tautological and contradictory members."""
    rng = random.Random(seed)
    queries = []
    while len(queries) < count:
        atoms = [mk("QG", "bmod", parse("CPL", t)) for t in rng.sample(_INNER, rng.randint(1, 3))]
        xi = [_outer_qg(rng, atoms, 2) for _ in range(rng.randint(0, 2))]
        alpha = _outer_qg(rng, atoms, 3)
        if len(qg_merge_atoms([*xi, alpha])[2]) <= 5:
            queries.append((xi, alpha))
    return queries


def _with_plain_copies(saturation):
    """The saturation with a plain copy of each delta (a -> b), as QG was
    saturated before its instances were all two-valued."""
    return [*saturation, *(g.children[0] for g in saturation
                           if g.kind == "delta" and g.children[0].kind == "gimp")]


def _reference_qg_entails(xi, alpha, with_cap):
    """QG entailment as big_entails on the merged QG formulas, saturated
    with the plain copies too, whose grid keys each B-atom by its printed
    form."""
    _, mapping, reps = qg_merge_atoms([*xi, alpha])

    def rewrite(f):
        return mapping[f] if f.kind == "bmod" else mk("QG", f.kind, *map(rewrite, f.children))

    verdict = big_entails([*map(rewrite, xi), *_with_plain_copies(qg_saturation(reps, with_cap))],
                          rewrite(alpha))
    if verdict.holds:
        return verdict
    return Verdict("fails", {print_formula(a): verdict.witness[print_formula(rep)]
                             for a, rep in mapping.items()})


@pytest.mark.parametrize("with_cap", [False, True])
def test_qg_entails_matches_the_grid_over_printed_b_atoms(with_cap):
    """The biG query over one variable per merged class gives the verdict
    and the witness (the grid's first countervaluation) of the grid keyed
    by printed B-atoms; each witness extends to a countermodel."""
    statuses = set()
    for xi, alpha in _qg_queries(15, 200):
        verdict = qg_entails(xi, alpha, with_cap)
        assert verdict == _reference_qg_entails(xi, alpha, with_cap), \
            ([print_formula(g) for g in xi], print_formula(alpha))
        statuses.add(verdict.status)
        if not verdict.holds:
            atoms = [parse("QG", key) for key in verdict.witness]
            model = measures.canonical_qg_model(verdict.witness, atoms)
            assert min((measures.eval_qg(model, g) for g in xi), default=ONE) > \
                measures.eval_qg(model, alpha)
    assert statuses == {"holds", "fails"}


def test_qg_witness_keys_are_the_printed_b_atoms(capsys):
    for xi, alpha in _qg_queries(16, 40):
        keys = {print_formula(a) for a in set().union(*map(modal_atoms, [*xi, alpha]))}
        keys |= {"B(Top)", "B(Bot)"}
        for verdict in (qg_entails(xi, alpha), decide.truth_preserved("QG", xi, alpha)):
            if not verdict.holds:
                assert set(verdict.witness) == keys
    xi, alpha = [parse("QG", "B(p)"), parse("QG", "B(q)")], parse("QG", "B(p & q) | B(~ ~r)")
    verdict = qg_entails(xi, alpha)
    expected = {"B(p)", "B(q)", "B(p & q)", "B(~ ~r)", "B(Top)", "B(Bot)"}
    assert set(verdict.witness) == expected
    model = measures.canonical_qg_model(verdict.witness, [*xi, alpha])
    assert min(measures.eval_qg(model, g) for g in xi) > measures.eval_qg(model, alpha)
    assert cli.main(["decide", "qg-entails", "--premise", "B(p)", "--premise", "B(q)",
                     "B(p & q) | B(~ ~r)"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == verdict.to_json() and set(out["witness"]) == expected


def test_qg_decisions_print_each_b_atom_once(monkeypatch):
    """No grid point or search node prints a formula: one QG decision makes
    one top-level print_formula call per B-atom in play, at any grid size."""
    calls, depth = [], [0]
    original = print_formula

    def counted(f):
        if not depth[0]:
            calls.append(f)
        depth[0] += 1
        try:
            return original(f)
        finally:
            depth[0] -= 1

    for module in (syntax, decide, algebra):
        monkeypatch.setattr(module, "print_formula", counted)
    queries = [
        ([], "B(r | ~r)", False),
        (["B(p)"], "delta B(q)", False),
        (["B(p | q)"], "B(q & r)", False),
        (["B(p)", "B(q)"], "B(p & q) | B(p | r)", True),  # 6 atoms, 262,144 grid points
    ]
    for xi, alpha, holds in queries:
        xi, alpha = [parse("QG", g) for g in xi], parse("QG", alpha)
        in_play = len(decide.qg_b_atoms([*xi, alpha]))
        for decision in (qg_entails, partial(decide.truth_preserved, "QG")):
            calls.clear()
            assert decision(xi, alpha).holds == holds
            assert len(calls) <= in_play, (decision, alpha, len(calls))


def _curried(gamma, f):
    """gamma_1 -> (gamma_2 -> ... -> f)."""
    return reduce(lambda acc, g: mk(f.lang, "gimp", g, acc), reversed(gamma), f)


def test_big_entailment_is_truth_of_the_curried_implication():
    """min gamma <= f iff gamma_1 -> (... -> f) takes the value 1: the grid
    and the order-type search decide the same biG relation, the lemma
    qg_entails rests on."""
    atoms = [var("BIG", name) for name in "pqr"]
    rng = random.Random(16)
    statuses = set()
    for _ in range(150):
        gamma = [_outer_qg(rng, atoms, 2, "BIG") for _ in range(rng.randint(0, 3))]
        f = _outer_qg(rng, atoms, 3, "BIG")
        status = big_entails(gamma, f).status
        assert decide.truth_preserved("BIG", [], _curried(gamma, f)).status == status, \
            ([print_formula(g) for g in gamma], print_formula(f))
        statuses.add(status)
    assert statuses == {"holds", "fails"}


def test_twist_degree_entailment_is_truth_of_the_curried_formula_and_kripke_entailment():
    """gamma |= f in G2ORD and G2NEL iff gamma_1 => (... => f) is
    designated everywhere, which is Kripke local entailment: the grid walk,
    the order-type search and ``kentails`` agree.  In G2ORD the falsity
    half of degree entailment adds nothing: by the search's duality, a
    valuation that breaks it gives one that breaks the truth half."""
    names = ("p", "q", "r")
    rng = random.Random(11)
    held = 0
    for lang in ("G2ORD", "G2NEL"):
        premises, targets = gen_g2(lang, 2, names=names), gen_g2(lang, 3, names=names)
        for _ in range(400):
            gamma = [rng.choice(premises) for _ in range(rng.randint(0, 2))]
            f = rng.choice(targets)
            holds = g2_entails(lang, gamma, f).holds
            assert decide.truth_preserved(lang, [], decide.curried(gamma, f)).holds == holds \
                == kripke.kentails(gamma, f)[0], (lang, [print_formula(g) for g in gamma],
                                                   print_formula(f))
            held += holds
    assert held == 200


@pytest.mark.parametrize("lang", ["BIG", "G2ORD", "G2NEL"])
def test_validity_is_truth_preservation_from_no_premises(lang):
    pool = gen_big(max_depth=3) if lang == "BIG" else gen_g2(lang, max_depth=3)
    valid = big_valid if lang == "BIG" else partial(g2_valid, lang)
    statuses = set()
    for f in random.Random(17).sample(pool, 120):
        status = valid(f).status
        assert decide.truth_preserved(lang, [], f).status == status, print_formula(f)
        statuses.add(status)
    assert statuses == {"holds", "fails"}


@pytest.mark.parametrize("xi,alpha,budget", [
    # the qg/6 shape: 6 merged atoms, 262,144 grid points
    (["B(p)", "B(q)"], "B(p & q) | B(p | r)", 0.05),
    # a prelinearity cycle over 8 merged atoms: 100,000,000 grid points
    (["B(a)", "B(b)"], "(B(c) -> B(d)) | (B(d) -> B(e)) | (B(e) -> B(f)) | (B(f) -> B(c))", 1.0),
])
def test_qg_entailment_that_holds_visits_no_grid_point(monkeypatch, xi, alpha, budget):
    def no_grid(*args):
        raise AssertionError("walked the grid")

    monkeypatch.setattr(decide, "big_entails", no_grid)
    xi, alpha = [parse("QG", g) for g in xi], parse("QG", alpha)
    start = time.process_time()
    assert qg_entails(xi, alpha).holds
    elapsed = time.process_time() - start
    assert elapsed < budget, elapsed


def test_qg_entails_admits_the_queries_it_admitted(monkeypatch, capsys):
    # 9 merged atoms, B(Top) and B(Bot) included: a query that holds is
    # decided by the search alone; a refuted one is refused at the grid
    # scan that would name its witness
    assert qg_entails([parse("QG", "B(a)")],
                      parse("QG", "B(a | b) | B(c) | B(d) | B(e) | B(f) | B(g)")).holds
    with pytest.raises(ValueError,
                       match=r"^grid decision over 9 atoms \(> 8\): 2,357,947,691 grid points$"):
        qg_entails([], parse("QG", "B(a) | B(b) | B(c) | B(d) | B(e) | B(f) | B(g)"))
    # a search past the node cap is refused with its size
    monkeypatch.setattr(decide, "_MAX_OUTER_NODES", 10)
    message = ("QG entailment undecided: the search over 6 atoms and 6 coordinates stopped "
               "after visiting 10 nodes")
    with pytest.raises(ValueError, match=f"^{message}$"):
        qg_entails([parse("QG", "B(p)"), parse("QG", "B(q)")], parse("QG", "B(p & q) | B(p | r)"))
    assert cli.main(["decide", "qg-entails", "--premise", "B(p)", "--premise", "B(q)",
                     "B(p & q) | B(p | r)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": f"ValueError: {message}"}


def test_node_cap_refusals_name_the_decision_and_the_search(monkeypatch, capsys):
    """A search stopped at the node cap names its caller's decision and
    states its atoms, coordinates and visited nodes, not a grid that was
    never searched."""
    wide = "((a | b | c | d) -> (e | f | g | h)) | ((e | f | g | h) -> (a | b | c | d))"
    monkeypatch.setattr(decide, "_MAX_OUTER_NODES", 100)
    size = "the search over 8 atoms and {} coordinates stopped after visiting 100 nodes"
    for lang, coordinates in (("BIG", 8), ("G2ORD", 16)):
        with pytest.raises(ValueError, match=f"^Kripke local entailment undecided: "
                                             f"{size.format(coordinates)}$"):
            kripke.kentails([], parse(lang, wide))
        with pytest.raises(ValueError, match=f"^truth preservation undecided: "
                                             f"{size.format(coordinates)}$"):
            decide.truth_preserved(lang, [], parse(lang, wide))
    assert calculi._outer_step_ok("HBIG", [], [], parse("BIG", wide)) == \
        (False, f"outer step undecided: {size.format(8)}")
    assert cli.main(["kripke", "entails", "--lang", "big", wide]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": f"ValueError: Kripke local entailment undecided: {size.format(8)}"}


_TWIST_LANGS = {"G2ORD": "G2ORD", "MCB": "G2ORD", "G2NEL": "G2NEL", "NMCB": "G2NEL"}


def _twist_atoms(lang):
    if lang in ("MCB", "NMCB"):
        return [mk(lang, "cmod", parse("BD", t)) for t in ("p", "neg p & q")]
    return [var(lang, "p"), var(lang, "q")]


def _one_of_each_kind(lang):
    """The atoms of ``lang`` and one formula per connective over them."""
    a, b = _twist_atoms(lang)
    formulas = [a]
    for kind in sorted(PRIMITIVE_KINDS[lang] | SUGAR_KINDS[lang]):
        if kind in NULLARY_KINDS:
            formulas.append(mk(lang, kind))
        elif kind in UNARY_KINDS:
            formulas.append(mk(lang, kind, a))
        elif kind in BINARY_KINDS:
            formulas.append(mk(lang, kind, a, b))
    return [print_formula(a), print_formula(b)], formulas


@pytest.mark.parametrize("lang", sorted(_TWIST_LANGS))
def test_compiled_twist_clauses_match_eval_g2(lang):
    """The compiled clauses on integer ranks against the chain oracle,
    which evaluates the same ranks without the compiler."""
    nelson = _TWIST_LANGS[lang] == "G2NEL"
    keys, formulas = _one_of_each_kind(lang)
    slots = {key: i for i, key in enumerate(keys)}
    rng = random.Random(5)
    for f in formulas:
        for top in (1, 2, 5):
            ev = compile_twist(f, slots, top)[0]
            for _ in range(30):
                ranks = tuple((rng.randint(0, top), rng.randint(0, top)) for _ in keys)
                assert ev(ranks) == oracles.chain_eval_g2(f, dict(zip(keys, ranks)), top, nelson), \
                    (print_formula(f), ranks)


@pytest.mark.parametrize("lang", sorted(_TWIST_LANGS))
def test_eval_g2_matches_the_chain_oracle_on_scaled_ranks(lang):
    """eval_g2 on Fractions equals the chain oracle on the ranks that the
    common denominator makes of them, for every connective."""
    variant = _TWIST_LANGS[lang]
    keys, formulas = _one_of_each_kind(lang)
    rng = random.Random(13)

    def unit_fraction():
        d = rng.choice((1, 2, 3, 4, 6))
        return F(rng.randint(0, d), d)

    for f in formulas:
        for _ in range(30):
            e = {key: TwistValue(unit_fraction(), unit_fraction()) for key in keys}
            top = math.lcm(*(x.denominator for v in e.values() for x in v))
            env = {key: (int(v.truth * top), int(v.falsity * top)) for key, v in e.items()}
            t, fl = oracles.chain_eval_g2(f, env, top, variant == "G2NEL")
            value = eval_g2(f, e, variant)
            assert value == (F(t, top), F(fl, top)), (print_formula(f), e)
            assert all(type(x) is F for x in value), (print_formula(f), value)


@pytest.mark.parametrize("lang", [*sorted(_TWIST_LANGS), "QG"])
def test_coordinates_read_covers_what_the_compiled_value_reads(lang):
    """Changing a coordinate that compile_twist does not return as read by
    the truth (falsity) of a formula leaves its compiled truth (falsity) as
    it is; the reads are exact on atoms."""
    if lang == "QG":
        atoms = [parse("QG", "B(p)"), parse("QG", "B(q)")]
        keys = [print_formula(a) for a in atoms]
        formulas = [*atoms, *(mk("QG", kind, *atoms[:n]) for kind, n in (
            ("top", 0), ("bot", 0), ("snot", 1), ("delta", 1), ("and", 2), ("or", 2),
            ("gimp", 2), ("gcoimp", 2), ("iff", 2)))]
    else:
        keys, formulas = _one_of_each_kind(lang)
    if lang in ("G2ORD", "G2NEL"):
        formulas += random.Random(3).sample(gen_g2(lang, max_depth=3), 80)
    slots = {key: i for i, key in enumerate(keys)}
    rng = random.Random(7)
    top = 4
    for f in formulas:
        ev, *reads = compile_twist(f, slots, top)
        if f.kind in ("var", "cmod", "bmod"):
            slot = slots[print_formula(f) if f.kind != "var" else f.var]
            assert reads == [1 << 2 * slot, 1 << 2 * slot + 1]
        for _ in range(40):
            coords = [rng.randint(0, top) for _ in range(2 * len(keys))]
            c = rng.randrange(len(coords))
            changed = list(coords)
            changed[c] = rng.randint(0, top)
            pair, pair2 = (ev([tuple(v[2 * i:2 * i + 2]) for i in range(len(keys))])
                           for v in (coords, changed))
            for side in (0, 1):
                assert reads[side] >> c & 1 or pair[side] == pair2[side], \
                    (print_formula(f), side, coords, changed)


@pytest.mark.parametrize("lang", ["G2ORD", "MCB"])
def test_ordered_twist_values_mirror_under_the_dual_valuation(lang):
    """Reading every atom's (t, f) as (top - f, top - t) reads the value
    (t, f) of every G2ORD/MCB formula as (top - f, top - t): designated
    values stay designated, and a falsity above 0 becomes a truth below
    the top.  So the outer-step search need not search falsities."""
    keys, formulas = _one_of_each_kind(lang)
    if lang == "G2ORD":
        formulas += random.Random(4).sample(gen_g2(lang, max_depth=3), 80)
    rng = random.Random(9)
    for f in formulas:
        for top in (1, 3, 6):
            for _ in range(20):
                env = {key: (rng.randint(0, top), rng.randint(0, top)) for key in keys}
                dual = {key: (top - fl, top - t) for key, (t, fl) in env.items()}
                t, fl = oracles.chain_eval_g2(f, env, top, False)
                assert oracles.chain_eval_g2(f, dual, top, False) == (top - fl, top - t), \
                    (print_formula(f), env)


def test_compile_twist_needs_a_slot_per_atom():
    with pytest.raises(UnboundVariableError):
        compile_twist(parse("G2ORD", "p -> q"), {"p": 0}, 3)


def test_compiling_leaves_no_reference_cycles():
    """The compiler is one recursion that holds no reference to itself, so
    neither compiled formulas nor the twist decision leave garbage for the
    cyclic collector."""
    slots = {"a": 0, "b": 1, "c": 2}
    formulas = [parse("G2ORD", "((a -> b) & neg (b -< c)) | snot delta1 (c <-> neg a) | Top"),
                parse("G2NEL", "((a ~> b) & (b ==> c)) | snot deltaN (c <==> neg a) | deltaBangN Bot")]
    gc.collect()
    gc.disable()
    try:
        for i in range(1000):
            f = formulas[i % 2]
            compile_twist(f, slots, 7)
        assert gc.collect() == 0
        excluded_middle = parse("G2ORD", "a | neg a")
        for _ in range(1000):
            g2_valid("G2ORD", excluded_middle)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_outer_searches_leave_no_reference_cycles():
    """The outer-step search empties its recursion's own cell when it ends
    and the BD support recursion is an object, so decisions that hold, fail
    or merge C-atoms leave no garbage for the cyclic collector."""
    calls = [lambda: decide.truth_preserved("BIG", [], parse("BIG", "(a -> b) | (b -> a)")),
             lambda: decide.truth_preserved("BIG", [], parse("BIG", "a | (a -> b)")),
             lambda: qg_entails([], parse("QG", "B(p) -> B(p | q)")),
             lambda: qg_entails([], parse("QG", "B(p | q) -> B(p)")),
             lambda: decide.truth_preserved("MCB", [parse("MCB", "C(p & q)")], parse("MCB", "C(p)"))]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            for _ in range(50):
                call()
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("lang,k,nodes", [("G2ORD", 4, 62), ("G2NEL", 4, 62), ("BIG", 5, 98),
                                          ("G2ORD", 5, 98)])
def test_outer_search_prunes_prelinearity_cycles_within_their_node_counts(monkeypatch, lang, k,
                                                                          nodes):
    """Each disjunct of ``(a -> b) | (b -> c) | ... | (. -> a)`` closes a
    branch as soon as the coordinates that the compiler returns as its
    reads have values, so the search decides each cycle within these node
    counts; wider reads would close branches later and cost nodes."""
    imp = "~>" if lang == "G2NEL" else "->"
    atoms = "abcde"[:k]
    target = parse(lang, " | ".join(f"({x} {imp} {y})" for x, y in zip(atoms, atoms[1:] + atoms[:1])))
    monkeypatch.setattr(decide, "_MAX_OUTER_NODES", nodes)
    assert decide.truth_preserved(lang, [], target).holds


def _reference_g2_entails(variant, gamma, f):
    """The twist grid decision by its definition: the chain oracle at each
    grid point i/d taken as rank i below top d, keys sorted, truth
    coordinate major."""
    keys = sorted(set().union(*(vars_of(g) for g in [*gamma, f])))
    d = 2 * len(keys) + 1
    nelson = variant == "G2NEL"
    pairs = [(x, y) for x in range(d + 1) for y in range(d + 1)]
    for combo in product(pairs, repeat=len(keys)):
        env = dict(zip(keys, combo))
        vf = oracles.chain_eval_g2(f, env, d, nelson)
        vs = [oracles.chain_eval_g2(g, env, d, nelson) for g in gamma]
        if min((v[0] for v in vs), default=d) > vf[0] or \
                not nelson and max((v[1] for v in vs), default=0) < vf[1]:
            return Verdict("fails", {key: TwistValue(F(x, d), F(y, d)) for key, (x, y) in env.items()})
    return Verdict("holds")


@pytest.mark.parametrize("variant", ["G2ORD", "G2NEL"])
def test_g2_entails_matches_the_grid_definition(variant):
    pool = gen_g2(variant, max_depth=3)
    rng = random.Random(11)
    for _ in range(40):
        gamma = rng.sample(pool, rng.randint(0, 2))
        f = rng.choice(pool)
        assert g2_entails(variant, gamma, f) == _reference_g2_entails(variant, gamma, f), \
            ([print_formula(g) for g in gamma], print_formula(f))


@pytest.mark.parametrize("variant,imp", [("G2ORD", "->"), ("G2NEL", "~>")])
def test_twist_decision_visits_one_grid_point_per_order_type(monkeypatch, variant, imp):
    """A query that holds evaluates its goal once per order type of the 2k
    coordinates between 0 and 1: 11, 299 and 18,731 for 1 to 3 atoms."""
    evaluated = []

    def counting(f, *args):
        ev, *reads = compile_twist(f, *args)

        def counted(v):
            evaluated.append(f)
            return ev(v)
        return counted, *reads

    monkeypatch.setattr(algebra, "compile_twist", counting)
    for premises, text, points in (([], f"a {imp} a", 11),
                                   ([], f"a & b {imp} a", 299),
                                   (["a & b"], "a", 299),
                                   ([], f"(a {imp} b) | (b {imp} c) | (c {imp} a)", 18_731)):
        # a copy: parse shares equal subformulas, so a premise's subformula
        # equal to the goal would be the parsed goal itself
        goal = copy.copy(parse(variant, text))
        evaluated.clear()
        assert g2_entails(variant, [parse(variant, g) for g in premises], goal).holds
        # by identity: the compiler's recursion is counted too, and a
        # premise's subformula may equal the goal
        assert sum(f is goal for f in evaluated) == points, text


@pytest.mark.parametrize("variant", ["G2ORD", "G2NEL"])
def test_three_atom_refutations_match_the_grid_definition(variant):
    """The first countervaluation of the full grid, witness included; the
    full grid takes seconds on a query that holds, so only refuted queries
    are drawn here."""
    pool = gen_g2(variant, max_depth=2, names=("a", "b", "c"))
    binary = sorted({g.kind for g in pool if len(g.children) == 2})
    rng = random.Random(5)
    refuted = 0
    for _ in range(200):
        f = mk(variant, rng.choice(binary), rng.choice(pool), rng.choice(pool))
        gamma = rng.sample(pool, rng.randint(0, 1))
        if set().union(*map(vars_of, [*gamma, f])) != {"a", "b", "c"}:
            continue
        verdict = g2_entails(variant, gamma, f)
        if verdict.holds:
            continue
        assert verdict == _reference_g2_entails(variant, gamma, f), \
            ([print_formula(g) for g in gamma], print_formula(f))
        refuted += 1
        if refuted == 30:
            break
    assert refuted == 30


@pytest.mark.parametrize("variant,imp", [("G2ORD", "->"), ("G2NEL", "~>")])
def test_three_atom_prelinearity_cycles_agree_with_the_chain_oracle(variant, imp):
    for text in (f"(a {imp} b) | (b {imp} c) | (c {imp} a)", f"(a {imp} b) | (b {imp} c)"):
        f = parse(variant, text)
        assert g2_valid(variant, f).holds == \
            oracles.oracle_g2_valid(f, ["a", "b", "c"], variant == "G2NEL"), text


@pytest.mark.parametrize("variant", ["G2ORD", "G2NEL"])
def test_atom_free_twist_queries_are_decided_at_the_one_grid_point(capsys, variant):
    for premises in ([], ["Top"]):
        gamma = [parse(variant, g) for g in premises]
        for text in ("Top", "snot Bot"):
            assert g2_entails(variant, gamma, parse(variant, text)) == Verdict("holds")
        for text in ("Bot", "neg Top"):
            assert g2_entails(variant, gamma, parse(variant, text)) == Verdict("fails", {})
            argv = [arg for g in premises for arg in ("--premise", g)]
            assert cli.main(["decide", "g2-entails", "--lang", variant.lower(), *argv, text]) == 1
            assert json.loads(capsys.readouterr().out) == {"status": "fails", "witness": {}}


def test_oracles_do_not_use_the_twist_compiler():
    source = pathlib.Path(oracles.__file__).read_text()
    assert "compile_twist" not in source
    # the two-layered oracle evaluates without measures, decide or algebra
    imports = [line for line in source.splitlines()
               if line.startswith(("from ", "import ")) and "qublogic" in line]
    assert imports == ["from qublogic.syntax import Formula, print_formula"]


def test_calculi_leaves_outer_decisions_to_decide():
    calc_tree = ast.parse(pathlib.Path(calculi.__file__).read_text())
    read = {(n.value.id, n.attr) for n in ast.walk(calc_tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    imported = {(n.module, a.name) for n in ast.walk(calc_tree)
                if isinstance(n, ast.ImportFrom) for a in n.names}
    # calculi reads no private name of decide
    assert not [attr for mod, attr in read | imported
                if mod == "decide" and attr.startswith("_")], read | imported
    # it defines no search, saturation or QG merging, and uses none
    defined = {n.name for n in ast.walk(calc_tree) if isinstance(n, ast.FunctionDef)} | \
        {t.id for n in ast.walk(calc_tree) if isinstance(n, ast.Assign)
         for t in n.targets if isinstance(t, ast.Name)}
    assert not [name for name in defined
                if any(w in name.lower() for w in ("search", "saturation", "merge", "outer_nodes"))]
    assert not {attr for _, attr in read | imported} & \
        {"compile_twist", "qg_merge_atoms", "qg_saturation", "qg_b_atoms"}
    # and decide does not import calculi
    decide_tree = ast.parse(pathlib.Path(decide.__file__).read_text())
    modules = [name for n in ast.walk(decide_tree) if isinstance(n, (ast.Import, ast.ImportFrom))
               for name in [getattr(n, "module", None) or "", *(a.name for a in n.names)]]
    assert not [m for m in modules if "calculi" in m], modules


def test_truth_preserved_has_one_route():
    """truth_preserved reaches no grid decision, directly or through the
    functions of decide that it calls."""
    tree = ast.parse(pathlib.Path(decide.__file__).read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    reached, todo = set(), ["truth_preserved"]
    while todo:
        name = todo.pop()
        reached.add(name)
        called = {n.func.id for n in ast.walk(defs[name])
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        todo += [c for c in called & defs.keys() if c not in reached]
    assert "_outer_search" in reached and "_qg_reduce" in reached, reached
    assert not reached & {"g2_entails", "g2_valid", "big_entails", "big_valid", "qg_entails"}, \
        reached


def _pre_change_layer_route(lang, premises, target):
    """MCB/NMCB truth preservation as it was decided before one reduction
    served all three two-layered languages: every C-atom apart, a *_bd
    instance for each ordered pair that bd_entails accepts, a *_neg
    instance where one inner formula is the other's De Morgan negation as
    written, and the C-atoms renamed to variables of the outer variant."""
    atoms = sorted(set().union(*map(modal_atoms, [*premises, target])), key=print_formula)
    outer, force, imp, eq = ("G2NEL", "deltan", "simp", "siff") if lang == "NMCB" else \
        ("G2ORD", "delta1", "gimp", "iff")
    sat = []
    for a in atoms:
        for b in atoms:
            if a != b and bd.bd_entails(a.children[0], b.children[0])[0]:
                sat.append(mk(lang, force, mk(lang, imp, a, b)))
            if b.children[0] == mk("BD", "dneg", a.children[0]):
                sat.append(mk(lang, force, mk(lang, eq, b, mk(lang, "dneg", a))))
    names = {a: var(outer, f"c{i}") for i, a in enumerate(atoms)}

    def rename(f):
        return names[f] if f.kind == "cmod" else mk(outer, f.kind, *map(rename, f.children))

    verdict = decide.truth_preserved(outer, [*map(rename, [*premises, *sat])], rename(target))
    if verdict.holds:
        return verdict
    return Verdict("fails", {print_formula(a): verdict.witness[v.var] for a, v in names.items()})


_BD_INNER = ("p", "q", "neg p", "neg q", "p & q", "p | q", "neg (p & q)", "neg p | neg q",
             "neg (p | q)", "neg p & neg q", "neg neg p", "p & neg p", "q | neg q")


def _designated_on_ranks(lang, g, env, top):
    value = oracles.chain_eval_g2(g, env, top, lang == "NMCB")
    return value == (top, 0) if lang == "MCB" else value[0] == top


def _layer_steps(count):
    """``count`` generated MCB/NMCB outer steps, the languages taking turns:
    up to two premises and a target over 2 to 4 C-atoms of the BD pool."""
    rng = random.Random(23)
    for i in range(count):
        lang = ("MCB", "NMCB")[i % 2]
        atoms = [mk(lang, "cmod", parse("BD", t)) for t in rng.sample(_BD_INNER, rng.randint(2, 4))]
        premises = [_outer_qg(rng, atoms, 2, lang) for _ in range(rng.randint(0, 2))]
        yield lang, premises, _outer_qg(rng, atoms, 3, lang)


def test_layer_steps_agree_with_the_pre_change_route_and_qg_with_plain_copies():
    """MCB/NMCB outer steps are decided as before merging, except where the
    De Morgan instances read on the supports decide a step that the
    syntactic ones left open: there the old witness extends to no belief
    model.  A QG step's witness is the one the search finds with the plain
    copies of the reg instances."""
    seen = []
    for lang, premises, target in _layer_steps(200):
        verdict = decide.truth_preserved(lang, premises, target)
        old = _pre_change_layer_route(lang, premises, target)
        step = (lang, [print_formula(g) for g in premises], print_formula(target))
        if verdict.status != old.status:
            # the new instances hold in every belief model, so no step is lost
            assert verdict.holds, step
            with pytest.raises(measures.CanonicalModelError):
                measures.canonical_mcb_model(old.witness, [*premises, target])
            seen.append("decided")
            continue
        if not verdict.holds:
            # on the grid i/(2k+1) for k merged atoms, read as ranks: the
            # premises and the layer instances designated, the target not
            top = 2 * len(qg_merge_atoms([*premises, target])[2]) + 1
            env = {key: (int(v.truth * top), int(v.falsity * top))
                   for key, v in verdict.witness.items()}
            instances = layer_instances([*premises, target])
            assert all(_designated_on_ranks(lang, g, env, top) for g in [*premises, *instances])
            assert not _designated_on_ranks(lang, target, env, top), step
        seen.append(verdict.status)
    assert seen.count("holds") >= 40 and seen.count("fails") >= 40, seen
    assert seen.count("decided") >= 1, seen
    for xi, alpha in _qg_queries(31, 60):
        premises, saturation, goal, keys, names = decide._qg_reduce(xi, alpha, False)
        reference = decide._outer_search([*premises, *_with_plain_copies(saturation)], goal,
                                         keys, names, "truth preservation")
        assert decide.truth_preserved("QG", xi, alpha) == reference


def test_refuted_layer_steps_have_witnesses_that_extend_to_belief_models():
    """The MCB/NMCB saturation has an instance for every inclusion between
    C-atoms' supports, a |- neg b and neg a |- b (b = a included) too, so
    the witness of every refuted step is a belief model's: the canonical
    model takes it, and in that model the premises are designated and the
    target is not."""
    refuted = 0
    for lang, premises, target in _layer_steps(400):
        verdict = decide.truth_preserved(lang, premises, target)
        if verdict.holds:
            continue
        model = measures.canonical_mcb_model(verdict.witness, [*premises, target])
        values = [measures.eval_layer(model, lang, g) for g in [*premises, target]]
        designated = [v == (ONE, 0) if lang == "MCB" else v.truth == ONE for v in values]
        assert designated == [True] * len(premises) + [False], \
            (lang, [print_formula(g) for g in premises], print_formula(target))
        refuted += 1
    assert refuted == 266


def test_two_layered_languages_are_named_only_in_the_reduction(monkeypatch):
    """decide names MCB and NMCB only in the reduction to the outer
    variants, and the search is reached with BIG, G2ORD and G2NEL only."""
    tree = ast.parse(pathlib.Path(decide.__file__).read_text())
    reduction = {"_LAYER", "qg_b_atoms", "qg_merge_atoms", "qg_saturation", "_qg_reduce"}
    naming = set()
    for node in tree.body:
        name = node.name if isinstance(node, ast.FunctionDef) else \
            next((t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)), None)
        texts = {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}
        if texts & {"MCB", "NMCB"}:
            naming.add(name)
        if name in ("_outer_search", "_DELTA", "_parts", "_chain_steps", "_on_grid"):
            assert not texts & {"QG", "MCB", "NMCB"}, name
    assert naming and naming <= reduction, naming
    assert set(decide._DELTA) == {"BIG", "G2ORD", "G2NEL"}
    reached = []
    search = decide._outer_search

    def recorded(premises, target, *args):
        reached.append(target.lang)
        return search(premises, target, *args)

    monkeypatch.setattr(decide, "_outer_search", recorded)
    for lang, text in (("BIG", "p -> p | q"), ("QG", "B(p) -> B(p | q)"),
                       ("G2ORD", "p -> p | q"), ("MCB", "C(p) -> C(p | q)"),
                       ("G2NEL", "p ~> p | q"), ("NMCB", "C(p) ~> C(p | q)")):
        assert decide.truth_preserved(lang, [], parse(lang, text)).holds
    assert qg_entails([parse("QG", "B(p)")], parse("QG", "B(p | q)")).holds
    assert reached == ["BIG", "BIG", "G2ORD", "G2ORD", "G2NEL", "G2NEL", "BIG"]


def test_refusals_state_the_grid_size(capsys):
    with pytest.raises(ValueError, match=r"over 9 atoms \(> 8\): 2,357,947,691 grid points"):
        big_valid(parse("BIG", "a | b | c | d | e | f | g | h | i"))
    with pytest.raises(ValueError,
                       match=r"^twist grid decision over 4 atoms \(> 3\): 100,000,000 grid points$"):
        g2_valid("G2ORD", parse("G2ORD", "p | q | r | s"))
    assert cli.main(["decide", "g2-entails", "--lang", "g2nel", "p | q | r | s"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError: twist grid decision over 4 atoms (> 3): 100,000,000 grid points"}


def test_route_checks_survive_python_optimize():
    """The checks between two routes raise AssertionError also under
    ``python -O``, which strips assert statements: the grid that holds
    where the search refutes a QG query, and a Kripke witness that refutes
    at no state."""
    script = textwrap.dedent("""
        from qublogic import decide, kripke
        from qublogic.syntax import parse
        assert False, "assert statements run"
        decide.big_entails = lambda gamma, f: decide.HOLDS
        kripke._refutation = lambda e, gamma, f: None
        for name, call in (
                ("qg_entails", lambda: decide.qg_entails([parse("QG", "B(p)")], parse("QG", "B(q)"))),
                ("kentails", lambda: kripke.kentails([parse("BIG", "p")], parse("BIG", "q")))):
            try:
                call()
            except AssertionError as error:
                print(name, error)
    """)
    src = pathlib.Path(decide.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "qg_entails the grid and the order-type search disagree",
        "kentails the search's witness refutes at no state of its chain model"]
