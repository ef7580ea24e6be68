"""The four query workloads, generated from a seed.

A workload is one round of queries; the worker repeats whole rounds.  A
query is a small function that makes the calls into qublogic for one
verdict (through ``ctx.call``, so a traced run can put a span around each
call) and returns what they returned; its ``check`` compares that output
with the independent checkers in :mod:`checkers` or with a property the
paper proves.

Random shapes (formulas over placeholder atoms, model skeletons) come from
a generator with a fixed seed, so every round of every seed holds the same
families with the same query counts, atom counts and search sizes.  The
workload seed picks the variable names, relabels states, picks
substitutions and orders the queries.  Names are drawn in increasing order,
so every enumeration the program makes over sorted names or printed atoms
runs in the same order whichever names are drawn: a search stops at the
same point, and a round's cost does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path
from typing import Callable

from qublogic import algebra, bd, calculi, cli, decide, kripke, measures, qp

import checkers as ck

ONE = Fraction(1)
POOL = ("p", "q", "r", "s", "t", "u", "v", "w")
FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIXTURE_NAMES = ("deriv_a0_translation.json", "deriv_additivity.json", "deriv_reg.json")


@dataclass
class Query:
    qid: str
    family: str
    run: Callable  # run(ctx) -> output of the calls into qublogic
    check: Callable  # check(output) -> None, or why the output is wrong
    grid: tuple | None = None  # (route, premises, conclusion) of a decision
    probe: list = field(default_factory=list)  # (lang, formula) for eval probes


# ---------------------------------------------------------------------------
# Axiom schemas, written out from the paper's calculi
# ---------------------------------------------------------------------------

# {I} and {C} are the variant's implication and co-implication.
BIG_SCHEMAS = (
    ("biG1", "({a} {I} {b}) {I} (({b} {I} {c}) {I} ({a} {I} {c}))"),
    ("biG2a", "{a} {I} ({a} | {b})"),
    ("biG2b", "{b} {I} ({a} | {b})"),
    ("biG3", "({a} {I} {c}) {I} (({b} {I} {c}) {I} (({a} | {b}) {I} {c}))"),
    ("biG4a", "({a} & {b}) {I} {a}"),
    ("biG4b", "({a} & {b}) {I} {b}"),
    ("biG5", "({a} {I} {b}) {I} (({a} {I} {c}) {I} ({a} {I} ({b} & {c})))"),
    ("biG6a", "({a} {I} ({b} {I} {c})) {I} (({a} & {b}) {I} {c})"),
    ("biG6b", "(({a} & {b}) {I} {c}) {I} ({a} {I} ({b} {I} {c}))"),
    ("biG7", "({a} {I} {b}) {I} (snot {b} {I} snot {a})"),
    ("biG8a", "({a} {C} {b}) {I} (Top {C} ({a} {I} {b}))"),
    ("biG8b", "snot ({a} {C} {b}) {I} ({a} {I} {b})"),
    ("biG9a", "{a} {I} ({b} | ({a} {C} {b}))"),
    ("biG9b", "(({a} {C} {b}) {C} {c}) {I} ({a} {C} ({b} | {c}))"),
    ("prel1", "({a} {I} {b}) | ({b} {I} {a})"),
    ("prel2", "Top {C} (({a} {C} {b}) & ({b} {C} {a}))"),
)

DM_SCHEMAS = {
    False: (
        ("neg", "neg neg {a} <-> {a}"),
        ("dem_and", "neg ({a} & {b}) <-> (neg {a} | neg {b})"),
        ("dem_or", "neg ({a} | {b}) <-> (neg {a} & neg {b})"),
        ("dem_imp", "neg ({a} -> {b}) <-> (neg {b} -< neg {a})"),
        ("dem_coimp", "neg ({a} -< {b}) <-> (neg {b} -> neg {a})"),
    ),
    True: (
        ("neg", "neg neg {a} <-> {a}"),
        ("dem_and", "neg ({a} & {b}) <-> (neg {a} | neg {b})"),
        ("dem_or", "neg ({a} | {b}) <-> (neg {a} & neg {b})"),
        ("dem_imp", "neg ({a} ~> {b}) <-> ({a} & neg {b})"),
        ("dem_coimp", "neg ({a} o- {b}) <-> (neg {a} | {b})"),
    ),
}

VARIANT = {"BIG": ("->", "-<"), "QG": ("->", "-<"), "G2ORD": ("->", "-<"),
           "MCB": ("->", "-<"), "G2NEL": ("~>", "o-"), "NMCB": ("~>", "o-")}

#: frame condition -> (layer, formula from the paper, measure property)
CORRESPONDENCES = {
    "cond_i": ("QG", "delta B(p) <-> snot B(~p)"),
    "cond_ii": ("QG", "(snot B(p & q) & snot snot B(p) & snot snot B(q)) -> "
                      "(snot delta(B(p | q) -> B(p)) & snot delta(B(p | q) -> B(q)))"),
    "cond_iii": ("QG", "snot B(p) -> delta(B(q) <-> B(p | q))"),
    "cond_iv": ("QG", "B(Top) & snot B(Bot)"),
    "mcb_i": ("MCB", "(delta1 snot C(p & q) & snot delta1 snot C(p) & snot delta1 snot C(q)) -> "
                     "(snot delta1(C(p | q) -> C(p)) & snot delta1(C(p | q) -> C(q)))"),
    "mcb_ii": ("MCB", "delta1 snot C(p) -> delta1(C(q) <-> C(p | q))"),
    "mcb_iii": ("NMCB", "(deltaN snot C(p & q) & snot snot C(p) & snot snot C(q)) ~> "
                        "(snot deltaN(C(p | q) ~> C(p)) & snot deltaN(C(p | q) ~> C(q)))"),
    "mcb_iv": ("NMCB", "deltaN snot C(p) ~> deltaN(C(q) <-> C(p | q))"),
}


def schema_text(template: str, lang: str, **subst: str) -> str:
    imp, coimp = VARIANT[lang]
    return template.format(I=imp, C=coimp, **subst)


# ---------------------------------------------------------------------------
# Random formula text
# ---------------------------------------------------------------------------

def rand_text(rng: random.Random, depth: int, atoms, unary, binary) -> str:
    """A formula of exactly the given depth (an atom has depth 1)."""
    if depth == 1:
        return rng.choice(atoms)
    if unary and rng.random() < 0.3:
        return f"{rng.choice(unary)} ({rand_text(rng, depth - 1, atoms, unary, binary)})"
    deep = rand_text(rng, depth - 1, atoms, unary, binary)
    other = rand_text(rng, rng.randint(1, depth - 1), atoms, unary, binary)
    left, right = (deep, other) if rng.random() < 0.5 else (other, deep)
    return f"({left}) {rng.choice(binary)} ({right})"


G2_CONNECTIVES = {
    "G2ORD": (("neg", "snot", "delta1"), ("&", "|", "->", "-<")),
    "G2NEL": (("neg", "snot", "deltaN", "deltaBangN"), ("&", "|", "~>", "o-")),
}


# ---------------------------------------------------------------------------
# Shared query builders
# ---------------------------------------------------------------------------

def run_cli(ctx, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ctx.call("cli.main", cli.main, list(argv))
    return code, json.loads(buf.getvalue())


def _fraction_ok(values) -> bool:
    return all(isinstance(x, Fraction) and 0 <= x <= 1 for x in values)


def decide_query(qid, family, lang, gamma, f, expect=None, canonical=False):
    """A biG, twist or QG decision.

    biG and twist verdicts are compared with the order-type decision of the
    chain evaluator, computed once per query; QG verdicts with ``expect``,
    derived from the axioms when the query was generated.  A failing biG or
    twist verdict must carry a witness that refutes on the same clauses; a
    failing QG verdict is extended with ``measures.canonical_qg_model`` and
    the model must be a genuine countermodel.
    """
    gamma = list(gamma)
    memo: dict = {}

    if lang == "BIG":
        def run(ctx):
            return ctx.call("decide.big_entails", decide.big_entails, gamma, f)
    elif lang in ("G2ORD", "G2NEL"):
        def run(ctx):
            return ctx.call("decide.g2_entails", decide.g2_entails, lang, gamma, f)
    elif canonical:
        def run(ctx):
            verdict = ctx.call("decide.qg_entails", decide.qg_entails, gamma, f)
            model = None
            if verdict.witness is not None:
                model = ctx.call("measures.canonical_qg_model", measures.canonical_qg_model,
                                 verdict.witness, [*gamma, f])
            return verdict, model
    else:
        def run(ctx):
            return ctx.call("decide.qg_entails", decide.qg_entails, gamma, f), None

    def expected():
        if "holds" not in memo:
            if lang == "BIG":
                memo["holds"] = ck.big_decide(gamma, f)
            elif lang in ("G2ORD", "G2NEL"):
                memo["holds"] = ck.g2_decide(gamma, f, lang == "G2NEL")
            else:
                memo["holds"] = expect
        return memo["holds"]

    def check(out):
        if lang == "QG":
            verdict, model = out
        else:
            verdict = out
        if verdict.status not in ("holds", "fails"):
            return f"unknown status {verdict.status!r}"
        if verdict.holds != expected():
            return f"verdict {verdict.status}, expected {'holds' if expected() else 'fails'}"
        if verdict.holds:
            return None if verdict.witness is None else "holding verdict carries a witness"
        w = verdict.witness
        if lang == "BIG":
            if not _fraction_ok(w.values()):
                return "witness value outside [0, 1]"
            if not ck.big_refutes(gamma, f, ck.witness_atom(w), ONE):
                return "witness does not refute"
            return None
        if lang in ("G2ORD", "G2NEL"):
            if not all(_fraction_ok(v) for v in w.values()):
                return "witness value outside [0, 1]"
            if not ck.g2_refutes(gamma, f, ck.witness_atom(w), ONE, lang == "G2NEL"):
                return "witness does not refute"
            return None
        if model is None:
            return "no countermodel built from the witness"
        seen = hash((model.states, tuple(sorted(model.v.items())),
                     tuple(model.mu[x] for x in range(1 << model.states))))
        if memo.get("verified") == seen:  # the same model as an earlier round's
            return None
        why = ck.countermodel_problem("QG", gamma, f, {"states": model.states, "v": model.v,
                                                        "mu": model.mu})
        if why is None:
            memo["verified"] = seen
        return why

    route = {"BIG": "big", "G2ORD": "g2", "G2NEL": "g2", "QG": "qg"}[lang]
    return Query(qid, family, run, check, grid=(route, lang, gamma, f),
                 probe=[(lang, g) for g in [*gamma, f]])


def qg_query(ctx, qid, family, phis, psis, implication=False, canonical=False):
    """QG query over B-atoms of the given inner formulas.

    Premises are B(phi) for each phi, the conclusion the disjunction of the
    B(psi) (or, with ``implication``, the validity ``B(phi) -> B(psi)``).
    It holds iff some phi classically entails some psi: reg gives
    B(phi) <= B(psi) in every model, and otherwise the measure that is 1 on
    the supersets of some |phi| and 0 elsewhere is monotone and nontrivial,
    gives every premise 1 and every disjunct 0.
    """
    if implication:
        (phi,), (psi,) = phis, psis
        gamma, alpha = [], ctx.parse("QG", f"B({phi}) -> B({psi})")
        lhs, rhs = [alpha.children[0]], [alpha.children[1]]
    else:
        gamma = [ctx.parse("QG", f"B({t})") for t in phis]
        alpha = ctx.parse("QG", " | ".join(f"B({t})" for t in psis))
        lhs, rhs = gamma, ck.atoms_of([alpha])
    with ctx.untimed():
        holds = any(ck.cpl_entails(x.children[0], y.children[0]) for x in lhs for y in rhs)
    return decide_query(qid, family, "QG", gamma, alpha, expect=holds, canonical=canonical)


# ---------------------------------------------------------------------------
# decide-valid
# ---------------------------------------------------------------------------

def build_decide_valid(ctx, rng: random.Random) -> list[Query]:
    names = sorted(rng.sample(POOL, 5))
    a, b, c = names[:3]
    qs: list[Query] = []
    # biG schema instances: every injective substitution of three variables
    # (four of the six for the two-variable schemas, so that the round's
    # median falls inside the 36 three-atom instances, not at their edge)
    for name, tpl in BIG_SCHEMAS:
        perms = list(permutations((a, b, c)))
        for x, y, z in perms if "{c}" in tpl else perms[:4]:
            f = ctx.parse("BIG", schema_text(tpl, "BIG", a=x, b=y, c=z))
            qs.append(decide_query(f"big-schema/{name}/{x}{y}{z}", "big-schema", "BIG", [], f))
    # prelinearity cycles over 3, 4 and 5 atoms
    for k in (3, 4, 5):
        cyc = names[:k]
        text = " | ".join(f"({cyc[i]} -> {cyc[(i + 1) % k]})" for i in range(k))
        qs.append(decide_query(f"big-prel/{k}", "big-prelinearity", "BIG", [],
                               ctx.parse("BIG", text)))
    # twist validities of both variants over two atoms
    for lang, nelson in (("G2ORD", False), ("G2NEL", True)):
        x, y = a, b
        texts = [("prel1", schema_text(BIG_SCHEMAS[14][1], lang, a=x, b=y)),
                 ("biG1", schema_text(BIG_SCHEMAS[0][1], lang, a=x, b=y, c=x)),
                 ("biG2a", schema_text(BIG_SCHEMAS[1][1], lang, a=x, b=y)),
                 ("biG4b", schema_text(BIG_SCHEMAS[5][1], lang, a=y, b=x))]
        texts += [(n, t.format(a=x, b=y)) for n, t in DM_SCHEMAS[nelson]]
        for n, t in texts:
            qs.append(decide_query(f"twist/{lang}/{n}", "twist-valid", lang, [],
                                   ctx.parse(lang, t)))
    # the three-atom prelinearity of the (->, -<) variant: 8^6 grid points
    text = f"({a} -> {b}) | ({b} -> {c}) | ({c} -> {a})"
    qs.append(decide_query("twist/G2ORD/prel3", "twist-valid-3atom", "G2ORD", [],
                           ctx.parse("G2ORD", text)))
    # QG entailments over 3 to 6 merged B-atoms (B(Top), B(Bot) included)
    qg = [
        ("qg/3", [a], [f"{a} | ~{a}"], False),
        ("qg/4-imp", [f"{a} & {b}"], [a], True),
        ("qg/4", [a], [f"{a} | {b}"], False),
        ("qg/4b", [f"{a} & {b}"], [f"{b} | {c}"], False),
        ("qg/5", [a, b], [f"{a} | {c}"], False),
        ("qg/5b", [a], [f"{b} & {c}", f"{a} | {c}"], False),
        ("qg/6", [a, b], [f"{a} & {b}", f"{a} | {c}"], False),
    ]
    for qid, phis, psis, imp in qg:
        qs.append(qg_query(ctx, qid, "qg-valid", phis, psis, implication=imp))
    # README command-line examples
    qs.append(cli_decide_query(ctx, "cli/big-valid", ["decide", "big-valid", "(p -> q) | (q -> p)"],
                               "BIG", [], "(p -> q) | (q -> p)", True))
    qs.append(cli_decide_query(ctx, "cli/qg-entails",
                               ["decide", "qg-entails", "--premise", "B(p)", "B(p | q)"],
                               "QG", ["p"], "p | q", True))
    rng.shuffle(qs)
    return qs


def cli_decide_query(ctx, qid, argv, lang, gamma_texts, text, expect_qg=None):
    """A README decision example run through ``cli.main``.

    For QG the premises and conclusion are single B-atoms over the given
    inner formulas and ``expect_qg`` is the axiom-derived answer.
    """
    if lang == "QG":
        gamma = [ctx.parse("QG", f"B({t})") for t in gamma_texts]
        f = ctx.parse("QG", f"B({text})")
    else:
        gamma = [ctx.parse(lang, t) for t in gamma_texts]
        f = ctx.parse(lang, text)
    memo: dict = {}

    def check(out):
        code, payload = out
        if "holds" not in memo:
            memo["holds"] = expect_qg if lang == "QG" else ck.big_decide(gamma, f)
        want = "holds" if memo["holds"] else "fails"
        if payload.get("status") != want or code != (0 if memo["holds"] else 1):
            return f"exit {code} with {payload}, expected {want}"
        return None

    return Query(qid, "cli", lambda ctx: run_cli(ctx, argv), check)


# ---------------------------------------------------------------------------
# decide-refute
# ---------------------------------------------------------------------------

def build_decide_refute(ctx, rng: random.Random) -> list[Query]:
    names = sorted(rng.sample(POOL, 3))
    a, b, c = names
    qs: list[Query] = []
    # non-theorems among depth-3 formulas over two variables, both orientations
    shapes = random.Random("decide-refute:shapes")
    families = [("BIG", 20, ("snot", "delta"), ("&", "|", "->", "-<"))]
    families += [(lang, 10, *G2_CONNECTIVES[lang]) for lang in ("G2ORD", "G2NEL")]
    for lang, count, unary, binary in families:
        found = 0
        while found < count:
            text = rand_text(shapes, 3, ["{x}", "{y}"], unary, binary)
            f = ctx.parse(lang, text.format(x=a, y=b))
            with ctx.untimed():
                if lang == "BIG":
                    valid = ck.big_decide([], f)
                else:
                    valid = ck.g2_decide([], f, lang == "G2NEL")
            if valid:
                continue
            g = ctx.parse(lang, text.format(x=b, y=a))
            for i, h in enumerate((f, g)):
                qs.append(decide_query(f"nonthm/{lang}/{found}/{i}", "non-theorem", lang, [], h))
            found += 1
    # strong-negation mutations of schema instances
    for name, tpl in BIG_SCHEMAS:
        for i in range(2):
            subst = dict(zip("abc", rng.sample(names[:3], 3)))
            f = ctx.parse("BIG", "snot (" + schema_text(tpl, "BIG", **subst) + ")")
            qs.append(decide_query(f"snot/BIG/{name}/{i}", "snot-mutation", "BIG", [], f))
    for lang, nelson in (("G2ORD", False), ("G2NEL", True)):
        texts = [(n, schema_text(t, lang, a=a, b=b, c=a)) for n, t in BIG_SCHEMAS[:4]]
        texts += [(n, t.format(a=a, b=b)) for n, t in DM_SCHEMAS[nelson]]
        for n, t in texts:
            f = ctx.parse(lang, f"snot ({t})")
            qs.append(decide_query(f"snot/{lang}/{n}", "snot-mutation", lang, [], f))
    # the misprinted comparability formula
    f = ctx.parse("BIG", f"delta({a} -> {b}) | snot delta({b} -> {a})")
    qs.append(decide_query("big/misprint", "misprint", "BIG", [], f))
    # QG non-entailments over at most three inner variables, with countermodels.
    # A fourth variable makes the canonical model a dense measure on 65,536
    # subsets; that one memory-bound query then took 90% of the round, and
    # the round's throughput spread over ten seeds rose from 0.03 to 0.09.
    qg = [
        ("qg/2a", [a], [b], False),
        ("qg/2b", [f"{a} | {b}"], [a], True),
        ("qg/2c", [a, b], [f"{a} & {b}"], False),
        ("qg/3a", [f"{a} & {b}"], [f"{a} & {c}"], False),
        ("qg/3b", [f"{a} | {b}"], [a, c], False),
        ("qg/3c", [a], [f"{b} & {c}"], True),
        ("qg/3e", [f"{a} & {b}", f"{c} | {b}"], [f"{a} & {c}", f"{b} & ~{a}"], False),
        ("qg/3d", [a, b], [c], False),
    ]
    for qid, phis, psis, imp in qg:
        qs.append(qg_query(ctx, qid, "qg-refute", phis, psis, implication=imp, canonical=True))
    qs.append(cli_bd_query(ctx))
    rng.shuffle(qs)
    return qs


def cli_bd_query(ctx):
    """README example ``bd-entails "p & neg p" "q"``: fails, with a
    four-valued countervaluation."""
    phi, chi = ctx.parse("BD", "p & neg p"), ctx.parse("BD", "q")

    def check(out):
        code, payload = out
        if code != 1 or payload.get("status") != "fails":
            return f"exit {code} with {payload}, expected fails"
        v = payload["witness"]
        if ck.four_le(ck.four_value(phi, v), ck.four_value(chi, v)):
            return "countervaluation does not refute"
        return None

    argv = ["bd-entails", "p & neg p", "q"]
    return Query("cli/bd-entails", "cli", lambda ctx: run_cli(ctx, argv), check)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def monotone_measures(states: int, denominator: int):
    """Monotone nontrivial measures with values on the grid, as dicts."""
    grid = [Fraction(i, denominator) for i in range(denominator + 1)]
    full = (1 << states) - 1
    for values in product(grid, repeat=full + 1):
        mu = dict(enumerate(values))
        if mu[full] > mu[0] and all(mu[x] <= mu[x | 1 << i] for x in range(full + 1)
                                    for i in range(states)):
            yield mu


def _relabel(mask: int, perm) -> int:
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def build_models(ctx, rng: random.Random) -> list[Query]:
    qs: list[Query] = []
    # correspondence: every frame up to two states, grid 3 (QG) or 2 (MCB)
    perm = rng.sample(range(2), 2)
    for cond, (layer, text) in CORRESPONDENCES.items():
        f = ctx.parse(layer, text)
        for states in (1, 2):
            p = perm if states == 2 else [0]
            denominator = 3 if layer == "QG" else 2
            for i, mu in enumerate(monotone_measures(states, denominator)):
                mu = {_relabel(x, p): v for x, v in mu.items()}
                qs.append(frame_query(f"frame/{cond}/{states}/{i}", cond, layer, f, states, mu))
    # countermodel searches, both orientations of the two variables
    shapes = random.Random("models:shapes")
    a, b = sorted(rng.sample(POOL, 2))
    searches = [
        ("QG", [], "B({x} => Bot) -> (B({x}) -> B(Bot))"),
        ("QG", [], "B({x} | ~{x})"),
        ("QG", ["B({x})"], "B({y})"),
        ("QG", ["B({x} | {y})"], "B({x})"),
        ("QG", ["B({x})", "B({y})"], "B({x} & {y})"),
        ("MCB", [], "delta1(C({x}) -> C({y})) | delta1(C({y}) -> C({x}))"),
        ("NMCB", [], "deltaN(C({x}) ==> C({y})) | deltaN(C({y}) ==> C({x}))"),
        ("MCB", ["C({x})"], "C({x} & {y})"),
    ]
    for i, (layer, xi_t, text) in enumerate(searches):
        for j, (x, y) in enumerate(((a, b), (b, a))):
            xi = [ctx.parse(layer, t.format(x=x, y=y)) for t in xi_t]
            alpha = ctx.parse(layer, text.format(x=x, y=y))
            qs.append(search_query(f"search/{layer}/{i}/{j}", layer, xi, alpha))
    # SIF faithfulness on random Gaerdenfors models, states relabelled
    sifs = [ctx.parse("QP", random_sif(shapes)) for _ in range(64)]
    for i in range(40):
        n, weights, v = random_gardenfors(shapes)
        perm = rng.sample(range(n), n)
        moved = {perm[x]: tuple(w[perm.index(j)] for j in range(n)) for x, w in weights.items()}
        m = ctx.call("qp.GardenforsModel", qp.GardenforsModel, n, moved,
                     {p: _relabel(mask, perm) for p, mask in v.items()})
        qs.append(sif_query(f"sif/{i}", m, perm[shapes.randrange(n)], shapes.sample(sifs, 8)))
    # appendix chain-model lemmas on one shared formula sample; the seed may
    # reflect every value x to 1 - x, which keeps the chain length
    formulas = []
    for lang in ("G2ORD", "G2NEL"):
        unary, binary = ("neg",), G2_CONNECTIVES[lang][1]
        formulas += [ctx.parse(lang, rand_text(shapes, shapes.randint(2, 3), ["p", "q"], unary,
                                               binary)) for _ in range(20)]
    thirds = [Fraction(i, 3) for i in range(4)]
    reflect = rng.random() < 0.5
    for i in range(24):
        coords = [shapes.choice(thirds) for _ in range(4)]
        if reflect:
            coords = [1 - x for x in coords]
        e = {"p": algebra.TwistValue(*coords[:2]), "q": algebra.TwistValue(*coords[2:])}
        qs.append(chain_query(f"chain/{i}", e, formulas))
    # BD four-valued tables against support tables, variables renamed
    names = dict(zip("xyz", rng.sample(("p", "q", "r"), 3)))
    for i in range(10):
        fs = [ctx.parse("BD", rand_text(shapes, shapes.randint(2, 4), ["{x}", "{y}", "{z}"],
                                        ("neg",), ("&", "|")).format(**names))
              for _ in range(24)]
        qs.append(bd_query(ctx, f"bd/{i}", fs))
    qs += models_cli_queries(ctx)
    rng.shuffle(qs)
    return qs


def frame_query(qid, cond, layer, f, states, mu):
    """Frame validity against the measure property (the paper's
    correspondence); an invalidating valuation must refute."""
    def run(ctx):
        return (ctx.call("measures.frame_validates", measures.frame_validates, states, mu, f, layer),
                ctx.call("measures.check_property", measures.check_property, states, mu, cond))

    def check(out):
        (valid, wit), (prop, _) = out
        if valid != prop:
            return f"frame validity {valid} but {cond} {prop}"
        if valid:
            return None
        if layer == "QG":
            if ck.qg_value(f, states, wit["v"], mu) == ONE:
                return "countervaluation does not refute"
            return None
        value = ck.layer_value(f, wit["vplus"], wit["vminus"], mu, layer == "NMCB")
        ok = value[0] == ONE if layer == "NMCB" else value == (ONE, 0)
        return "countervaluation does not refute" if ok else None

    return Query(qid, f"frame-{layer}", run, check, probe=[(layer, f)])


def search_query(qid, layer, xi, alpha):
    def run(ctx):
        return ctx.call("measures.find_frame_countermodel", measures.find_frame_countermodel,
                        xi, alpha, layer, 4, 4)

    def check(model):
        if model is None:
            return "no countermodel found"
        if layer == "QG":
            m = {"states": model.states, "v": model.v, "mu": model.mu}
        else:
            m = {"states": model.states, "vplus": model.vplus, "vminus": model.vminus,
                 "mu": model.pi}
        return ck.countermodel_problem(layer, xi, alpha, m)

    return Query(qid, "countermodel-search", run, check)


def random_sif(rng: random.Random) -> str:
    """A simple inequality formula: a Boolean combination of comparisons
    between comparison-free formulas over p, q."""
    def inner():
        return rand_text(rng, rng.randint(1, 2), ["p", "q"], ("~",), ("&", "|", "=>"))

    def comparison():
        return f"({inner()}) <= ({inner()})"

    shape = rng.randrange(3)
    if shape == 0:
        return comparison()
    if shape == 1:
        return f"~({comparison()})"
    return f"({comparison()}) {rng.choice(('&', '|', '=>'))} ({comparison()})"


def random_gardenfors(rng: random.Random):
    """States, weight vectors and a valuation of p, q for a Gaerdenfors model."""
    n = rng.randint(1, 4)
    weights = {}
    for x in range(n):
        nums = [rng.randint(0, 6) for _ in range(n)]
        if sum(nums) == 0:
            nums[rng.randrange(n)] = 1
        weights[x] = tuple(Fraction(v, sum(nums)) for v in nums)
    return n, weights, {p: rng.randrange(1 << n) for p in ("p", "q")}


def sif_query(qid, m, x, sifs):
    """A SIF holds at a pointed Gaerdenfors model iff its translation takes
    value 1 on the model's two-layered counterpart."""
    def run(ctx):
        um = ctx.call("qp.g_counterpart", qp.g_counterpart, m, x)
        out = []
        for s in sifs:
            t = ctx.call("qp.translate_sif", qp.translate_sif, s)
            out.append((ctx.call("qp.qp_sat", qp.qp_sat, m, x, s),
                        ctx.call("measures.eval_qg", measures.eval_qg, um, t)))
        return out

    def check(out):
        for sat, value in out:
            if sat != (value == ONE):
                return f"SIF satisfied {sat} but its translation has value {value}"
        return None

    return Query(qid, "sif", run, check)


def chain_query(qid, e, formulas):
    """Appendix lemmas: a twist value is 1 iff the chain-model support is
    full, support sizes preserve the value order, and the model/valuation
    round trip keeps fullness; values are also re-derived on the chain
    evaluator."""
    def run(ctx):
        m = ctx.call("kripke.counterparts", kripke.valuation_to_model, e)
        ctx.count("kripke.support_table.cells", len(formulas) * m.states)
        table = ctx.call("kripke.support_table", kripke.support_table, m, formulas)
        values = [ctx.call("algebra.eval_g2", algebra.eval_g2, f, e, f.lang) for f in formulas]
        _, e2 = ctx.call("kripke.counterparts", kripke.model_to_valuation, m)
        m2 = ctx.call("kripke.counterparts", kripke.valuation_to_model, e2)
        ctx.count("kripke.support_table.cells", len(formulas) * m2.states)
        t2 = ctx.call("kripke.support_table", kripke.support_table, m2, formulas)
        return m.states, table, values, m2.states, t2

    def check(out):
        n, table, values, n2, t2 = out
        full, full2 = (1 << n) - 1, (1 << n2) - 1
        pairs = set()
        for f, v in zip(formulas, values):
            mine = ck.g2_value(f, lambda node: tuple(e[node.var]), ONE, f.lang == "G2NEL")
            if tuple(v) != mine:
                return f"eval_g2 gave {tuple(v)}, chain clauses give {mine}"
            pos, neg = table[f]
            if (v[0] == ONE) != (pos == full) or (v[1] == ONE) != (neg == full):
                return "value 1 does not match full support"
            if (t2[f][0] == full2) != (pos == full) or (t2[f][1] == full2) != (neg == full):
                return "round trip changes full support"
            pairs.add((v[0], bin(pos).count("1")))
            pairs.add((v[1], bin(neg).count("1")))
        for v1, s1 in pairs:
            for v2, s2 in pairs:
                if (v1 <= v2) != (s1 <= s2):
                    return "support sizes do not preserve the value order"
        return None

    probe = [(f.lang, f) for f in formulas[:4]]
    return Query(qid, "chain-lemma", run, check, probe=probe)


def bd_query(ctx, qid, formulas):
    """Four-valued tables over all 64 valuations of p, q, r against the
    support table of the 64-state model that stacks their one-state
    counterparts; both are re-derived with the checker's BD clauses."""
    names = ("p", "q", "r")
    valuations = [dict(zip(names, combo)) for combo in product("tbnf", repeat=3)]
    vplus = {p: sum(1 << i for i, v in enumerate(valuations) if v[p] in "tb") for p in names}
    vminus = {p: sum(1 << i for i, v in enumerate(valuations) if v[p] in "fb") for p in names}
    model = ctx.call("bd.BDModel", bd.BDModel, len(valuations), vplus, vminus)

    def run(ctx):
        return (ctx.call("bd.four_eval_table", bd.four_eval_table, valuations, formulas),
                ctx.call("bd.support_table", bd.support_table, model, formulas))

    def check(out):
        table4, supports = out
        for f in formulas:
            pos, neg = supports[f]
            if (pos, neg) != ck.bd_sets(f, vplus, vminus):
                return "support table differs from the BD clauses"
            for i, v in enumerate(valuations):
                val = table4[f][i]
                if val != ck.four_value(f, v):
                    return "four-valued table differs from the BD clauses"
                if bool(pos >> i & 1) != (val in "tb") or bool(neg >> i & 1) != (val in "fb"):
                    return "four-valued table and support table disagree"
        return None

    return Query(qid, "bd-tables", run, check)


BELIEF_MODEL = {"states": 3, "v": {"q": [0, 1], "p": [], "r": [0, 1, 2]},
                "vminus": {"q": [0], "p": [], "r": []},
                "mu": {"[]": "0", "[0]": "3/10", "[1]": "0", "[0,1]": "1/2", "[2]": "0",
                       "[0,2]": "1/2", "[1,2]": "1/2", "[0,1,2]": "1"}}


def _mask(states) -> int:
    return sum(1 << s for s in states)


def _decode_mu(obj) -> dict:
    return {_mask(json.loads(k)): Fraction(v) for k, v in obj.items()}


def models_cli_queries(ctx) -> list[Query]:
    qs = []
    # eval-layer on an inline belief model
    f = ctx.parse("MCB", "C(q & neg q)")
    bm = BELIEF_MODEL
    vp = {p: _mask(s) for p, s in bm["v"].items()}
    vm = {p: _mask(s) for p, s in bm["vminus"].items()}
    mu = _decode_mu(bm["mu"])
    argv1 = ["eval-layer", "--lang", "mcb", "--model", json.dumps(bm), "C(q & neg q)"]

    def check1(out):
        code, payload = out
        want = ck.layer_value(f, vp, vm, mu, False)
        got = tuple(Fraction(x) for x in payload.get("value", ()))
        return None if code == 0 and got == want else f"exit {code}, value {got}, expected {want}"

    qs.append(Query("cli/eval-layer", "cli", lambda ctx: run_cli(ctx, argv1), check1))
    # search-countermodel
    k = ctx.parse("QG", "B(p => Bot) -> (B(p) -> B(Bot))")
    argv2 = ["model", "search-countermodel", "--layer", "qg", "B(p => Bot) -> (B(p) -> B(Bot))"]

    def check2(out):
        code, payload = out
        if code != 0 or not payload.get("found"):
            return f"exit {code} with {payload}, expected a countermodel"
        m = payload["model"]
        model = {"states": m["states"], "v": {p: _mask(s) for p, s in m["v"].items()},
                 "mu": _decode_mu(m["mu"])}
        return ck.countermodel_problem("QG", [], k, model)

    qs.append(Query("cli/search-countermodel", "cli", lambda ctx: run_cli(ctx, argv2), check2))
    # correspondence of cond_iii over every frame up to two states, grid 3
    frames = sum(1 for s in (1, 2) for _ in monotone_measures(s, 3))
    argv3 = ["model", "correspondence", "--cond", "cond_iii", "--max-states", "2", "--grid", "3"]

    def check3(out):
        code, payload = out
        if code != 0 or payload.get("equivalent") is not True or payload.get("frames") != frames:
            return f"exit {code}, expected equivalence on {frames} frames"
        return None

    qs.append(Query("cli/correspondence", "cli", lambda ctx: run_cli(ctx, argv3), check3))
    # translate-sif: (p <= q) => (r <= s) becomes delta(B(p) -> B(q)) -> delta(B(r) -> B(s))
    def leq(x, y):
        atom = lambda n: {"kind": "bmod", "children": [{"kind": "var", "var": n}]}
        return {"kind": "delta", "children": [{"kind": "gimp", "children": [atom(x), atom(y)]}]}

    want = {"kind": "gimp", "children": [leq("p", "q"), leq("r", "s")]}
    argv4 = ["qp", "translate-sif", "(p <= q) => (r <= s)"]

    def check4(out):
        code, payload = out
        return None if code == 0 and payload.get("ast") == want else f"exit {code} with {payload}"

    qs.append(Query("cli/translate-sif", "cli", lambda ctx: run_cli(ctx, argv4), check4))
    return qs


# ---------------------------------------------------------------------------
# proofs-orders
# ---------------------------------------------------------------------------

def build_proofs_orders(ctx, rng: random.Random) -> list[Query]:
    qs: list[Query] = []
    # derivation fixtures and every single-step strong-negation mutation
    for name in FIXTURE_NAMES:
        obj = json.loads((FIXTURES / name).read_text())
        qs.append(derivation_query(ctx, f"deriv/{name}", obj, None))
        for i in range(len(obj["steps"])):
            mutated = json.loads(json.dumps(obj))
            mutated["steps"][i]["formula"] = "snot (" + mutated["steps"][i]["formula"] + ")"
            qs.append(derivation_query(ctx, f"deriv/{name}/snot{i + 1}", mutated, i + 1))
    # axiom-schema instances for each calculus
    qs += match_axiom_queries(ctx, rng)
    # order representability: every nontrivial monotone order over <= 3 atoms
    for n in (1, 2, 3):
        perm = rng.sample(range(n), n)
        for i, rank in enumerate(ck.monotone_orders(n)):
            rank = {_relabel(x, perm): r for x, r in rank.items()}
            order = ctx.call("qp.OrderInstance", qp.OrderInstance, n, rank)
            qs.append(lp_query(f"lp/{n}/{i}", n, rank, order))
    # README examples
    order_json = '{"ground":2,"rank":{"[]":0,"[0]":1,"[1]":1,"[0,1]":2}}'
    rank2 = {0: 0, 1: 1, 2: 1, 3: 2}

    def check_lp_cli(out):
        code, payload = out
        if code != 0 or payload.get("representable") is not True:
            return f"exit {code} with {payload}, expected representable"
        w = payload["witness"]
        return ck.weights_problem(2, rank2, [Fraction(x) for x in w["weights"]], Fraction(w["eps"]))

    argv_lp = ["qp", "represent-lp", "--order", order_json]
    qs.append(Query("cli/represent-lp", "cli", lambda ctx: run_cli(ctx, argv_lp), check_lp_cli))
    argv_prove = ["prove", "check", (FIXTURES / "deriv_reg.json").read_text()]

    def check_prove_cli(out):
        code, payload = out
        ok = code == 0 and payload.get("accepted") is True
        return None if ok else f"exit {code} with {payload}, expected accepted"

    qs.append(Query("cli/prove-check", "cli", lambda ctx: run_cli(ctx, argv_prove),
                    check_prove_cli))
    rng.shuffle(qs)
    return qs


def derivation_query(ctx, qid, obj, mutated_step):
    """Fixtures are accepted.  A strong-negation mutation of step i must be
    rejected first at step i: earlier steps are unchanged, and ``snot phi``
    takes value 0 wherever the satisfiable lines it is checked against
    make ``phi`` true, so it follows from none of them."""
    deriv = ctx.call("calculi.Derivation.from_json", calculi.Derivation.from_json, obj)
    steps = len(deriv.steps)

    def run(ctx):
        ctx.count("calculi.check_derivation.steps", steps)
        return ctx.call("calculi.check_derivation", calculi.check_derivation,
                        deriv.calculus, deriv)

    def check(report):
        if mutated_step is None:
            return None if report.accepted else f"fixture rejected: {report.to_json()}"
        if report.accepted or report.first_failure != mutated_step:
            return f"mutation of step {mutated_step}: first failure {report.first_failure}"
        return None

    probe = [("QG", s.formula) for s in deriv.steps
             if s.formula is not None and s.formula.lang == "QG"][:3]
    return Query(qid, "derivation", run, check, probe=probe)


def _rand_sub(rng, lang, names):
    """A sugar-free formula of depth 2 over the given atoms."""
    imp, coimp = VARIANT.get(lang, ("=>", "=>"))
    ops = {"BIG": ("&", "|", imp, coimp), "G2ORD": ("&", "|", imp, coimp),
           "G2NEL": ("&", "|", imp, coimp), "QG": ("&", "|", imp, coimp),
           "MCB": ("&", "|", imp, coimp), "NMCB": ("&", "|", imp, coimp),
           "QP": ("&", "|", "=>"), "CPL": ("&", "|", "=>"), "BD": ("&", "|")}[lang]
    x, y = rng.sample(names, 2)
    return f"({x}) {rng.choice(ops)} ({y})"


def match_axiom_queries(ctx, rng: random.Random) -> list[Query]:
    """One instance of every schema of every calculus, with distinct random
    substitutions; the match must name the schema and give back the
    substitution."""
    names = sorted(rng.sample(POOL, 4))
    out: list[Query] = []

    def add(calc, schema, text, subst):
        lang = calculi.CALC_LANG[calc]
        f = ctx.parse(lang, text)
        want = {k: ctx.parse(sub_lang, t) for k, (sub_lang, t) in subst.items()}
        out.append(match_query(f"match/{calc}/{schema}", calc, schema, f, want))

    def outer_atoms(lang):
        if lang in ("QG",):
            return [f"B({n})" for n in names]
        if lang in ("MCB", "NMCB"):
            return [f"C({n})" for n in names]
        return list(names)

    for calc in ("HBIG", "HG2ORD", "HG2NEL", "HQG", "HQPG", "HQPG_TOP", "HMCB", "HNMCB"):
        lang = calculi.CALC_LANG[calc]
        atoms = outer_atoms(lang)
        schemas = list(BIG_SCHEMAS)
        if lang in ("G2ORD", "G2NEL", "MCB", "NMCB"):
            schemas += DM_SCHEMAS[lang in ("G2NEL", "NMCB")]
        for schema, tpl in schemas:
            subs = {}
            for meta in "abc":
                if "{" + meta + "}" in tpl:
                    while True:
                        t = _rand_sub(rng, lang, atoms)
                        if t not in subs.values():
                            break
                    subs[meta] = t
            text = schema_text(tpl, lang, **{k: f"({t})" for k, t in subs.items()})
            add(calc, schema, text, {k: (lang, t) for k, t in subs.items()})
        x, y = rng.sample(names, 2)
        if lang == "QG":
            phi, psi = _rand_sub(rng, "CPL", names), f"{y}"
            add(calc, "reg", f"B({phi}) -> B(({phi}) | {psi})",
                {"phi": ("CPL", phi), "chi": ("CPL", f"({phi}) | {psi}")})
            taut, contr = f"{x} | ~{x}", f"{y} & ~{y}"
            add(calc, "nontriv", f"snot delta (B({taut}) -> B({contr}))",
                {"phi": ("CPL", taut), "chi": ("CPL", contr)})
            if calc == "HQPG_TOP":
                add(calc, "cap1", f"B({taut})", {"phi": ("CPL", taut)})
                add(calc, "cap2", f"snot B({contr})", {"phi": ("CPL", contr)})
        if lang in ("MCB", "NMCB"):
            phi = _rand_sub(rng, "BD", names)
            arrow, equiv = ("==>", "<==>") if lang == "NMCB" else ("->", "<->")
            add(calc, "nmcb_bd" if lang == "NMCB" else "mcb_bd",
                f"C({phi}) {arrow} C(({phi}) | {y})",
                {"phi": ("BD", phi), "chi": ("BD", f"({phi}) | {y}")})
            add(calc, "nmcb_neg" if lang == "NMCB" else "mcb_neg",
                f"C(neg ({phi})) {equiv} neg C({phi})", {"phi": ("BD", phi)})
    # the comparison calculus
    a, b, c, d = (_rand_sub(rng, "QP", names) for _ in range(4))
    add("HQP", "A0", f"((({a}) <-> ({b})) ~~ Top) & ((({c}) <-> ({d})) ~~ Top) => "
                     f"((({a}) <= ({c})) <-> (({b}) <= ({d})))",
        {k: ("QP", t) for k, t in zip("abcd", (a, b, c, d))})
    add("HQP", "A1", f"Bot <= ({a})", {"a": ("QP", a)})
    add("HQP", "A2", f"(({a}) <= ({b})) | (({b}) <= ({a}))", {"a": ("QP", a), "b": ("QP", b)})
    add("HQP", "A3", "Bot << Top", {})
    return out


# ``snot x`` is ``x -> Bot``, so every biG7 instance is also the biG1
# instance with c := Bot, and the table's first schema may be named.
ALSO_MATCHES = {"biG7": ("biG1", ("a", "b"))}


def match_query(qid, calc, schema, f, want):
    def run(ctx):
        return ctx.call("calculi.match_axiom", calculi.match_axiom, calc, f)

    def check(hit):
        if hit is None:
            return f"no match, expected {schema}"
        name, binding = hit
        if name == schema and binding == want:
            return None
        other, keys = ALSO_MATCHES.get(schema, (None, ()))
        if name == other and all(binding.get(k) == want[k] for k in keys):
            return None
        return f"matched {name} with another substitution, expected {schema}"

    return Query(qid, "match-axiom", run, check)


def lp_query(qid, n, rank, order):
    """Representable iff de Finetti's axioms hold (n <= 4); the weights are
    re-summed exactly against every pair of subsets."""
    memo: dict = {}

    def run(ctx):
        return ctx.call("qp.represent_order_lp", qp.represent_order_lp, order)

    def check(witness):
        if "rep" not in memo:
            memo["rep"] = ck.de_finetti(n, rank)
        if (witness is not None) != memo["rep"]:
            return f"LP says representable={witness is not None}, de Finetti {memo['rep']}"
        if witness is None:
            return None
        return ck.weights_problem(n, rank, witness.weights, witness.eps)

    return Query(qid, "order-lp", run, check)


BUILDERS = {
    "decide-valid": build_decide_valid,
    "decide-refute": build_decide_refute,
    "models": build_models,
    "proofs-orders": build_proofs_orders,
}
