import copy
import dataclasses
import pickle
import random

import pytest

import test_cli

from qublogic import calculi, syntax
from qublogic.syntax import (FormulaSyntaxError, LanguageError, desugar, formula_from_json,
                             formula_to_json, is_sif, lits, mk, modal_atoms, parse,
                             print_formula, subformulas, var, vars_of)

from helpers import gen_big, gen_g2


def test_parse_rejects_malformed_input():
    with pytest.raises(FormulaSyntaxError):
        parse("BIG", "delta(B? never)")


def test_parse_comparison_simplification_example():
    f = parse("QG", "snot delta(B(p & ~q) -> B(~p & q))")
    assert f.kind == "snot"
    assert f.children[0].kind == "delta"
    imp = f.children[0].children[0]
    assert imp.kind == "gimp"
    assert imp.children[0] == mk("QG", "bmod", parse("CPL", "p & ~q"))
    assert imp.children[1] == mk("QG", "bmod", parse("CPL", "~p & q"))


def test_parse_nested_comparison_is_not_sif():
    f = parse("QP", "(p <= q) <= (r <= s)")
    assert f.kind == "leq"
    assert not is_sif(f)


def test_print_examples():
    assert print_formula(parse("QG", "B(p) -> B(q)")) == "B(p) -> B(q)"
    assert print_formula(parse("BD", "neg (p & q)")) == "neg (p & q)"
    assert print_formula(parse("BIG", "p -< q")) == "p -< q"


def test_parse_language_violations():
    with pytest.raises(LanguageError):
        parse("CPL", "neg p")
    with pytest.raises(LanguageError):
        parse("BIG", "p <= q")
    with pytest.raises(LanguageError):
        parse("QG", "p -> q")  # bare variables are not QG formulas
    with pytest.raises(LanguageError):
        parse("BD", "p -> q")
    with pytest.raises(LanguageError):
        parse("MCB", "B(p)")


def test_comparisons_do_not_chain():
    with pytest.raises(FormulaSyntaxError):
        parse("QP", "p <= q <= r")


def test_precedence():
    assert parse("BIG", "p & q -> r | s") == parse("BIG", "(p & q) -> (r | s)")
    assert parse("BIG", "p -> q -> r") == parse("BIG", "p -> (q -> r)")
    assert parse("QP", "p & q <= r | s") == parse("QP", "(p & q) <= (r | s)")
    assert parse("CPL", "~p & q") == parse("CPL", "(~p) & q")


_RANDOM_KINDS = {
    "CPL": (("not",), ("and", "or", "matimp", "iff")),
    "BD": (("dneg",), ("and", "or")),
    "BIG": (("snot", "delta"), ("and", "or", "gimp", "gcoimp", "iff")),
    "G2ORD": (("dneg", "snot", "delta1"), ("and", "or", "gimp", "gcoimp", "iff")),
    "G2NEL": (("dneg", "snot", "deltan", "deltabang"),
              ("and", "or", "nimp", "ncoimp", "iff", "simp", "siff")),
    "QG": (("snot", "delta"), ("and", "or", "gimp", "gcoimp", "iff")),
    "MCB": (("dneg", "snot", "delta1"), ("and", "or", "gimp", "gcoimp", "iff")),
    "NMCB": (("dneg", "snot", "deltan", "deltabang"),
             ("and", "or", "nimp", "ncoimp", "iff", "simp", "siff")),
    "QP": (("not",), ("and", "or", "matimp", "iff", "leq", "approx", "less")),
}


def _random_formula(rng: random.Random, lang: str, depth: int):
    unary, binary = _RANDOM_KINDS[lang]
    inner = syntax.INNER_LANG.get("bmod" if lang == "QG" else "cmod")
    if depth <= 1 or rng.random() < 0.2:
        if lang == "QG":
            return mk(lang, "bmod", _random_formula(rng, "CPL", rng.randint(1, 2)))
        if lang in ("MCB", "NMCB"):
            return mk(lang, "cmod", _random_formula(rng, "BD", rng.randint(1, 2)))
        if rng.random() < 0.15 and "top" in syntax.SUGAR_KINDS[lang]:
            return mk(lang, rng.choice(("top", "bot")))
        return var(lang, rng.choice(("p", "q", "r")))
    if rng.random() < 0.3:
        return mk(lang, rng.choice(unary), _random_formula(rng, lang, depth - 1))
    kind = rng.choice(binary)
    return mk(lang, kind, _random_formula(rng, lang, depth - 1),
              _random_formula(rng, lang, depth - 1))


@pytest.mark.parametrize("lang", syntax.LANGS)
def test_print_parse_round_trip(lang):
    rng = random.Random(hash(lang) & 0xFFFF)
    for _ in range(300):
        f = _random_formula(rng, lang, 6)
        assert parse(lang, print_formula(f)) == f


@pytest.mark.parametrize("lang", syntax.LANGS)
def test_desugar_outputs_primitives_of_the_language(lang):
    rng = random.Random(1 + (hash(lang) & 0xFFFF))
    allowed = syntax.PRIMITIVE_KINDS[lang]

    def kinds(f):
        out = {f.kind}
        if f.kind not in syntax.MODAL_KINDS:
            for c in f.children:
                out |= kinds(c)
        return out

    for _ in range(150):
        f = desugar(_random_formula(rng, lang, 5))
        assert kinds(f) <= allowed
        # desugared inner layers are primitive too
        for atom in modal_atoms(f):
            inner = atom.children[0]
            assert kinds(inner) <= syntax.PRIMITIVE_KINDS[inner.lang]


def test_desugar_delta_expansion():
    f = desugar(parse("BIG", "delta p"))
    r = var("BIG", syntax.RESERVED_VAR)
    top = mk("BIG", "gimp", r, r)
    bot = mk("BIG", "gcoimp", r, r)
    assert f == mk("BIG", "gimp", mk("BIG", "gcoimp", top, var("BIG", "p")), bot)


def test_desugar_identity_on_primitives():
    f = parse("BIG", "p")
    assert desugar(f) == f
    g = parse("G2NEL", "p ~> q")
    assert desugar(g) == g


def test_desugar_approx_expansion():
    f = desugar(parse("QP", "p ~~ q"))
    assert f == mk("QP", "and", parse("QP", "p <= q"), parse("QP", "q <= p"))


def test_is_sif_examples():
    assert is_sif(parse("QP", "p <= q"))
    assert is_sif(parse("QP", "(p <= q) => (r <= s)"))
    assert not is_sif(parse("QP", "(p <= q) <= (r <= s)"))
    assert not is_sif(parse("QP", "p"))
    assert is_sif(parse("QP", "p ~~ q"))  # sugar expands into a SIF
    with pytest.raises(LanguageError):
        is_sif(parse("QG", "B(p) -> B(q)"))


def test_subformulas_stops_at_modal_atoms():
    f = parse("QG", "B(p) -> B(q)")
    assert subformulas(f) == {f, parse("QG", "B(p)"), parse("QG", "B(q)")}


def test_vars_and_lits():
    assert vars_of(parse("CPL", "p & ~q")) == {"p", "q"}
    assert lits(parse("BD", "p & neg q")) == {var("BD", "p"), mk("BD", "dneg", var("BD", "q"))}
    assert lits(parse("BD", "neg neg q")) == {var("BD", "q")}
    assert lits(parse("BD", "neg (p & q)")) == {mk("BD", "dneg", var("BD", "p")),
                                                mk("BD", "dneg", var("BD", "q"))}
    with pytest.raises(LanguageError):
        lits(parse("CPL", "p"))


def test_json_round_trip():
    for lang, text in (("QG", "snot delta(B(p & ~q) -> B(~p & q))"),
                       ("QP", "(p <= q) => ~(q <= p)"),
                       ("NMCB", "deltaN(C(p) ==> C(neg q))")):
        f = parse(lang, text)
        assert formula_from_json(lang, formula_to_json(f)) == f


@pytest.mark.parametrize("obj", [
    [1], {"kind": 5}, {"var": "p"}, {"kind": "var", "var": 5}, {"kind": "var"},
    {"kind": "and", "children": "xy"}, {"kind": "and", "children": [{"kind": "var", "var": "p"}, 3]},
])
def test_malformed_json_asts_are_refused(obj):
    with pytest.raises(ValueError):
        formula_from_json("BIG", obj)


def test_generated_formula_sets_have_expected_sizes():
    assert len(gen_big(3)) == 1982
    assert len(gen_g2("G2ORD", 3)) == 2378


def _reference_tokenize(text):
    """The tokenizer as a loop over positions: each of the symbols tried in
    turn with str.startswith, then a word of str.isalnum() characters."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        sym = next((s for s in syntax._SYMBOLS if text.startswith(s, i)), None)
        if sym is not None:
            out.append(("sym", sym, i))
            i += len(sym)
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in syntax._KEYWORDS:
                out.append(("word", word, i))
            elif word[0].islower() and all(c.islower() or c.isdigit() or c == "_" for c in word):
                out.append(("var", word, i))
            else:
                raise FormulaSyntaxError(f"unknown token {word!r}", i)
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    return out


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except FormulaSyntaxError as exc:
        return str(exc), exc.pos


def test_tokenizer_matches_the_per_position_reference():
    texts = [text for rows in calculi._ROWS.values() for _, text in rows]
    texts += [text for _, _, text, side in calculi._MODAL for text in (text, side or "")]
    texts += [text for _, text in calculi._RFDE]
    texts += [arg for argv in test_cli._MALFORMED for arg in argv]
    texts += ["delta(B? never)", "p -", "p_1 & P", "Foo", "deltaBangN p", "o-p", "po-q", "oo-p",
              "~~p", "p<==>q<=r", "1p", "_p", "p\u00a0& q\u2003", "\u00e9t\u00e9 | \u00df"]
    # workload-shaped texts, with characters inserted that classify
    # differently under isspace/isalpha/isalnum/isdigit
    rng = random.Random(15)
    inner = ["p", "q", "r", "~p", "p & q", "p | ~q", "p => q", "Top", "Bot", "neg p", "p | neg q"]
    shapes = ["B({0}) -> B({1})", "B({0}) & snot B({1}) -> delta B({0} | {1})",
              "C({0}) ==> C({1})", "({0}) <= ({1})", "({0}) ~~ ({1}) | ({1}) << ({0})",
              "deltaN C({0}) <==> neg C({1})", "snot delta (B({0}) -< B({1}))"]
    formulas = [print_formula(f) for f in gen_big(3)[::97] + gen_g2("G2NEL", 3)[::251]]
    noise = [" ", "\t", "\n", "\u00a0", "\u2003", "\x1c", "_", "1", "\u00b2", "\u00bd",
             "\u216b", "\u00e9", "\u00df", "\u0130", "\u0301", "\u01c5", "\u03a3", "o", "-",
             "<", "=", "~", "?"]
    for _ in range(600):
        if rng.random() < 0.5:
            text = rng.choice(shapes).format(*rng.sample(inner, 2))
        else:
            text = rng.choice(formulas)
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(noise) + text[i:]
        texts.append(text)
    # every character up to U+3000 and a sample above it, alone and inside a word
    chars = [chr(c) for c in range(0x3000)] + [chr(rng.randrange(0x3000, 0x110000))
                                               for _ in range(3000)]
    texts += chars + [f"p{c}q & {c}r" for c in chars]
    for text in texts:
        assert _tokens_or_error(syntax._tokenize, text) == \
            _tokens_or_error(_reference_tokenize, text), repr(text)


def test_formula_nodes_are_slotted_and_frozen():
    f = parse("QG", "snot delta(B(p & ~q) -> B(~p & q))")
    assert not hasattr(f, "__dict__")
    assert [fl.name for fl in dataclasses.fields(syntax.Formula)] == \
        ["lang", "kind", "children", "var"]
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert copied is not f and copied == f and hash(copied) == hash(f)
        assert print_formula(copied) == print_formula(f)
    for name in ("lang", "kind", "children", "var", "_hash"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, None)


def test_pickled_formulas_carry_no_hash():
    # the cached hash belongs to the process's hash seed, so a pickle
    # rebuilds the node through its fields alone
    f = parse("BD", "p & neg q")
    hash(f)
    assert pickle.loads(pickle.dumps(f))._hash is None


def test_parse_shares_equal_subformulas(monkeypatch):
    f = parse("BD", "(p | q) & (p | q)")
    assert f.children[0] is f.children[1]
    assert parse("BD", "neg (p | q)").children[0] is f.children[0]
    assert parse("BIG", "p | q").lang == "BIG"
    assert parse("BD", "(p | q) & (p | q)") is f
    # the table is emptied once full, so it keeps at most a bounded number
    # of nodes alive
    monkeypatch.setattr(syntax, "_MAX_PARSED", 8)
    for i in range(20):
        parse("BD", f"x{i} & neg x{i}")
        assert len(syntax._PARSED) <= 8 + 3
    assert parse("BD", "(p | q) & (p | q)") is not f


def test_each_outer_variant_has_its_languages_connectives():
    """A language's outer variant has its connectives, with variables for
    its modal atoms, and is its own outer variant; each Hilbert calculus
    but HQP reads its language's."""
    assert sorted(syntax.OUTER) == ["BIG", "G2NEL", "G2ORD", "MCB", "NMCB", "QG"]
    for lang, outer in syntax.OUTER.items():
        assert syntax.OUTER[outer] == outer
        assert syntax.PRIMITIVE_KINDS[lang] - syntax.MODAL_KINDS | {"var"} == \
            syntax.PRIMITIVE_KINDS[outer], lang
        assert syntax.SUGAR_KINDS[lang] == syntax.SUGAR_KINDS[outer], lang
    assert {calc: calculi.VARIANT.get(calc) for calc in calculi.CALCULI} == {
        calc: "QP" if calc == "HQP" else syntax.OUTER.get(calculi.CALC_LANG[calc])
        for calc in calculi.CALCULI}
