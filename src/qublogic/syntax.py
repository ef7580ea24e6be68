"""Object-language syntax: ASTs, parsing, printing, and sugar elimination.

Nine languages share a single immutable ``Formula`` tree.  Each node carries
the language it belongs to; the two-layered languages (QG, MCB, NMCB) embed
inner-layer formulas (CPL under ``B``, BD under ``C``) whose nodes carry the
inner language tag.  Defined connectives (``Top``, ``snot``, ``delta``, ...)
are kept as distinct sugar nodes so printers can reproduce the usual surface
syntax; :func:`desugar` rewrites them into the primitive fragment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, TypeVar

LANGS = ("CPL", "BD", "BIG", "G2ORD", "G2NEL", "QG", "MCB", "NMCB", "QP")

# Variable used when expanding Top/Bot-style sugar.  It is a legal variable
# name on purpose: desugared formulas must still print and re-parse.
RESERVED_VAR = "rsvd"

UNARY_KINDS = frozenset({"not", "dneg", "snot", "delta", "delta1", "deltan", "deltabang"})
BINARY_KINDS = frozenset(
    {"and", "or", "gimp", "gcoimp", "nimp", "ncoimp", "matimp", "leq",
     "iff", "approx", "less", "simp", "siff"}
)
MODAL_KINDS = frozenset({"bmod", "cmod"})
NULLARY_KINDS = frozenset({"top", "bot"})

#: inner language of each modal atom
INNER_LANG = {"bmod": "CPL", "cmod": "BD"}

PRIMITIVE_KINDS = {
    "CPL": frozenset({"var", "not", "and", "or", "matimp"}),
    "BD": frozenset({"var", "dneg", "and", "or"}),
    "BIG": frozenset({"var", "and", "or", "gimp", "gcoimp"}),
    "G2ORD": frozenset({"var", "dneg", "and", "or", "gimp", "gcoimp"}),
    "G2NEL": frozenset({"var", "dneg", "and", "or", "nimp", "ncoimp"}),
    "QG": frozenset({"bmod", "and", "or", "gimp", "gcoimp"}),
    "MCB": frozenset({"cmod", "dneg", "and", "or", "gimp", "gcoimp"}),
    "NMCB": frozenset({"cmod", "dneg", "and", "or", "nimp", "ncoimp"}),
    "QP": frozenset({"var", "not", "and", "or", "matimp", "leq"}),
}

SUGAR_KINDS = {
    "CPL": frozenset({"top", "bot", "iff"}),
    "BD": frozenset(),
    "BIG": frozenset({"top", "bot", "snot", "delta", "iff"}),
    "G2ORD": frozenset({"top", "bot", "snot", "delta1", "iff"}),
    "G2NEL": frozenset({"top", "bot", "snot", "deltan", "deltabang", "simp", "siff", "iff"}),
    "QG": frozenset({"top", "bot", "snot", "delta", "iff"}),
    "MCB": frozenset({"top", "bot", "snot", "delta1", "iff"}),
    "NMCB": frozenset({"top", "bot", "snot", "deltan", "deltabang", "simp", "siff", "iff"}),
    "QP": frozenset({"top", "bot", "iff", "approx", "less"}),
}


class LanguageError(ValueError):
    """A connective was used outside the languages that permit it."""


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True, init=False)
class Formula:
    """An immutable formula node.  ``var`` is set only for kind ``var``."""

    # slots, not an instance dict; ``_hash`` and ``_memo`` are no dataclass
    # fields, so equality, ``dataclasses.fields`` and pickles see only the
    # four fields.  ``_memo`` is unset until :func:`memo` first stores in it.
    __slots__ = ("lang", "kind", "children", "var", "_hash", "_memo")

    lang: str
    kind: str
    children: tuple[Formula, ...]
    var: str

    def __init__(self, lang: str, kind: str, children: tuple[Formula, ...] = (),
                 var: str = "") -> None:
        _set = object.__setattr__
        _set(self, "lang", lang)
        _set(self, "kind", kind)
        _set(self, "children", children)
        _set(self, "var", var)
        # trees are shared heavily; each node caches its structural hash here
        _set(self, "_hash", None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.lang, self.kind, self.children, self.var))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # rebuilt through __init__: a hash cached under one hash seed is not
        # carried into another process, nor is a memo
        return Formula, (self.lang, self.kind, self.children, self.var)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Formula({self.lang}: {print_formula(self)})"


_T = TypeVar("_T")


def memo(f: Formula, key: object, build: Callable[[], _T]) -> _T:
    """``build()``, kept on the node ``f`` under ``key`` for later calls.

    For data that depends on the formula alone, such as its compiled
    evaluator: the node is immutable, so the value stays right for as long
    as the node lives, and it is freed with the node.  Each user keys by its
    own name first.  A ``build`` that raises stores nothing."""
    try:
        table = f._memo
    except AttributeError:
        table = {}
        object.__setattr__(f, "_memo", table)
    try:
        return table[key]
    except KeyError:
        value = table[key] = build()
        return value


def mk(lang: str, kind: str, *children: Formula, var: str = "") -> Formula:
    """Build a node, enforcing the language's permitted connectives."""
    if lang not in LANGS:
        raise LanguageError(f"unknown language {lang!r}")
    allowed = PRIMITIVE_KINDS[lang] | SUGAR_KINDS[lang]
    if kind in MODAL_KINDS:
        if kind not in allowed:
            raise LanguageError(f"modal atom {TOKEN_OF.get(kind, kind)!r} not in language {lang}")
        (inner,) = children
        if inner.lang != INNER_LANG[kind]:
            raise LanguageError(
                f"{TOKEN_OF[kind]}-atom expects a {INNER_LANG[kind]} argument, got {inner.lang}"
            )
        return Formula(lang, kind, children)
    if kind not in allowed:
        raise LanguageError(f"connective {TOKEN_OF.get(kind, kind)!r} not in language {lang}")
    if kind == "var":
        if not children and var:
            if lang in ("QG", "MCB", "NMCB"):
                raise LanguageError(f"bare variables are not {lang} formulas; atoms are modal")
            return Formula(lang, "var", (), var)
        raise ValueError("variable node needs a name and no children")
    arity = 0 if kind in NULLARY_KINDS else 1 if kind in UNARY_KINDS else 2
    if len(children) != arity:
        raise ValueError(f"{kind} expects {arity} children, got {len(children)}")
    for c in children:
        if c.lang != lang:
            raise LanguageError(f"child language {c.lang} does not match {lang}")
    return Formula(lang, kind, children)


def var(lang: str, name: str) -> Formula:
    return mk(lang, "var", var=name)


def retag(f: Formula, lang: str) -> Formula:
    """Re-tag a formula into another language with the same connectives."""
    if f.kind == "var":
        return var(lang, f.var)
    if f.kind in MODAL_KINDS:
        return mk(lang, f.kind, f.children[0])
    return mk(lang, f.kind, *(retag(c, lang) for c in f.children))


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# Symbol tokens, longest first so prefixes do not shadow longer operators.
_SYMBOLS = ("<==>", "<->", "==>", "~~", "~>", "<=", "<<", "=>", "->", "-<", "o-", "~", "&", "|", "(", ")")

_KEYWORDS = {
    "Top": "top",
    "Bot": "bot",
    "snot": "snot",
    "delta": "delta",
    "delta1": "delta1",
    "deltaN": "deltan",
    "deltaBangN": "deltabang",
    "neg": "dneg",
    "B": "bmod",
    "C": "cmod",
}

_SYMBOL_KIND = {
    "~": "not",
    "neg": "dneg",
    "&": "and",
    "|": "or",
    "->": "gimp",
    "-<": "gcoimp",
    "~>": "nimp",
    "o-": "ncoimp",
    "=>": "matimp",
    "<=": "leq",
    "<->": "iff",
    "~~": "approx",
    "<<": "less",
    "==>": "simp",
    "<==>": "siff",
}

_IMPL_TOKENS = ("->", "-<", "~>", "o-", "=>", "<->", "==>", "<==>")
_CMP_TOKENS = ("<=", "~~", "<<")
_PREFIX_TOKENS = {"~": "not", "neg": "dneg", "snot": "snot", "delta": "delta",
                  "delta1": "delta1", "deltaN": "deltan", "deltaBangN": "deltabang"}


# One token per match, tried in this order at each position: a symbol
# (group 1, in the order of _SYMBOLS), a word (group 2; \w is
# str.isalnum() or "_"), or any other character but whitespace, which is
# an error.  Whitespace (\s is str.isspace()) matches nothing and is skipped.
_TOKEN = re.compile(rf"({'|'.join(map(re.escape, _SYMBOLS))})|(\w+)|\S")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Produce (type, value, pos) tokens; type is 'sym', 'word', or 'var'."""
    out: list[tuple[str, str, int]] = []
    for m in _TOKEN.finditer(text):
        tok, i = m.group(), m.start()
        if m.lastindex == 1:
            out.append(("sym", tok, i))
        elif m.lastindex is None or not tok[0].isalpha():
            raise FormulaSyntaxError(f"unexpected character {tok[0]!r}", i)
        elif tok in _KEYWORDS:
            out.append(("word", tok, i))
        elif tok[0].islower() and all(c.islower() or c.isdigit() or c == "_" for c in tok):
            out.append(("var", tok, i))
        else:
            raise FormulaSyntaxError(f"unknown token {tok!r}", i)
    return out


#: the nodes parse has built, keyed by their fields: an equal subformula
#: parsed again, in the same text or a later one, is the node already
#: built, so texts that repeat subformulas hold each once.  The table is
#: emptied when it reaches _MAX_PARSED nodes, which bounds what it keeps
#: alive.
_PARSED: dict[tuple, Formula] = {}
_MAX_PARSED = 1 << 12


class _Parser:
    def __init__(self, lang: str, tokens: list[tuple[str, str, int]], length: int):
        self.lang = lang
        self.toks = tokens
        self.i = 0
        self.length = length

    def node(self, kind: str, *children: Formula, var: str = "") -> Formula:
        """``mk`` in the parser's language, or the node parsed before with
        the same fields."""
        key = (self.lang, kind, children, var)
        f = _PARSED.get(key)
        if f is None:
            f = _PARSED[key] = mk(self.lang, kind, *children, var=var)
        return f

    def peek(self) -> tuple[str, str, int] | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self.length)
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.peek()
        if tok is None or tok[1] != value:
            pos = tok[2] if tok else self.length
            raise FormulaSyntaxError(f"expected {value!r}", pos)
        self.i += 1

    def _check(self, kind: str, pos: int) -> str:
        allowed = PRIMITIVE_KINDS[self.lang] | SUGAR_KINDS[self.lang]
        if kind not in allowed and kind not in MODAL_KINDS:
            raise LanguageError(f"connective for kind {kind!r} not in language {self.lang} (position {pos})")
        return kind

    def comparison(self) -> Formula:
        left = self.implication()
        tok = self.peek()
        if tok and tok[1] in _CMP_TOKENS:
            self.next()
            kind = self._check(_SYMBOL_KIND[tok[1]], tok[2])
            right = self.implication()
            nxt = self.peek()
            if nxt and nxt[1] in _CMP_TOKENS:
                raise FormulaSyntaxError("comparisons do not chain; parenthesize", nxt[2])
            return self.node(kind, left, right)
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        tok = self.peek()
        if tok and tok[1] in _IMPL_TOKENS:
            self.next()
            kind = self._check(_SYMBOL_KIND[tok[1]], tok[2])
            right = self.implication()  # right-associative
            return self.node(kind, left, right)
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while True:
            tok = self.peek()
            if tok and tok[1] == "|":
                self.next()
                left = self.node("or", left, self.conjunction())
            else:
                return left

    def conjunction(self) -> Formula:
        left = self.prefix()
        while True:
            tok = self.peek()
            if tok and tok[1] == "&":
                self.next()
                left = self.node("and", left, self.prefix())
            else:
                return left

    def prefix(self) -> Formula:
        tok = self.peek()
        if tok and tok[1] == "~~":
            # prefix position: a double classical negation, not the
            # (infix-only) likelihood-equality operator
            self.next()
            kind = self._check("not", tok[2])
            return self.node(kind, self.node(kind, self.prefix()))
        if tok and tok[1] in _PREFIX_TOKENS:
            self.next()
            kind = self._check(_PREFIX_TOKENS[tok[1]], tok[2])
            return self.node(kind, self.prefix())
        return self.atom()

    def atom(self) -> Formula:
        typ, val, pos = self.next()
        if val == "(":
            f = self.comparison()
            self.expect(")")
            return f
        if typ == "var":
            return self.node("var", var=val)
        if val in ("Top", "Bot"):
            return self.node(_KEYWORDS[val])
        if val in ("B", "C"):
            kind = _KEYWORDS[val]
            if kind not in PRIMITIVE_KINDS[self.lang]:
                raise LanguageError(f"modal atom {val!r} not in language {self.lang} (position {pos})")
            self.expect("(")
            inner = parse_tokens(INNER_LANG[kind], self)
            self.expect(")")
            return self.node(kind, inner)
        raise FormulaSyntaxError(f"unexpected token {val!r}", pos)


def parse_tokens(lang: str, outer: _Parser) -> Formula:
    """Parse an inner-layer formula reusing the outer token stream."""
    sub = _Parser(lang, outer.toks, outer.length)
    sub.i = outer.i
    f = sub.comparison()
    outer.i = sub.i
    return f


def parse(lang: str, text: str) -> Formula:
    """Parse ``text`` as a formula of ``lang``.

    Raises :class:`FormulaSyntaxError` on malformed input, a formula that
    nests too deeply for the recursive descent included, and
    :class:`LanguageError` when a connective is foreign to ``lang``.
    """
    if lang not in LANGS:
        raise LanguageError(f"unknown language {lang!r}")
    if len(_PARSED) >= _MAX_PARSED:
        _PARSED.clear()
    parser = _Parser(lang, _tokenize(text), len(text))
    try:
        f = parser.comparison()
    except RecursionError:
        tok = parser.peek()
        raise FormulaSyntaxError("formula nests too deeply", tok[2] if tok else len(text)) from None
    tok = parser.peek()
    if tok is not None:
        raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return f


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

TOKEN_OF = {
    "not": "~", "dneg": "neg", "snot": "snot", "delta": "delta",
    "delta1": "delta1", "deltan": "deltaN", "deltabang": "deltaBangN",
    "and": "&", "or": "|", "gimp": "->", "gcoimp": "-<", "nimp": "~>",
    "ncoimp": "o-", "matimp": "=>", "leq": "<=", "iff": "<->",
    "approx": "~~", "less": "<<", "simp": "==>", "siff": "<==>",
    "top": "Top", "bot": "Bot", "bmod": "B", "cmod": "C",
}

_LEVEL_ATOM, _LEVEL_UNARY, _LEVEL_AND, _LEVEL_OR, _LEVEL_IMPL, _LEVEL_CMP = 5, 4, 3, 2, 1, 0

_IMPL_KINDS = frozenset({"gimp", "gcoimp", "nimp", "ncoimp", "matimp", "iff", "simp", "siff"})
_CMP_KINDS = frozenset({"leq", "approx", "less"})


def _level(f: Formula) -> int:
    if f.kind in _CMP_KINDS:
        return _LEVEL_CMP
    if f.kind in _IMPL_KINDS:
        return _LEVEL_IMPL
    if f.kind == "or":
        return _LEVEL_OR
    if f.kind == "and":
        return _LEVEL_AND
    if f.kind in UNARY_KINDS:
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def print_formula(f: Formula) -> str:
    """Render a formula; ``parse(f.lang, print_formula(f))`` rebuilds it."""
    kind = f.kind
    if kind == "var":
        return f.var
    if kind in NULLARY_KINDS:
        return TOKEN_OF[kind]
    if kind in MODAL_KINDS:
        return f"{TOKEN_OF[kind]}({print_formula(f.children[0])})"
    if kind in UNARY_KINDS:
        child = f.children[0]
        body = print_formula(child)
        if _level(child) < _LEVEL_UNARY:
            body = f"({body})"
        sep = "" if kind == "not" else " "
        if kind == "not" and body.startswith("~"):
            sep = " "  # keep ~ ~p from lexing as the infix ~~
        return f"{TOKEN_OF[kind]}{sep}{body}"
    lvl = _level(f)
    left, right = f.children
    lt, rt = print_formula(left), print_formula(right)
    if kind in _CMP_KINDS:
        if _level(left) <= _LEVEL_CMP:
            lt = f"({lt})"
        if _level(right) <= _LEVEL_CMP:
            rt = f"({rt})"
    elif kind in _IMPL_KINDS:
        if _level(left) <= lvl:
            lt = f"({lt})"
        if _level(right) < lvl:  # right-associative
            rt = f"({rt})"
    else:
        if _level(left) < lvl:
            lt = f"({lt})"
        if _level(right) <= lvl:
            rt = f"({rt})"
    return f"{lt} {TOKEN_OF[kind]} {rt}"


# ---------------------------------------------------------------------------
# JSON AST
# ---------------------------------------------------------------------------

def formula_to_json(f: Formula) -> dict:
    obj: dict = {"kind": f.kind}
    if f.kind == "var":
        obj["var"] = f.var
    if f.children:
        obj["children"] = [formula_to_json(c) for c in f.children]
    return obj


def formula_from_json(lang: str, obj: dict) -> Formula:
    """The formula of a JSON AST.  A node that is no object with a string
    ``kind`` and a string ``var`` or a list of ``children`` raises a ValueError."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    key, shape = ("var", str) if kind == "var" else ("children", list)
    if not isinstance(kind, str) or not isinstance(obj.get(key, []), shape):
        raise ValueError(f"a formula node has a string 'kind' and a 'var' string or 'children' list, not {obj!r}")
    if kind == "var":
        return var(lang, obj["var"])
    sublang = INNER_LANG.get(kind, lang)
    return mk(lang, kind, *(formula_from_json(sublang, c) for c in obj.get("children", [])))


# ---------------------------------------------------------------------------
# Sugar elimination
# ---------------------------------------------------------------------------

def _atom_unit(lang: str) -> Formula:
    """The reserved atom used by Top/Bot expansions of ``lang``."""
    if lang == "QG":
        return mk(lang, "bmod", var("CPL", RESERVED_VAR))
    if lang in ("MCB", "NMCB"):
        return mk(lang, "cmod", var("BD", RESERVED_VAR))
    return var(lang, RESERVED_VAR)


def desugar(f: Formula) -> Formula:
    """Rewrite sugar nodes into primitives; identity on primitive trees."""
    lang = f.lang
    if f.kind == "var":
        return f
    if f.kind in MODAL_KINDS:
        return mk(lang, f.kind, desugar(f.children[0]))
    kids = tuple(desugar(c) for c in f.children)
    kind = f.kind
    if kind in PRIMITIVE_KINDS[lang]:
        return mk(lang, kind, *kids)
    return _expand(lang, kind, kids)


def _expand(lang: str, kind: str, kids: tuple[Formula, ...]) -> Formula:
    """One sugar node of ``lang`` over the children ``kids``, rewritten with
    primitive connectives above them; the children are kept as given."""
    unit = _atom_unit(lang)
    if lang in ("CPL", "QP"):
        top = mk(lang, "matimp", unit, unit)
        if kind == "top":
            return top
        if kind == "bot":
            return mk(lang, "not", top)
        if kind == "iff":
            a, b = kids
            return mk(lang, "and", mk(lang, "matimp", a, b), mk(lang, "matimp", b, a))
        if kind == "approx":
            a, b = kids
            return mk(lang, "and", mk(lang, "leq", a, b), mk(lang, "leq", b, a))
        if kind == "less":
            a, b = kids
            return mk(lang, "and", mk(lang, "leq", a, b), mk(lang, "not", mk(lang, "leq", b, a)))
    elif lang in ("BIG", "QG", "G2ORD", "MCB"):
        # Goedel-style expansions; the same shapes serve the (->, -<) twist
        # languages, whose first coordinate mirrors biG.
        top = mk(lang, "gimp", unit, unit)
        bot = mk(lang, "gcoimp", unit, unit)
        if kind == "top":
            return top
        if kind == "bot":
            return bot
        if kind == "snot":
            return mk(lang, "gimp", kids[0], bot)
        if kind == "delta":
            return mk(lang, "gimp", mk(lang, "gcoimp", top, kids[0]), bot)
        if kind == "delta1":
            snot1 = mk(lang, "gimp", mk(lang, "gcoimp", top, kids[0]), bot)
            snot2 = mk(lang, "gimp", snot1, bot)
            return mk(lang, "and", snot1, mk(lang, "dneg", snot2))
        if kind == "iff":
            a, b = kids
            return mk(lang, "and", mk(lang, "gimp", a, b), mk(lang, "gimp", b, a))
    else:  # G2NEL, NMCB
        # zero and one are (0,1) and (1,0) whatever the reserved atom's
        # value; snot and deltaN built on them agree with the value tables
        # on both coordinates
        topn = mk(lang, "nimp", unit, unit)
        zero = mk(lang, "ncoimp", topn, topn)
        one = mk(lang, "nimp", zero, zero)

        def snot(x: Formula) -> Formula:
            return mk(lang, "nimp", x, zero)

        def deltan(x: Formula) -> Formula:
            return snot(mk(lang, "ncoimp", one, x))

        def simp(a: Formula, b: Formula) -> Formula:
            return mk(lang, "and", mk(lang, "nimp", a, b),
                      mk(lang, "nimp", mk(lang, "dneg", b), mk(lang, "dneg", a)))

        if kind == "top":
            return one
        if kind == "bot":
            return zero
        if kind == "snot":
            return snot(kids[0])
        if kind == "deltan":
            return deltan(kids[0])
        if kind == "deltabang":
            return deltan(simp(one, kids[0]))
        if kind == "simp":
            return simp(*kids)
        if kind == "siff":
            a, b = kids
            return mk(lang, "and", simp(a, b), simp(b, a))
        if kind == "iff":
            a, b = kids
            return mk(lang, "and", mk(lang, "nimp", a, b), mk(lang, "nimp", b, a))
    raise LanguageError(f"no expansion for {kind} in {lang}")


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def subformulas(f: Formula) -> set[Formula]:
    """Subformula closure.  Modal atoms are not descended into."""
    out = {f}
    if f.kind not in MODAL_KINDS:
        for c in f.children:
            out |= subformulas(c)
    return out


def vars_of(f: Formula) -> set[str]:
    """Propositional variables, including those inside modal atoms."""
    if f.kind == "var":
        return {f.var}
    out: set[str] = set()
    for c in f.children:
        out |= vars_of(c)
    return out


def modal_atoms(f: Formula) -> set[Formula]:
    """Outer-layer modal atoms (``B``/``C`` nodes) occurring in ``f``."""
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind in MODAL_KINDS:
            out.add(g)
        else:
            stack.extend(g.children)
    return out


def lits(f: Formula) -> set[Formula]:
    """Literals of a BD formula: variables and De Morgan-negated variables."""
    if f.lang != "BD":
        raise LanguageError("lits is defined for BD formulas only")

    def walk(g: Formula, negated: bool) -> set[Formula]:
        if g.kind == "var":
            return {mk("BD", "dneg", g)} if negated else {g}
        if g.kind == "dneg":
            return walk(g.children[0], not negated)
        out: set[Formula] = set()
        for c in g.children:
            out |= walk(c, negated)
        return out

    return walk(f, False)


def is_sif(f: Formula) -> bool:
    """Whether a QP formula is a simple inequality formula.

    SIFs are Boolean combinations of comparisons whose operands contain no
    further comparison; in particular bare variables are not SIFs.
    """
    if f.lang != "QP":
        raise LanguageError("is_sif applies to QP formulas only")
    return _is_sif(desugar(f))


def _cmp_free(f: Formula) -> bool:
    return f.kind != "leq" and all(_cmp_free(c) for c in f.children)


def _is_sif(f: Formula) -> bool:
    if f.kind == "leq":
        return _cmp_free(f.children[0]) and _cmp_free(f.children[1])
    if f.kind in ("not", "and", "or", "matimp"):
        return all(_is_sif(c) for c in f.children)
    return False
