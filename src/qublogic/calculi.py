"""Hilbert calculi and R_fde: side-condition oracles, schema matching,
proof checking.

Every axiom is written once, as formula text that :func:`syntax.parse`
reads: the rows of each propositional variant (:data:`VARIANT`), the modal
rows with their side conditions, and R_fde's sequents.  On first use the
text becomes patterns with metavariables, matched against desugared
formulas; side conditions (tautologies, BD sequents) are discharged by the
exact oracles.  Necessitation is read from text too, and modus ponens
detaches the variant's implication.

KPS_m and A4_m, indexed by m and two formula lists, are the rows of one
table, :data:`FAMILIES`, that matching, building from a step's parameters
and checking read.  A derivation is checked by one loop for every calculus,
which asks the proof system's step function (Hilbert or sequent) why each
step fails, if it does; citations and axiom parameters each have one
reader, and a justification they cannot read fails its step as malformed
(a formula too deep for the recursive checks, as nesting too deeply).
Derivations may use coarse "outer-logic" steps the way research papers do.
Each is decided by truth preservation, the relation modus ponens derives,
through :func:`qublogic.decide.truth_preserved`, one search for every
calculus; a step whose search reaches its node cap fails with a reason that
states the search's size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from . import bd, decide, qp, syntax
from .measures import assignment_masks, cpl_truth_set
from .syntax import RESERVED_VAR, Formula, LanguageError, desugar, mk, parse, vars_of

CALCULI = ("HBIG", "HG2ORD", "HG2NEL", "HQG", "HQPG", "HQPG_TOP",
           "HQP", "HMCB", "HNMCB", "RFDE")

CALC_LANG = {
    "HBIG": "BIG", "HG2ORD": "G2ORD", "HG2NEL": "G2NEL",
    "HQG": "QG", "HQPG": "QG", "HQPG_TOP": "QG",
    "HQP": "QP", "HMCB": "MCB", "HNMCB": "NMCB", "RFDE": "BD",
}

#: each Hilbert calculus' propositional variant, its language's outer variant (HQP's is QP):
#: its rows and necessitation are read in the variant, and modus ponens detaches its implication
VARIANT = {c: syntax.OUTER.get(lang, lang) for c, lang in CALC_LANG.items() if c != "RFDE"}

#: the implication and co-implication of each variant; QP has no co-implication
_ARROWS = {"BIG": ("gimp", "gcoimp"), "G2ORD": ("gimp", "gcoimp"),
           "G2NEL": ("nimp", "ncoimp"), "QP": ("matimp",)}

# ---------------------------------------------------------------------------
# Classical oracles
# ---------------------------------------------------------------------------

def truth_table(f: Formula, names: Sequence[str]) -> int:
    """Truth table of a CPL formula as a bitmask over assignments to names.

    Bit a is set iff the assignment making names[i] true exactly when
    ``a >> i & 1`` satisfies the formula.
    """
    return cpl_truth_set(f, assignment_masks(names), (1 << (1 << len(names))) - 1)


def cpl_valid(f: Formula) -> bool:
    """Classical validity by truth table (at most 20 variables)."""
    names = sorted(vars_of(f))
    return truth_table(f, names) == (1 << (1 << len(names))) - 1


def qp_tautology(f: Formula) -> bool:
    """Propositional tautology over QP formulas, comparisons abstracted."""
    atoms: dict[Formula, str] = {}

    def abstract(g: Formula) -> Formula:
        if g.kind == "leq":
            name = atoms.setdefault(g, f"qcmpatom{len(atoms)}")
            return mk("CPL", "var", var=name)
        if g.kind == "var":
            return mk("CPL", "var", var=g.var)
        return mk("CPL", g.kind, *(abstract(c) for c in g.children))

    return cpl_valid(abstract(desugar(f)))


# ---------------------------------------------------------------------------
# Patterns and matching
# ---------------------------------------------------------------------------

_META_PREFIX = "mv_"


@functools.cache
def _pattern(lang: str, text: str, carrier: str) -> Formula:
    """``text``, with {I} and {C} written as the arrows of ``lang``, parsed
    in ``lang``; each variable is made a metavariable of its node's language
    and each node of ``lang`` is moved to ``carrier``.  QG, MCB and NMCB
    have no bare variables, so their propositional rows are read in their
    variant and carried over."""
    def move(f: Formula) -> Formula:
        to = carrier if f.lang == lang else f.lang
        if f.kind == "var":
            return Formula(to, "var", (), _META_PREFIX + f.var)
        return Formula(to, f.kind, tuple(map(move, f.children)))

    arrows = dict(zip("IC", (syntax.TOKEN_OF[k] for k in _ARROWS.get(lang, ()))))
    return move(parse(lang, text.format(**arrows)))


def _instantiate(pattern: Formula, binding: Mapping[str, Formula]) -> Formula:
    """A pattern read by :func:`_pattern` with each metavariable replaced by
    its value in ``binding``."""
    if pattern.kind == "var":
        return binding[pattern.var[len(_META_PREFIX):]]
    return Formula(pattern.lang, pattern.kind,
                   tuple(_instantiate(c, binding) for c in pattern.children))


def _surface(f: Formula) -> Formula:
    """``f`` with the Top/Bot expansions inside it written as Top/Bot."""
    if f.kind == "var":
        return f
    for kind in ("top", "bot"):
        if kind in syntax.SUGAR_KINDS[f.lang] and f == syntax._expand(f.lang, kind, ()):
            return mk(f.lang, kind)
    return mk(f.lang, f.kind, *map(_surface, f.children))


def _match(pattern: Formula, cand: Formula, binding: dict[str, Formula], made: set[str],
           written: tuple[Formula, ...] | None = None) -> bool:
    """Match a desugared pattern against ``cand`` as if ``cand`` were
    desugared too.  Sugar is expanded one node at a time, only where the
    pattern looks inside it, so metavariables bind subformulas of ``cand``
    as written.  Inside an expansion, ``written`` holds the expanded node's
    children; a metavariable bound to a node the expansion made, such as
    Bot inside snot x, binds its surface form and goes into ``made``."""
    if written is not None and any(cand is w for w in written):
        written = None
    if pattern.kind == "var" and pattern.var.startswith(_META_PREFIX):
        if cand.lang != pattern.lang:
            return False
        seen = binding.get(pattern.var)
        if seen is not None:
            return _same(seen, cand, sugar=True)
        if written is None:
            binding[pattern.var] = cand
        else:
            binding[pattern.var] = _surface(cand)
            made.add(pattern.var)
        return True
    if cand.kind in syntax.SUGAR_KINDS[cand.lang]:
        written = cand.children
        cand = syntax._expand(cand.lang, cand.kind, cand.children)
    if pattern.kind != cand.kind or pattern.lang != cand.lang:
        return False
    if pattern.kind == "var":
        return pattern.var == cand.var
    if len(pattern.children) != len(cand.children):
        return False
    return all(_match(p, c, binding, made, written) for p, c in zip(pattern.children, cand.children))


@dataclass(frozen=True)
class Schema:
    name: str
    pattern: Formula  # desugared, used for matching
    side: Callable[[Mapping[str, Formula]], bool] | None = None
    sugared: Formula | None = None  # surface form, used for instantiation


# {I} and {C} stand for the variant's implication and co-implication
_BI_GOEDEL = (
    ("biG1", "(a {I} b) {I} ((b {I} c) {I} (a {I} c))"),
    ("biG2a", "a {I} (a | b)"),
    ("biG2b", "b {I} (a | b)"),
    ("biG3", "(a {I} c) {I} ((b {I} c) {I} ((a | b) {I} c))"),
    ("biG4a", "(a & b) {I} a"),
    ("biG4b", "(a & b) {I} b"),
    ("biG5", "(a {I} b) {I} ((a {I} c) {I} (a {I} (b & c)))"),
    ("biG6a", "(a {I} (b {I} c)) {I} ((a & b) {I} c)"),
    ("biG6b", "((a & b) {I} c) {I} (a {I} (b {I} c))"),
    ("biG7", "(a {I} b) {I} (snot b {I} snot a)"),
    ("biG8a", "(a {C} b) {I} (Top {C} (a {I} b))"),
    ("biG8b", "snot (a {C} b) {I} (a {I} b)"),
    ("biG9a", "a {I} (b | (a {C} b))"),
    ("biG9b", "((a {C} b) {C} c) {I} (a {C} (b | c))"),
    ("prel1", "(a {I} b) | (b {I} a)"),
    ("prel2", "Top {C} ((a {C} b) & (b {C} a))"),
)

_DE_MORGAN = (
    ("neg", "neg neg a <-> a"),
    ("dem_and", "neg (a & b) <-> (neg a | neg b)"),
    ("dem_or", "neg (a | b) <-> (neg a & neg b)"),
)

#: the propositional rows of each variant
_ROWS = {
    "BIG": _BI_GOEDEL,
    "G2ORD": _BI_GOEDEL + _DE_MORGAN + (
        ("dem_imp", "neg (a -> b) <-> (neg b -< neg a)"),
        ("dem_coimp", "neg (a -< b) <-> (neg b -> neg a)"),
    ),
    "G2NEL": _BI_GOEDEL + _DE_MORGAN + (
        ("dem_imp", "neg (a ~> b) <-> (a & neg b)"),
        ("dem_coimp", "neg (a o- b) <-> (neg a | b)"),
    ),
    "QP": (
        ("A0", "((a <-> b) ~~ Top) & ((c <-> d) ~~ Top) => ((a <= c) <-> (b <= d))"),
        ("A1", "Bot <= a"),
        ("A2", "(a <= b) | (b <= a)"),
        ("A3", "Bot << Top"),
    ),
}

#: the modal rows: the calculi that have each, its name, its text and its
#: side condition (see :func:`_side`)
_MODAL = (
    ("HQG HQPG HQPG_TOP", "nontriv", "snot delta (B(phi) -> B(chi))", "phi; ~chi"),
    ("HQG HQPG HQPG_TOP", "reg", "B(phi) -> B(chi)", "phi => chi"),
    ("HQPG_TOP", "cap1", "B(phi)", "phi"),
    ("HQPG_TOP", "cap2", "snot B(phi)", "~phi"),
    ("HMCB", "mcb_bd", "C(phi) -> C(chi)", "phi |- chi"),
    ("HMCB", "mcb_neg", "C(neg phi) <-> neg C(phi)", None),
    ("HNMCB", "nmcb_bd", "C(phi) ==> C(chi)", "phi |- chi"),
    ("HNMCB", "nmcb_neg", "C(neg phi) <==> neg C(phi)", None),
)

_RFDE = (
    ("and_elim_l", "a & b |- a"),
    ("and_elim_r", "a & b |- b"),
    ("or_intro_l", "a |- a | b"),
    ("or_intro_r", "b |- a | b"),
    ("dem_and_l", "neg (a & b) |- neg a | neg b"),
    ("dem_and_r", "neg a | neg b |- neg (a & b)"),
    ("dem_or_l", "neg (a | b) |- neg a & neg b"),
    ("dem_or_r", "neg a & neg b |- neg (a | b)"),
    ("dneg_elim", "neg neg a |- a"),
    ("dneg_intro", "a |- neg neg a"),
    ("distrib", "a & (b | c) |- (a & b) | (a & c)"),
)


def _sequent(text: str) -> tuple[Formula, Formula]:
    """A BD sequent ``lhs |- rhs`` as a pair of patterns."""
    lhs, rhs = (_pattern("BD", t, "BD") for t in text.split("|-"))
    return lhs, rhs


def _side(text: str) -> Callable[[Mapping[str, Formula]], bool]:
    """A side condition over a substitution: a BD sequent ``phi |- chi``
    that must be valid, or CPL formulas separated by ``;`` that must each
    be tautologies."""
    if "|-" in text:
        lhs, rhs = _sequent(text)
        return lambda b: bd.bd_entails(_instantiate(lhs, b), _instantiate(rhs, b))[0]
    tautologies = [_pattern("CPL", t, "CPL") for t in text.split(";")]
    return lambda b: all(cpl_valid(_instantiate(t, b)) for t in tautologies)


@functools.cache
def schema_table(calc: str) -> list[Schema]:
    """The calculus' axiom schemas in table order: its variant's
    propositional rows, then its modal rows."""
    if calc not in CALCULI:
        raise ValueError(f"unknown calculus {calc!r}")
    if calc == "RFDE":
        return []
    lang, variant = CALC_LANG[calc], VARIANT[calc]
    rows = [(name, _pattern(variant, text, lang), None) for name, text in _ROWS[variant]]
    rows += [(name, _pattern(lang, text, lang), side and _side(side))
             for calcs, name, text, side in _MODAL if calc in calcs.split()]
    return [Schema(name, desugar(f), side, f) for name, f, side in rows]


@functools.cache
def _rfde_axioms() -> list[tuple[str, Formula, Formula]]:
    return [(name, *_sequent(text)) for name, text in _RFDE]


@dataclass(frozen=True)
class Family:
    """A schema indexed by m and two lists of ``lang`` formulas: their
    E-notation and the compared pairs of all but their last entries imply
    the last entries compared the other way round."""
    calculi: tuple[str, ...]
    lang: str
    min_m: int
    max_m: int
    keys: tuple[str, str]
    build: Callable[[int, Sequence[Formula], Sequence[Formula]], Formula]
    pair: Formula  # pattern of one compared pair over the metavariables mv_x, mv_y


#: KPS_m (lists indexed 0..m) and the comparison schemas A4_m (1..m)
FAMILIES = {
    "KPS": Family(("HQPG", "HQPG_TOP"), "CPL", 0, 4, ("phis", "chis"), qp.kps_instance,
                  desugar(_pattern("QG", "delta (B(x) -> B(y))", "QG"))),
    "A4": Family(("HQP",), "QP", 1, 5, ("phis", "psis"), qp.a4_instance,
                 _pattern("QP", "x <= y", "QP")),
}


def _same(f: Formula, g: Formula, sugar: bool = False) -> bool:
    """``f == g``, or with ``sugar`` ``desugar(f) == desugar(g)``, by an
    explicit stack: the E-notation chains of KPS_4 and A4_5 nest deeper
    than ``Formula.__eq__`` and :func:`desugar` can recurse."""
    stack = [(f, g)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if sugar and a.kind != b.kind:  # equal sugar nodes desugar alike iff their children do
            a, b = (syntax._expand(x.lang, x.kind, x.children)
                    if x.kind in syntax.SUGAR_KINDS[x.lang] else x for x in (a, b))
        if (a.kind, a.var, a.lang, len(a.children)) != (b.kind, b.var, b.lang, len(b.children)):
            return False
        stack.extend(zip(a.children, b.children))
    return True


def _read_family(fam: Family, f: Formula) -> dict | None:
    """The parameters of ``f`` as an instance of the family, if it is one:
    read the compared pairs, rebuild the instance from them and compare."""
    if len(f.children) != 2:
        return None
    parts = []
    g = f.children[0]
    while g.kind == "and":
        parts.append(g.children[1])
        g = g.children[0]
    m = len(parts) + fam.min_m
    if m > fam.max_m:
        return None
    pairs = []
    for part in [*reversed(parts), f.children[1]]:
        binding: dict[str, Formula] = {}
        if not _match(fam.pair, part, binding, set()):
            return None
        pairs.append((binding["mv_x"], binding["mv_y"]))
    pairs[-1] = pairs[-1][::-1]  # the conclusion compares the last entries reversed
    firsts, seconds = ([pair[i] for pair in pairs] for i in (0, 1))
    try:
        rebuilt = fam.build(m, firsts, seconds)
    except (ValueError, LanguageError):
        return None
    return {"m": m, fam.keys[0]: firsts, fam.keys[1]: seconds} if _same(rebuilt, f) else None


def _schema_matches(calc: str, f: Formula) -> Iterable[tuple[str, dict, set[str]]]:
    """(name, substitution, made) for each schema of the calculus that ``f``
    instantiates, in table order; ``made`` holds the metavariables bound to
    a node that a sugar expansion made.  A substitution that binds the
    reserved variable where ``f`` does not write it is no match: Top is no
    instance of reg or mcb_bd."""
    for schema in schema_table(calc):
        binding: dict[str, Formula] = {}
        made: set[str] = set()
        if _match(schema.pattern, f, binding, made):
            if any(RESERVED_VAR in vars_of(binding[k]) for k in made) \
                    and RESERVED_VAR not in vars_of(f):
                continue
            clean = {k[len(_META_PREFIX):]: v for k, v in binding.items()}
            if schema.side is None or schema.side(clean):
                yield schema.name, clean, made


def match_axiom(calc: str, f: Formula) -> tuple[str, dict] | None:
    """Identify ``f`` as an axiom instance of the calculus, if it is one.

    Returns the schema name and the matching substitution: of the schemas
    ``f`` instantiates, the first whose substitution binds only
    subformulas of ``f`` as written, else the first.  An instance of a
    family in :data:`FAMILIES` is recognized in the shape its builder
    generates, up to the family's largest m, and returns the parameters
    that build it (``m`` and the two lists); PC (for the QP calculus)
    matches any propositional tautology over comparison-abstracted atoms.
    """
    if calc not in CALCULI:
        raise ValueError(f"unknown calculus {calc!r}")
    lang = CALC_LANG[calc]
    if f.lang != lang:
        raise LanguageError(f"{calc} checks {lang} formulas, got {f.lang}")
    matches = _schema_matches(calc, f)
    hit = next(matches, None)
    if hit and hit[2]:
        hit = next((m for m in matches if not m[2]), hit)
    if hit:
        return hit[:2]
    for name, fam in FAMILIES.items():
        params = _read_family(fam, f) if calc in fam.calculi else None
        if params:
            return name, params
    if lang == "QP" and qp_tautology(f):
        return "PC", {}
    return None


# ---------------------------------------------------------------------------
# Outer-logic steps
# ---------------------------------------------------------------------------

def _outer_step_ok(calc: str, cited: Sequence[Formula], instances: Sequence[Formula],
                   target: Formula) -> tuple[bool, str]:
    lang = CALC_LANG[calc]
    if lang == "QP":
        return False, f"outer steps are not supported for {calc}"
    try:
        verdict = decide.truth_preserved(lang, [*cited, *instances], target,
                                         with_cap=calc == "HQPG_TOP", decision="outer step")
    except ValueError as exc:  # the search reached its node cap; the message says how large
        return False, str(exc)
    if verdict.holds:
        return True, "outer-logic consequence"
    return False, "not an outer-logic consequence of the cited steps"


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    formula: Formula | None
    sequent: tuple[Formula, Formula] | None
    just: Mapping


@dataclass(frozen=True)
class Derivation:
    calculus: str
    premises: tuple = ()
    steps: tuple[Step, ...] = ()

    @classmethod
    def from_json(cls, obj: dict) -> "Derivation":
        """Read a derivation; a field of the wrong type raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(f"a derivation is a JSON object, not {obj!r}")
        calc = obj["calculus"]
        if calc not in CALCULI:
            raise ValueError(f"unknown calculus {calc!r}")
        lang = CALC_LANG[calc]

        def formula(text):
            if not isinstance(text, str):
                raise ValueError(f"expected formula text, not {text!r}")
            return parse(lang, text)

        def listed(key: str, default=None) -> list:
            value = obj.get(key, default)
            if not isinstance(value, list):
                raise ValueError(f"{key!r} takes a list, not {value!r}")
            return value

        def step(s) -> dict:
            if not (isinstance(s, dict) and isinstance(s.get("just"), dict)):
                raise ValueError(f"a step is an object with a 'just' object, not {s!r}")
            return s

        steps = [step(s) for s in listed("steps")]
        if calc == "RFDE":
            pairs = listed("premises", [])
            if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
                raise ValueError(f"'premises' takes [lhs, rhs] pairs, not {pairs!r}")
            return cls(calc, tuple((formula(l), formula(r)) for l, r in pairs),
                       tuple(Step(None, (formula(s.get("lhs")), formula(s.get("rhs"))), s["just"])
                             for s in steps))
        return cls(calc, tuple(formula(t) for t in listed("premises", [])),
                   tuple(Step(formula(s.get("formula")), None, s["just"]) for s in steps))


@dataclass
class CheckReport:
    accepted: bool
    steps: list[dict] = field(default_factory=list)
    first_failure: int | None = None

    def to_json(self) -> dict:
        return {"accepted": self.accepted, "steps": self.steps,
                "first_failure": self.first_failure}


def _axiom_from_params(calc: str, just: Mapping) -> Formula:
    """Build the instance of a family in :data:`FAMILIES` that a
    justification names by parameters: ``m`` and the family's two lists of
    formulas, written beside ``axiom``, which names the family, or in an
    object under it, whose ``schema`` names it.  A ValueError if they
    cannot be read or the calculus lacks the family."""
    axiom = just.get("axiom")
    params = {**just, **axiom} if isinstance(axiom, Mapping) else just
    name = params.get("schema") or params.get("axiom")
    name = name if isinstance(name, str) else None
    fam = FAMILIES.get(name)
    if fam is None:
        raise ValueError(f"cannot build an instance of schema {name!r} from parameters")
    m = params.get("m")
    if m is not None and not isinstance(m, int):
        raise ValueError(f"{name} parameter 'm' is not a number: {m!r}")
    if m is None or m > fam.max_m:
        raise ValueError(f"{name} instances are recognized for m <= {fam.max_m} only")
    lists = []
    for key in fam.keys:
        texts = params[key]
        if not isinstance(texts, (list, tuple)) or not all(isinstance(t, str) for t in texts):
            raise ValueError(f"{name} parameter {key!r} is not a list of formulas: {texts!r}")
        lists.append([parse(fam.lang, t) for t in texts])
    if calc not in fam.calculi:
        raise ValueError(f"{calc} has no {name} axioms")
    return fam.build(m, *lists)


def _justification(step: Step) -> dict:
    """A step's justification; a ValueError if it is not a mapping."""
    if not isinstance(step.just, Mapping):
        raise ValueError(f"a justification is an object, not {step.just!r}")
    return dict(step.just)


def _cited(just: Mapping, key: str, i: int) -> Sequence[int] | None:
    """The step numbers that ``just`` cites under ``key``: a list of them,
    one number for ``nec``, and none if the key is missing.  None if one of
    them is not a step before step ``i + 1``; a ValueError if they are not
    step numbers."""
    value = just.get(key, [])
    refs = [value] if key == "nec" else value
    if not isinstance(refs, (list, tuple)) or not all(isinstance(r, int) for r in refs):
        what = "a step number" if key == "nec" else "a list of step numbers"
        raise ValueError(f"{key!r} takes {what}, not {value!r}")
    return refs if all(1 <= r <= i for r in refs) else None


def _hilbert_step(calc: str, steps: Sequence[Step], i: int, prem: Sequence,
                  tainted: Sequence[bool]) -> tuple[str | None, bool]:
    """Check step ``i`` of a Hilbert derivation: why it fails (None if it
    holds), and whether its line depends on a premise."""
    f = steps[i].formula
    if f is None:
        return "missing formula", True
    just = _justification(steps[i])
    if "premise" in just:
        ref = just["premise"]
        ok = (1 <= ref <= len(prem) and prem[ref - 1] == f) if isinstance(ref, int) else f in prem
        return (None if ok else "formula is not among the declared premises"), True
    if "axiom" in just and "outer" not in just:
        name = just["axiom"]
        if isinstance(name, str) and "m" not in just:
            hit = match_axiom(calc, f)
            ok = hit is not None and (name in ("", "any") or hit[0] == name or any(
                m[0] == name for m in _schema_matches(calc, f)))
            return (None if ok else f"not an instance of axiom {name!r}"), False
        ok = _same(_axiom_from_params(calc, just), f)
        return (None if ok else "formula differs from the named axiom instance"), False
    if "mp" in just:
        refs = _cited(just, "mp", i)
        if refs is None or len(refs) != 2:
            return "modus ponens cites unavailable steps", True
        a, b = (steps[r - 1].formula for r in refs)
        if a is None or b is None:
            return "rule cites malformed steps", True
        imp = _ARROWS[VARIANT[calc]][0]
        ok = any(x.kind == imp and x.children == (y, f) for x, y in ((b, a), (a, b)))
        return (None if ok else "modus ponens does not apply to the cited steps"), \
            any(tainted[r - 1] for r in refs)
    if "nec" in just:
        refs = _cited(just, "nec", i)
        if refs is None:
            return "necessitation cites an unavailable step", True
        g = steps[refs[0] - 1].formula
        if g is None:
            return "rule cites malformed steps", True
        if tainted[refs[0] - 1]:
            return "necessitation applied to a premise-dependent line", True
        image = _pattern(VARIANT[calc], "f ~~ Top" if calc == "HQP" else "(Top {C} f) {I} Bot",
                         CALC_LANG[calc])
        ok = desugar(f) == desugar(_instantiate(image, {"f": g}))
        return (None if ok else "formula is not the necessitation of the cited step"), False
    if "outer" in just:
        refs = _cited(just, "outer", i)
        if refs is None:
            return "outer step cites unavailable steps", True
        cited = [steps[r - 1].formula for r in refs]
        if any(g is None for g in cited):
            return "rule cites malformed steps", True
        instances = [_axiom_from_params(calc, just)] if "axiom" in just else []
        ok, how = _outer_step_ok(calc, cited, instances, f)
        return (None if ok else how), any(tainted[r - 1] for r in refs)
    return f"unknown justification {sorted(just)!r}", True


def check_derivation(calc: str, derivation: Derivation,
                     premises: Sequence | None = None) -> CheckReport:
    """Verify a Hilbert or R_fde derivation step by step.

    Each step is checked against the *stated* lines of the steps it cites,
    so verdicts are per-step and failures do not cascade.  The
    necessitation rule is restricted to theorem lines (premise-tainted
    lines are rejected), mirroring the completeness-theorem proviso.  A
    justification whose fields cannot be read fails its step as malformed.
    """
    if calc != derivation.calculus:
        raise ValueError("calculus mismatch")
    prem = list(premises if premises is not None else derivation.premises)
    check_step = _sequent_step if calc == "RFDE" else _hilbert_step
    report = CheckReport(True)
    tainted: list[bool] = []
    for i in range(len(derivation.steps)):
        try:
            reason, taint = check_step(calc, derivation.steps, i, prem, tainted)
        except (ValueError, LanguageError, KeyError) as exc:
            reason, taint = f"malformed justification: {exc}", True
        except RecursionError:  # desugar and the oracles recurse once per node
            reason, taint = "formula nests too deeply", True
        tainted.append(taint)
        if reason is None:
            report.steps.append({"step": i + 1, "status": "ok"})
            continue
        report.steps.append({"step": i + 1, "status": "fail", "reason": reason})
        if report.accepted:
            report.accepted, report.first_failure = False, i + 1
    return report


# ---------------------------------------------------------------------------
# R_fde sequent derivations
# ---------------------------------------------------------------------------

def match_sequent_axiom(lhs: Formula, rhs: Formula) -> str | None:
    for name, pl, pr in _rfde_axioms():
        binding: dict[str, Formula] = {}  # BD has no sugar, so nothing is made
        if _match(pl, lhs, binding, set()) and _match(pr, rhs, binding, set()):
            return name
    return None


def _sequent_step(calc: str, steps: Sequence[Step], i: int, prem: Sequence,
                  tainted: Sequence[bool]) -> tuple[str | None, bool]:
    """Check step ``i`` of an R_fde derivation, as :func:`_hilbert_step`
    does; R_fde has no necessitation, so no line is tainted."""
    if steps[i].sequent is None:
        return "missing sequent", False
    lhs, rhs = steps[i].sequent
    just = _justification(steps[i])
    if "premise" in just:
        return (None if (lhs, rhs) in prem else "sequent is not among the declared premises"), False
    if "axiom" in just:
        name = match_sequent_axiom(lhs, rhs)
        ok = name is not None and (just["axiom"] in ("", "any") or name == just["axiom"])
        return (None if ok else f"not an instance of sequent axiom {just['axiom']!r}"), False
    if "rule" in just:
        refs = _cited(just, "from", i)
        if refs is None or len(refs) != 2:
            return "rule cites unavailable steps", False
        s1, s2 = (steps[r - 1].sequent for r in refs)
        if s1 is None or s2 is None:
            return "rule cites malformed steps", False
        if just["rule"] == "or_elim":
            ok = any(x[1] == y[1] == rhs and lhs == mk("BD", "or", x[0], y[0])
                     for x, y in ((s1, s2), (s2, s1)))
        elif just["rule"] == "and_intro":
            ok = any(x[0] == y[0] == lhs and rhs == mk("BD", "and", x[1], y[1])
                     for x, y in ((s1, s2), (s2, s1)))
        else:
            return f"unknown sequent rule {just['rule']!r}", False
        return (None if ok else "sequent rule does not apply to the cited steps"), False
    return f"unknown justification {sorted(just)!r}", False
