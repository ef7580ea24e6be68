"""Kripke semantics for the twist-product logics over linear frames.

Frames are finite reflexive linear orders; valuations are upward closed, so
supports of all formulas are up-sets and a chain model is determined by
support-set sizes.  Support masks extend the BD recursion of
:mod:`qublogic.bd`: an implication quantifies over earlier or later
states, which on a chain is a down- or up-closure in rank order, and sugar
is expanded by :func:`qublogic.syntax.desugar`.  Local entailment is
decided exactly by the order-type search of :mod:`qublogic.decide`: on a
chain only the order of values matters.

The counterpart constructions translate between twist valuations and chain
models; the rational carrier of the original construction is replaced by a
finite chain, which realizes the same order constraints because only
finitely many formulas are ever compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Mapping, Sequence

from . import bd, decide
from .algebra import ONE, ZERO, TwistValue, unit
from .syntax import RESERVED_VAR, SUGAR_KINDS, Formula, LanguageError, desugar, retag

_IMPLICATION_KINDS = {"gimp", "gcoimp", "nimp", "ncoimp"}


@dataclass(frozen=True, slots=True)
class G2KripkeModel:
    """Finite linear model with independent positive/negative valuations.

    ``order[s]`` is the rank of state ``s``; ``s <= s'`` iff
    ``order[s] <= order[s']``.  Valuations are bitmasks, upward closed along
    the order.
    """

    states: int
    order: tuple[int, ...]
    vplus: Mapping[str, int] = field(default_factory=dict)
    vminus: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.states < 1:
            raise ValueError("at least one state required")
        if len(self.order) != self.states or sorted(self.order) != list(range(self.states)):
            raise ValueError(f"order must be a permutation of ranks 0..{self.states - 1}")
        bd._check_valuation(self.states, self.vplus, self.vminus)
        _, ups = _rank_closures(self.order)
        for name, mask in [*self.vplus.items(), *self.vminus.items()]:
            if mask not in ups:
                raise ValueError(f"valuation of {name!r} is not upward closed")

    def bottom(self) -> int:
        return self.order.index(0)

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "order": list(self.order),
            "vplus": {p: bd._mask_to_list(m) for p, m in sorted(self.vplus.items())},
            "vminus": {p: bd._mask_to_list(m) for p, m in sorted(self.vminus.items())},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "G2KripkeModel":
        ranks = bd._checked(obj["order"], list, "'order'")
        return cls(
            states=bd._checked(obj["states"], int, "'states'"),
            order=tuple(bd._checked(r, int, "a rank") for r in ranks),
            vplus=bd._masks_from_json(obj, "vplus"),
            vminus=bd._masks_from_json(obj, "vminus"),
        )


def _rank_closures(order: Sequence[int]) -> tuple[list[int], list[int]]:
    """The down-sets and the up-sets of a linear order as masks, each list
    growing one state at a time from the empty set to the full one."""
    by_rank = sorted(range(len(order)), key=order.__getitem__)
    downs, ups = [0], [0]
    for s in by_rank:
        downs.append(downs[-1] | 1 << s)
    for s in reversed(by_rank):
        ups.append(ups[-1] | 1 << s)
    return downs, ups


def _support_masks(m: G2KripkeModel) -> Callable[[Formula], tuple[int, int]]:
    """Memoized positive/negative support masks on ``m``.

    The BD connectives are those of :mod:`qublogic.bd`; sugar is expanded,
    and each implication clause is a down- or up-closure of the states
    where its condition holds.  The variable reserved for sugar expansion
    defaults to empty supports; the expansions do not depend on its value.
    """
    downs, ups = _rank_closures(m.order)
    full = downs[-1]

    def down(x: int) -> int:
        return next(d for d in downs if not x & ~d)

    def up(x: int) -> int:
        return next(u for u in ups if not x & ~u)

    def clause(f: Formula, rec: Callable[[Formula], tuple[int, int]]) -> tuple[int, int]:
        kind = f.kind
        if kind in SUGAR_KINDS[f.lang]:
            return rec(desugar(f))
        if kind not in _IMPLICATION_KINDS:
            raise ValueError(f"kind {kind!r} has no Kripke clause")
        (p1, n1), (p2, n2) = rec(f.children[0]), rec(f.children[1])
        if kind == "gimp" or kind == "nimp":
            # no later state supports the antecedent without the consequent
            pos = full & ~down(p1 & ~p2)
        else:
            # some earlier state supports the antecedent without the consequent
            pos = up(p1 & ~p2)
        if kind == "gimp":
            neg = up(n2 & ~n1)
        elif kind == "gcoimp":
            # falsity mirrors the implication clause on negative supports,
            # so the quantifier runs upward
            neg = full & ~down(n2 & ~n1)
        elif kind == "nimp":
            neg = p1 & n2
        else:
            neg = n1 | p2
        return pos, neg

    return bd._SupportMasks({RESERVED_VAR: 0, **m.vplus}, m.vminus, clause)


def support_table(m: G2KripkeModel, formulas: Iterable[Formula]) -> dict[Formula, tuple[int, int]]:
    """Positive/negative support masks for each formula (shared bottom-up)."""
    masks = _support_masks(m)
    return {f: masks(f) for f in formulas}


def ksupport(m: G2KripkeModel, s: int, f: Formula) -> tuple[bool, bool]:
    """Positive and negative support of ``f`` at state ``s``."""
    if not 0 <= s < m.states:
        raise ValueError(f"state {s} out of range")
    pos, neg = _support_masks(m)(f)
    return bool(pos >> s & 1), bool(neg >> s & 1)


def global_support(m: G2KripkeModel, f: Formula) -> tuple[bool, bool]:
    """Support at every state (equivalently, at the bottom of the chain)."""
    pos, neg = _support_masks(m)(f)
    full = (1 << m.states) - 1
    return pos == full, neg == full


# ---------------------------------------------------------------------------
# Local entailment
# ---------------------------------------------------------------------------

def kentails(gamma: Sequence[Formula], f: Formula) -> tuple[bool, G2KripkeModel | None, int | None]:
    """Local entailment: every state of every chain model that positively
    supports each premise positively supports ``f``.  A state supports a
    formula iff its truth reaches the state's threshold, so this is the truth
    of gamma_1 => (... => f) at the top, which :func:`qublogic.decide.truth_preserved`
    decides (in G2ORD that truth is all of designation).  BD is read as G2ORD;
    other languages than BD, biG, G2ORD and G2NEL raise a LanguageError.
    A refutation returns a chain model and its least state that supports
    every premise and not ``f``: that of the search's witness (biG values as
    truths), with adjacent values merged while a state still refutes.  Each
    merge takes one state out of the chain, so no state of the model
    returned can be taken out.
    """
    lang, langs = "G2ORD" if f.lang == "BD" else f.lang, {f.lang} | {g.lang for g in gamma}
    if lang not in ("BIG", "G2ORD", "G2NEL") or len(langs) > 1:
        raise LanguageError(f"no Kripke local entailment over {' and '.join(sorted(langs))} formulas")
    query = [retag(g, lang) for g in [*gamma, f]] if lang != f.lang else [*gamma, f]
    verdict = decide.truth_preserved(lang, [], decide.curried(query[:-1], query[-1]),
                                     decision="Kripke local entailment")
    if verdict.holds:
        return True, None, None
    e = {p: TwistValue(v, ZERO) if lang == "BIG" else v for p, v in verdict.witness.items()}
    found = _refutation(e, gamma, f)
    if not found:
        raise AssertionError("the search's witness refutes at no state of its chain model")
    while found:
        e, m, state = found
        values = sorted({ZERO, ONE} | {x for v in e.values() for x in v})
        # two adjacent values become one, an endpoint staying what it is
        merges = [(lo, hi) if hi == ONE else (hi, lo) for lo, hi in zip(values, values[1:])]
        found = m.states > 1 and next(filter(None, (_refutation(
            {p: TwistValue(*(kept if x == gone else x for x in v)) for p, v in e.items()}, gamma, f)
            for gone, kept in merges)), None)
    return False, m, state


def _refutation(e: Mapping[str, TwistValue], gamma: Sequence[Formula], f: Formula) \
        -> tuple[dict, G2KripkeModel, int] | None:
    """``e``, its chain model and the model's least state that supports
    every premise and not ``f``; None if no state does."""
    m = valuation_to_model(e)
    table = support_table(m, [*gamma, f])
    refuting = reduce(int.__and__, (table[g][0] for g in gamma), ~table[f][0]) & (1 << m.states) - 1
    return (e, m, (refuting & -refuting).bit_length() - 1) if refuting else None


# ---------------------------------------------------------------------------
# Counterpart constructions
# ---------------------------------------------------------------------------

def valuation_to_model(e: Mapping[str, TwistValue]) -> G2KripkeModel:
    """Chain model realizing exactly the order constraints of ``e``.

    Coordinate values map to up-set sizes: 0 to the empty set, 1 to the full
    chain, and distinct intermediate values to nested proper up-sets.
    """
    values = sorted({ZERO, ONE} | {unit(v[0]) for v in e.values()} | {unit(v[1]) for v in e.values()})
    n = len(values) - 1
    full = (1 << n) - 1
    upset = {v: full >> n - size << n - size for size, v in enumerate(values)}
    return G2KripkeModel(n, tuple(range(n)), {p: upset[unit(v[0])] for p, v in e.items()},
                         {p: upset[unit(v[1])] for p, v in e.items()})


def model_to_valuation(m: G2KripkeModel) -> tuple[list[dict], dict[str, TwistValue]]:
    """Constraint report and one rational solution for a chain model.

    The solution assigns each coordinate |support set| / |W|, which meets
    every constraint because supports are nested up-sets.
    """
    n = m.states
    slots: list[tuple[str, str, int]] = []
    for p in sorted(set(m.vplus) | set(m.vminus)):
        slots.append(("pos", p, m.vplus.get(p, 0)))
        slots.append(("neg", p, m.vminus.get(p, 0)))
    full = (1 << n) - 1
    constraints: list[dict] = []
    for side, p, mask in slots:
        if mask == full:
            constraints.append({"slot": f"{side}:{p}", "is": "one"})
        if mask == 0:
            constraints.append({"slot": f"{side}:{p}", "is": "zero"})
    for s1, p1, m1 in slots:
        for s2, p2, m2 in slots:
            if (s1, p1) == (s2, p2):
                continue
            constraints.append({
                "lhs": f"{s1}:{p1}",
                "rel": "<=" if m1 & ~m2 == 0 else "!<=",
                "rhs": f"{s2}:{p2}",
            })
    valuation = {
        p: TwistValue(Fraction(bin(m.vplus.get(p, 0)).count("1"), n),
                      Fraction(bin(m.vminus.get(p, 0)).count("1"), n))
        for p in sorted(set(m.vplus) | set(m.vminus))
    }
    return constraints, valuation
