"""Gaerdenfors-style qualitative probability: semantics, translation, LP.

A Gaerdenfors model carries one probability measure per state, given by
atom weights; the comparison connective may nest, and its truth set at a
state compares the measures of the operands' truth sets.  The simple
inequality fragment translates into the Goedel two-layered language, and
order representability by a probability measure is decided by an exact
rational LP with maximized strictness slack.  The E-notations of QP and QG,
and so KPS_m and A4_m, share one checked balanced disjunction.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from . import bd, lp
from .algebra import ONE, ZERO, parse_fraction
from .measures import MAX_DENSE_STATES, UncertaintyModel, cpl_truth_set
from .syntax import Formula, LanguageError, _cmp_free, desugar, memo, mk, retag


@dataclass(frozen=True, slots=True)
class GardenforsModel:
    """States with per-state probability weights and a classical valuation."""

    states: int
    weights: Mapping[int, tuple[Fraction, ...]]
    v: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.states < 1:
            raise ValueError("at least one state required")
        if len(self.weights) != self.states or set(self.weights) != set(range(self.states)):
            raise ValueError(f"one weight vector per state required: {len(self.weights)} "
                             f"for {self.states} states")
        for x, w in self.weights.items():
            if len(w) != self.states:
                raise ValueError(f"weight vector at state {x} has wrong length")
            if any(q < 0 for q in w):
                raise ValueError("weights must be nonnegative")
            if sum(w) != ONE:
                raise ValueError(f"weights at state {x} do not sum to 1")
        for name, mask in self.v.items():
            if mask >> self.states:
                raise ValueError(f"valuation of {name!r} references unknown states")

    @property
    def full(self) -> int:
        return (1 << self.states) - 1

    def prob(self, x: int, mask: int) -> Fraction:
        w = self.weights[x]
        return sum((w[i] for i in range(self.states) if mask >> i & 1), ZERO)

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "weights": {str(x): [str(q) for q in w] for x, w in sorted(self.weights.items())},
            "v": {p: bd._mask_to_list(m) for p, m in sorted(self.v.items())},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GardenforsModel":
        states = bd._checked(obj["states"], int, "'states'")
        weights = {_state_key(x, states): tuple(map(parse_fraction,
                                                    bd._checked(w, list, "a weight vector")))
                   for x, w in bd._checked(obj["weights"], dict, "'weights'").items()}
        return cls(states, weights, bd._masks_from_json(obj, "v"))


def _state_key(key: str, states: int) -> int:
    """The state a ``weights`` key names: only the state numbers 0..states-1
    as written by :meth:`GardenforsModel.to_json`, so that no two keys name
    one state."""
    if not (key.isdecimal() and str(int(key)) == key and int(key) < states):
        raise ValueError(f"'weights' is keyed by the state numbers 0..{states - 1}, not {key!r}")
    return int(key)


_COMPARE = {"leq": operator.le, "approx": operator.eq, "less": operator.lt}


def truth_set_qp(m: GardenforsModel, f: Formula) -> int:
    """States where ``f`` holds; comparisons may nest arbitrarily."""
    def compare(kind: str, a: int, b: int) -> int:
        try:
            holds = _COMPARE[kind]
        except KeyError:
            raise ValueError(f"kind {kind!r} is not a QP connective") from None
        return sum(1 << x for x in range(m.states) if holds(m.prob(x, a), m.prob(x, b)))

    return cpl_truth_set(f, m.v, m.full, compare)


def qp_sat(m: GardenforsModel, x: int, f: Formula) -> bool:
    """Truth at a state (pointed-model satisfaction)."""
    if not 0 <= x < m.states:
        raise ValueError(f"state {x} out of range")
    if f.lang != "QP":
        raise LanguageError("qp_sat expects a QP formula")
    return bool(truth_set_qp(m, f) >> x & 1)


def qp_true(m: GardenforsModel, f: Formula) -> bool:
    """Truth in the model: the truth set is the whole carrier."""
    if f.lang != "QP":
        raise LanguageError("qp_true expects a QP formula")
    return truth_set_qp(m, f) == m.full


# ---------------------------------------------------------------------------
# SIF translation
# ---------------------------------------------------------------------------

def translate_sif(f: Formula) -> Formula:
    """Translate a simple inequality formula into the QG language.  It is
    desugared once, and checked as :func:`qublogic.syntax.is_sif` checks it
    while it is translated.  The translation is kept on the node of ``f``
    (:func:`qublogic.syntax.memo`), so translating it again returns the same
    node, and that node's own compilation is reused too; a formula that is
    no SIF raises on every call."""
    if f.lang != "QP":
        raise LanguageError("is_sif applies to QP formulas only")
    return memo(f, "qp.translate_sif", lambda: _translate(desugar(f)))


def _translate(f: Formula) -> Formula:
    if f.kind == "leq" and all(map(_cmp_free, f.children)):
        chi, chi2 = (retag(c, "CPL") for c in f.children)
        return mk("QG", "delta",
                  mk("QG", "gimp", mk("QG", "bmod", chi), mk("QG", "bmod", chi2)))
    if f.kind == "not":
        return mk("QG", "snot", _translate(f.children[0]))
    if f.kind == "and":
        return mk("QG", "and", *(_translate(c) for c in f.children))
    if f.kind == "or":
        return mk("QG", "or", *(_translate(c) for c in f.children))
    if f.kind == "matimp":
        return mk("QG", "gimp", *(_translate(c) for c in f.children))
    raise LanguageError("formula is not a simple inequality formula")


# ---------------------------------------------------------------------------
# E-notation and axiom-instance generators
# ---------------------------------------------------------------------------

def _chain(lang: str, kind: str, parts: Sequence[Formula]) -> Formula:
    """``parts`` joined by the binary connective ``kind``, left-associated."""
    return functools.reduce(lambda out, p: mk(lang, kind, out, p), parts)


def _balanced_disjunction(what: str, lang: str, phis: Sequence[Formula],
                          chis: Sequence[Formula]) -> Formula:
    """Disjunction over equally sized negation patterns of the two lists.

    Each disjunct negates the members indexed by K in the first list and by
    L in the second, with |K| = |L|; conjuncts stay in list order.  The
    lists must be equally long, nonempty and of ``lang``; ``what`` names the
    notation in the error.
    """
    if not phis or len(phis) != len(chis):
        raise ValueError(f"{what} needs equally long nonempty lists")
    if any(g.lang != lang for g in [*phis, *chis]):
        raise LanguageError(f"{what} operands must be {lang} formulas")

    def negated(fs: Sequence[Formula], ks: tuple[int, ...]) -> list[Formula]:
        return [mk(lang, "not", g) if i in ks else g for i, g in enumerate(fs)]

    idx = range(len(phis))
    return _chain(lang, "or", [_chain(lang, "and", negated(phis, ks) + negated(chis, ls))
                               for size in range(len(phis) + 1)
                               for ks in combinations(idx, size)
                               for ls in combinations(idx, size)])


def e_notation(phis: Sequence[Formula], chis: Sequence[Formula]) -> Formula:
    """The QP abbreviation ``phi_1,..,phi_m E chi_1,..,chi_m``."""
    disj = _balanced_disjunction("E-notation", "QP", phis, chis)
    return mk("QP", "approx", disj, mk("QP", "top"))


def e_g_notation(phis: Sequence[Formula], chis: Sequence[Formula]) -> Formula:
    """The QG abbreviation: the balanced disjunction is as likely as Top."""
    disj = _balanced_disjunction("E_G-notation", "CPL", phis, chis)
    return mk("QG", "delta",
              mk("QG", "iff", mk("QG", "bmod", disj), mk("QG", "bmod", mk("CPL", "top"))))


def a4_instance(m: int, phis: Sequence[Formula], psis: Sequence[Formula]) -> Formula:
    """The m-th comparison axiom of the QP calculus (lists indexed 1..m)."""
    if m < 1 or len(phis) != m or len(psis) != m:
        raise ValueError("a4 instance needs lists of length m")
    parts = [e_notation(phis, psis)]
    parts += [mk("QP", "leq", phis[i], psis[i]) for i in range(m - 1)]
    return mk("QP", "matimp", _chain("QP", "and", parts), mk("QP", "leq", psis[m - 1], phis[m - 1]))


def kps_instance(m: int, phis: Sequence[Formula], chis: Sequence[Formula]) -> Formula:
    """The m-th KPS axiom of the Goedel calculus (lists indexed 0..m)."""
    if m < 0 or len(phis) != m + 1 or len(chis) != m + 1:
        raise ValueError("kps instance needs lists of length m+1")

    def below(x: Formula, y: Formula) -> Formula:
        return mk("QG", "delta", mk("QG", "gimp", mk("QG", "bmod", x), mk("QG", "bmod", y)))

    parts = [e_g_notation(phis, chis)] + [below(phis[i], chis[i]) for i in range(m)]
    return mk("QG", "gimp", _chain("QG", "and", parts), below(chis[m], phis[m]))


# ---------------------------------------------------------------------------
# Counterparts
# ---------------------------------------------------------------------------

def g_counterpart(m: GardenforsModel, x: int) -> UncertaintyModel:
    """Two-layered model with the same carrier and measure P_x."""
    if not 0 <= x < m.states:
        raise ValueError(f"state {x} out of range")
    mu = {mask: m.prob(x, mask) for mask in range(1 << m.states)}
    return UncertaintyModel(m.states, dict(m.v), mu)


@dataclass(frozen=True, slots=True)
class OrderInstance:
    """A total preorder on the subsets of a ground set, as a rank map."""

    ground_size: int
    rank: Mapping[int, int]

    def __post_init__(self):
        if self.ground_size < 1:
            raise ValueError("ground set must be nonempty")
        if self.ground_size > MAX_DENSE_STATES:
            raise ValueError(f"ground set of {self.ground_size} atoms (> {MAX_DENSE_STATES})")
        if set(self.rank) != set(range(1 << self.ground_size)):
            raise ValueError("rank map must be total on all subsets")
        ranks = sorted(set(self.rank.values()))
        if ranks != list(range(len(ranks))):
            raise ValueError("ranks must form an initial segment of the naturals")

    def classes(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for mask in sorted(self.rank):
            out.setdefault(self.rank[mask], []).append(mask)
        return [out[r] for r in sorted(out)]

    def consecutive_pairs(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """(strict, equal) pairs whose conjunction pins the whole order."""
        classes = self.classes()
        equal = [(cls[i], cls[i + 1]) for cls in classes for i in range(len(cls) - 1)]
        strict = [(classes[i][-1], classes[i + 1][0]) for i in range(len(classes) - 1)]
        return strict, equal

    @classmethod
    def from_measure(cls, states: int, mu: Mapping[int, Fraction]) -> "OrderInstance":
        values = sorted(set(mu.values()))
        pos = {v: i for i, v in enumerate(values)}
        return cls(states, {mask: pos[mu[mask]] for mask in mu})


@dataclass(frozen=True, slots=True)
class MeasureWitness:
    """Atom weights of a strictly order-agreeing probability measure."""

    weights: tuple[Fraction, ...]
    eps: Fraction

    def measure(self, mask: int) -> Fraction:
        return sum((self.weights[i] for i in range(len(self.weights)) if mask >> i & 1), ZERO)

    def verifies(self, strict: Iterable[tuple[int, int]], equal: Iterable[tuple[int, int]]) -> bool:
        if any(w < 0 for w in self.weights) or sum(self.weights) != ONE or self.eps <= 0:
            return False
        for x, y in strict:
            if not self.measure(x) + self.eps <= self.measure(y):
                return False
        return all(self.measure(x) == self.measure(y) for x, y in equal)

    def to_json(self) -> dict:
        return {"weights": [str(w) for w in self.weights], "eps": str(self.eps)}


def represent_order_lp(order: OrderInstance) -> MeasureWitness | None:
    """Probability weights strictly agreeing with the order, or None.

    Solves max eps subject to weights >= 0 summing to 1, equalities for
    ties, and measure(X) + eps <= measure(Y) for strict pairs; a witness is
    returned iff the optimum eps is positive (strict agreement).
    """
    n = order.ground_size
    if n > 12:
        raise ValueError("ground sets beyond 12 atoms are not supported")
    strict_pairs, equal_pairs = order.consecutive_pairs()

    def row(mask_lo: int, mask_hi: int, eps_coeff: int) -> list[int]:
        return [(mask_lo >> i & 1) - (mask_hi >> i & 1) for i in range(n)] + [eps_coeff]

    a_ub = [row(x, y, 1) for x, y in strict_pairs]
    b_ub = [0] * len(strict_pairs)
    a_ub.append([0] * n + [1])  # eps <= 1 keeps the LP bounded
    b_ub.append(1)
    a_eq = [row(x, y, 0) for x, y in equal_pairs]
    b_eq = [0] * len(equal_pairs)
    a_eq.append([1] * n + [0])
    b_eq.append(1)
    objective = [0] * n + [1]
    status, x, value = lp.solve_lp(objective, a_ub, b_ub, a_eq, b_eq)
    if status != "optimal" or value is None or value <= 0:
        return None
    witness = MeasureWitness(tuple(x[:n]), value)
    if not witness.verifies(strict_pairs, equal_pairs):
        raise AssertionError("LP witness failed re-verification")
    return witness


def qp_counterpart(m: UncertaintyModel) -> tuple[GardenforsModel, int] | None:
    """Pointed Gaerdenfors model whose measure agrees with the model's order.

    The same probability measure is used at every state, which suffices for
    pointed-model claims.  Returns None when the order induced by the
    measure is not probability-representable.
    """
    order = OrderInstance.from_measure(m.states, m.mu)
    witness = represent_order_lp(order)
    if witness is None:
        return None
    weights = {x: witness.weights for x in range(m.states)}
    return GardenforsModel(m.states, weights, dict(m.v)), 0
