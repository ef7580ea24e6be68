"""Kripke semantics for the twist-product logics over linear frames.

Frames are finite reflexive linear orders; valuations are upward closed, so
supports of all formulas are up-sets and a chain model is determined by
support-set sizes.  The counterpart constructions translate between twist
valuations and chain models; the rational carrier of the original
construction is replaced by a finite chain, which realizes the same order
constraints because only finitely many formulas are ever compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from . import bd
from .algebra import ONE, ZERO, TwistValue, unit
from .syntax import Formula, vars_of

_G2_KINDS = {"var", "dneg", "and", "or", "gimp", "gcoimp", "nimp", "ncoimp",
             "top", "bot", "snot", "delta1", "deltan", "deltabang", "simp", "siff", "iff"}


@dataclass(frozen=True)
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
        if sorted(self.order) != list(range(self.states)):
            raise ValueError("order must be a permutation of ranks 0..n-1")
        for name, mask in dict(self.vplus, **self.vminus).items():
            if mask >> self.states:
                raise ValueError(f"valuation of {name!r} references unknown states")
        for vmap in (self.vplus, self.vminus):
            for name, mask in vmap.items():
                if not self._upward_closed(mask):
                    raise ValueError(f"valuation of {name!r} is not upward closed")

    def _upward_closed(self, mask: int) -> bool:
        ranks = {self.order[s] for s in range(self.states) if mask >> s & 1}
        return all(r in ranks for r in range(min(ranks, default=0), self.states)) if ranks else True

    def up(self, s: int) -> list[int]:
        return [t for t in range(self.states) if self.order[t] >= self.order[s]]

    def down(self, s: int) -> list[int]:
        return [t for t in range(self.states) if self.order[t] <= self.order[s]]

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
        return cls(
            states=obj["states"],
            order=tuple(obj["order"]),
            vplus={p: bd._list_to_mask(v) for p, v in obj.get("vplus", {}).items()},
            vminus={p: bd._list_to_mask(v) for p, v in obj.get("vminus", {}).items()},
        )


def support_table(m: G2KripkeModel, formulas: Iterable[Formula]) -> dict[Formula, tuple[int, int]]:
    """Positive/negative support masks for each formula (shared bottom-up)."""
    memo: dict[Formula, tuple[int, int]] = {}
    for f in formulas:
        _supports(m, f, memo)
    return {f: memo[f] for f in formulas}


def ksupport(m: G2KripkeModel, s: int, f: Formula) -> tuple[bool, bool]:
    """Positive and negative support of ``f`` at state ``s``."""
    if not 0 <= s < m.states:
        raise IndexError(f"state {s} out of range")
    pos, neg = _supports(m, f, {})
    return bool(pos >> s & 1), bool(neg >> s & 1)


def global_support(m: G2KripkeModel, f: Formula) -> tuple[bool, bool]:
    """Support at every state (equivalently, at the bottom of the chain)."""
    pos, neg = _supports(m, f, {})
    full = (1 << m.states) - 1
    return pos == full, neg == full


def _supports(m: G2KripkeModel, f: Formula, memo: dict) -> tuple[int, int]:
    if f in memo:
        return memo[f]
    if f.kind not in _G2_KINDS:
        raise ValueError(f"kind {f.kind!r} has no Kripke clause")
    full = (1 << m.states) - 1
    kind = f.kind
    if kind == "var":
        if f.var not in m.vplus and f.var not in m.vminus:
            from .syntax import RESERVED_VAR

            if f.var != RESERVED_VAR:
                raise KeyError(f"variable {f.var!r} unbound in model")
        res = (m.vplus.get(f.var, 0), m.vminus.get(f.var, 0))
    elif kind in ("top", "bot", "snot", "delta1", "deltan", "deltabang", "simp", "siff", "iff"):
        from .syntax import desugar

        res = _supports(m, desugar(f), memo)
    elif kind == "dneg":
        p, n = _supports(m, f.children[0], memo)
        res = (n, p)
    elif kind == "and":
        p1, n1 = _supports(m, f.children[0], memo)
        p2, n2 = _supports(m, f.children[1], memo)
        res = (p1 & p2, n1 | n2)
    elif kind == "or":
        p1, n1 = _supports(m, f.children[0], memo)
        p2, n2 = _supports(m, f.children[1], memo)
        res = (p1 | p2, n1 & n2)
    else:
        p1, n1 = _supports(m, f.children[0], memo)
        p2, n2 = _supports(m, f.children[1], memo)
        pos = neg = 0
        for s in range(m.states):
            up, down = m.up(s), m.down(s)
            if kind == "gimp":
                p = all(not p1 >> t & 1 or p2 >> t & 1 for t in up)
                n = any(not n1 >> t & 1 and n2 >> t & 1 for t in down)
            elif kind == "gcoimp":
                p = any(p1 >> t & 1 and not p2 >> t & 1 for t in down)
                # falsity mirrors the implication clause on negative
                # supports, so the quantifier runs upward
                n = all(n1 >> t & 1 or not n2 >> t & 1 for t in up)
            elif kind == "nimp":
                p = all(not p1 >> t & 1 or p2 >> t & 1 for t in up)
                n = bool(p1 >> s & 1 and n2 >> s & 1)
            else:  # ncoimp
                p = any(p1 >> t & 1 and not p2 >> t & 1 for t in down)
                n = bool(n1 >> s & 1 or p2 >> s & 1)
            pos |= p << s
            neg |= n << s
        res = (pos, neg)
    memo[f] = res
    return res


# ---------------------------------------------------------------------------
# Bounded local entailment
# ---------------------------------------------------------------------------

def iter_chain_models(variables: Sequence[str], max_states: int) -> Iterable[G2KripkeModel]:
    """All chain models (identity order) up to ``max_states`` states.

    Every finite linear frame is isomorphic to a chain, and up-sets of a
    chain are suffixes, so this enumeration is exhaustive up to the bound.
    """
    for n in range(1, max_states + 1):
        suffixes = [((1 << n) - 1) ^ ((1 << k) - 1) for k in range(n + 1)]
        for choice in product(suffixes, repeat=2 * len(variables)):
            vplus = {p: choice[2 * i] for i, p in enumerate(variables)}
            vminus = {p: choice[2 * i + 1] for i, p in enumerate(variables)}
            yield G2KripkeModel(n, tuple(range(n)), vplus, vminus)


def kentails(max_states: int, gamma: Sequence[Formula], f: Formula) -> tuple[bool, G2KripkeModel | None, int | None]:
    """Local entailment by model search; refutation-complete up to the bound.

    Returns (holds-at-bound, countermodel, state).
    """
    variables = sorted(set().union(*(vars_of(g) for g in [*gamma, f])) or set())
    for m in iter_chain_models(variables, max_states):
        table = support_table(m, [*gamma, f])
        for s in range(m.states):
            if all(table[g][0] >> s & 1 for g in gamma) and not table[f][0] >> s & 1:
                return False, m, s
    return True, None, None


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
    rank = {v: i for i, v in enumerate(values)}
    full = (1 << n) - 1

    def upset(value: Fraction) -> int:
        size = rank[unit(value)]
        return (full >> (n - size)) << (n - size) if size else 0

    vplus = {p: upset(v[0]) for p, v in e.items()}
    vminus = {p: upset(v[1]) for p, v in e.items()}
    return G2KripkeModel(n, tuple(range(n)), vplus, vminus)


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
