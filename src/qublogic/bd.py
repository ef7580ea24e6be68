"""Belnap-Dunn models, four-valued evaluation, and entailment.

States are indexed 0..n-1 and state sets are held as bitmasks, which caps
models at 64 states (far beyond anything the tests need).  Entailment is
decided over the four-element De Morgan lattice; the frame direction is
covered by the one-state counterpart construction.

This module owns the state-set codec of every model's JSON form: a mask
is written as its ascending list of states (:func:`_mask_to_list`) and read
back by :func:`_list_to_mask`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, Sequence

from .syntax import Formula, vars_of

MAX_STATES = 64

#: the four values, encoded as (supports-truth, supports-falsity)
FOUR = ("t", "b", "n", "f")
_PAIR = {"t": (True, False), "b": (True, True), "n": (False, False), "f": (False, True)}
_OF_PAIR = {v: k for k, v in _PAIR.items()}


def le4(x: str, y: str) -> bool:
    """Lattice order of 4: more true and less false."""
    xp, xn = _PAIR[x]
    yp, yn = _PAIR[y]
    return xp <= yp and xn >= yn


def meet4(x: str, y: str) -> str:
    xp, xn = _PAIR[x]
    yp, yn = _PAIR[y]
    return _OF_PAIR[(xp and yp, xn or yn)]


def join4(x: str, y: str) -> str:
    xp, xn = _PAIR[x]
    yp, yn = _PAIR[y]
    return _OF_PAIR[(xp or yp, xn and yn)]


def neg4(x: str) -> str:
    xp, xn = _PAIR[x]
    return _OF_PAIR[(xn, xp)]


@dataclass(frozen=True)
class BDModel:
    """A Belnap-Dunn model: independent positive and negative valuations."""

    states: int
    vplus: Mapping[str, int] = field(default_factory=dict)
    vminus: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.states <= MAX_STATES:
            raise ValueError(f"state count must be in 1..{MAX_STATES}")
        full = self.full
        for v in dict(self.vplus, **self.vminus).values():
            if v & ~full:
                raise ValueError("valuation references states outside the model")

    @property
    def full(self) -> int:
        return (1 << self.states) - 1

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "vplus": {p: _mask_to_list(m) for p, m in sorted(self.vplus.items())},
            "vminus": {p: _mask_to_list(m) for p, m in sorted(self.vminus.items())},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BDModel":
        return cls(
            states=obj["states"],
            vplus={p: _list_to_mask(v) for p, v in obj.get("vplus", {}).items()},
            vminus={p: _list_to_mask(v) for p, v in obj.get("vminus", {}).items()},
        )


def _mask_to_list(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _list_to_mask(states: Iterable[int]) -> int:
    mask = 0
    for s in states:
        mask |= 1 << s
    return mask


def truth_sets(m: BDModel, f: Formula) -> tuple[int, int]:
    """Positive and negative interpretations |f|+ and |f|- as bitmasks."""
    kind = f.kind
    if kind == "var":
        try:
            return m.vplus[f.var], m.vminus[f.var]
        except KeyError:
            raise KeyError(f"variable {f.var!r} unbound in model") from None
    if kind == "dneg":
        p, n = truth_sets(m, f.children[0])
        return n, p
    p1, n1 = truth_sets(m, f.children[0])
    p2, n2 = truth_sets(m, f.children[1])
    if kind == "and":
        return p1 & p2, n1 | n2
    if kind == "or":
        return p1 | p2, n1 & n2
    raise ValueError(f"kind {kind!r} is not a BD connective")


def support(m: BDModel, s: int, f: Formula) -> tuple[bool, bool]:
    """Positive and negative support of ``f`` at state ``s``."""
    if not 0 <= s < m.states:
        raise IndexError(f"state {s} out of range")
    p, n = truth_sets(m, f)
    return bool(p >> s & 1), bool(n >> s & 1)


def sequent_valid_on_model(m: BDModel, phi: Formula, chi: Formula) -> bool:
    """|phi|+ contained in |chi|+ and |chi|- contained in |phi|-."""
    p1, n1 = truth_sets(m, phi)
    p2, n2 = truth_sets(m, chi)
    return (p1 & ~p2) == 0 and (n2 & ~n1) == 0


def four_eval(v: Mapping[str, str], f: Formula) -> str:
    kind = f.kind
    if kind == "var":
        try:
            return v[f.var]
        except KeyError:
            raise KeyError(f"variable {f.var!r} unbound") from None
    if kind == "dneg":
        return neg4(four_eval(v, f.children[0]))
    a = four_eval(v, f.children[0])
    b = four_eval(v, f.children[1])
    return meet4(a, b) if kind == "and" else join4(a, b)


def single_point_counterpart(v: Mapping[str, str]) -> BDModel:
    """The one-state model supporting exactly what ``v`` supports."""
    vplus = {p: 1 if _PAIR[val][0] else 0 for p, val in v.items()}
    vminus = {p: 1 if _PAIR[val][1] else 0 for p, val in v.items()}
    return BDModel(1, vplus, vminus)


def support_table(m: BDModel, formulas: Iterable[Formula]) -> dict[Formula, tuple[int, int]]:
    """Truth-set masks for many formulas, sharing subformula work."""
    memo: dict[Formula, tuple[int, int]] = {}

    def rec(f: Formula) -> tuple[int, int]:
        got = memo.get(f)
        if got is not None:
            return got
        kind = f.kind
        if kind == "var":
            res = (m.vplus.get(f.var, _missing(f.var, m)), m.vminus.get(f.var, 0))
        elif kind == "dneg":
            p, n = rec(f.children[0])
            res = (n, p)
        else:
            p1, n1 = rec(f.children[0])
            p2, n2 = rec(f.children[1])
            res = (p1 & p2, n1 | n2) if kind == "and" else (p1 | p2, n1 & n2)
        memo[f] = res
        return res

    return {f: rec(f) for f in formulas}


def _missing(name: str, m: BDModel) -> int:
    if name not in m.vplus and name not in m.vminus:
        raise KeyError(f"variable {name!r} unbound in model")
    return 0


def four_eval_table(valuations: Sequence[Mapping[str, str]],
                    formulas: Iterable[Formula]) -> dict[Formula, tuple[str, ...]]:
    """Four-valued evaluation of many formulas over many valuations at once."""
    memo: dict[Formula, tuple[str, ...]] = {}

    def rec(f: Formula) -> tuple[str, ...]:
        got = memo.get(f)
        if got is not None:
            return got
        kind = f.kind
        if kind == "var":
            res = tuple(v[f.var] for v in valuations)
        elif kind == "dneg":
            res = tuple(neg4(x) for x in rec(f.children[0]))
        else:
            op = meet4 if kind == "and" else join4
            res = tuple(op(x, y) for x, y in zip(rec(f.children[0]), rec(f.children[1])))
        memo[f] = res
        return res

    return {f: rec(f) for f in formulas}


def bd_entails(phi: Formula, chi: Formula) -> tuple[bool, dict[str, str] | None]:
    """Decide universal validity of the sequent ``phi |- chi`` on 4.

    Returns ``(True, None)`` or ``(False, countervaluation)``.
    """
    names = sorted(vars_of(phi) | vars_of(chi))
    for values in product(FOUR, repeat=len(names)):
        v = dict(zip(names, values))
        if not le4(four_eval(v, phi), four_eval(v, chi)):
            return False, v
    return True, None
