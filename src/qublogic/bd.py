"""Belnap-Dunn models, four-valued evaluation, and entailment.

States are indexed 0..n-1 and state sets are held as bitmasks, which caps
models at 64 states (far beyond anything the tests need).  Supports come
from one memoized recursion over the BD connectives, which the Kripke
semantics of :mod:`qublogic.kripke` and the belief models of
:mod:`qublogic.measures` share.  Entailment is decided over the
four-element De Morgan lattice, a second route that tests compare with the
supports; the frame direction is covered by the one-state counterpart
construction.

This module owns the codec of every model's JSON form: a state set is
written as its ascending list of states (:func:`_mask_to_list`) and read
back by :func:`_list_to_mask`, an object of names to state lists is read by
:func:`_masks_from_json`, and every other field is read through
:func:`_checked`, so a field of the wrong JSON type is a ValueError.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .syntax import Formula, vars_of

MAX_STATES = 64
#: a sequent of 53 connectives over 12 variables took 0.12 s and 86 MiB
#: (peak RSS) on a shared 2-core VM (python 3.11); each variable more costs
#: four times that
MAX_BD_VARS = 12

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


@dataclass(frozen=True, slots=True)
class BDModel:
    """A Belnap-Dunn model: independent positive and negative valuations."""

    states: int
    vplus: Mapping[str, int] = field(default_factory=dict)
    vminus: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.states <= MAX_STATES:
            raise ValueError(f"state count must be in 1..{MAX_STATES}")
        _check_valuation(self.states, self.vplus, self.vminus)

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
        return cls(_checked(obj["states"], int, "'states'"),
                   _masks_from_json(obj, "vplus"), _masks_from_json(obj, "vminus"))


def _check_valuation(states: int, *valuations: Mapping[str, int]) -> None:
    """Refuse a valuation, of names to state masks, that names a state past
    the model's ``states``."""
    for valuation in valuations:
        for name, mask in valuation.items():
            if mask >> states:
                raise ValueError(f"valuation of {name!r} references unknown states")


def _mask_to_list(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


_JSON_KIND = {dict: "a JSON object", list: "a list", int: "a whole number"}


def _checked(value, kind: type, what: str):
    """``value`` if it is of the JSON ``kind`` (dict, list or int, where a
    bool is no number); a ValueError that names ``what`` if not."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_KIND[kind]}, not {value!r}")
    return value


def _masks_from_json(obj: Mapping, key: str) -> dict[str, int]:
    """The object of names to state lists under ``key`` (none if it is
    missing), each list read as a mask."""
    return {p: _list_to_mask(v) for p, v in _checked(obj.get(key, {}), dict, repr(key)).items()}


def _list_to_mask(states: Sequence[int]) -> int:
    if not isinstance(states, (list, tuple)) or not all(type(s) is int and s >= 0 for s in states):
        raise ValueError(f"a state set is a list of state numbers, not {states!r}")
    if any(s >= MAX_STATES for s in states):
        raise ValueError(f"state {max(states)} is past the cap of {MAX_STATES} states")
    mask = 0
    for s in states:
        mask |= 1 << s
    return mask


class _SupportMasks:
    """The positive and negative support masks of formulas, memoized, as a
    function of the formula.

    This is the one recursion over the BD connectives.  A variable bound on
    one side only is supported nowhere on the other; one bound on neither
    side raises :class:`KeyError`.  Any kind other than ``var``, ``dneg``,
    ``and`` and ``or`` goes to ``other`` with the formula and this object,
    which Kripke semantics uses for its implications.  It recurses through
    itself as an object, not through a closure cell, so it holds no
    reference to itself and leaves no reference cycle behind."""

    __slots__ = ("vplus", "vminus", "other", "memo")

    def __init__(self, vplus: Mapping[str, int], vminus: Mapping[str, int],
                 other: Callable[[Formula, Callable], tuple[int, int]] | None = None) -> None:
        self.vplus, self.vminus, self.other = vplus, vminus, other
        self.memo: dict[Formula, tuple[int, int]] = {}

    def __call__(self, f: Formula) -> tuple[int, int]:
        got = self.memo.get(f)
        if got is not None:
            return got
        kind = f.kind
        if kind == "var":
            name = f.var
            if name not in self.vplus and name not in self.vminus:
                raise KeyError(f"variable {name!r} unbound in model")
            res = self.vplus.get(name, 0), self.vminus.get(name, 0)
        elif kind == "dneg":
            p, n = self(f.children[0])
            res = n, p
        elif kind == "and" or kind == "or":
            p1, n1 = self(f.children[0])
            p2, n2 = self(f.children[1])
            res = (p1 & p2, n1 | n2) if kind == "and" else (p1 | p2, n1 & n2)
        elif self.other is not None:
            res = self.other(f, self)
        else:
            raise ValueError(f"kind {kind!r} is not a BD connective")
        self.memo[f] = res
        return res


class _ReleasingMasks(_SupportMasks):
    """Support masks for a fixed list of root formulas, each subformula's
    dropped from the memo after its last read: a root is read once per
    place in the list, any other subformula once per place it holds among
    the children of its distinct parents.  Over every valuation of 4 a mask
    has 4**n bits, so keeping only the masks still to be read bounds the
    memory by the tree's width instead of its size."""

    __slots__ = ("reads",)

    def __init__(self, vplus: Mapping[str, int], vminus: Mapping[str, int],
                 roots: Sequence[Formula]) -> None:
        super().__init__(vplus, vminus)
        self.reads = Counter(roots)
        seen: set[Formula] = set()
        todo = list(roots)
        while todo:
            f = todo.pop()
            if f not in seen:
                seen.add(f)
                self.reads.update(f.children)
                todo.extend(f.children)

    def __call__(self, f: Formula) -> tuple[int, int]:
        res = super().__call__(f)
        left = self.reads[f] - 1
        if left:
            self.reads[f] = left
        else:
            del self.memo[f]
        return res


def truth_sets(m: BDModel, f: Formula) -> tuple[int, int]:
    """Positive and negative interpretations |f|+ and |f|- as bitmasks."""
    return _SupportMasks(m.vplus, m.vminus)(f)


def support_table(m: BDModel, formulas: Iterable[Formula]) -> dict[Formula, tuple[int, int]]:
    """Truth-set masks for many formulas, sharing subformula work."""
    masks = _SupportMasks(m.vplus, m.vminus)
    return {f: masks(f) for f in formulas}


def support(m: BDModel, s: int, f: Formula) -> tuple[bool, bool]:
    """Positive and negative support of ``f`` at state ``s``."""
    if not 0 <= s < m.states:
        raise ValueError(f"state {s} out of range")
    p, n = truth_sets(m, f)
    return bool(p >> s & 1), bool(n >> s & 1)


def sequent_valid_on_model(m: BDModel, phi: Formula, chi: Formula) -> bool:
    """|phi|+ contained in |chi|+ and |chi|- contained in |phi|-."""
    masks = _SupportMasks(m.vplus, m.vminus)
    (p1, n1), (p2, n2) = masks(phi), masks(chi)
    return (p1 & ~p2) == 0 and (n2 & ~n1) == 0


def four_eval(v: Mapping[str, str], f: Formula) -> str:
    """Value of ``f`` in the four-element lattice under ``v``."""
    return four_eval_table([v], [f])[f][0]


def single_point_counterpart(v: Mapping[str, str]) -> BDModel:
    """The one-state model supporting exactly what ``v`` supports."""
    vplus = {p: 1 if _PAIR[val][0] else 0 for p, val in v.items()}
    vminus = {p: 1 if _PAIR[val][1] else 0 for p, val in v.items()}
    return BDModel(1, vplus, vminus)


def four_eval_table(valuations: Sequence[Mapping[str, str]],
                    formulas: Iterable[Formula]) -> dict[Formula, tuple[str, ...]]:
    """Four-valued evaluation of many formulas over many valuations at once.

    This is the one recursion over the lattice operations of 4; it stays
    apart from the support masks so that tests can compare the two routes.
    """
    memo: dict[Formula, tuple[str, ...]] = {}

    def rec(f: Formula) -> tuple[str, ...]:
        got = memo.get(f)
        if got is not None:
            return got
        kind = f.kind
        if kind == "var":
            try:
                res = tuple(v[f.var] for v in valuations)
            except KeyError:
                raise KeyError(f"variable {f.var!r} unbound") from None
        elif kind == "dneg":
            res = tuple(neg4(x) for x in rec(f.children[0]))
        else:
            op = meet4 if kind == "and" else join4
            res = tuple(op(x, y) for x, y in zip(rec(f.children[0]), rec(f.children[1])))
        memo[f] = res
        return res

    return {f: rec(f) for f in formulas}


def _coordinate_mask(states: int, place: int, k: int) -> int:
    """The bit-sliced mask of the coordinate at ``place`` of ``k``, the last
    being place 0: its subset under valuation ``a`` holds state ``x`` iff
    bit ``place*states + x`` of ``a`` is set, so that runs of valuations
    alternately hold and lack ``x``."""
    size = states << k * states
    mask = 0
    for x in range(states):
        run = states << place * states + x  # bits of a run
        mask |= _tile(_tile(1 << x, states, run) << run, 2 * run, size)
    return mask


def _tile(word: int, width: int, size: int) -> int:
    """``word``, of ``width`` bits, repeated to ``size`` bits by doubling;
    ``size`` is ``width`` times a power of two."""
    while width < size:
        word |= word << width
        width <<= 1
    return word


def valuation_masks(names: Sequence[str]) -> tuple[dict[str, int], dict[str, int]]:
    """Every valuation of 4 to ``names`` at once, bit-sliced: the positive
    and negative masks of each name, where bit ``a`` stands for the ``a``-th
    valuation in ``product(FOUR, repeat=len(names))`` order.  Over more than
    ``MAX_BD_VARS`` names a ValueError states the valuation count."""
    n = len(names)
    if n > MAX_BD_VARS:
        raise ValueError(f"BD decision over {n} variables (> {MAX_BD_VARS}): "
                         f"{4 ** n:,} valuations")
    full = (1 << 4 ** n) - 1
    vplus: dict[str, int] = {}
    vminus: dict[str, int] = {}
    for j, p in enumerate(names):
        # valuation a gives p the value FOUR[d] for its j-th base-4 digit d,
        # whose high bit is set at n and f, and its low bit at b and f
        vplus[p] = full & ~_coordinate_mask(1, 2 * (n - j) - 1, 2 * n)
        vminus[p] = _coordinate_mask(1, 2 * (n - j) - 2, 2 * n)
    return vplus, vminus


def bd_entails(phi: Formula, chi: Formula) -> tuple[bool, dict[str, str] | None]:
    """Decide universal validity of the sequent ``phi |- chi`` on 4: over
    every valuation, |phi|+ within |chi|+ and |chi|- within |phi|-.

    Returns ``(True, None)`` or ``(False, countervaluation)``, the first in
    ``product(FOUR)`` order over the sorted variables.  Over more than
    ``MAX_BD_VARS`` variables a ValueError states the valuation count.
    """
    names = sorted(vars_of(phi) | vars_of(chi))
    masks = _ReleasingMasks(*valuation_masks(names), (phi, chi))
    (p1, n1), (p2, n2) = masks(phi), masks(chi)
    bad = p1 & ~p2 | n2 & ~n1
    if not bad:
        return True, None
    a = (bad & -bad).bit_length() - 1
    return False, {p: FOUR[a >> 2 * (len(names) - 1 - j) & 3] for j, p in enumerate(names)}
