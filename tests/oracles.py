"""Independent oracles the decision procedures are checked against.

The chain evaluators work with integer ranks on an abstract finite chain
0 < 1 < ... < top, never touching the grid rationals the decision
procedures enumerate; validity is decided by exhausting all rank
assignments (order types) of the atoms relative to the chain endpoints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from qublogic.syntax import Formula, print_formula


def chain_eval_big(f: Formula, env: dict[str, int], top: int) -> int:
    """biG value on ranks; ``env`` keys variables by name and B-atoms by
    their printed form."""
    k = f.kind
    if k == "var":
        return env[f.var]
    if k == "bmod":
        return env[print_formula(f)]
    if k == "top":
        return top
    if k == "bot":
        return 0
    if k == "snot":
        return top if chain_eval_big(f.children[0], env, top) == 0 else 0
    if k == "delta":
        return top if chain_eval_big(f.children[0], env, top) == top else 0
    a = chain_eval_big(f.children[0], env, top)
    b = chain_eval_big(f.children[1], env, top)
    if k == "and":
        return min(a, b)
    if k == "or":
        return max(a, b)
    if k == "gimp":
        return top if a <= b else b
    if k == "gcoimp":
        return 0 if a <= b else a
    if k == "iff":
        return min(top if a <= b else b, top if b <= a else a)
    raise ValueError(k)


def oracle_big_valid(f: Formula, names: list[str]) -> bool:
    top = len(names) + 1
    for ranks in product(range(top + 1), repeat=len(names)):
        if chain_eval_big(f, dict(zip(names, ranks)), top) != top:
            return False
    return True


def _chain_pair(kind: str, a, b, top):
    imp = lambda x, y: top if x <= y else y
    coimp = lambda x, y: 0 if x <= y else x
    if kind == "and":
        return (min(a[0], b[0]), max(a[1], b[1]))
    if kind == "or":
        return (max(a[0], b[0]), min(a[1], b[1]))
    if kind == "gimp":
        return (imp(a[0], b[0]), coimp(b[1], a[1]))
    if kind == "gcoimp":
        return (coimp(a[0], b[0]), imp(b[1], a[1]))
    if kind == "nimp":
        return (imp(a[0], b[0]), min(a[0], b[1]))
    if kind == "ncoimp":
        return (coimp(a[0], b[0]), max(a[1], b[0]))
    raise ValueError(kind)


def chain_eval_g2(f: Formula, env: dict[str, tuple[int, int]], top: int,
                  nelson: bool) -> tuple[int, int]:
    """Twist value on ranks; ``env`` keys variables by name and modal atoms
    by their printed form."""
    k = f.kind
    if k == "var":
        return env[f.var]
    if k == "cmod":
        return env[print_formula(f)]
    if k == "top":
        return (top, 0)
    if k == "bot":
        return (0, top)
    if k == "dneg":
        a = chain_eval_g2(f.children[0], env, top, nelson)
        return (a[1], a[0])
    if k == "snot":
        a = chain_eval_g2(f.children[0], env, top, nelson)
        t = top if a[0] == 0 else 0
        return (t, a[0]) if nelson else (t, top if a[1] < top else 0)
    if k in ("delta1", "deltabang"):
        a = chain_eval_g2(f.children[0], env, top, nelson)
        return (top, 0) if a == (top, 0) else (0, top)
    if k == "deltan":
        a = chain_eval_g2(f.children[0], env, top, nelson)
        return (top, 0) if a[0] == top else (0, top)
    a = chain_eval_g2(f.children[0], env, top, nelson)
    b = chain_eval_g2(f.children[1], env, top, nelson)
    if k in ("iff", "simp", "siff"):
        imp = "nimp" if nelson else "gimp"
        fwd = _chain_pair(imp, a, b, top)
        bwd = _chain_pair(imp, b, a, top)
        if k == "iff":
            return _chain_pair("and", fwd, bwd, top)
        fn = _chain_pair(imp, (b[1], b[0]), (a[1], a[0]), top)
        s1 = _chain_pair("and", fwd, fn, top)
        if k == "simp":
            return s1
        bn = _chain_pair(imp, (a[1], a[0]), (b[1], b[0]), top)
        return _chain_pair("and", s1, _chain_pair("and", bwd, bn, top), top)
    return _chain_pair(k, a, b, top)


def oracle_g2_valid(f: Formula, names: list[str], nelson: bool) -> bool:
    n = 2 * len(names)
    top = n + 1
    for ranks in product(range(top + 1), repeat=n):
        env = {p: (ranks[2 * i], ranks[2 * i + 1]) for i, p in enumerate(names)}
        v = chain_eval_g2(f, env, top, nelson)
        if nelson:
            if v[0] != top:
                return False
        elif v != (top, 0):
            return False
    return True


# ---------------------------------------------------------------------------
# BD support by literal clause recursion (per-state, no bitmasks)
# ---------------------------------------------------------------------------

def bd_support_clauses(vplus: dict[str, set[int]], vminus: dict[str, set[int]],
                       s: int, f: Formula) -> tuple[bool, bool]:
    k = f.kind
    if k == "var":
        return s in vplus[f.var], s in vminus[f.var]
    if k == "dneg":
        p, n = bd_support_clauses(vplus, vminus, s, f.children[0])
        return n, p
    p1, n1 = bd_support_clauses(vplus, vminus, s, f.children[0])
    p2, n2 = bd_support_clauses(vplus, vminus, s, f.children[1])
    if k == "and":
        return p1 and p2, n1 or n2
    return p1 or p2, n1 and n2


# ---------------------------------------------------------------------------
# Two-layered models on Fractions (per-state clauses, chain evaluators)
# ---------------------------------------------------------------------------

def cpl_holds(f: Formula, v: dict[str, int], s: int) -> bool:
    """Truth of a CPL formula at state ``s``; ``v`` maps variables to masks."""
    k = f.kind
    if k == "var":
        return bool(v[f.var] >> s & 1)
    if k == "top":
        return True
    if k == "bot":
        return False
    if k == "not":
        return not cpl_holds(f.children[0], v, s)
    a = cpl_holds(f.children[0], v, s)
    b = cpl_holds(f.children[1], v, s)
    if k == "and":
        return a and b
    if k == "or":
        return a or b
    if k == "matimp":
        return not a or b
    if k == "iff":
        return a == b
    raise ValueError(k)


def _modal_atoms(f: Formula) -> list[Formula]:
    if f.kind in ("bmod", "cmod"):
        return [f]
    return [a for c in f.children for a in _modal_atoms(c)]


def layer_value(layer: str, f: Formula, states: int, val: dict, mu: dict):
    """Value of a QG, MCB or NMCB formula on a model given by its state
    count, its inner valuation (``v`` for QG, ``vplus``/``vminus`` as masks
    otherwise) and its measure on Fractions: a Fraction for QG, a (truth,
    falsity) pair otherwise."""
    return layer_value_on(layer, f, layer_atom_sets(layer, [f], states, val), mu)


def layer_atom_sets(layer: str, formulas: list[Formula], states: int, val: dict) -> dict:
    """The truth set (QG), or the positive and negative support sets
    (MCB/NMCB), of every modal atom of ``formulas`` under an inner
    valuation, keyed by the atom's printed form, from per-state clauses."""
    sets: dict = {}
    if layer != "QG":
        plus = {p: {s for s in range(states) if m >> s & 1} for p, m in val["vplus"].items()}
        minus = {p: {s for s in range(states) if m >> s & 1} for p, m in val["vminus"].items()}
    for a in (a for f in formulas for a in _modal_atoms(f)):
        inner = a.children[0]
        if layer == "QG":
            sets[print_formula(a)] = sum(1 << s for s in range(states)
                                         if cpl_holds(inner, val["v"], s))
            continue
        pos = neg = 0
        for s in range(states):
            sp, sn = bd_support_clauses(plus, minus, s, inner)
            pos |= sp << s
            neg |= sn << s
        sets[print_formula(a)] = (pos, neg)
    return sets


def layer_value_on(layer: str, f: Formula, sets: dict, mu: dict):
    """Value of a formula from its atoms' sets (:func:`layer_atom_sets`) and
    a measure on Fractions: the chain evaluators with top 1."""
    one = Fraction(1)
    if layer == "QG":
        return chain_eval_big(f, {key: mu[x] for key, x in sets.items()}, one)
    return chain_eval_g2(f, {key: (mu[pos], mu[neg]) for key, (pos, neg) in sets.items()}, one,
                         layer == "NMCB")


def inner_valuations(layer: str, states: int, names: list[str]):
    """Every inner valuation of ``names``: masks by variable, in the order
    of ``product`` over the state sets, vplus and vminus interleaved."""
    n = len(names) if layer == "QG" else 2 * len(names)
    for combo in product(range(1 << states), repeat=n):
        if layer == "QG":
            yield {"v": dict(zip(names, combo))}
        else:
            yield {"vplus": dict(zip(names, combo[::2])),
                   "vminus": dict(zip(names, combo[1::2]))}


def layer_valid(layer: str, value) -> bool:
    one = Fraction(1)
    if layer == "QG":
        return value == one
    return value[0] == one if layer == "NMCB" else value == (one, 0)


def layer_refutes(layer: str, xi_values: list, alpha_value) -> bool:
    """The premises' values exceed the conclusion's in the layer's sense."""
    if layer == "QG":
        return min(xi_values, default=Fraction(1)) > alpha_value
    if min((v[0] for v in xi_values), default=Fraction(1)) > alpha_value[0]:
        return True
    return layer == "MCB" and max((v[1] for v in xi_values), default=0) < alpha_value[1]


# ---------------------------------------------------------------------------
# Coarse-grid weight search (LP cross-check)
# ---------------------------------------------------------------------------

def grid_weight_witness(n: int, strict, equal, denominator: int = 6):
    """Search probability weights on a coarse grid agreeing with the order."""
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for nums in compositions(denominator, n):
        w = [Fraction(v, denominator) for v in nums]
        measure = lambda mask: sum((w[i] for i in range(n) if mask >> i & 1), Fraction(0))
        if all(measure(x) < measure(y) for x, y in strict) and \
                all(measure(x) == measure(y) for x, y in equal):
            return w
    return None


# ---------------------------------------------------------------------------
# Vertex enumeration (simplex cross-check)
# ---------------------------------------------------------------------------

def _solve_square(rows, rhs):
    """The unique solution of a square linear system, or None if singular."""
    n = len(rows)
    m = [[Fraction(v) for v in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _vertex_max(objective, a_ub, b_ub, a_eq, b_eq):
    """Largest objective value over the vertices of {a_ub x <= b_ub,
    a_eq x = b_eq, x >= 0}, or None if the set is empty.

    The set lies in the nonnegative orthant, so it is empty or has a vertex,
    and every vertex solves n linearly independent tight constraints.
    """
    n = len(objective)
    bounds = [([int(i == j) for i in range(n)], 0) for j in range(n)]
    tight = list(zip(a_ub, b_ub)) + list(zip(a_eq, b_eq)) + bounds
    best = None
    for chosen in combinations(tight, n):
        x = _solve_square([r for r, _ in chosen], [b for _, b in chosen])
        if x is None or any(v < 0 for v in x):
            continue
        dot = lambda r: sum((Fraction(a) * v for a, v in zip(r, x)), Fraction(0))
        if all(dot(r) <= b for r, b in zip(a_ub, b_ub)) and \
                all(dot(r) == b for r, b in zip(a_eq, b_eq)):
            value = dot(objective)
            best = value if best is None else max(best, value)
    return best


def lp_by_vertices(objective, a_ub, b_ub, a_eq, b_eq):
    """(status, optimum) of max objective . x over a_ub x <= b_ub,
    a_eq x = b_eq, x >= 0, by enumerating vertices.

    A feasible LP is unbounded iff its recession cone {d >= 0, a_ub d <= 0,
    a_eq d = 0} holds a d with objective . d > 0; scaled to sum(d) = 1 the
    cone is a polytope, so that too is a vertex maximum.
    """
    value = _vertex_max(objective, a_ub, b_ub, a_eq, b_eq)
    if value is None:
        return "infeasible", None
    n = len(objective)
    ray = _vertex_max(objective, a_ub, [0] * len(a_ub),
                      [*a_eq, [1] * n], [0] * len(a_eq) + [1])
    if ray is not None and ray > 0:
        return "unbounded", None
    return "optimal", value
