"""Independent oracles the decision procedures are checked against.

The chain evaluators work with integer ranks on an abstract finite chain
0 < 1 < ... < top, never touching the grid rationals the decision
procedures enumerate; validity is decided by exhausting all rank
assignments (order types) of the atoms relative to the chain endpoints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

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


def oracle_big_entails(gamma: list[Formula], f: Formula, names: list[str],
                       aliases: dict[str, str] | None = None) -> dict[str, Fraction] | None:
    """The first countervaluation of ``gamma |= f`` in biG, or None: ranks
    0..k+1 for the k atoms ``names``, in product order, a point counting
    when the value of ``f`` is below the top and every premise's above it.
    ``aliases`` maps further atom keys to the name whose rank they take.
    The countervaluation gives every key its rank over k+1."""
    top = len(names) + 1
    for ranks in product(range(top + 1), repeat=len(names)):
        env = dict(zip(names, ranks))
        env.update({key: env[name] for key, name in (aliases or {}).items()})
        value = chain_eval_big(f, env, top)
        if value < top and all(chain_eval_big(g, env, top) > value for g in gamma):
            return {key: Fraction(rank, top) for key, rank in env.items()}
    return None


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
# Kripke chain models by the quantifier clauses (bounded local entailment)
# ---------------------------------------------------------------------------

class ChainModel(NamedTuple):
    """A linear Kripke model: state s has rank ``order[s]``; ``vplus`` and
    ``vminus`` map variables to the bitmasks of the states supporting them."""

    states: int
    order: tuple[int, ...]
    vplus: dict[str, int]
    vminus: dict[str, int]


def kripke_supports(m, f: Formula) -> tuple[int, int]:
    """Positive/negative support masks of the sugar-free formula ``f`` on
    the linear model ``m`` by the clauses as stated, each implication
    quantifying over the states above or below each state of the order.
    A variable a map omits is supported nowhere."""
    n = m.states
    below = [[t for t in range(n) if m.order[t] <= m.order[s]] for s in range(n)]
    above = [[t for t in range(n) if m.order[t] >= m.order[s]] for s in range(n)]
    if f.kind == "var":
        return m.vplus.get(f.var, 0), m.vminus.get(f.var, 0)
    if f.kind == "dneg":
        p, q = kripke_supports(m, f.children[0])
        return q, p
    (p1, n1), (p2, n2) = (kripke_supports(m, c) for c in f.children)
    at = lambda mask, t: bool(mask >> t & 1)
    pos = neg = 0
    for s in range(n):
        if f.kind == "and":
            p, q = at(p1 & p2, s), at(n1 | n2, s)
        elif f.kind == "or":
            p, q = at(p1 | p2, s), at(n1 & n2, s)
        elif f.kind in ("gimp", "nimp"):
            p = all(not at(p1, t) or at(p2, t) for t in above[s])
            q = any(not at(n1, t) and at(n2, t) for t in below[s]) if f.kind == "gimp" \
                else at(p1, s) and at(n2, s)
        else:
            p = any(at(p1, t) and not at(p2, t) for t in below[s])
            q = all(at(n1, t) or not at(n2, t) for t in above[s]) if f.kind == "gcoimp" \
                else at(n1, s) or at(p2, s)
        pos |= p << s
        neg |= q << s
    return pos, neg


def chain_models(variables: list[str], max_states: int):
    """Every chain model (identity order) of 1 to ``max_states`` states over
    ``variables``: each finite linear frame is isomorphic to a chain, whose
    up-sets are its suffixes."""
    for n in range(1, max_states + 1):
        suffixes = [((1 << n) - 1) ^ ((1 << k) - 1) for k in range(n + 1)]
        for choice in product(suffixes, repeat=2 * len(variables)):
            yield ChainModel(n, tuple(range(n)), dict(zip(variables, choice[::2])),
                             dict(zip(variables, choice[1::2])))


def chain_countermodel(gamma: list[Formula], f: Formula, variables: list[str],
                       max_states: int):
    """The first model of :func:`chain_models` over ``variables`` with a
    state that positively supports every sugar-free formula of ``gamma``
    and not ``f``, with its least such state, or None: local entailment,
    refutation-complete up to ``max_states`` states."""
    for m in chain_models(variables, max_states):
        premises = [kripke_supports(m, g)[0] for g in gamma]
        target = kripke_supports(m, f)[0]
        for s in range(m.states):
            if all(p >> s & 1 for p in premises) and not target >> s & 1:
                return m, s
    return None


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
# Frames by plain per-valuation evaluation
# ---------------------------------------------------------------------------

def _names(formulas: list[Formula]) -> list[str]:
    names: set[str] = set()
    for f in formulas:
        for a in _modal_atoms(f):
            names |= _vars(a.children[0])
    return sorted(names)


def _vars(f: Formula) -> set[str]:
    if f.kind == "var":
        return {f.var}
    return set().union(*(_vars(c) for c in f.children))


def frame_countervaluation(layer: str, f: Formula, states: int, mu: dict):
    """The first inner valuation, in :func:`inner_valuations` order, on
    which ``f`` is not designated over the measure ``mu``, or None: every
    valuation evaluated on its own, on Fractions."""
    for val in inner_valuations(layer, states, _names([f])):
        if not layer_valid(layer, layer_value(layer, f, states, val, mu)):
            return val
    return None


def monotone_measures(states: int, denominator: int, capacity: bool = False):
    """Every monotone nontrivial measure on the grid of ``denominator``, in
    lexicographic order of its values on the subsets sorted by size, then
    by mask; with ``capacity``, only those with 0 and 1 at the ends."""
    order = sorted(range(1 << states), key=lambda x: (bin(x).count("1"), x))
    full = (1 << states) - 1
    grid = [Fraction(i, denominator) for i in range(denominator + 1)]
    for values in product(grid, repeat=len(order)):
        mu = dict(zip(order, values))
        if mu[full] <= mu[0] or capacity and (mu[0] != 0 or mu[full] != 1):
            continue
        if all(mu[x] <= mu[x | 1 << i] for x in order for i in range(states)):
            yield mu


def frame_countermodel(layer: str, xi: list[Formula], alpha: Formula, max_states: int,
                       denominator: int, capacity: bool = False):
    """The first (states, inner valuation, measure) on which ``xi |= alpha``
    is refuted, ascending in state count, then grid denominator, then
    measure (:func:`monotone_measures`) and valuation, or None.  Each
    valuation's atom sets are computed once per state count."""
    names = _names([*xi, alpha])
    for states in range(1, max_states + 1):
        vals = [(val, layer_atom_sets(layer, [*xi, alpha], states, val))
                for val in inner_valuations(layer, states, names)]
        for denom in range(1, denominator + 1):
            for mu in monotone_measures(states, denom, capacity):
                for val, sets in vals:
                    *xi_values, alpha_value = [layer_value_on(layer, g, sets, mu)
                                               for g in [*xi, alpha]]
                    if layer_refutes(layer, xi_values, alpha_value):
                        return states, val, mu
    return None


def correspondence_report(layer: str, f: Formula, prop: str, max_states: int,
                          denominator: int) -> list[tuple[int, dict, bool, bool]]:
    """(states, measure, frame validity, property) for every monotone
    nontrivial frame within the bounds, from :func:`frame_countervaluation`
    and :func:`measure_property`."""
    return [(states, mu, frame_countervaluation(layer, f, states, mu) is None,
             measure_property(states, mu, prop)[0])
            for states in range(1, max_states + 1)
            for mu in monotone_measures(states, denominator)]


# ---------------------------------------------------------------------------
# Measure properties on Fraction values
# ---------------------------------------------------------------------------

def measure_property(states: int, mu: dict, prop: str, m: int | None = None):
    """A named measure property checked on the measure's Fraction values:
    (holds, first violating tuple)."""
    if prop == "mukps":
        return _mu_kps(states, mu, m)
    return _PROPERTIES[prop](states, mu)


def _subsets(states: int) -> range:
    return range(1 << states)


def _monotone(states, mu):
    for x in _subsets(states):
        for i in range(states):
            if not x >> i & 1:
                y = x | 1 << i
                if mu[x] > mu[y]:
                    return False, (x, y)
    return True, None


def _nontrivial(states, mu):
    full = (1 << states) - 1
    return (True, None) if mu[full] > mu[0] else (False, (0, full))


def _capacity(states, mu):
    ok, wit = _monotone(states, mu)
    if not ok:
        return ok, wit
    full = (1 << states) - 1
    if mu[0] != 0:
        return False, (0,)
    if mu[full] != 1:
        return False, (full,)
    return True, None


def _cond_i(states, mu):
    full = (1 << states) - 1
    for x in _subsets(states):
        if (mu[x] == 1) != (mu[full & ~x] == 0):
            return False, (x,)
    return True, None


def _cond_ii(states, mu):
    for y in _subsets(states):
        for y2 in _subsets(states):
            if mu[y & y2] == 0 and mu[y] > 0 and mu[y2] > 0:
                if not (mu[y | y2] > mu[y] and mu[y | y2] > mu[y2]):
                    return False, (y, y2)
    return True, None


def _cond_iii(states, mu):
    for y in _subsets(states):
        if mu[y] != 0:
            continue
        for y2 in _subsets(states):
            if mu[y | y2] != mu[y2]:
                return False, (y, y2)
    return True, None


def _mu_pm(states, mu):
    for x in _subsets(states):
        for y in _subsets(states):
            if x & ~y or x == y or mu[x] >= mu[y]:
                continue
            for z in _subsets(states):
                if y & z:
                    continue
                if mu[x | z] >= mu[y | z]:
                    return False, (x, y, z)
    return True, None


def _mu_kps(states, mu, m):
    """KPS_m by sums of membership-difference vectors: one pair with
    mu(X) < mu(Y) and m pairs with mu(X_j) <= mu(Y_j) that cancel."""
    def vec(mask):
        return tuple(1 if mask >> i & 1 else 0 for i in range(states))

    le_vecs: dict = {}
    lt_vecs: dict = {}
    for x in _subsets(states):
        for y in _subsets(states):
            d = tuple(a - b for a, b in zip(vec(x), vec(y)))
            if mu[x] <= mu[y]:
                le_vecs.setdefault(d, (x, y))
            if mu[x] < mu[y]:
                lt_vecs.setdefault(d, (x, y))
    frontier: dict = {(0,) * states: ()}
    for _ in range(m):
        nxt: dict = {}
        for s, path in frontier.items():
            for d, pair in le_vecs.items():
                t = tuple(a + b for a, b in zip(s, d))
                if t not in nxt:
                    nxt[t] = path + (pair,)
        frontier = nxt
    for d, pair in lt_vecs.items():
        need = tuple(-a for a in d)
        if need in frontier:
            return False, (pair, frontier[need])
    return True, None


def _belief_pairs(states):
    return product(_subsets(states), repeat=4)


def _mcb_i(states, pi):
    for x, y, x2, y2 in _belief_pairs(states):
        if pi[x & x2] == 0 and pi[y | y2] == 1 \
                and not (pi[x] == 0 and pi[y] == 1) \
                and not (pi[x2] == 0 and pi[y2] == 1):
            if not ((pi[x | x2] > pi[x] or pi[y & y2] < pi[y])
                    and (pi[x | x2] > pi[x2] or pi[y & y2] < pi[y2])):
                return False, (x, y, x2, y2)
    return True, None


def _mcb_ii(states, pi):
    for x, y, x2, y2 in _belief_pairs(states):
        if pi[x] == 0 and pi[y] == 1:
            if pi[x | x2] != pi[x2] or pi[y & y2] != pi[y2]:
                return False, (x, y, x2, y2)
    return True, None


_PROPERTIES = {
    "monotone": _monotone,
    "nontrivial": _nontrivial,
    "capacity": _capacity,
    "cond_i": _cond_i,
    "cond_ii": _cond_ii,
    "cond_iii": _cond_iii,
    "cond_iv": _capacity,
    "mupm": _mu_pm,
    "mcb_i": _mcb_i,
    "mcb_ii": _mcb_ii,
    "mcb_iii": _cond_ii,
    "mcb_iv": _cond_iii,
}


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


# ---------------------------------------------------------------------------
# All-Fraction tableau (simplex reference)
# ---------------------------------------------------------------------------

def fraction_tableau_lp(objective, a_ub, b_ub, a_eq, b_eq):
    """``qublogic.lp.solve_lp`` with every entry a Fraction: the same
    two-phase tableau, reduced-cost row and Bland's rule, so it takes the
    same pivots and returns the same (status, x, value), vertex included."""
    n = len(objective)
    rows = []
    for coeffs, rhs in zip(a_ub, b_ub):
        coeffs = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        if rhs >= 0:
            rows.append((coeffs, rhs, "le"))
        else:
            rows.append(([-v for v in coeffs], -rhs, "ge"))
    for coeffs, rhs in zip(a_eq, b_eq):
        coeffs = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        if rhs < 0:
            coeffs, rhs = [-v for v in coeffs], -rhs
        rows.append((coeffs, rhs, "eq"))

    m = len(rows)
    nslack = sum(1 for r in rows if r[2] in ("le", "ge"))
    nart = sum(1 for r in rows if r[2] in ("ge", "eq"))
    total = n + nslack + nart
    tab = [[Fraction(0)] * (total + 1) for _ in range(m)]
    basis = [0] * m
    art_cols = set()
    si, ai = n, n + nslack
    for i, (coeffs, rhs, kind) in enumerate(rows):
        tab[i][:n] = coeffs
        tab[i][total] = rhs
        if kind != "eq":
            tab[i][si] = Fraction(1 if kind == "le" else -1)
            if kind == "le":
                basis[i] = si
            si += 1
        if kind != "le":
            tab[i][ai] = Fraction(1)
            basis[i] = ai
            art_cols.add(ai)
            ai += 1

    def run(cost, banned):
        zrow = [-c for c in cost] + [Fraction(0)]
        for i in range(m):
            for j, v in enumerate(tab[i]):
                zrow[j] += cost[basis[i]] * v
        while True:
            entering = next((j for j in range(total) if zrow[j] < 0 and j not in banned), -1)
            if entering < 0:
                return "optimal"
            leaving, best = -1, None
            for i in range(m):
                if tab[i][entering] > 0:
                    ratio = tab[i][total] / tab[i][entering]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                        leaving, best = i, ratio
            if leaving < 0:
                return "unbounded"
            _fraction_pivot(tab + [zrow], basis, leaving, entering)

    if art_cols:
        cost1 = [Fraction(-1 if j in art_cols else 0) for j in range(total)]
        status = run(cost1, set())
        if status != "optimal" or sum(tab[i][total] for i in range(m) if basis[i] in art_cols):
            return "infeasible", None, None
        for i in range(m):
            if basis[i] in art_cols:
                j = next((j for j in range(total) if j not in art_cols and tab[i][j]), None)
                if j is not None:
                    _fraction_pivot(tab, basis, i, j)

    cost2 = [Fraction(objective[j]) if j < n else Fraction(0) for j in range(total)]
    status = run(cost2, art_cols)
    if status != "optimal":
        return status, None, None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][total]
    return "optimal", x, sum((Fraction(c) * v for c, v in zip(objective, x)), Fraction(0))


def _fraction_pivot(rows, basis, row, col):
    """Pivot on rows[row][col], rewriting every row in place."""
    prow = rows[row]
    prow[:] = [v / prow[col] for v in prow]
    for i, r in enumerate(rows):
        factor = r[col]
        if i != row and factor:
            r[:] = [a - factor * b for a, b in zip(r, prow)]
    basis[row] = col
