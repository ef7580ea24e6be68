"""Shared generators and normalizers for the test suite.

Formula enumerations are depth-bounded with depth(variable) = 1 and share
subterms, so batch evaluators walk each distinct subformula once.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from qublogic import bd, qp
from qublogic.syntax import Formula, mk, modal_atoms, print_formula, var, vars_of


def depth(f: Formula) -> int:
    return 1 if not f.children else 1 + max(depth(c) for c in f.children)


def schema_metas(pattern: Formula):
    """The metavariables (``mv_`` variables) of a schema pattern, with repeats."""
    if pattern.kind == "var" and pattern.var.startswith("mv_"):
        yield pattern.var
    for c in pattern.children:
        yield from schema_metas(c)


def instantiate_schema(pattern: Formula, subst: dict) -> Formula:
    """A schema pattern with each metavariable replaced by its formula in ``subst``."""
    if pattern.kind == "var" and pattern.var.startswith("mv_"):
        return subst[pattern.var]
    if pattern.kind == "var":
        return pattern
    return mk(pattern.lang, pattern.kind, *(instantiate_schema(c, subst) for c in pattern.children))


def layer_instances(formulas: list[Formula]) -> list[Formula]:
    """The MCB/NMCB layer axioms' instances over the C-atoms of
    ``formulas``, in printed order, by their definition on the four values,
    pair by pair: delta (a -> neg b) and delta (neg a -> b) where a's inner
    formula entails b's negation and a's negation entails b (b = a
    included; each condition is symmetric in a and b, so taken once per
    pair), delta (a -> b) where a's inner formula entails b's (``*_bd``),
    delta (b <-> neg a) where b's inner value is a's negated under every
    valuation (``*_neg``); the Nelson variant's delta, ==> and <==> in
    NMCB."""
    atoms = sorted(set().union(*map(modal_atoms, formulas)), key=print_formula)
    if not atoms:
        return []
    lang = atoms[0].lang
    force, imp, eq = ("deltan", "simp", "siff") if lang == "NMCB" else ("delta1", "gimp", "iff")
    inners = [a.children[0] for a in atoms]
    names = sorted(set().union(*map(vars_of, inners)))
    table = bd.four_eval_table([dict(zip(names, v)) for v in product(bd.FOUR, repeat=len(names))],
                               inners)
    sat = []
    for i, a in enumerate(atoms):
        for j, b in enumerate(atoms):
            negated = [tuple(map(bd.neg4, table[phi])) for phi in (inners[i], inners[j])]
            if j >= i and all(map(bd.le4, table[inners[i]], negated[1])):
                sat.append(mk(lang, force, mk(lang, imp, a, mk(lang, "dneg", b))))
            if j >= i and all(map(bd.le4, negated[0], table[inners[j]])):
                sat.append(mk(lang, force, mk(lang, imp, mk(lang, "dneg", a), b)))
            if i != j and all(map(bd.le4, table[inners[i]], table[inners[j]])):
                sat.append(mk(lang, force, mk(lang, imp, a, b)))
            if i != j and table[inners[j]] == tuple(map(bd.neg4, table[inners[i]])):
                sat.append(mk(lang, force, mk(lang, eq, b, mk(lang, "dneg", a))))
    return sat


def _levels(lang: str, atoms: list[Formula], unary: tuple[str, ...],
            binary: tuple[str, ...], max_depth: int) -> list[Formula]:
    level = {1: list(atoms)}
    out = list(atoms)
    for d in range(2, max_depth + 1):
        cur = [mk(lang, k, f) for k in unary for f in level[d - 1]]
        lower = [f for dd in range(1, d) for f in level[dd]]
        for k in binary:
            for a in lower:
                for b in lower:
                    if max(depth(a), depth(b)) == d - 1:
                        cur.append(mk(lang, k, a, b))
        level[d] = cur
        out += cur
    return out


def gen_big(max_depth: int = 3, sugar: bool = True) -> list[Formula]:
    unary = ("snot", "delta") if sugar else ()
    return _levels("BIG", [var("BIG", "p"), var("BIG", "q")],
                   unary, ("and", "or", "gimp", "gcoimp"), max_depth)


def gen_g2(lang: str, max_depth: int = 3, sugar: bool = True,
           names: tuple[str, ...] = ("p", "q")) -> list[Formula]:
    if lang == "G2ORD":
        unary = ("dneg", "snot", "delta1") if sugar else ("dneg",)
        binary = ("and", "or", "gimp", "gcoimp")
    else:
        unary = ("dneg", "snot", "deltan", "deltabang") if sugar else ("dneg",)
        binary = ("and", "or", "nimp", "ncoimp")
    return _levels(lang, [var(lang, n) for n in names], unary, binary, max_depth)


def gen_bd(max_depth: int, names: tuple[str, ...] = ("p", "q")) -> list[Formula]:
    return _levels("BD", [var("BD", n) for n in names],
                   ("dneg",), ("and", "or"), max_depth)


def gen_sifs() -> list[Formula]:
    """All simple inequality formulas of AST depth <= 3 over p, q."""
    lang = "QP"
    inner1 = [var(lang, "p"), var(lang, "q")]
    inner2 = list(inner1) + [mk(lang, "not", f) for f in inner1]
    for k in ("and", "or", "matimp"):
        for a in inner1:
            for b in inner1:
                inner2.append(mk(lang, k, a, b))
    sif2 = [mk(lang, "leq", a, b) for a in inner1 for b in inner1]
    out = list(sif2)
    out += [mk(lang, "leq", a, b) for a in inner2 for b in inner2
            if max(depth(a), depth(b)) == 2]
    out += [mk(lang, "not", s) for s in sif2]
    out += [mk(lang, k, a, b) for k in ("and", "or", "matimp") for a in sif2 for b in sif2]
    return out


def ac_normal(f: Formula) -> Formula:
    """Normalize modulo associativity/commutativity of conjunction and
    disjunction (children flattened, sorted by their printed form)."""
    if not f.children:
        return f
    kids = tuple(ac_normal(c) for c in f.children)
    if f.kind in ("and", "or"):
        flat = [x for c in kids for x in _flat(c, f.kind)]
        flat.sort(key=print_formula)
        out = flat[0]
        for c in flat[1:]:
            out = mk(f.lang, f.kind, out, c)
        return out
    return mk(f.lang, f.kind, *kids, var=f.var) if f.kind == "var" else mk(f.lang, f.kind, *kids)


def _flat(f: Formula, kind: str) -> list[Formula]:
    if f.kind != kind:
        return [f]
    return [x for c in f.children for x in _flat(c, kind)]


# ---------------------------------------------------------------------------
# Frame and order enumeration
# ---------------------------------------------------------------------------

def monotone_weak_orders(n: int):
    """Rank maps of all monotone total preorders on the subsets of an n-set,
    peeled off as down-set layers of the inclusion order."""
    def down_closed(cand: set[int], remaining: set[int]) -> bool:
        for x in cand:
            s = (x - 1) & x
            while True:
                if s != x and s in remaining and s not in cand:
                    return False
                if s == 0:
                    break
                s = (s - 1) & x
        return True

    def rec(remaining: set[int], layers: list):
        if not remaining:
            rank = {}
            for i, layer in enumerate(layers):
                for x in layer:
                    rank[x] = i
            yield rank
            return
        rem = sorted(remaining)
        for r in range(1, len(rem) + 1):
            for cand in combinations(rem, r):
                cset = set(cand)
                if down_closed(cset, remaining):
                    layers.append(cand)
                    yield from rec(remaining - cset, layers)
                    layers.pop()

    yield from rec(set(range(1 << n)), [])


def nontrivial_orders(n: int):
    full = (1 << n) - 1
    for rank in monotone_weak_orders(n):
        if rank[0] < rank[full]:
            yield rank


def measure_from_rank(rank: dict[int, int]) -> dict[int, Fraction]:
    top = max(rank.values())
    return {x: Fraction(r, top) for x, r in rank.items()}


def random_gardenfors(rng: random.Random, max_states: int = 4,
                      names: tuple[str, ...] = ("p", "q")) -> qp.GardenforsModel:
    n = rng.randint(1, max_states)
    weights = {}
    for x in range(n):
        nums = [rng.randint(0, 6) for _ in range(n)]
        if sum(nums) == 0:
            nums[rng.randrange(n)] = 1
        den = sum(nums)
        weights[x] = tuple(Fraction(v, den) for v in nums)
    v = {p: rng.randrange(1 << n) for p in names}
    return qp.GardenforsModel(n, weights, v)
