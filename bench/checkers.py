"""Independent checkers for the query benchmark.

Nothing here imports qublogic or the test suite.  Formulas are read only
through their public fields (``kind``, ``children``, ``var``), and every
semantic clause is written out again from the paper's definitions:

* a chain evaluator for biG and both twist variants.  Goedel values matter
  only through their order (Dummett's LC), so validity is decided by
  enumerating order types of the atom values, and a program witness is
  re-evaluated with its own rational values on the same clauses;
* a small exact evaluator for uncertainty models (QG) and belief models
  (MCB/NMCB), with the measure conditions a countermodel must meet;
* a classical truth-table entailment test, from which the expected answer
  of every QG query is derived when the query is generated;
* de Finetti's additivity axiom, which for ground sets of at most four
  atoms is equivalent to probability representability
  (Kraft-Pratt-Seidenberg 1959), and an exact re-summation of LP weights.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

ONE = Fraction(1)
ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Order types
# ---------------------------------------------------------------------------

def _ordered_partitions(items):
    """Every ordered set partition (list of nonempty blocks) of ``items``."""
    if not items:
        yield []
        return
    n = len(items)
    for mask in range(1, 1 << n):
        block = [items[i] for i in range(n) if mask >> i & 1]
        rest = [items[i] for i in range(n) if not mask >> i & 1]
        for tail in _ordered_partitions(rest):
            yield [block, *tail]


def order_types(n: int):
    """Every order type of ``n`` values on a chain with endpoints.

    Yields ``(ranks, top)``: value ``i`` sits at ``ranks[i]``, 0 and ``top``
    are the chain's endpoints, and the intermediate ranks in use are exactly
    ``1..top-1``.  Each relative order of the values and of the endpoints
    occurs once.
    """
    for place in product((0, 1, 2), repeat=n):  # 0 bottom, 1 inside, 2 top
        inside = [i for i in range(n) if place[i] == 1]
        for blocks in _ordered_partitions(inside):
            top = len(blocks) + 1
            ranks = [0 if p == 0 else top for p in place]
            for level, block in enumerate(blocks, start=1):
                for i in block:
                    ranks[i] = level
            yield ranks, top


# ---------------------------------------------------------------------------
# Goedel and twist clauses, generic over any chain with endpoints 0 and top
# ---------------------------------------------------------------------------

def _imp(a, b, top):
    return top if a <= b else b


def _coimp(a, b, top):
    return 0 if a <= b else a


def big_value(f, atom, top):
    """Value of a biG formula (QG: B-atoms are atoms) on a chain.

    ``atom(node)`` gives the value of a variable or modal-atom node.
    """
    k = f.kind
    if k in ("var", "bmod"):
        return atom(f)
    if k == "top":
        return top
    if k == "bot":
        return 0
    if k == "snot":  # x -> Bot
        return top if big_value(f.children[0], atom, top) == 0 else 0
    if k == "delta":  # (Top -< x) -> Bot
        return top if big_value(f.children[0], atom, top) == top else 0
    a = big_value(f.children[0], atom, top)
    b = big_value(f.children[1], atom, top)
    if k == "and":
        return min(a, b)
    if k == "or":
        return max(a, b)
    if k == "gimp":
        return _imp(a, b, top)
    if k == "gcoimp":
        return _coimp(a, b, top)
    if k == "iff":
        return min(_imp(a, b, top), _imp(b, a, top))
    raise ValueError(f"no biG clause for {k!r}")


def _pair(kind, a, b, top):
    """Twist clauses of the primitive binary connectives."""
    if kind == "and":
        return (min(a[0], b[0]), max(a[1], b[1]))
    if kind == "or":
        return (max(a[0], b[0]), min(a[1], b[1]))
    if kind == "gimp":
        return (_imp(a[0], b[0], top), _coimp(b[1], a[1], top))
    if kind == "gcoimp":
        return (_coimp(a[0], b[0], top), _imp(b[1], a[1], top))
    if kind == "nimp":
        return (_imp(a[0], b[0], top), min(a[0], b[1]))
    if kind == "ncoimp":
        return (_coimp(a[0], b[0], top), max(a[1], b[0]))
    raise ValueError(f"no twist clause for {kind!r}")


def g2_value(f, atom, top, nelson: bool):
    """Value pair of a twist formula on a chain; sugar by its definition.

    The defined constants are Top = (top, 0) and Bot = (0, top), so
    ``snot x`` is ``x -> Bot`` (``x ~> Bot``), ``delta1`` and ``deltaBangN``
    pin (top, 0), ``deltaN`` pins the truth coordinate, and the
    biconditionals are conjunctions of the variant's implications.
    """
    k = f.kind
    if k in ("var", "cmod"):
        return atom(f)
    if k == "top":
        return (top, 0)
    if k == "bot":
        return (0, top)
    if k == "dneg":
        a = g2_value(f.children[0], atom, top, nelson)
        return (a[1], a[0])
    imp = "nimp" if nelson else "gimp"
    if k == "snot":
        a = g2_value(f.children[0], atom, top, nelson)
        return _pair(imp, a, (0, top), top)
    if k in ("delta1", "deltabang"):
        a = g2_value(f.children[0], atom, top, nelson)
        return (top, 0) if a == (top, 0) else (0, top)
    if k == "deltan":
        a = g2_value(f.children[0], atom, top, nelson)
        return (top, 0) if a[0] == top else (0, top)
    a = g2_value(f.children[0], atom, top, nelson)
    b = g2_value(f.children[1], atom, top, nelson)
    if k in ("iff", "simp", "siff"):
        fwd = _pair(imp, a, b, top)
        bwd = _pair(imp, b, a, top)
        if k == "iff":
            return _pair("and", fwd, bwd, top)
        s1 = _pair("and", fwd, _pair(imp, (b[1], b[0]), (a[1], a[0]), top), top)
        if k == "simp":
            return s1
        s2 = _pair("and", bwd, _pair(imp, (a[1], a[0]), (b[1], b[0]), top), top)
        return _pair("and", s1, s2, top)
    return _pair(k, a, b, top)


# ---------------------------------------------------------------------------
# Atoms and decisions on order types
# ---------------------------------------------------------------------------

def atoms_of(formulas):
    """Distinct atom nodes (variables and modal atoms), in first-seen order."""
    out: dict = {}

    def walk(g):
        if g.kind in ("var", "bmod", "cmod"):
            out.setdefault(g, None)
            return
        for c in g.children:
            walk(c)

    for f in formulas:
        walk(f)
    return list(out)


def big_refutes(gamma, f, atom, top) -> bool:
    """``gamma |= f`` fails here: f below top and every premise above it."""
    target = big_value(f, atom, top)
    return target != top and all(big_value(g, atom, top) > target for g in gamma)


def g2_refutes(gamma, f, atom, top, nelson: bool) -> bool:
    """Refutation of the twist entailment at one valuation.

    Truth: the premises' infimum exceeds the conclusion's truth.  Falsity
    (the (->, -<) variant only): the premises' supremum stays below the
    conclusion's falsity; the empty supremum is 0.
    """
    vf = g2_value(f, atom, top, nelson)
    vs = [g2_value(g, atom, top, nelson) for g in gamma]
    if vf[0] != top and min((v[0] for v in vs), default=top) > vf[0]:
        return True
    return not nelson and vf[1] != 0 and max((v[1] for v in vs), default=0) < vf[1]


def big_decide(gamma, f) -> bool:
    """Whether ``gamma |= f`` holds in biG, over all order types."""
    atoms = atoms_of([*gamma, f])
    for ranks, top in order_types(len(atoms)):
        env = dict(zip(atoms, ranks))
        if big_refutes(gamma, f, env.__getitem__, top):
            return False
    return True


def g2_decide(gamma, f, nelson: bool) -> bool:
    """Whether the twist entailment holds, over all order types of the
    2k coordinates of k atoms."""
    atoms = atoms_of([*gamma, f])
    for ranks, top in order_types(2 * len(atoms)):
        env = {a: (ranks[2 * i], ranks[2 * i + 1]) for i, a in enumerate(atoms)}
        if g2_refutes(gamma, f, env.__getitem__, top, nelson):
            return False
    return True


def witness_atom(witness):
    """Atom lookup into a program witness keyed by variable name."""
    return lambda node: witness[node.var]


# ---------------------------------------------------------------------------
# Classical and Belnap-Dunn truth
# ---------------------------------------------------------------------------

def cpl_set(f, v, full: int) -> int:
    """States satisfying a CPL formula; ``v`` maps variables to masks."""
    k = f.kind
    if k == "var":
        return v[f.var]
    if k == "top":
        return full
    if k == "bot":
        return 0
    if k == "not":
        return full & ~cpl_set(f.children[0], v, full)
    a = cpl_set(f.children[0], v, full)
    b = cpl_set(f.children[1], v, full)
    if k == "and":
        return a & b
    if k == "or":
        return a | b
    if k == "matimp":
        return (full & ~a) | b
    if k == "iff":
        return full & ~(a ^ b)
    raise ValueError(f"no CPL clause for {k!r}")


def cpl_vars(f) -> set:
    if f.kind == "var":
        return {f.var}
    out: set = set()
    for c in f.children:
        out |= cpl_vars(c)
    return out


def cpl_entails(phi, psi) -> bool:
    """Classical entailment by truth table: one state per assignment."""
    names = sorted(cpl_vars(phi) | cpl_vars(psi))
    rows = 1 << len(names)
    full = (1 << rows) - 1
    v = {p: sum(1 << r for r in range(rows) if r >> i & 1) for i, p in enumerate(names)}
    return cpl_set(phi, v, full) & ~cpl_set(psi, v, full) == 0


def bd_sets(f, vplus, vminus):
    """Positive and negative support masks of a BD formula."""
    k = f.kind
    if k == "var":
        return vplus.get(f.var, 0), vminus.get(f.var, 0)
    if k == "dneg":
        p, n = bd_sets(f.children[0], vplus, vminus)
        return n, p
    p1, n1 = bd_sets(f.children[0], vplus, vminus)
    p2, n2 = bd_sets(f.children[1], vplus, vminus)
    if k == "and":
        return p1 & p2, n1 | n2
    if k == "or":
        return p1 | p2, n1 & n2
    raise ValueError(f"no BD clause for {k!r}")


_FOUR = {"t": (True, False), "b": (True, True), "n": (False, False), "f": (False, True)}
_FOUR_OF = {v: k for k, v in _FOUR.items()}


def four_value(f, v) -> str:
    """Four-valued BD value; ``v`` maps variables to 't', 'b', 'n', 'f'."""
    k = f.kind
    if k == "var":
        return v[f.var]
    if k == "dneg":
        t, fa = _FOUR[four_value(f.children[0], v)]
        return _FOUR_OF[(fa, t)]
    t1, f1 = _FOUR[four_value(f.children[0], v)]
    t2, f2 = _FOUR[four_value(f.children[1], v)]
    if k == "and":
        return _FOUR_OF[(t1 and t2, f1 or f2)]
    return _FOUR_OF[(t1 or t2, f1 and f2)]


def four_le(x: str, y: str) -> bool:
    return _FOUR[x][0] <= _FOUR[y][0] and _FOUR[x][1] >= _FOUR[y][1]


# ---------------------------------------------------------------------------
# Two-layered models
# ---------------------------------------------------------------------------

def measure_problem(states: int, mu, nontrivial: bool = True) -> str | None:
    """Why ``mu`` is not a monotone (nontrivial) measure in [0, 1], or None."""
    full = (1 << states) - 1
    if set(mu) != set(range(full + 1)):
        return "measure not total on the subsets"
    if any(not ZERO <= q <= ONE for q in mu.values()):
        return "measure value outside [0, 1]"
    for x in range(full + 1):
        for i in range(states):
            if not x >> i & 1 and mu[x] > mu[x | 1 << i]:
                return f"measure not monotone at {x} < {x | 1 << i}"
    if nontrivial and not mu[full] > mu[0]:
        return "measure trivial: mu(W) <= mu(empty)"
    return None


def qg_value(f, states: int, v, mu):
    """Value of a QG formula on an uncertainty model."""
    full = (1 << states) - 1
    return big_value(f, lambda a: mu[cpl_set(a.children[0], v, full)], ONE)


def layer_value(f, vplus, vminus, pi, nelson: bool):
    """Value pair of an MCB/NMCB formula on a belief model."""
    def atom(a):
        pos, neg = bd_sets(a.children[0], vplus, vminus)
        return (pi[pos], pi[neg])

    return g2_value(f, atom, ONE, nelson)


def layer_refutes(layer: str, xi_values, alpha_value) -> bool:
    """Refutation of ``xi |= alpha`` from the values on one model."""
    if layer == "QG":
        return min(xi_values, default=ONE) > alpha_value
    if min((v[0] for v in xi_values), default=ONE) > alpha_value[0]:
        return True
    return layer == "MCB" and max((v[1] for v in xi_values), default=ZERO) < alpha_value[1]


def countermodel_problem(layer: str, xi, alpha, model, nontrivial: bool = True) -> str | None:
    """Why ``model`` is not a genuine countermodel to ``xi |= alpha``, or None.

    ``model`` is a dict with ``states``, ``mu`` and either ``v`` (QG) or
    ``vplus``/``vminus`` (MCB/NMCB).
    """
    states, mu = model["states"], model["mu"]
    why = measure_problem(states, mu, nontrivial)
    if why:
        return why
    full = (1 << states) - 1
    if layer == "QG":
        v = model["v"]
        if any(mask & ~full for mask in v.values()):
            return "valuation outside the state space"
        values = [qg_value(g, states, v, mu) for g in xi]
        target = qg_value(alpha, states, v, mu)
    else:
        nelson = layer == "NMCB"
        vp, vm = model["vplus"], model["vminus"]
        values = [layer_value(g, vp, vm, mu, nelson) for g in xi]
        target = layer_value(alpha, vp, vm, mu, nelson)
    if not layer_refutes(layer, values, target):
        return "model does not refute the query"
    return None


# ---------------------------------------------------------------------------
# Orders and probability weights
# ---------------------------------------------------------------------------

def de_finetti(n: int, rank) -> bool:
    """De Finetti's axioms for the total preorder given by ``rank``.

    Nontrivial (empty below everything-set), empty set minimal, and
    additivity: for C disjoint from A and B, A <= B iff A|C <= B|C.  For
    n <= 4 this is equivalent to agreement with some probability measure.
    """
    full = (1 << n) - 1
    if not rank[0] < rank[full] or any(rank[0] > rank[x] for x in range(full + 1)):
        return False
    for c in range(1, full + 1):
        free = full & ~c
        a = free
        while True:
            b = free
            while True:
                if (rank[a] <= rank[b]) != (rank[a | c] <= rank[b | c]):
                    return False
                if b == 0:
                    break
                b = (b - 1) & free
            if a == 0:
                break
            a = (a - 1) & free
    return True


def weights_problem(n: int, rank, weights, eps) -> str | None:
    """Exact re-summation: why the weights do not represent the order."""
    if len(weights) != n:
        return "weight vector has the wrong length"
    if any(w < 0 for w in weights) or sum(weights, ZERO) != ONE:
        return "weights are not a probability vector"
    if not eps > 0:
        return "slack is not positive"
    full = (1 << n) - 1
    prob = [sum((weights[i] for i in range(n) if x >> i & 1), ZERO) for x in range(full + 1)]
    for x in range(full + 1):
        for y in range(full + 1):
            if rank[x] < rank[y] and not prob[x] + eps <= prob[y]:
                return f"P({x}) + eps > P({y}) although {x} is ranked below {y}"
            if rank[x] == rank[y] and prob[x] != prob[y]:
                return f"P({x}) != P({y}) although they are tied"
    return None


def monotone_orders(n: int):
    """Rank maps of the nontrivial monotone total preorders on the subsets
    of an n-set: layers are peeled off so that every set's subsets sit in
    its own layer or below."""
    full = (1 << n) - 1
    subsets_of = {x: [y for y in range(full + 1) if y & ~x == 0 and y != x]
                  for x in range(full + 1)}

    def rec(remaining: frozenset, layers: list):
        if not remaining:
            rank = {x: i for i, layer in enumerate(layers) for x in layer}
            if rank[0] < rank[full]:
                yield rank
            return
        rem = sorted(remaining)
        for mask in range(1, 1 << len(rem)):
            layer = [rem[i] for i in range(len(rem)) if mask >> i & 1]
            chosen = set(layer)
            # a set may join the layer only if none of its subsets still waits
            if all(y in chosen or y not in remaining for x in layer for y in subsets_of[x]):
                layers.append(layer)
                yield from rec(remaining - chosen, layers)
                layers.pop()

    yield from rec(frozenset(range(full + 1)), [])
