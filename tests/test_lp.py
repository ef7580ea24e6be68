import random
from collections import Counter
from fractions import Fraction as F

from qublogic.lp import solve_lp

from oracles import fraction_tableau_lp, lp_by_vertices


def _feasible(x, a_ub, b_ub, a_eq, b_eq) -> bool:
    dot = lambda r: sum(F(a) * v for a, v in zip(r, x))
    return (all(v >= 0 for v in x)
            and all(dot(r) <= b for r, b in zip(a_ub, b_ub))
            and all(dot(r) == b for r, b in zip(a_eq, b_eq)))


def test_optimal_vertex():
    # max x + y on x + 2y <= 4, 3x + y <= 6
    assert solve_lp([1, 1], [[1, 2], [3, 1]], [4, 6], [], []) == \
        ("optimal", [F(8, 5), F(6, 5)], F(14, 5))


def test_infeasible():
    # x <= 1 and x >= 2
    assert solve_lp([1], [[1], [-1]], [1, -2], [], []) == ("infeasible", None, None)
    assert solve_lp([1, 1], [], [], [[1, 1], [1, 1]], [1, 2]) == ("infeasible", None, None)


def test_unbounded():
    # max x on x - y <= 1: x = y + 1 grows without bound
    assert solve_lp([1, 0], [[1, -1]], [1], [], []) == ("unbounded", None, None)


def test_le_row_with_negative_rhs():
    # -x - y <= -2 is x + y >= 2; maximizing -x - 2y puts all of it on x
    assert solve_lp([-1, -2], [[-1, -1]], [-2], [], []) == ("optimal", [F(2), F(0)], F(-2))


def test_eq_row_with_negative_rhs():
    # -x - y = -3 with x <= 2
    assert solve_lp([1, 0], [[1, 0]], [2], [[-1, -1]], [-3]) == \
        ("optimal", [F(2), F(1)], F(2))


def test_degenerate_artificials_driven_out_or_left_in_basis():
    # x - 2y = 0 and its negation: phase 1 ends at the origin with both
    # artificials basic at level 0; the first is pivoted out on x, which
    # makes the second row zero outside its artificial, so that one stays
    # basic (and banned from entering) through phase 2
    assert solve_lp([-1, 1], [[2, 0]], [0], [[1, -2], [-1, 2]], [0, 0]) == \
        ("optimal", [F(0), F(0)], F(0))
    # a redundant equality keeps an artificial basic; the optimum is unaffected
    assert solve_lp([1, 1], [], [], [[1, 1], [2, 2]], [1, 2]) == ("optimal", [F(1), F(0)], F(1))
    assert solve_lp([1, 2], [], [], [[1, 1], [1, -1], [0, 1]], [2, 0, 1]) == \
        ("optimal", [F(1), F(1)], F(3))


def test_beale_cycling_example_terminates():
    # Beale's LP cycles under the textbook largest-coefficient rule; Bland's
    # rule must reach the optimum
    objective = [F(3, 4), -20, F(1, 2), -6]
    a_ub = [[F(1, 4), -8, -1, 9], [F(1, 2), -12, F(-1, 2), 3], [0, 0, 1, 0]]
    status, x, value = solve_lp(objective, a_ub, [0, 0, 1], [], [])
    assert (status, x, value) == ("optimal", [F(1), F(0), F(1), F(0)], F(5, 4))


def test_ratio_ties_leave_the_row_with_the_smallest_basic_index():
    # x1 enters first; both rows give ratio 2, and Bland's rule removes the
    # slack of row 0 (index 3, not 4).  Of the tied optima the pivots then
    # reach x = (0, 2, 2); the other tie-break would end at (0, 2, 0).
    assert solve_lp([1, 2, 0], [[1, 0, 1], [1, 1, 0]], [2, 2], [], []) == \
        ("optimal", [F(0), F(2), F(2)], F(4))


def test_outputs_are_fractions_for_int_input():
    status, x, value = solve_lp([1, 0], [[1, 1]], [3], [], [])
    assert status == "optimal"
    assert all(type(v) is F for v in x) and type(value) is F


def test_random_lps_match_vertex_enumeration():
    rng = random.Random(11)
    coeff = lambda: F(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    statuses = Counter()
    for _ in range(200):
        n = rng.randint(1, 3)
        objective = [coeff() for _ in range(n)]
        a_ub = [[coeff() for _ in range(n)] for _ in range(rng.randint(0, 3))]
        b_ub = [F(rng.randint(-2, 4)) for _ in a_ub]
        a_eq = [[coeff() for _ in range(n)] for _ in range(rng.randint(0, 2))]
        b_eq = [F(rng.randint(-2, 3)) for _ in a_eq]
        status, x, value = solve_lp(objective, a_ub, b_ub, a_eq, b_eq)
        want, optimum = lp_by_vertices(objective, a_ub, b_ub, a_eq, b_eq)
        assert status == want, (objective, a_ub, b_ub, a_eq, b_eq)
        if status == "optimal":
            assert value == optimum
            assert _feasible(x, a_ub, b_ub, a_eq, b_eq)
            assert sum(c * v for c, v in zip(objective, x)) == value
        else:
            assert x is None and value is None
        statuses[status] += 1
    assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) >= 20, statuses


def _random_lp(rng, coeff):
    n = rng.randint(1, 4)
    a_ub = [[coeff() for _ in range(n)] for _ in range(rng.randint(0, 4))]
    a_eq = [[coeff() for _ in range(n)] for _ in range(rng.randint(0, 2))]
    return ([coeff() for _ in range(n)], a_ub, [rng.randint(-2, 4) for _ in a_ub],
            a_eq, [rng.randint(-2, 4) for _ in a_eq])


def test_int_and_fraction_inputs_take_the_reference_tableau_pivots():
    # the same pivots reach the same vertex as the all-Fraction tableau,
    # whether the inputs are ints, Fractions, or integral Fractions
    rng = random.Random(21)
    statuses = Counter()
    for _ in range(300):
        for coeff in (lambda: rng.randint(-3, 3),
                      lambda: F(rng.randint(-3, 3), rng.choice((1, 2, 3))),
                      lambda: F(rng.randint(-3, 3))):
            lp = _random_lp(rng, coeff)
            got = solve_lp(*lp)
            assert got == fraction_tableau_lp(*lp), lp
            statuses[got[0]] += 1
    assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) >= 50, statuses


def test_tied_ratios_are_broken_as_in_the_reference_tableau():
    # every right-hand side 0 but one: each ratio at the first pivot is 0,
    # so Bland's tie-break picks the leaving row whenever two rows compete
    rng = random.Random(5)
    ties = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        a_ub = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(2, 5))]
        a_ub.append([1] * n)
        b_ub = [0] * (len(a_ub) - 1) + [1]
        objective = [rng.randint(0, 2) for _ in range(n)]
        lp = (objective, a_ub, b_ub, [], [])
        assert solve_lp(*lp) == fraction_tableau_lp(*lp), lp
        entering = next((j for j, c in enumerate(objective) if c > 0), None)
        if entering is not None and sum(r[entering] > 0 for r in a_ub[:-1]) >= 2:
            ties += 1
    assert ties >= 50, ties


def test_huge_coefficients_compare_exact_ratios():
    # x <= 10**20 + 1 and x <= 10**20 as float ratios tie, and the tie would
    # let row 0 leave, putting x past row 1's bound
    big = 10 ** 20
    assert float(big + 1) == float(big)
    lp = ([1, 0], [[1, 0], [1, 0], [0, 3]], [big + 1, big, big + 1], [], [])
    assert solve_lp(*lp) == fraction_tableau_lp(*lp) == \
        ("optimal", [F(big), F(0)], F(big))
    # a ratio that is no float: (3 * 10**20 + 1) / 3
    lp = ([0, 1], [[1, 0], [0, 3]], [big, 3 * big + 1], [[1, -1]], [0])
    assert solve_lp(*lp) == fraction_tableau_lp(*lp) == \
        ("optimal", [F(big), F(big)], F(big))


def test_order_shaped_int_inputs_give_fractions():
    # max eps over weights summing to 1, strict pairs w(x) + eps <= w(y),
    # ties w(x) = w(y), eps <= 1: all coefficients 0 or +-1, as built by
    # qp.represent_order_lp
    rng = random.Random(3)
    optimal = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        pair = lambda eps: [rng.randint(-1, 1) for _ in range(n)] + [eps]
        a_ub = [pair(1) for _ in range(rng.randint(0, 4))] + [[0] * n + [1]]
        a_eq = [pair(0) for _ in range(rng.randint(0, 2))] + [[1] * n + [0]]
        lp = ([0] * n + [1], a_ub, [0] * (len(a_ub) - 1) + [1], a_eq, [0] * (len(a_eq) - 1) + [1])
        status, x, value = got = solve_lp(*lp)
        assert got == fraction_tableau_lp(*lp), lp
        if status == "optimal":
            assert all(type(v) is F for v in x) and type(value) is F
            optimal += 1
    assert optimal >= 50, optimal
