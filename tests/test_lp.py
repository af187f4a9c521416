import random
from collections import Counter
from fractions import Fraction as F

import pytest

from taxprob.errors import InternalSolverError
from taxprob.lp import solve_lp


def test_basic_maximization():
    assert solve_lp([F(3), F(2)],
                    [([F(1), F(1)], "<=", F(4)),
                     ([F(1), F(0)], "<=", F(2))]) == (0, 10)


def test_basic_minimization():
    assert solve_lp([F(1), F(1)],
                    [([F(1), F(1)], ">=", F(3)),
                     ([F(1), F(0)], "<=", F(1)),
                     ([F(0), F(1)], "<=", F(5))]) == (3, 6)


def test_equality_row():
    assert solve_lp([F(1), F(-1)], [([F(1), F(1)], "==", F(1))]) == (-1, 1)


def test_infeasible():
    assert solve_lp([F(1)], [([F(1)], "<=", F(1)), ([F(1)], ">=", F(2))]) is None


def test_unbounded():
    with pytest.raises(InternalSolverError, match="above"):
        solve_lp([F(1)], [])
    with pytest.raises(InternalSolverError, match="above"):
        solve_lp([F(1), F(0)], [([F(0), F(1)], "<=", F(1))])
    with pytest.raises(InternalSolverError, match="below"):
        solve_lp([F(-1), F(0)], [([F(0), F(1)], "<=", F(1))])


def test_exact_fractions_survive():
    # optimum at x = 1/3 exactly
    assert solve_lp([F(1)], [([F(3)], "<=", F(1))]) == (0, F(1, 3))


def test_degenerate_homogeneous_rows():
    # rows with zero right-hand sides force heavy degeneracy; Bland's rule
    # must still terminate at the optimum
    rows = [([F(1), F(-1), F(0)], ">=", F(0)),
            ([F(0), F(1), F(-1)], ">=", F(0)),
            ([F(1), F(1), F(1)], "==", F(1))]
    assert solve_lp([F(0), F(0), F(1)], rows) == (0, F(1, 3))
    assert solve_lp([F(1), F(0), F(0)], rows) == (F(1, 3), 1)


def test_negative_rhs_normalization():
    # -x <= -2 is x >= 2
    assert solve_lp([F(1)], [([F(-1)], "<=", F(-2)),
                             ([F(1)], "<=", F(5))]) == (2, 5)


def test_redundant_equalities():
    rows = [([F(1), F(1)], "==", F(1)), ([F(2), F(2)], "==", F(2))]
    assert solve_lp([F(1), F(0)], rows) == (0, 1)


def test_random_lps_match_vertex_enumeration():
    # cross-check the simplex against brute-force vertex enumeration on
    # random bounded problems: min and max c.x over {x >= 0, Ax <= b}
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 3)
        m = rng.randint(2, 4)
        A = [[F(rng.randint(0, 4)) for _ in range(n)] for _ in range(m)]
        # ensure boundedness: every variable capped
        A.append([F(1)] * n)
        b = [F(rng.randint(1, 6)) for _ in range(m)] + [F(8)]
        c = [F(rng.randint(-3, 5)) for _ in range(n)]
        low, high = solve_lp(c, [(row, "<=", rhs) for row, rhs in zip(A, b)])
        assert high == _vertex_optimum(A, b, c)
        assert low == -_vertex_optimum(A, b, [-v for v in c])


def _range_status(objective, rows):
    """Check solve_lp's warm-started maximum against the cold minimum of the
    negated objective, which phase 2 reaches straight from the phase-1
    basis, and the other way round; return the outcome."""
    negated = [-c for c in objective]
    try:
        flipped = solve_lp(negated, rows)
    except InternalSolverError:
        with pytest.raises(InternalSolverError):
            solve_lp(objective, rows)
        return "unbounded"
    if flipped is None:
        assert solve_lp(objective, rows) is None
        return "infeasible"
    lo, hi = flipped
    assert solve_lp(objective, rows) == (-hi, -lo)
    return "optimal"


def test_range_matches_the_negated_objective():
    degenerate = [([F(1), F(-1), F(0)], ">=", F(0)),
                  ([F(0), F(1), F(-1)], ">=", F(0)),
                  ([F(1), F(1), F(1)], "==", F(1))]
    for objective in ([F(0), F(0), F(1)], [F(1), F(0), F(0)],
                      [F(1), F(-2), F(1)]):
        assert _range_status(objective, degenerate) == "optimal"

    rng = random.Random(17)
    outcomes = Counter()
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [([F(rng.randint(-3, 4), rng.randint(1, 3)) for _ in range(n)],
                 rng.choice(("<=", ">=", "==")),
                 F(rng.randint(-2, 5), rng.randint(1, 2)))
                for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.7:  # usually bounded: cap the total
            rows.append(([F(1)] * n, "<=", F(rng.randint(0, 6))))
        objective = [F(rng.randint(-3, 5), rng.randint(1, 2)) for _ in range(n)]
        status = _range_status(objective, rows)
        outcomes[status, any(sense == "==" for _, sense, _ in rows)] += 1
    # every outcome occurs, and optima are reached with equality rows too
    assert all(outcomes[s, eq] > 0 for s in ("infeasible", "unbounded", "optimal")
               for eq in (False, True)), outcomes


def _vertex_optimum(A, b, c):
    """Enumerate all basic feasible points of {x >= 0, Ax <= b} by solving
    every n-subset of the active constraint candidates."""
    from itertools import combinations
    n = len(c)
    cands = [(row, rhs) for row, rhs in zip(A, b)]
    cands += [([F(1 if j == i else 0) for j in range(n)], F(0))
              for i in range(n)]
    best = None
    for subset in combinations(range(len(cands)), n):
        rows = [cands[i][0] for i in subset]
        rhs = [cands[i][1] for i in subset]
        x = _solve_square(rows, rhs)
        if x is None or any(v < 0 for v in x):
            continue
        if any(sum(r * v for r, v in zip(row, x)) > bb for row, bb in zip(A, b)):
            continue
        val = sum(cv * v for cv, v in zip(c, x))
        if best is None or val > best:
            best = val
    return best


def _solve_square(rows, rhs):
    n = len(rhs)
    M = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        pivval = M[col][col]
        M[col] = [v / pivval for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]
