import random
from collections import Counter
from fractions import Fraction as F

import pytest

from taxprob.errors import InternalSolverError
from taxprob.lp import solve_lp

from helpers import (lp_by_duality, solve_general, spy_appended,
                     spy_artificial)


def test_basic_maximization():
    assert solve_general([F(3), F(2)],
                    [([F(1), F(1)], "<=", F(4)),
                     ([F(1), F(0)], "<=", F(2))]) == (0, 10)


def test_basic_minimization():
    assert solve_general([F(1), F(1)],
                    [([F(1), F(1)], ">=", F(3)),
                     ([F(1), F(0)], "<=", F(1)),
                     ([F(0), F(1)], "<=", F(5))]) == (3, 6)


def test_equality_row():
    assert solve_general([F(1), F(-1)], [([F(1), F(1)], "==", F(1))]) == (-1, 1)


def test_infeasible():
    assert solve_general([F(1)], [([F(1)], "<=", F(1)), ([F(1)], ">=", F(2))]) is None


def test_unbounded():
    with pytest.raises(InternalSolverError, match="above"):
        solve_general([F(1)], [])
    with pytest.raises(InternalSolverError, match="above"):
        solve_general([F(1), F(0)], [([F(0), F(1)], "<=", F(1))])
    with pytest.raises(InternalSolverError, match="below"):
        solve_general([F(-1), F(0)], [([F(0), F(1)], "<=", F(1))])


def test_exact_fractions_survive():
    # optimum at x = 1/3 exactly
    assert solve_general([F(1)], [([F(3)], "<=", F(1))]) == (0, F(1, 3))


def test_degenerate_homogeneous_rows():
    # rows with zero right-hand sides force heavy degeneracy; Bland's rule
    # must still terminate at the optimum
    rows = [([F(1), F(-1), F(0)], ">=", F(0)),
            ([F(0), F(1), F(-1)], ">=", F(0)),
            ([F(1), F(1), F(1)], "==", F(1))]
    assert solve_general([F(0), F(0), F(1)], rows) == (0, F(1, 3))
    assert solve_general([F(1), F(0), F(0)], rows) == (F(1, 3), 1)


def test_negative_rhs_normalization():
    # -x <= -2 is x >= 2
    assert solve_general([F(1)], [([F(-1)], "<=", F(-2)),
                             ([F(1)], "<=", F(5))]) == (2, 5)


def test_redundant_equalities():
    rows = [([F(1), F(1)], "==", F(1)), ([F(2), F(2)], "==", F(2))]
    assert solve_general([F(1), F(0)], rows) == (0, 1)


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
        low, high = solve_general(c, [(row, "<=", rhs)
                                      for row, rhs in zip(A, b)])
        assert high == _vertex_optimum(A, b, c)
        assert low == -_vertex_optimum(A, b, [-v for v in c])


def _range_status(objective, rows):
    """Check solve_lp's warm-started maximum against the cold minimum of the
    negated objective, which phase 2 reaches straight from the phase-1
    basis, and the other way round; return the outcome."""
    negated = [-c for c in objective]
    try:
        flipped = solve_general(negated, rows)
    except InternalSolverError:
        with pytest.raises(InternalSolverError):
            solve_general(objective, rows)
        return "unbounded"
    if flipped is None:
        assert solve_general(objective, rows) is None
        return "infeasible"
    lo, hi = flipped
    assert solve_general(objective, rows) == (-hi, -lo)
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


def test_row_length_must_match_the_objective():
    with pytest.raises(ValueError, match="row length"):
        solve_lp([1, 0], [[1, 0], [1]], [1, 1])
    with pytest.raises(ValueError, match="row length"):
        solve_lp([1, 0], [[1, 0]], [1])


# -- column generation: LPs with many more columns than rows -------------------

def _outcome(objective, rows, norm):
    """solve_lp's answer, with an unbounded direction as "below"/"above"."""
    try:
        return solve_lp(objective, rows, norm)
    except InternalSolverError as err:
        return "above" if "above" in str(err) else "below"


@pytest.mark.parametrize("sign, direction", [(1, "above"), (-1, "below")])
def test_appended_column_makes_the_master_unbounded(monkeypatch, sign,
                                                    direction):
    # phase 1 appends the first eight columns of the norm row, which are the
    # eight of weight 2, ordered by the seven cone rows; the last column, of
    # weight 1 and in no row, comes in a later round and makes the master
    # unbounded in the objective's direction only
    appended = spy_appended(monkeypatch)
    n = 64
    norm = [1] * (n - 1) + [0]
    rows = [[1 if j == i else -1 if j == i + 1 else 0 for j in range(n)]
            for i in range(7)]
    objective = [sign * c for c in [2] * 8 + [0] * (n - 9) + [1]]
    with pytest.raises(InternalSolverError, match=direction):
        solve_lp(objective, rows, norm)
    first, *later = appended
    assert first == list(range(8)) and n - 1 in later[-1]


def _wide_lp(rng):
    """A random cone LP over 72 to 76 columns: eight rows with sparse int
    coefficients, the last of them often one that nearly every column
    violates (the LP is then often infeasible), and a norm row that is
    usually every column (a bounded LP) and else a sparse 0/1 row.  Nine
    rows make at least 8 columns per row, so every draw starts with no
    structural column."""
    n = 72 + rng.randint(0, 4)

    def coeff():
        return 0 if rng.random() < 0.8 else rng.randint(-3, 4)

    rows = [[coeff() for _ in range(n)] for _ in range(8)]
    if rng.random() < 0.4:
        rows[-1] = [rng.randint(-3, -1) if rng.random() < 0.98
                    else rng.randint(0, 2) for _ in range(n)]
    norm = ([1] * n if rng.random() < 0.6
            else [int(rng.random() < 0.3) for _ in range(n)])
    low = 0 if rng.random() < 0.3 else -3
    return [rng.randint(low, 5) for _ in range(n)], rows, norm


def test_column_generation_matches_the_dual(monkeypatch):
    # every wide draw is solved by generation and checked against LPs over
    # its dual, which has few columns and takes the plain tableau; after
    # every phase one, of the draws and of the dual LPs alike, the
    # artificial is basic only when the LP is infeasible, and then at 1
    appended = spy_appended(monkeypatch)
    artificial = spy_artificial(monkeypatch)
    rng = random.Random(1)
    outcomes = Counter()
    for _ in range(24):
        objective, rows, norm = _wide_lp(rng)
        rounds = len(appended)
        claimed = _outcome(objective, rows, norm)
        assert len(appended) > rounds
        outcomes["optimal" if isinstance(claimed, tuple) else claimed] += 1
        assert lp_by_duality(objective, rows, norm, claimed) == claimed
    assert all(outcomes[key] for key in
               ("optimal", None, "below", "above")), outcomes
    assert all(value == (None if feasible else 1)
               for feasible, value in artificial)
    assert {feasible for feasible, _ in artificial} == {False, True}


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
