"""Exact rational linear programming over the oracle's cone form, via an
integer-pivoting simplex with exact column generation.

`solve_lp(objective, rows, norm)` is the one entry: it gives the minimum and
the maximum of objective . y over

    {y >= 0 : row . y >= 0 for every row, norm . y == 1},

every input in ints, or `solve_lp(columns)` from a column source that holds
all three (see the two regimes below).  This is the form of every oracle
LP: Nilsson's LP over atoms, rescaled as in `oracle`, with homogeneous rows
and one normalisation row.  Phase 1 runs once, and the maximum starts from
the minimum's optimal basis, which is still feasible, so only the phase-2
pivots between the two optima are repeated.

The oracle needs optima as exact rationals: equality checks against the
inference rules, and strict guard comparisons downstream, leave no room for
floating-point error.  Instead of pivoting on `fractions.Fraction` (whose
per-operation gcd makes dense pivots slow), the tableau is kept in plain
integers: every row is an integer multiple of the canonical simplex row,
which is harmless because each row is an equation and the pivot element is
kept positive.  Pivoting is then two integer multiplications per entry,
rebuilt a whole row at a time, and a row is divided by its gcd only when its
entries grow large.  Only the rows a pivot changes (those with a nonzero
entry in the pivot column, and the objective row) can grow, so only those
are checked.

Bland's rule (smallest eligible index, for both the entering and the leaving
variable) guarantees termination under the heavy degeneracy these homogeneous
constraint systems exhibit.

One slack per row, one artificial.  Row i of the tableau is
-row . y + s_i = 0 with its slack s_i basic, and the norm row is
norm . y + a = 1 with the artificial a basic.  Every right-hand side but the
norm row's is 0, so the point with a = 1 and every other variable at 0
solves the equations; it lies on every basis that holds a, and a basis has
one solution, so in any tableau where a is basic it sits at exactly 1.
Phase 1 maximizes -a: it is feasible exactly when a leaves the basis, and
an artificial is never basic at zero.  Once out, a prices at +1 for the rest
of phase 1, and phase 2 never enters its column.

Column generation.  An LP with many more columns than rows (the oracle's
atoms against its conditionals) is solved over a restricted tableau that
starts with no structural column.  Whenever the tableau is optimal, the
objective row's entries under row i's slack and under the artificial are
its scale times the row duals; the column source prices the outside
columns with them, and those that price negative are appended, each
tableau entry being the row's slack and artificial entries dotted with the
column.  When no column prices in, the duals are feasible for the whole
LP, so by LP duality the restricted optimum is the optimum over every
column, as the same exact Fraction.  A restricted phase 1 that reaches zero
is already feasible and brings in no more columns.  Columns are only ever
added, and Bland's rule terminates on each column set, so generation
terminates.

Two column sources, two regimes.  `DenseColumns` holds the columns as int
lists, as `solve_lp(objective, rows, norm)` receives them: an LP with few
columns for its rows starts with every column, and the solve is the plain
simplex, pivot for pivot; otherwise each round is one pass over every
column and appends the most negative few.  That pass, and building the
lists, are linear in the columns, which grow as 2^n with the oracle's n
basics.  The oracle's `EliminationColumns` never lists them: it finds the
most negative column by variable elimination, whose cost grows with the
width of the conditionals' interaction graph, not with the columns.  It
has a fixed cost per query (the elimination order and its index maps) and
per round (every table, for one column), which small LPs do not repay: on
LPs of up to about a hundred columns the dense pass is faster (measured at
`oracle.ENUMERATION_LIMIT`), so the oracle keeps both and chooses by its
atom count.  The rows are read as they are, never copied.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .errors import InternalSolverError

_GROWTH_BITS = 64  # gcd-reduce a row once entries exceed this many bits
# every column starts in the tableau unless there are at least this many
# columns per row, the norm row counted.  Measured on the oracle's chain-n
# LPs, generation loses at 4 columns per row (chain-6) and wins from 6.7
# (chain-7) on; random-batch's 1-row LPs of 8 and 14 columns (14 of its
# 302) lose about 18 us each.
_GENERATE_COLUMNS_PER_ROW = 8
# outside columns appended per pricing round, at most.  The oracle prices
# LPs of more than `oracle.ENUMERATION_LIMIT` (128) atoms by elimination,
# so only small LPs reach this pass.  Measured with Python 3.11 on 2 cores,
# medians of alternating runs: on medical_reduced.kb's LP (128 columns, 2
# active rows) 8 beats 1 in 17 of 20 alternations (0.67 against 0.76 ms),
# and entering every negative column takes 0.98 ms; on 150 random small
# KBs' LPs (8 to 16 columns, at most one row) 1, 8 and every column are
# within 8% of one another (18 to 20 ms in all).
_ENTER_PER_ROUND = 8


def solve_lp(objective, rows=None, norm=None
             ) -> Optional[Tuple[Fraction, Fraction]]:
    """(min, max) of objective . y over {y >= 0 : row . y >= 0 for every
    row, norm . y == 1}, from one tableau; None when that set is empty.

    `objective`, `rows` and `norm` are int lists over the columns, or
    `objective` alone is a column source that holds all three (see
    `DenseColumns`, the source the lists make).

    Raises InternalSolverError when either direction is unbounded."""
    columns = objective if rows is None else DenseColumns(objective, rows,
                                                          norm)
    tab = _Tableau(columns)
    if not tab.phase_one():
        return None
    bounds = []
    for maximize in (False, True):
        best = tab.phase_two(maximize)
        if best is None:
            raise InternalSolverError(
                f"objective is unbounded {'above' if maximize else 'below'}")
        bounds.append(best if maximize else -best)
    return bounds[0], bounds[1]


class DenseColumns:
    """A column source over int lists: column j has objective entry
    objective[j], row entries row[j] and norm entry norm[j].

    A column source gives the tableau its columns: `initial()` lists the
    keys it starts with, `entries(keys)` gives those columns' objective
    entries, entries per row and norm entries, each a sequence in key
    order that the tableau only reads, and `generate` says whether any
    column starts outside.  Only then does the tableau call
    `price(cost_weight, duals, norm_weight)`, which returns the outside
    columns j whose value cost_weight * c_j - sum_i duals[i] * a_ij +
    norm_weight * norm_j is negative, with those values, as a list of keys
    and a list of values (both empty when none is).  A column already in
    the tableau never prices negative, so a source need not know which
    columns the tableau holds.

    Here every column starts in the tableau unless there are at least
    `_GENERATE_COLUMNS_PER_ROW` per row; then `entries` gives the lists as
    they are.  Otherwise pricing is one pass over the lists that returns
    the `_ENTER_PER_ROUND` most negative columns.
    """

    def __init__(self, objective: Sequence[int],
                 rows: Sequence[Sequence[int]], norm: Sequence[int]):
        if any(len(coeffs) != len(objective) for coeffs in (*rows, norm)):
            raise ValueError("row length does not match variable count")
        self.objective, self.rows, self.norm = objective, rows, norm
        self.generate = (len(objective)
                         >= _GENERATE_COLUMNS_PER_ROW * (len(rows) + 1))

    def initial(self) -> List[int]:
        return [] if self.generate else list(range(len(self.objective)))

    def entries(self, keys: Sequence[int]):
        if not self.generate:  # `keys` is every column, in order
            return self.objective, self.rows, self.norm
        return ([self.objective[j] for j in keys],
                [[coeffs[j] for j in keys] for coeffs in self.rows],
                [self.norm[j] for j in keys])

    def price(self, cost_weight: int, duals: Sequence[int],
              norm_weight: int) -> Tuple[List[int], List[int]]:
        acc = ([cost_weight * c for c in self.objective] if cost_weight
               else [0] * len(self.objective))
        for coeffs, w in zip(self.rows, duals):
            if w:
                acc = [a - w * c for a, c in zip(acc, coeffs)]
        if norm_weight:
            acc = [a + norm_weight * c for a, c in zip(acc, self.norm)]
        entering = heapq.nsmallest(
            _ENTER_PER_ROUND, (j for j, v in enumerate(acc) if v < 0),
            key=acc.__getitem__)
        return entering, [acc[j] for j in entering]


class _Tableau:
    """Rows laid out as [structural columns in the tableau | a slack per
    row | the artificial | right-hand side], each an integer multiple of its
    canonical row; the norm row comes last.  `cols` holds the keys of the
    structural columns in the column source and `obj` their objective
    entries, and the objective row `z` is `scale` times the reduced costs
    of a maximization, so its last entry is `scale` times the objective
    value.  The artificial is column `total - 1`.
    """

    def __init__(self, columns):
        self.columns = columns
        self.cols: list = columns.initial()
        self.obj, coeffs, norm = columns.entries(self.cols)
        m, k = len(coeffs), len(self.cols)
        self.total = k + m + 1
        self.rows: List[List[int]] = []
        for i, row_coeffs in enumerate(coeffs):
            row = [-c for c in row_coeffs]
            row += [0] * (m + 2)
            row[k + i] = 1
            self.rows.append(row)
        self.rows.append([*norm, *[0] * m, 1, 1])
        self.basis: List[int] = list(range(k, self.total))
        self.z: List[int] = [0] * (self.total + 1)
        self.scale = 1
        # for pricing: the sign of the objective being maximized (0 in
        # phase 1, -1 for the minimum's phase 2), and the cost of the
        # artificial column, -1 in phase 1 and 0 after
        self.sign = 0
        self.art_cost = 0

    # -- pivoting machinery --------------------------------------------------

    @staticmethod
    def _shrink(row: List[int]) -> List[int]:
        """The row divided by the gcd of its entries once they grow large."""
        if max(max(row), -min(row)).bit_length() > _GROWTH_BITS:
            g = math.gcd(*row)
            if g > 1:
                return [v // g for v in row]
        return row

    def _set_z(self, z: List[int], scale: int):
        """Store the objective row and its scale, both divided by their gcd
        once they grow large."""
        if max(max(z), -min(z), scale).bit_length() > _GROWTH_BITS:
            g = math.gcd(scale, *z)
            if g > 1:
                z = [v // g for v in z]
                scale //= g
        self.z, self.scale = z, scale

    def _pivot(self, r: int, col: int):
        rows = self.rows
        prow = rows[r]
        p = prow[col]
        if p <= 0:
            raise InternalSolverError(f"pivot element {p} is not positive")
        for k, row in enumerate(rows):
            f = row[col]
            if f == 0 or k == r:
                continue  # rows are independently scaled; nothing to eliminate
            rows[k] = self._shrink([a * p - f * b for a, b in zip(row, prow)])
        zf = self.z[col]
        if zf:
            self._set_z([a * p - zf * b for a, b in zip(self.z, prow)],
                        self.scale * p)
        self.basis[r] = col

    def _entering(self) -> Optional[int]:
        # Bland: the smallest-index improvable column; the artificial, last,
        # is never one (see the module docstring)
        z = self.z
        for j in range(self.total - 1):
            if z[j] < 0:
                return j
        return None

    def _leaving(self, col: int) -> Optional[int]:
        best = None  # (num, den, basis var, row index)
        for i, row in enumerate(self.rows):
            a = row[col]
            if a <= 0:
                continue
            num, den = row[-1], a
            if best is None:
                best = (num, den, self.basis[i], i)
                continue
            cmp = num * best[1] - best[0] * den
            if cmp < 0 or (cmp == 0 and self.basis[i] < best[2]):
                best = (num, den, self.basis[i], i)
        return None if best is None else best[3]

    def _optimize(self) -> str:
        """Bland pivots to an optimum over the tableau's columns, then the
        outside columns that price in, until none does."""
        while True:
            col = self._entering()
            if col is None:
                entering, entries = self._priced_columns()
                if not entering:
                    return "optimal"
                self._append(entering, entries)
                continue
            r = self._leaving(col)
            if r is None:
                return "unbounded"
            self._pivot(r, col)

    def _rebuild_z(self, coeffs: List[int]):
        """Set the objective row to -coeffs and reduce it against the basis."""
        z = [-c for c in coeffs] + [0] * (self.total - len(coeffs)) + [0]
        scale = 1
        for i, b in enumerate(self.basis):
            zb = z[b]
            if zb:
                row = self.rows[i]
                p = row[b]
                z = [a * p - zb * c for a, c in zip(z, row)]
                scale *= p
        self._set_z(z, scale)

    # -- column generation -----------------------------------------------------

    def _priced_columns(self) -> Tuple[list, List[int]]:
        """The outside columns whose objective-row entry is negative, with
        those entries, as the column source prices them.

        The entry of column j is scale * (y . N_j - c_j), with y the row
        duals and N_j the column as the tableau holds it (-row[j] in row i,
        norm[j] in the norm row); the entry under row i's slack is
        scale * y_i, and the artificial's is scale * (y_norm - its cost).
        A column already in the tableau prices at its own entry, which is
        not negative when pricing runs, so it is never listed."""
        if not self.columns.generate or (self.art_cost and not self.z[-1]):
            return [], []  # no outside column, or a phase 1 already feasible
        z, scale, k = self.z, self.scale, len(self.cols)
        return self.columns.price(-scale * self.sign, z[k:self.total - 1],
                                  z[self.total - 1] + scale * self.art_cost)

    def _append(self, entering: list, entries: List[int]):
        """Bring the outside columns `entering` into the tableau, after its
        structural columns, with their objective-row `entries`.  Each row's
        new entries are its slack and artificial entries dotted with the
        columns as the tableau holds them."""
        k, added = len(self.cols), len(entering)
        objective, coeffs, norm = self.columns.entries(entering)
        # the new columns as the tableau holds them: per slack, minus the
        # row's entry, and at the artificial, the norm entry
        columns = list(zip(*[[-c for c in row_coeffs]
                             for row_coeffs in coeffs], norm))
        for row in self.rows:
            tail = row[k:]
            row[k:k] = [sum(map(mul, tail, column)) for column in columns]
        self.z[k:k] = entries
        self.basis = [b + added if b >= k else b for b in self.basis]
        self.total += added
        self.cols.extend(entering)
        self.obj = [*self.obj, *objective]

    # -- the two phases --------------------------------------------------------

    def phase_one(self) -> bool:
        """Drive the artificial out of the basis; False when it stays (at 1)
        and the LP is infeasible."""
        coeffs = [0] * self.total
        coeffs[-1] = -1  # maximize -a
        self.art_cost = -1
        self._rebuild_z(coeffs)
        if self._optimize() == "unbounded":
            raise InternalSolverError("phase-1 objective cannot be unbounded")
        self.art_cost = 0
        return self.total - 1 not in self.basis

    def phase_two(self, maximize: bool) -> Optional[Fraction]:
        """The maximum of objective . y (of -objective . y unless
        `maximize`), read from the objective row; None when unbounded."""
        self.sign = 1 if maximize else -1
        self._rebuild_z([self.sign * c for c in self.obj])
        if self._optimize() == "unbounded":
            return None
        return Fraction(self.z[-1], self.scale)
