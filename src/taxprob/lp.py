"""Exact rational linear programming via an integer-pivoting simplex with
exact column generation.

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

Variables are implicitly nonnegative.  Rows may use '<=', '>=' or '=='.
Coefficients may be ints or Fractions; a row whose coefficients and
right-hand side are all integers is read as it is, not copied.

`solve_lp` is the one entry: it gives the minimum and the maximum of one
objective over one tableau.  Phase 1 runs once, and the maximum starts from
the minimum's optimal basis, which is still feasible, so only the phase-2
pivots between the two optima are repeated.

Column generation.  An LP with many more columns than rows (the oracle's
atoms against its conditionals) is solved over a restricted tableau that
starts with no structural column.  Whenever the tableau is optimal, the
objective row's entries under the identity block (each row's slack or
artificial column) are its scale times the row duals; one pass over the
constraint rows prices every outside column with them, and the few most
negative are appended, each tableau entry being the row's identity block
dotted with the column.  When no column prices in, the duals are feasible
for the whole LP, so by LP duality the restricted optimum is the optimum
over every column, as the same exact Fraction.  A restricted phase 1 that
reaches zero is already feasible and brings in no more columns.  In phase 2
an artificial left basic at zero, in a row that no tableau column touched,
is pivoted out on the first appended column that does, so that it cannot
rise.  Columns are only ever added, and Bland's rule terminates on each
column set, so generation terminates.  An LP with few columns for its rows
starts with every column: nothing is left to price, and the solve is the
plain simplex, pivot for pivot.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InternalSolverError

Row = Tuple[Sequence[Fraction], str, Fraction]

_GROWTH_BITS = 64  # gcd-reduce a row once entries exceed this many bits
# every column starts in the tableau unless there are at least this many
# columns per row.  Measured on the oracle's chain-n LPs, generation loses at
# 4 columns per row (chain-6) and wins from 6.7 (chain-7) on; random-batch's
# 1-row LPs of 8 and 14 columns (14 of its 302) lose about 18 us each.
_GENERATE_COLUMNS_PER_ROW = 8
# outside columns appended per pricing round, at most.  On the chain-7 to
# chain-14 LPs no count is fastest throughout: 8 is fastest, or within 1%,
# on chain-7, 8, 9, 12 and 13 and 9-18% behind 16 on chain-10, 11 and 14,
# where 16 is 14-42% behind 8 on chain-8, 9 and 12; 1 and 2 are slower on
# chain-10, 12 and 14, and 32 and 64 on chain-10 and 12.
_ENTER_PER_ROUND = 8


def solve_lp(objective: Sequence[Fraction],
             rows: Sequence[Row]) -> Optional[Tuple[Fraction, Fraction]]:
    """(min, max) of objective . x over {x >= 0} subject to the rows, from
    one tableau; None when the rows are infeasible.

    Raises InternalSolverError when either direction is unbounded."""
    tab = _Tableau(len(objective), rows)
    if not tab.phase_one():
        return None
    bounds = []
    for maximize in (False, True):
        if tab.phase_two(objective, maximize) == "unbounded":
            raise InternalSolverError(
                f"objective is unbounded {'above' if maximize else 'below'}")
        bounds.append(tab.value(objective))
    return bounds[0], bounds[1]


def _integer_row(coeffs: Sequence[Fraction],
                 rhs: Fraction) -> Tuple[Sequence[int], int]:
    """The coefficients and right-hand side times the lcm of their
    denominators; all-int coefficients come back as they are, uncopied."""
    if type(rhs) is int and set(map(type, coeffs)) <= {int}:
        return coeffs, rhs
    denom = math.lcm(rhs.denominator, *{v.denominator for v in coeffs})
    return ([v.numerator * (denom // v.denominator) for v in coeffs],
            rhs.numerator * (denom // rhs.denominator))


class _Tableau:
    """Rows laid out as [structural columns in the tableau | slacks |
    artificials | right-hand side], each an integer multiple of its
    canonical row.  `cols` maps the structural positions to the LP's column
    indices, and the objective row `z` is `scale` times the reduced costs of
    a maximization, so its last entry is `scale` times the objective value.
    """

    def __init__(self, n_vars: int, rows: Sequence[Row]):
        self.n = n_vars
        # per constraint: its integer coefficients over every column, and
        # the sign under which the tableau holds them (so that its
        # right-hand side is nonnegative)
        self.coeffs: List[Sequence[int]] = []
        self.signs: List[int] = []
        specs = []  # (sense, int rhs) with rhs >= 0
        for coeffs, sense, rhs in rows:
            if len(coeffs) != n_vars:
                raise ValueError("row length does not match variable count")
            icoeffs, irhs = _integer_row(coeffs, rhs)
            sign = 1
            if irhs < 0:
                sign, irhs = -1, -irhs
                sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
            if sense == ">=" and irhs == 0:
                sign, sense = -sign, "<="
            self.coeffs.append(icoeffs)
            self.signs.append(sign)
            specs.append((sense, irhs))

        generate = n_vars >= _GENERATE_COLUMNS_PER_ROW * len(specs)
        self.cols: List[int] = [] if generate else list(range(n_vars))
        self.present = [not generate] * n_vars
        k = len(self.cols)
        n_slack = sum(1 for sense, _ in specs if sense != "==")
        n_art = sum(1 for sense, _ in specs if sense != "<=")
        self.total = k + n_slack + n_art
        self.art_start = k + n_slack
        self.rows: List[List[int]] = []
        self.basis: List[int] = []
        self.banned = [False] * self.total

        slack_at = k
        art_at = self.art_start
        for (sense, irhs), icoeffs, sign in zip(specs, self.coeffs, self.signs):
            row = [sign * icoeffs[j] for j in self.cols] \
                + [0] * (n_slack + n_art) + [irhs]
            if sense == "<=":
                row[slack_at] = 1
                self.basis.append(slack_at)
                slack_at += 1
            elif sense == ">=":
                row[slack_at] = -1  # surplus
                slack_at += 1
                row[art_at] = 1
                self.basis.append(art_at)
                art_at += 1
            else:  # "=="
                row[art_at] = 1
                self.basis.append(art_at)
                art_at += 1
            self.rows.append(row)
        # each row's identity column (its slack, or its artificial), the
        # first basis, as an offset past the structural columns
        self.ident = [b - k for b in self.basis]
        self.z: List[int] = [0] * (self.total + 1)
        self.scale = 1
        # the objective being maximized, for pricing: its ints over every
        # column (None for all zero), and the cost of an artificial column,
        # -1 in phase 1 and 0 before and after
        self.costs: Optional[Sequence[int]] = None
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
        # Bland: the smallest-index improvable column
        for j in range(self.total):
            if not self.banned[j] and self.z[j] < 0:
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

    def _priced_columns(self) -> Tuple[List[int], List[int]]:
        """The outside columns whose objective-row entry is negative, the
        most negative first and at most `_ENTER_PER_ROUND` of them, with
        those entries.

        The entry of column j is scale * (y . N_j - c_j), with y the row
        duals and N_j the column as the tableau holds it (its coefficients
        times the row's sign); the entry under row i's identity column is
        scale * (y_i - that column's cost)."""
        if len(self.cols) == self.n or (self.art_cost and not self.z[-1]):
            return [], []  # nothing outside, or a phase 1 already feasible
        z, scale, k = self.z, self.scale, len(self.cols)
        art_off = self.art_start - k
        acc = ([0] * self.n if self.costs is None
               else [-scale * c for c in self.costs])
        for coeffs, sign, off in zip(self.coeffs, self.signs, self.ident):
            w = z[k + off] + (scale * self.art_cost if off >= art_off else 0)
            if w:
                w *= sign
                acc = [a + w * c for a, c in zip(acc, coeffs)]
        present = self.present
        entering = heapq.nsmallest(
            _ENTER_PER_ROUND,
            (j for j, v in enumerate(acc) if v < 0 and not present[j]),
            key=acc.__getitem__)
        return entering, [acc[j] for j in entering]

    def _append(self, entering: List[int], entries: List[int]):
        """Bring the outside columns `entering` into the tableau, after its
        structural columns, with their objective-row `entries`.  Each row's
        new entries are its identity block dotted with the columns."""
        k, added = len(self.cols), len(entering)
        columns = [[sign * coeffs[j] for j in entering]
                   for coeffs, sign in zip(self.coeffs, self.signs)]
        for row in self.rows:
            new = [0] * added
            for off, column in zip(self.ident, columns):
                v = row[k + off]
                if v:
                    new = [a + v * c for a, c in zip(new, column)]
            row[k:k] = new
        self.z[k:k] = entries
        self.basis = [b + added if b >= k else b for b in self.basis]
        self.banned[k:k] = [False] * added
        self.art_start += added
        self.total += added
        self.cols.extend(entering)
        for j in entering:
            self.present[j] = True
        if not self.art_cost:
            # phase 2: a new column must not lift an artificial off zero
            self._drive_out_artificials()

    def _drive_out_artificials(self):
        """Pivot every artificial that is basic at value zero out on a column
        with a nonzero entry in its row.  A row with no such column is
        redundant over the tableau's columns: its artificial stays basic at
        zero and, once banned, inert."""
        for i, b in enumerate(self.basis):
            if b < self.art_start:
                continue
            row = self.rows[i]
            for j in range(self.art_start):
                if row[j] != 0 and not self.banned[j]:
                    if row[j] < 0:
                        self.rows[i] = row = [-v for v in row]
                    self._pivot(i, j)
                    break

    # -- the two phases --------------------------------------------------------

    def phase_one(self) -> bool:
        """Drive the artificial variables to zero; False when infeasible."""
        if self.art_start == self.total:
            return True
        coeffs = [0] * self.total
        for j in range(self.art_start, self.total):
            coeffs[j] = -1  # maximize -(sum of artificials)
        self.art_cost = -1
        self._rebuild_z(coeffs)
        status = self._optimize()
        if status == "unbounded":
            raise InternalSolverError("phase-1 objective cannot be unbounded")
        for i, b in enumerate(self.basis):
            if b >= self.art_start and self.rows[i][-1] != 0:
                return False
        self._drive_out_artificials()
        for j in range(self.art_start, self.total):
            self.banned[j] = True
        self.art_cost = 0
        return True

    def phase_two(self, objective: Sequence[Fraction], maximize: bool) -> str:
        sign = 1 if maximize else -1
        self.costs = _integer_row([sign * c for c in objective], 0)[0]
        self._rebuild_z([self.costs[j] for j in self.cols])
        return self._optimize()

    def value(self, objective: Sequence[Fraction]) -> Fraction:
        """objective . x at the current basic solution, read from the basic
        variables only."""
        total = Fraction(0)
        k = len(self.cols)
        for i, b in enumerate(self.basis):
            c = objective[self.cols[b]] if b < k else 0
            if c:
                row = self.rows[i]
                total += c * Fraction(row[-1], row[b])
        return total
