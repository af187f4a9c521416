"""Exact rational linear programming via an integer-pivoting simplex.

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

`solve_lp` is the one entry: it gives the minimum and the maximum of one
objective over one tableau.  Phase 1 runs once, and the maximum starts from
the minimum's optimal basis, which is still feasible, so only the phase-2
pivots between the two optima are repeated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InternalSolverError

Row = Tuple[Sequence[Fraction], str, Fraction]

_GROWTH_BITS = 64  # gcd-reduce a row once entries exceed this many bits


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


def _scaled_ints(values: Sequence[Fraction]) -> List[int]:
    """The values times the lcm of their denominators (ints or Fractions)."""
    denom = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (denom // v.denominator) for v in values]


class _Tableau:
    def __init__(self, n_vars: int, rows: Sequence[Row]):
        self.n = n_vars
        specs = []  # (int coeffs, sense, int rhs) with rhs >= 0
        for coeffs, sense, rhs in rows:
            coeffs = list(coeffs)
            if len(coeffs) != n_vars:
                raise ValueError("row length does not match variable count")
            ints = _scaled_ints(coeffs + [rhs])
            icoeffs, irhs = ints[:-1], ints[-1]
            if irhs < 0:
                icoeffs = [-c for c in icoeffs]
                irhs = -irhs
                sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
            if sense == ">=" and irhs == 0:
                icoeffs = [-c for c in icoeffs]
                sense = "<="
            specs.append((icoeffs, sense, irhs))

        n_slack = sum(1 for _, sense, _ in specs if sense != "==")
        n_art = sum(1 for _, sense, _ in specs if sense != "<=")
        self.total = self.n + n_slack + n_art
        self.art_start = self.n + n_slack
        self.rows: List[List[int]] = []
        self.basis: List[int] = []
        self.banned = [False] * self.total

        slack_at = self.n
        art_at = self.art_start
        for icoeffs, sense, irhs in specs:
            row = icoeffs + [0] * (n_slack + n_art) + [irhs]
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
        self.z: List[int] = [0] * (self.total + 1)

    # -- pivoting machinery --------------------------------------------------

    @staticmethod
    def _shrink(row: List[int]) -> List[int]:
        """The row divided by the gcd of its entries once they grow large."""
        if max(max(row), -min(row)).bit_length() > _GROWTH_BITS:
            g = math.gcd(*row)
            if g > 1:
                return [v // g for v in row]
        return row

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
            self.z = self._shrink([a * p - zf * b for a, b in zip(self.z, prow)])
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
        while True:
            col = self._entering()
            if col is None:
                return "optimal"
            r = self._leaving(col)
            if r is None:
                return "unbounded"
            self._pivot(r, col)

    def _rebuild_z(self, coeffs: List[int]):
        """Set the objective row to -coeffs and reduce it against the basis."""
        z = [-c for c in coeffs] + [0] * (self.total - len(coeffs)) + [0]
        for i, b in enumerate(self.basis):
            zb = z[b]
            if zb:
                row = self.rows[i]
                p = row[b]
                z = [a * p - zb * c for a, c in zip(z, row)]
        self.z = self._shrink(z)

    # -- the two phases --------------------------------------------------------

    def phase_one(self) -> bool:
        """Drive the artificial variables to zero; False when infeasible."""
        if self.art_start == self.total:
            return True
        coeffs = [0] * self.total
        for j in range(self.art_start, self.total):
            coeffs[j] = -1  # maximize -(sum of artificials)
        self._rebuild_z(coeffs)
        status = self._optimize()
        if status == "unbounded":
            raise InternalSolverError("phase-1 objective cannot be unbounded")
        for i, b in enumerate(self.basis):
            if b >= self.art_start and self.rows[i][-1] != 0:
                return False
        # pivot out artificials that remain basic at value zero
        for i, b in enumerate(self.basis):
            if b < self.art_start:
                continue
            row = self.rows[i]
            for j in range(self.art_start):
                if row[j] != 0 and not self.banned[j]:
                    if row[j] < 0:
                        for k in range(self.total + 1):
                            row[k] = -row[k]
                    self._pivot(i, j)
                    break
            # a row with no usable column is redundant; its artificial stays
            # basic at zero and the banned columns keep it inert
        for j in range(self.art_start, self.total):
            self.banned[j] = True
        return True

    def phase_two(self, objective: Sequence[Fraction], maximize: bool) -> str:
        sign = 1 if maximize else -1
        scaled = _scaled_ints([sign * c for c in objective])
        self._rebuild_z(scaled)
        return self._optimize()

    def value(self, objective: Sequence[Fraction]) -> Fraction:
        """objective . x at the current basic solution, read from the basic
        variables only."""
        total = Fraction(0)
        for i, b in enumerate(self.basis):
            if b < self.n and objective[b]:
                row = self.rows[i]
                total += objective[b] * Fraction(row[-1], row[b])
        return total
