"""Exact rational linear programming.

Solves  max c.x  subject to  A x <= b, x >= 0  with b >= 0, the one shape
fptkit poses (the splitting polytope {s >= 0 : E s <= 1} contains 0).  So
x = 0 is a vertex, the all-slack basis is feasible, and the primal simplex
starts there over Fraction entries with no phase one.  Bland's anti-cycling
rule makes termination unconditional; performance is secondary at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

OPTIMAL = "OPTIMAL"
UNBOUNDED = "UNBOUNDED"

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LinearProgram:
    objective: tuple[Fraction, ...]
    constraint_matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]

    def __post_init__(self):
        obj = tuple(Fraction(c) for c in self.objective)
        rows = tuple(tuple(Fraction(a) for a in row) for row in self.constraint_matrix)
        rhs = tuple(Fraction(b) for b in self.rhs)
        if len(rows) != len(rhs):
            raise ValueError(
                f"matrix has {len(rows)} rows but rhs has {len(rhs)} entries"
            )
        for row in rows:
            if len(row) != len(obj):
                raise ValueError(
                    f"row width {len(row)} does not match objective length {len(obj)}"
                )
        for i, b in enumerate(rhs):
            if b < 0:
                raise ValueError(f"rhs entry {i} is {b}; it must be >= 0 so that x = 0 is feasible")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraint_matrix", rows)
        object.__setattr__(self, "rhs", rhs)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_constraints(self) -> int:
        return len(self.rhs)


@dataclass(frozen=True)
class LpOutcome:
    status: str
    value: Fraction | None = None
    witness: tuple[Fraction, ...] | None = None


class _Tableau:
    """Dictionary-form simplex tableau [A | I | b]; columns are structural +
    slack, and the slacks are the starting basis (x = 0)."""

    def __init__(self, lp: LinearProgram):
        n, m = lp.num_vars, lp.num_constraints
        self.n = n
        self.m = m
        self.num_cols = n + m
        self.rows: list[list[Fraction]] = []
        for i in range(m):
            row = list(lp.constraint_matrix[i]) + [ZERO] * m + [lp.rhs[i]]
            row[n + i] = ONE
            self.rows.append(row)
        self.basis: list[int] = list(range(n, n + m))
        self.zrow = [ZERO] * self.num_cols
        self.zval = ZERO
        # columns allowed to enter; optimal_face bars those off the face
        self.allowed = [True] * self.num_cols

    def pivot(self, i: int, j: int) -> None:
        row = self.rows[i]
        d = row[j]
        if d != 1:
            self.rows[i] = row = [x / d for x in row]
        for k, other in enumerate(self.rows):
            if k != i and other[j] != 0:
                f = other[j]
                self.rows[k] = [a - f * b for a, b in zip(other, row)]
        coef = self.zrow[j]
        if coef != 0:
            self.zval += coef * row[-1]
            self.zrow = [z - coef * b for z, b in zip(self.zrow, row)]
        self.basis[i] = j

    def _entering(self) -> int | None:
        # Bland: smallest column index with positive reduced cost.
        for j in range(self.num_cols):
            if self.allowed[j] and self.zrow[j] > 0:
                return j
        return None

    def _leaving(self, j: int) -> int | None:
        best_ratio: Fraction | None = None
        best_row: int | None = None
        for i, row in enumerate(self.rows):
            if row[j] > 0:
                ratio = row[-1] / row[j]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and self.basis[i] < self.basis[best_row])
                ):
                    best_ratio = ratio
                    best_row = i
        return best_row

    def run(self) -> str:
        while True:
            j = self._entering()
            if j is None:
                return OPTIMAL
            i = self._leaving(j)
            if i is None:
                return UNBOUNDED
            self.pivot(i, j)

    def maximize(self, objective: Sequence[Fraction]) -> LpOutcome:
        """max objective.x, run from the current (feasible) basis."""
        c = list(objective) + [ZERO] * (self.num_cols - self.n)
        zrow = list(c)
        zval = ZERO
        for i in range(self.m):
            ck = c[self.basis[i]]
            if ck != 0:
                row = self.rows[i]
                zval += ck * row[-1]
                zrow = [z - ck * a for z, a in zip(zrow, row)]
        self.zrow = zrow
        self.zval = zval
        if self.run() == UNBOUNDED:
            return LpOutcome(status=UNBOUNDED)
        return LpOutcome(status=OPTIMAL, value=self.zval, witness=self.solution())

    def solution(self) -> tuple[Fraction, ...]:
        x = [ZERO] * self.num_cols
        for i in range(self.m):
            x[self.basis[i]] = self.rows[i][-1]
        return tuple(x[: self.n])


def maximize(lp: LinearProgram) -> LpOutcome:
    """Exact optimum of max c.x over {x >= 0 : Ax <= b}.

    The witness is always a basic feasible solution (vertex).
    """
    return _Tableau(lp).maximize(lp.objective)


def optimal_face(lp: LinearProgram) -> tuple[Fraction, _Tableau]:
    """lp's optimal value and optimal face {x >= 0 : Ax <= b, c.x = value},
    kept as lp's optimal tableau (ValueError unless lp is OPTIMAL).  Each
    maximize_over_face moves it to another basis: do not share it.

    At an optimal tableau  c.x = value + sum_j d_j x_j  for every x that
    satisfies the tableau's equations, and every reduced cost d_j <= 0.  So
    a feasible x is optimal iff x_j = 0 wherever d_j < 0: with those columns
    barred from entering, the tableau's feasible set is the optimal face.
    """
    face = _Tableau(lp)
    out = face.maximize(lp.objective)
    if out.status != OPTIMAL:
        raise ValueError(f"optimal_face requires an OPTIMAL LP, got {out.status}")
    face.allowed = [d == 0 for d in face.zrow]
    return out.value, face


def maximize_over_face(face: _Tableau, objective: Sequence[Fraction]) -> LpOutcome:
    """Exact max objective.x over a face from optimal_face, run from its
    current basis, not from x = 0; UNBOUNDED when the face is."""
    return face.maximize(objective)
