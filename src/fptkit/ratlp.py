"""Exact rational linear programming.

Solves  max c.x  subject to  A x <= b, x >= 0  with a two-phase primal
simplex over Fraction entries.  Bland's anti-cycling rule makes termination
unconditional; performance is secondary at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
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
    """Dictionary-form simplex tableau; columns are structural + slack
    (+ artificial during phase one)."""

    def __init__(self, lp: LinearProgram):
        n, m = lp.num_vars, lp.num_constraints
        self.n = n
        self.m = m
        self.num_structural = n + m
        art_rows = [i for i in range(m) if lp.rhs[i] < 0]
        self.num_cols = n + m + len(art_rows)
        self.rows: list[list[Fraction]] = []
        self.basis: list[int] = []
        art_col = n + m
        self.artificial_rows = art_rows
        for i in range(m):
            row = [ZERO] * (self.num_cols + 1)
            neg = lp.rhs[i] < 0
            sign = -1 if neg else 1
            for j in range(n):
                row[j] = sign * lp.constraint_matrix[i][j]
            row[n + i] = Fraction(sign)
            row[-1] = sign * lp.rhs[i]
            if neg:
                row[art_col] = ONE
                self.basis.append(art_col)
                art_col += 1
            else:
                self.basis.append(n + i)
            self.rows.append(row)
        self.zrow = [ZERO] * self.num_cols
        self.zval = ZERO
        # columns allowed to enter; artificial columns get disabled after phase 1
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

    def phase_one(self) -> bool:
        """Drive artificials to zero; returns False when infeasible."""
        if not self.artificial_rows:
            return True
        art_set = set(range(self.num_structural, self.num_cols))
        for j in range(self.num_cols):
            if j in art_set:
                continue
            self.zrow[j] = sum(
                self.rows[i][j] for i in range(self.m) if self.basis[i] in art_set
            )
        self.zval = -sum(
            self.rows[i][-1] for i in range(self.m) if self.basis[i] in art_set
        )
        status = self.run()
        assert status == OPTIMAL  # phase-1 objective is bounded above by 0
        if self.zval != 0:
            return False
        # Pivot lingering artificials out of the basis (degenerate pivots);
        # rows with no structural pivot are redundant and dropped.
        for i in range(self.m - 1, -1, -1):
            if self.basis[i] in art_set:
                for j in range(self.num_structural):
                    if self.rows[i][j] != 0:
                        self.pivot(i, j)
                        break
                else:
                    del self.rows[i]
                    del self.basis[i]
        self.m = len(self.rows)
        for j in art_set:
            self.allowed[j] = False
        return True

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
    t = _Tableau(lp)
    return t.maximize(lp.objective) if t.phase_one() else LpOutcome(status=INFEASIBLE)


def feasible(
    lp: LinearProgram,
    extra_equalities: Sequence[tuple[Sequence[Fraction], Fraction]] = (),
) -> LpOutcome:
    """Phase-one feasibility check, optionally with equality side constraints.

    Equalities are handled as paired inequalities so a single tableau code
    path serves everything.  Returns a feasible witness (status OPTIMAL,
    value 0) or INFEASIBLE.
    """
    rows = [list(r) for r in lp.constraint_matrix]
    rhs = list(lp.rhs)
    for row, b in extra_equalities:
        row = [Fraction(a) for a in row]
        if len(row) != lp.num_vars:
            raise ValueError(
                f"equality row width {len(row)} does not match {lp.num_vars} variables"
            )
        b = Fraction(b)
        rows.append(row)
        rhs.append(b)
        rows.append([-a for a in row])
        rhs.append(-b)
    probe = LinearProgram(
        objective=(ZERO,) * lp.num_vars,
        constraint_matrix=tuple(tuple(r) for r in rows),
        rhs=tuple(rhs),
    )
    return maximize(probe)


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
    out = face.maximize(lp.objective) if face.phase_one() else LpOutcome(status=INFEASIBLE)
    if out.status != OPTIMAL:
        raise ValueError(f"optimal_face requires an OPTIMAL LP, got {out.status}")
    face.allowed = [ok and d == 0 for ok, d in zip(face.allowed, face.zrow)]
    return out.value, face


def maximize_over_face(face: _Tableau, objective: Sequence[Fraction]) -> LpOutcome:
    """Exact max objective.x over a face from optimal_face, run from its
    current basis with no new phase one; UNBOUNDED when the face is."""
    return face.maximize(objective)


def optimum_is_unique(lp: LinearProgram) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Whether the optimal face of lp is a single point, and that point: each
    x_j is maximized and minimized over the face, and the face is a point
    iff every range collapses.  (A column of zero reduced cost may still
    only enter by a degenerate pivot that leaves x where it is.)"""
    _, face = optimal_face(lp)
    n = lp.num_vars
    point: list[Fraction] = []
    for j in range(n):
        unit = [ONE if i == j else ZERO for i in range(n)]
        hi = maximize_over_face(face, unit)
        lo = maximize_over_face(face, [-x for x in unit])
        if hi.status != OPTIMAL or lo.status != OPTIMAL or hi.value != -lo.value:
            # unbounded or not a single value along the optimal face
            return False, None
        point.append(hi.value)
    return True, tuple(point)
