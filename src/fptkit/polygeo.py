"""Convex geometry of monomial collections.

A collection of n nonzero monomials in m variables is held as its m x n
exponent matrix.  Two polyhedra drive everything downstream:

* the splitting polytope  P = {s >= 0 : E s <= 1}  inside [0,1]^n, whose
  maximal coordinate sum equals the threshold of the monomial ideal, and
* the Newton polyhedron  N = conv(columns) + R^m_{>=0},  whose boundary
  point (1/alpha)*(1,...,1) singles out a minimal face.

The threshold is computed twice on purpose: once by simplex over P and once
by vertex enumeration reading N, so the two routes check each other.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import ratlp
from .errors import InvalidMonomialSetError
from .ratlp import LinearProgram, OPTIMAL

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class MonomialSet:
    """n distinct nonzero exponent vectors in m variables."""

    num_vars: int
    monomials: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise InvalidMonomialSetError(f"need at least one variable, got {self.num_vars}")
        mons = tuple(tuple(int(a) for a in v) for v in self.monomials)
        if not mons:
            raise InvalidMonomialSetError("monomial set is empty")
        for v in mons:
            if len(v) != self.num_vars:
                raise InvalidMonomialSetError(
                    f"exponent vector {v} does not have {self.num_vars} entries"
                )
            if any(a < 0 for a in v):
                raise InvalidMonomialSetError(f"negative exponent in {v}")
            if all(a == 0 for a in v):
                raise InvalidMonomialSetError("constant monomial (zero exponent vector)")
        if len(set(mons)) != len(mons):
            raise InvalidMonomialSetError("duplicate monomials are rejected, not merged")
        object.__setattr__(self, "monomials", mons)

    @property
    def num_monomials(self) -> int:
        return len(self.monomials)

    @property
    def exponent_matrix(self) -> tuple[tuple[int, ...], ...]:
        """m x n matrix whose columns are the exponent vectors."""
        return tuple(
            tuple(v[i] for v in self.monomials) for i in range(self.num_vars)
        )

    @functools.cached_property
    def geometry(self) -> tuple[MaximalPointResult, NewtonAnalysis]:
        """Maximal points and minimal face, read off the optimal face
        F = {s in P : |s| = alpha} of one splitting LP solve kept here.  F
        lies in [0,1]^n, so it is one point iff max s_i = min s_i on F, all i.

        The dual optima of  max |s|  subject to  E s <= 1, s >= 0  are the
        y >= 0 with E^T y >= 1 and |y| = alpha, i.e. y.a_i >= 1 = y.v for
        v = (1/alpha)*(1,...,1): exactly the supporting hyperplanes of N at
        v.  The minimal face is N cut by such a hyperplane y* from the
        relative interior of the dual optima, and by strict complementarity
        (Goldman-Tucker) some maximal point s* pairs with y*: s*_i > 0 iff
        y*.a_i = 1, and (E s*)_k < 1 iff y*_k = 0.  So

        * a_i lies on the minimal face iff s_i > 0 at some maximal point,
          i.e. max s_i over F is positive;
        * e_k lies in the face's recession cone (y*_k = 0) iff row k has
          slack at some maximal point; the face is bounded -- diagonal
          position -- iff min (E s)_k over F is 1 for every k.
        """
        alpha, face = ratlp.optimal_face(splitting_polytope(self))
        n = self.num_monomials
        units = [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]
        highest = [ratlp.maximize_over_face(face, u).value for u in units]
        unique = all(
            ratlp.maximize_over_face(face, [-x for x in u]).value == -hi
            for u, hi in zip(units, highest)
        )
        members = tuple(j for j in range(n) if highest[j] > 0)
        diagonal = all(
            ratlp.maximize_over_face(face, [-a for a in row]).value == -1
            for row in self.exponent_matrix
        )
        if not members and diagonal:
            raise AssertionError(
                "internal inconsistency: empty minimal face cannot be bounded"
            )
        return (
            MaximalPointResult(alpha, unique, tuple(highest) if unique else None),
            NewtonAnalysis(alpha, members, len(members), diagonal),
        )


@dataclass(frozen=True)
class MaximalPointResult:
    threshold: Fraction
    unique: bool
    point: tuple[Fraction, ...] | None


@dataclass(frozen=True)
class NewtonAnalysis:
    threshold: Fraction
    lambda_members: tuple[int, ...]  # indices into ms.monomials
    r: int
    diagonal_position: bool


def splitting_polytope(ms: MonomialSet) -> LinearProgram:
    """H-representation of P = {s >= 0 : E s <= 1} with the coordinate-sum
    objective attached (the objective every caller here maximizes)."""
    return LinearProgram(
        objective=(ONE,) * ms.num_monomials,
        constraint_matrix=ms.exponent_matrix,
        rhs=(ONE,) * ms.num_vars,
    )


def splitting_threshold(ms: MonomialSet) -> Fraction:
    """Maximal coordinate sum over the splitting polytope (simplex route)."""
    return ms.geometry[0].threshold


def lattice_points(
    columns: Sequence[Sequence[int]],
    bound: Sequence[int],
    total: int,
    exact: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Every k >= 0 with sum(k) = total and E k <= bound, or E k = bound when
    exact, where E has the given columns and bound >= 0.

    Points come in descending lexicographic order: depth-first over the
    columns, each entry counting down from its per-column bound (the residual
    bound and the remaining total cap it).  A branch is cut once the columns
    still open cannot make up the remaining total even at those bounds.
    """
    n = len(columns)

    def col_bound(col: Sequence[int], residual: Sequence[int], remaining: int) -> int:
        ub = remaining
        for a, r in zip(col, residual):
            if a > 0 and r // a < ub:
                ub = r // a
        return ub

    def rec(j: int, residual: list[int], remaining: int, prefix: tuple[int, ...]):
        if j == n:
            if remaining == 0 and not (exact and any(residual)):
                yield prefix
            return
        col = columns[j]
        later = sum(col_bound(c, residual, remaining) for c in columns[j + 1 :])
        lowest = max(remaining - later, 0)
        for k in range(col_bound(col, residual, remaining), lowest - 1, -1):
            yield from rec(
                j + 1,
                [r - k * a for a, r in zip(col, residual)],
                remaining - k,
                prefix + (k,),
            )

    yield from rec(0, list(bound), total, ())


def maximal_points(ms: MonomialSet) -> MaximalPointResult:
    """Threshold plus uniqueness of the coordinate-sum maximizer over P."""
    return ms.geometry[0]


def newton_contains(ms: MonomialSet, v: Sequence[Fraction]) -> bool:
    """Membership of v in N = conv(monomials) + R^m_{>=0}.

    Feasibility of  s >= 0, |s| = 1, E s <= v  is exactly membership,
    because the orthant part can only raise coordinates.
    """
    v = [Fraction(a) for a in v]
    if len(v) != ms.num_vars:
        raise ValueError(f"point has {len(v)} coordinates, expected {ms.num_vars}")
    n = ms.num_monomials
    lp = LinearProgram(
        objective=(ZERO,) * n, constraint_matrix=ms.exponent_matrix, rhs=tuple(v)
    )
    out = ratlp.feasible(lp, extra_equalities=[((ONE,) * n, ONE)])
    return out.status == OPTIMAL


def _solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over Fraction; None when the system is singular."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def newton_threshold(ms: MonomialSet) -> Fraction:
    """Threshold read off the Newton polyhedron: the largest lam > 0 with
    (1/lam)*(1,...,1) in N.

    Substituting t = lam*s turns that into maximizing |t| over P, which is
    solved here by exact enumeration of basic feasible points -- a code path
    deliberately disjoint from the simplex in splitting_threshold.
    """
    e = ms.exponent_matrix
    n = ms.num_monomials
    m = ms.num_vars
    # constraint pool: s_j = 0 (j < n) and row_i . s = 1 (i >= n)
    best = ZERO  # s = 0 is always a vertex of P
    for active in itertools.combinations(range(n + m), n):
        matrix = []
        rhs = []
        for c in active:
            if c < n:
                matrix.append([ONE if j == c else ZERO for j in range(n)])
                rhs.append(ZERO)
            else:
                matrix.append([Fraction(a) for a in e[c - n]])
                rhs.append(ONE)
        point = _solve_square(matrix, rhs)
        if point is None:
            continue
        if any(x < 0 for x in point):
            continue
        if any(sum(row[j] * point[j] for j in range(n)) > 1 for row in e):
            continue
        total = sum(point)
        if total > best:
            best = total
    return best


def newton_analysis(ms: MonomialSet) -> NewtonAnalysis:
    """Minimal face of N at v = (1/alpha)*(1,...,1) and whether it is bounded
    (diagonal position); see MonomialSet.geometry."""
    return ms.geometry[1]
