"""Convex geometry of monomial collections.

A collection of n nonzero monomials in m variables is held as its m x n
exponent matrix.  Two polyhedra drive everything downstream:

* the splitting polytope  P = {s >= 0 : E s <= 1}  inside [0,1]^n, whose
  maximal coordinate sum equals the threshold of the monomial ideal, and
* the Newton polyhedron  N = conv(columns) + R^m_{>=0},  whose boundary
  point (1/alpha)*(1,...,1) singles out a minimal face.

The threshold is computed twice on purpose, so the two routes check each
other: once by simplex over P, and once by vertex enumeration reading N, which
solves k x k tight-row systems of P in integers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import ratlp
from .errors import InvalidMonomialSetError
from .ratlp import LinearProgram

ZERO = Fraction(0)
ONE = Fraction(1)

# Most systems newton_threshold may solve; at about 45 us a system (8 variables,
# 12 monomials, one 2-CPU x86-64 VM) that is 9 s, so more is refused up front.
VERTEX_SYSTEMS_CAP = 2 * 10**5


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
        F = {s in P : |s| = alpha} of one splitting LP solve kept here.  With
        h_i = max s_i over F, every s in F has s <= h and |s| = alpha, so F is
        one point, h, iff |h| = alpha.

        The dual optima of  max |s|  subject to  E s <= 1, s >= 0  are the
        y >= 0 with E^T y >= 1 and |y| = alpha, i.e. y.a_i >= 1 = y.v for
        v = (1/alpha)*(1,...,1): exactly the supporting hyperplanes of N at
        v.  The minimal face is N cut by such a hyperplane y* from the
        relative interior of the dual optima, and by strict complementarity
        (Goldman-Tucker) some maximal point s* pairs with y*: s*_i > 0 iff
        y*.a_i = 1, and (E s*)_k < 1 iff y*_k = 0.  So

        * a_i lies on the minimal face iff h_i > 0;
        * e_k lies in the face's recession cone (y*_k = 0) iff row k has
          slack at some maximal point; the face is bounded -- diagonal
          position -- iff each (E s)_k <= 1 is 1 on F, that is, iff their
          sum, sum_i deg(a_i) s_i, has min m over F.
        """
        alpha, face = ratlp.optimal_face(splitting_polytope(self))
        n = self.num_monomials
        units = [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]
        highest = [ratlp.maximize_over_face(face, u).value for u in units]
        unique = sum(highest) == alpha
        members = tuple(j for j in range(n) if highest[j] > 0)
        least = -ratlp.maximize_over_face(face, [-sum(a) for a in self.monomials]).value
        diagonal = least == self.num_vars
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

    When exact and the last two columns u != v differ, they are solved in
    closed form: k*u + (remaining - k)*v = residual fixes k from any row i
    with u_i != v_i, and the one point is kept iff k is an integer in
    [0, remaining] and every row checks.  So each choice of the first n - 2
    entries costs one node instead of a loop over k with a leaf per value.
    """
    n = len(columns)
    split = None  # a row where the last two columns differ; None runs the loop
    if exact and n >= 2:
        split = next((i for i, (a, b) in enumerate(zip(columns[-2], columns[-1])) if a != b), None)

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
        if j == n - 2 and split is not None:
            u, v = columns[j], columns[j + 1]
            k, rest = divmod(residual[split] - remaining * v[split], u[split] - v[split])
            if not rest and 0 <= k <= remaining and all(
                k * a + (remaining - k) * b == r for a, b, r in zip(u, v, residual)
            ):
                yield prefix + (k, remaining - k)
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

    N lies in the orthant, so a negative coordinate rules v out.  Otherwise
    v is in N iff  s >= 0, |s| = 1, E s <= v  is feasible, because the orthant
    part can only raise coordinates; and, as v >= 0, an s with E s <= v and
    |s| >= 1 rescales to |s| = 1 and still has E s <= v.  So v is in N iff
    max |s| over {s >= 0 : E s <= v} is at least 1; for v = (1/lam)*(1,...,1)
    that is the threshold's alpha >= lam.
    """
    v = tuple(Fraction(a) for a in v)
    if len(v) != ms.num_vars:
        raise ValueError(f"point has {len(v)} coordinates, expected {ms.num_vars}")
    if any(a < 0 for a in v):
        return False
    lp = LinearProgram((ONE,) * ms.num_monomials, ms.exponent_matrix, v)
    return ratlp.maximize(lp).value >= 1


def _solve_tight(a: Sequence[list[int]]) -> tuple[list[int], int] | None:
    """Solve a x = (1,...,1) for a square integer matrix by fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 1968): (y, d) with x = y/d
    and d = |det a| > 0, or None when a is singular.  Every entry stays a
    minor of [a | 1], so each division is exact."""
    rows, d = [row + [1] for row in a], 1
    for c in range(len(rows)):
        piv = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        top = rows[c]
        rows = [r if r is top else [(top[c] * x - r[c] * t) // d for x, t in zip(r, top)]
                for r in rows]
        d = top[c]
    return ([r[-1] for r in rows], d) if d > 0 else ([-r[-1] for r in rows], -d)


def newton_threshold(ms: MonomialSet) -> Fraction:
    """Threshold read off the Newton polyhedron: the largest lam > 0 with
    (1/lam)*(1,...,1) in N.

    Substituting t = lam*s turns that into maximizing |t| over P, solved here
    by exact vertex enumeration -- a code path deliberately disjoint from the
    simplex in splitting_threshold.  A vertex s != 0 of P has k <= min(m, n)
    columns S with s_S > 0 and k rows R tight at s with E[R,S] nonsingular, so
    it solves E[R,S] x = 1; a solution is a vertex iff x >= 0 and E[:,S] x <= 1.
    More than VERTEX_SYSTEMS_CAP of these C(n+m, n) - 1 systems is refused.
    """
    e = ms.exponent_matrix
    n, m = ms.num_monomials, ms.num_vars
    systems = math.comb(n + m, n) - 1
    if systems > VERTEX_SYSTEMS_CAP:
        raise ValueError(f"vertex enumeration would solve {systems} systems, over the cap "
                         f"of {VERTEX_SYSTEMS_CAP}; alpha gives the same threshold by simplex")
    best, best_d = 0, 1  # s = 0 is always a vertex of P
    for k in range(1, min(m, n) + 1):
        for cols in itertools.combinations(range(n), k):
            sub = [[row[j] for j in cols] for row in e]
            for y, d in filter(None, map(_solve_tight, itertools.combinations(sub, k))):
                if min(y) >= 0 and sum(y) * best_d > best * d and all(
                    sum(a * t for a, t in zip(row, y)) <= d for row in sub
                ):
                    best, best_d = sum(y), d
    return Fraction(best, best_d)


def newton_analysis(ms: MonomialSet) -> NewtonAnalysis:
    """Minimal face of N at v = (1/alpha)*(1,...,1) and whether it is bounded
    (diagonal position); see MonomialSet.geometry."""
    return ms.geometry[1]
