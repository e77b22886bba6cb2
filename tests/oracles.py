"""Independent oracles for the test suite.

Everything here is deliberately written from scratch against the raw
definitions (long division, factorials, full polynomial expansion, basic
enumeration) so that agreement with the library is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# base-p digits by long division, rewritten to the non-terminating form


def digits_long_division(alpha: Fraction, p: int, count: int) -> list[int]:
    """First `count` digits of alpha in base p, non-terminating convention."""
    alpha = Fraction(alpha)
    if alpha == 0:
        return [0] * count
    if alpha == 1:
        return [p - 1] * count
    a, b = alpha.numerator, alpha.denominator
    digits = []
    r = a
    for _ in range(count):
        r *= p
        digits.append(r // b)
        r %= b
        if r == 0:
            # terminating expansion: borrow one from the last digit and pad
            digits[-1] -= 1
            while len(digits) < count:
                digits.append(p - 1)
            break
    return digits


# ---------------------------------------------------------------------------
# carry verdicts per residue class of p, in integers


def carry_class_oracle(point, p: int):
    """(L, bound, p_min): the carry verdict for the point eta at the prime p,
    read off the class r = p mod d, d the lcm of eta's denominators.

    Write eta_i = a_i/d.  After k digits of the non-terminating expansion
    the remainder of a_i/d is x_k/d, where x_0 = a_i and x_k is the one
    value in [1, d] with x_k = r*x_(k-1) mod d; digit k is
    (x_(k-1)*p - x_k)/d.  With S_k the sum of the x_(i,k), position k
    carries iff (S_(k-1) - d)*p > S_k - d, and for large p the sign of
    S_(k-1) - d decides that.  The class verdict holds for every p >= p_min
    in the class: p_min > d, so p and d are coprime and the states repeat
    after ord_d(r) positions.  L is the number of positions before the
    first carry (None if there is none), and the bound is
    sum_i (a_i - x_(i,L)*p^-L)/d + p^-L, or sum(eta) when L is None.
    """
    d = math.lcm(*(Fraction(x).denominator for x in point))
    nums = [int(Fraction(x) * d) for x in point if x]  # 0 has no digits
    r = p % d
    p_min = d + 1
    if math.gcd(r, d) != 1:  # p divides d: below p_min, no class verdict
        return None, None, p_min
    order = next(t for t in range(1, d + 1) if pow(r, t, d) == 1 % d)
    xs = nums
    for L in range(order):  # position L + 1 carries, or not
        after = [(r * x - 1) % d + 1 for x in xs]
        s_prev, s_k = sum(xs), sum(after)
        if s_prev > d:
            carries = True
            p_min = max(p_min, (s_k - d) // (s_prev - d) + 1)
        elif s_prev < d:
            carries = False
            p_min = max(p_min, -((s_k - d) // (d - s_prev)))
        else:
            carries = s_k < d
        if carries:
            q = p**L
            return L, Fraction(sum(a * q - x for a, x in zip(nums, xs)) + d, d * q), p_min
        xs = after
    return None, Fraction(sum(nums), d), p_min


# ---------------------------------------------------------------------------
# multinomials by factorials


def multinomial_factorial(parts) -> int:
    total = math.factorial(sum(parts))
    for k in parts:
        total //= math.factorial(k)
    return total


# ---------------------------------------------------------------------------
# a fresh Gaussian solver and brute-force LP vertex enumeration


def gauss_solve(matrix, rhs):
    """Solve a square rational system; None when singular."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if aug[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        d = aug[c][c]
        aug[c] = [x / d for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [aug[i][n] for i in range(n)]


def lp_vertex_oracle(c, a_matrix, b):
    """Brute-force max c.x over {x >= 0, Ax <= b} for matrices with
    nonnegative entries (the random test family).

    Returns ("UNBOUNDED", None, None) or ("OPTIMAL", value, vertices).
    With A >= 0 the recession cone is spanned by coordinate directions whose
    column is entirely zero, so unboundedness is a zero-column check.
    """
    n = len(c)
    m = len(b)
    assert all(entry >= 0 for row in a_matrix for entry in row)
    for j in range(n):
        if c[j] > 0 and all(a_matrix[i][j] == 0 for i in range(m)):
            return "UNBOUNDED", None, None
    pool = []
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] = Fraction(1)
        pool.append((row, Fraction(0)))
    for i in range(m):
        pool.append(([Fraction(x) for x in a_matrix[i]], Fraction(b[i])))
    vertices = set()
    for combo in itertools.combinations(range(len(pool)), n):
        matrix = [pool[k][0] for k in combo]
        rhs = [pool[k][1] for k in combo]
        x = gauss_solve(matrix, rhs)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if any(
            sum(a_matrix[i][j] * x[j] for j in range(n)) > b[i] for i in range(m)
        ):
            continue
        vertices.add(tuple(x))
    assert vertices, "x = 0 is always feasible for b >= 0"
    value = max(sum(Fraction(cj) * xj for cj, xj in zip(c, v)) for v in vertices)
    return "OPTIMAL", value, vertices


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility (for Newton polyhedron membership)


def fm_eliminate(system, var: int):
    """One Fourier-Motzkin step: the constraints (row, rhs), meaning
    row . s <= rhs, that remain once variable var is projected out."""
    uppers, lowers, rest = [], [], []
    for row, r in system:
        a = row[var]
        if a > 0:
            uppers.append(([x / a for x in row], r / a))
        elif a < 0:
            lowers.append(([x / -a for x in row], r / -a))
        else:
            rest.append((row, r))
    for urow, ur in uppers:
        for lrow, lr in lowers:
            row = [u + l for u, l in zip(urow, lrow)]
            row[var] = Fraction(0)
            rest.append((row, ur + lr))
    return rest


def fm_feasible(constraints, n: int) -> bool:
    """Feasibility of {s in R^n : coeffs . s <= rhs for all constraints}."""
    system = [([Fraction(x) for x in row], Fraction(r)) for row, r in constraints]
    for var in range(n - 1, -1, -1):
        system = fm_eliminate(system, var)
    return all(r >= 0 for _, r in system)


def _newton_constraints(monomials, v, direction):
    """v + eps*direction in conv(monomials) + R^m_{>=0}, as constraints on
    (s, eps): s >= 0, |s| = 1 and E s - eps*direction <= v."""
    n = len(monomials)
    cons = []
    for j in range(n):
        row = [Fraction(0)] * (n + 1)
        row[j] = Fraction(-1)
        cons.append((row, Fraction(0)))  # s_j >= 0
    ones = [Fraction(1)] * n + [Fraction(0)]
    cons.append((ones, Fraction(1)))
    cons.append(([-x for x in ones], Fraction(-1)))  # sum = 1
    for i in range(len(v)):
        row = [Fraction(mon[i]) for mon in monomials] + [-Fraction(direction[i])]
        cons.append((row, Fraction(v[i])))
    return cons


def newton_member_oracle(monomials, v) -> bool:
    """v in conv(monomials) + R^m_{>=0}, by eliminating the weights."""
    cons = _newton_constraints(monomials, v, [0] * len(v))
    return fm_feasible(cons, len(monomials) + 1)


def _moves_into_newton(monomials, v, direction) -> bool:
    """Whether v + eps*direction lies in N for some eps > 0: eliminate the
    weights s, keeping eps, then read the interval of eps left over."""
    n = len(monomials)
    system = _newton_constraints(monomials, v, direction)
    for var in range(n - 1, -1, -1):
        system = fm_eliminate(system, var)
    lo, hi = None, None  # eps >= lo, eps <= hi
    for row, r in system:
        a = row[n]
        if a > 0:
            hi = r / a if hi is None else min(hi, r / a)
        elif a < 0:
            lo = r / a if lo is None else max(lo, r / a)
        elif r < 0:
            return False
    if hi is None:
        return True
    return hi > 0 and (lo is None or lo <= hi)


def newton_face_oracle(monomials, num_vars):
    """(threshold, minimal-face members, diagonal position) at
    v = (1/alpha)*(1,...,1), from the Newton-polyhedron definitions:

    * alpha is the largest coordinate sum over {s >= 0 : E s <= 1}, by
      brute-force vertex enumeration;
    * a_i is a member iff v + eps*(v - a_i) lies in N for some eps > 0
      (v is interior to a segment of N ending at a_i);
    * diagonal position iff v - eps*e_k lies outside N for every k and every
      eps > 0 (the minimal face has no coordinate recession direction).
    """
    rows = [[mon[i] for mon in monomials] for i in range(num_vars)]
    _, alpha, _ = lp_vertex_oracle([1] * len(monomials), rows, [1] * num_vars)
    v = [1 / alpha] * num_vars
    members = tuple(
        i
        for i, a in enumerate(monomials)
        if _moves_into_newton(monomials, v, [vk - ak for vk, ak in zip(v, a)])
    )
    diagonal = not any(
        _moves_into_newton(monomials, v, [-1 if i == k else 0 for i in range(num_vars)])
        for k in range(num_vars)
    )
    return alpha, members, diagonal


# ---------------------------------------------------------------------------
# full polynomial expansion over F_p (never reduced, never pruned)


def poly_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            out[key] = (out.get(key, 0) + c1 * c2) % p
    return {k: c for k, c in out.items() if c}


def poly_pow(f: dict, a: int, p: int, num_vars: int) -> dict:
    out = {(0,) * num_vars: 1}
    for _ in range(a):
        out = poly_mul(out, f, p)
    return out


def nu_expansion_oracle(f: dict, p: int, e_levels, num_vars: int) -> dict:
    """nu at each requested level via full (unpruned) expansion of f^a.

    Walks f, f^2, f^3, ... keeping every term, and records for each level
    the last exponent with a surviving monomial (all coordinates < p^e).
    Survival at a fixed level is monotone in the exponent, so a level is
    dropped the first time it dies and the walk stops when none are left.
    """
    levels = sorted(e_levels)
    qs = {e: p**e for e in levels}
    best = {e: 0 for e in levels}
    alive = set(levels)
    cur = {(0,) * num_vars: 1}
    for a in range(1, qs[levels[-1]]):
        if not alive:
            break
        cur = poly_mul(cur, f, p)
        for e in sorted(alive):
            q = qs[e]
            if a > q - 1:
                alive.discard(e)
                continue
            if any(all(x < q for x in key) for key in cur):
                best[e] = a
            else:
                alive.discard(e)
    return best
