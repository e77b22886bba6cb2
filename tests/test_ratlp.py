"""Exact simplex behaviour, checked against brute-force vertex enumeration."""

import random
from fractions import Fraction

import pytest

from fptkit import ratlp
from fptkit.ratlp import OPTIMAL, UNBOUNDED, LinearProgram

import oracles

F = Fraction


def lp(c, rows, b):
    return LinearProgram(tuple(c), tuple(tuple(r) for r in rows), tuple(b))


class TestMaximize:
    def test_two_box_constraints(self):
        out = ratlp.maximize(lp([1, 1], [[2, 0], [0, 3]], [1, 1]))
        assert out.status == OPTIMAL
        assert out.value == F(5, 6)
        assert out.witness == (F(1, 2), F(1, 3))

    def test_zero_objective(self):
        out = ratlp.maximize(lp([0], [[1]], [1]))
        assert out.status == OPTIMAL and out.value == 0
        assert out.witness[0] >= 0 and out.witness[0] <= 1

    def test_unbounded(self):
        assert ratlp.maximize(lp([1], [[-1]], [1])).status == UNBOUNDED

    # every program starts at x = 0, which b >= 0 keeps feasible, so a
    # negative rhs is refused whether or not the region it cuts out is empty

    def test_infeasible_via_negative_rhs(self):
        # 0*x <= -1 can never hold
        with pytest.raises(ValueError, match="rhs entry 0 is -1"):
            lp([1], [[0]], [-1])

    def test_negative_rhs_feasible(self):
        # x >= 2 encoded as -x <= -2: feasible, but x = 0 is not a vertex of it
        with pytest.raises(ValueError, match="rhs entry 0 is -2"):
            lp([-1], [[-1]], [-2])
        with pytest.raises(ValueError, match="rhs entry 1 is -2"):
            lp([-1], [[1], [-1]], [3, -2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lp([1, 1], [[1]], [1])
        with pytest.raises(ValueError):
            lp([1], [[1]], [1, 2])

    def test_no_variables(self):
        out = ratlp.maximize(lp([], [], []))
        assert out.status == OPTIMAL and out.value == 0 and out.witness == ()


def _random_lp(rng):
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    c = [rng.randint(0, 6) for _ in range(n)]
    rows = [[rng.randint(0, 6) for _ in range(n)] for _ in range(m)]
    b = [rng.randint(1, 6) for _ in range(m)]
    return c, rows, b


class TestOptimalFace:
    def test_against_vertex_oracle(self):
        # the optimal face is the hull of the optimal vertices plus its
        # recession cone; with A >= 0 that cone is spanned by the e_j whose
        # column and cost are both zero
        rng = random.Random(31)
        checked = 0
        while checked < 60:
            c, rows, b = _random_lp(rng)
            status, value, vertices = oracles.lp_vertex_oracle(c, rows, b)
            if status != OPTIMAL:
                continue
            checked += 1
            d = [rng.randint(-3, 3) for _ in c]
            optimum, face = ratlp.optimal_face(lp(c, rows, b))
            assert optimum == value
            recedes = [
                j
                for j in range(len(c))
                if c[j] == 0 and all(row[j] == 0 for row in rows)
            ]
            optimal = [x for x in vertices if sum(F(cj) * xj for cj, xj in zip(c, x)) == value]
            # the second question starts from the basis the first ended on
            for objective in (d, [-dj for dj in d]):
                out = ratlp.maximize_over_face(face, objective)
                if any(objective[j] > 0 for j in recedes):
                    assert out.status == UNBOUNDED
                    continue
                assert out.status == OPTIMAL
                assert out.value == max(
                    sum(F(dj) * xj for dj, xj in zip(objective, x)) for x in optimal
                )


class TestAgainstVertexOracle:
    def test_two_hundred_random_lps(self):
        rng = random.Random(20260810)
        for _ in range(200):
            c, rows, b = _random_lp(rng)
            status, value, vertices = oracles.lp_vertex_oracle(c, rows, b)
            out = ratlp.maximize(lp(c, rows, b))
            assert out.status == status
            if status == OPTIMAL:
                assert out.value == value
                # witness attains the value, is feasible, and is a vertex
                assert sum(F(cj) * xj for cj, xj in zip(c, out.witness)) == value
                assert all(x >= 0 for x in out.witness)
                for row, bi in zip(rows, b):
                    assert sum(F(a) * x for a, x in zip(row, out.witness)) <= bi
                assert tuple(out.witness) in vertices

