"""Splitting polytope, Newton polyhedron, and minimal-face analysis."""

import itertools
import random
from fractions import Fraction

import pytest

from fptkit import polygeo, ratlp
from fptkit.errors import InvalidMonomialSetError
from fptkit.polygeo import MonomialSet

import oracles

F = Fraction


def ms(*vectors, num_vars=None):
    m = num_vars if num_vars is not None else len(vectors[0])
    return MonomialSet(m, tuple(tuple(v) for v in vectors))


CUSP = ms((2, 0), (0, 3))


def random_monomial_set(rng, max_vars=4, max_monomials=4, max_exp=6):
    m = rng.randint(1, max_vars)
    n = rng.randint(1, max_monomials)
    seen = set()
    while len(seen) < n:
        v = tuple(rng.randint(0, max_exp) for _ in range(m))
        if any(v):
            seen.add(v)
    return MonomialSet(m, tuple(sorted(seen)))


class TestMonomialSet:
    def test_invariants(self):
        with pytest.raises(InvalidMonomialSetError):
            ms((0, 0), (1, 0))
        with pytest.raises(InvalidMonomialSetError):
            ms((1, 0), (1, 0))
        with pytest.raises(InvalidMonomialSetError):
            MonomialSet(2, ())

    def test_exponent_matrix_columns(self):
        e = CUSP.exponent_matrix
        assert e == ((2, 0), (0, 3))  # rows of E: variable per row


class TestSplittingPolytope:
    def test_diagonal_rows(self):
        lp = polygeo.splitting_polytope(ms((2, 0), (0, 3)))
        assert lp.constraint_matrix == ((F(2), F(0)), (F(0), F(3)))
        assert lp.rhs == (F(1), F(1))

    def test_pyramid_rows(self):
        a, b, c = 3, 4, 2
        lp = polygeo.splitting_polytope(ms((a, 0), (0, b), (c, c)))
        assert lp.constraint_matrix == ((F(a), F(0), F(c)), (F(0), F(b), F(c)))

    def test_single_variable(self):
        lp = polygeo.splitting_polytope(ms((1,)))
        assert lp.constraint_matrix == ((F(1),),)


class TestLatticePoints:
    @staticmethod
    def brute_force(columns, bound, total, exact):
        # every k in a box that holds all solutions, largest first
        box = [range(total, -1, -1)] * len(columns)
        out = []
        for k in itertools.product(*box):
            image = [sum(c[i] * x for c, x in zip(columns, k)) for i in range(len(bound))]
            fits = image == list(bound) if exact else all(
                a <= b for a, b in zip(image, bound)
            )
            if sum(k) == total and fits:
                out.append(k)
        return out

    @pytest.mark.parametrize("exact", [False, True])
    def test_against_product_in_order(self, exact):
        rng = random.Random(41 + exact)
        for _ in range(150):
            m = rng.randint(1, 3)
            n = rng.randint(1, 4)
            columns = [tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(n)]
            columns = [c if any(c) else (1,) + c[1:] for c in columns]
            bound = [rng.randint(0, 9) for _ in range(m)]
            total = rng.randint(0, 6)
            got = list(polygeo.lattice_points(columns, bound, total, exact=exact))
            assert got == self.brute_force(columns, bound, total, exact)

    def test_exact_closed_form_against_product_in_order(self):
        # bound = E k for a drawn k, so most cases have points; some bounds
        # are nudged off, and some last two columns are made equal
        rng = random.Random(16)
        seen = {"equal": 0, "negative": 0, "several": 0}
        for trial in range(600):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            columns = [tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(n)]
            if n >= 2 and trial % 4 == 0:
                columns[-1] = columns[-2]
            k = [rng.randint(0, 3) for _ in range(n)]
            bound = [sum(c[i] * x for c, x in zip(columns, k)) for i in range(m)]
            if trial % 5 == 0:
                bound[rng.randrange(m)] += 1
            got = list(polygeo.lattice_points(columns, bound, sum(k), exact=True))
            assert got == self.brute_force(columns, bound, sum(k), True)
            if n >= 2 and got:
                diff = [a - b for a, b in zip(columns[-2], columns[-1])]
                seen["equal"] += not any(diff)
                seen["negative"] += next((d for d in diff if d), 0) < 0
                seen["several"] += len(got) > 1
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize(
        "columns, bound, total, points",
        [
            # k = -1 and k = 2 solve every row but leave [0, remaining]
            ([(1,), (2,)], [3], 1, []),
            ([(2,), (1,)], [3], 1, []),
            # row 0 gives k = 1; row 1 then fails
            ([(1, 1), (0, 1)], [1, 5], 1, []),
            # u_0 - v_0 = -2 < 0, three points in descending order
            ([(2, 0), (1, 1), (0, 2)], [4, 4], 4, [(2, 0, 2), (1, 2, 1), (0, 4, 0)]),
            # equal last two columns fall through to the loop
            ([(1, 2), (1, 1), (1, 1)], [3, 4], 3, [(1, 2, 0), (1, 1, 1), (1, 0, 2)]),
        ],
    )
    def test_exact_closed_form_cases(self, columns, bound, total, points):
        assert list(polygeo.lattice_points(columns, bound, total, exact=True)) == points
        assert points == self.brute_force(columns, bound, total, True)

    def test_degenerate_inputs(self):
        assert list(polygeo.lattice_points([], [0], 0, exact=True)) == [()]
        assert list(polygeo.lattice_points([], [1], 0, exact=True)) == []
        assert list(polygeo.lattice_points([(1,)], [3], -1)) == []


class TestThreshold:
    def test_cusp(self):
        assert polygeo.splitting_threshold(CUSP) == F(5, 6)

    def test_diagonal_sum_of_reciprocals(self):
        d = (2, 3, 5)
        vecs = [tuple(di if i == j else 0 for i in range(3)) for j, di in enumerate(d)]
        assert polygeo.splitting_threshold(ms(*vecs)) == F(1, 2) + F(1, 3) + F(1, 5)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_pth_powers(self, p):
        assert polygeo.splitting_threshold(ms((p, 0), (0, p))) == F(2, p)


class TestMaximalPoints:
    def test_diagonal_unique(self):
        out = polygeo.maximal_points(ms((2, 0, 0), (0, 3, 0), (0, 0, 4)))
        assert out.unique
        assert out.point == (F(1, 2), F(1, 3), F(1, 4))

    def test_pyramid_tie_is_an_edge(self):
        # 1/a + 1/b = 1/c makes the top face an edge of maximizers
        out = polygeo.maximal_points(ms((2, 0), (0, 2), (1, 1)))
        assert out.threshold == 1 and not out.unique

    def test_cusp_unique(self):
        out = polygeo.maximal_points(CUSP)
        assert out.unique and out.point == (F(1, 2), F(1, 3))

    def test_unique_behind_degenerate_slack(self):
        # y, y*z, x*z: the optimum (1, 0, 1) makes all three rows and
        # s_2 >= 0 tight; the dual optimum (1, 1, 0) on the x, y, z rows
        # prices s_2 at zero, yet s_2 can only enter by a degenerate pivot
        out = polygeo.maximal_points(ms((0, 1, 0), (0, 1, 1), (1, 0, 1)))
        assert out.threshold == 2
        assert out.unique and out.point == (1, 0, 1)

    def test_against_vertex_oracle(self):
        # P is bounded (no column of E is zero), so its optimum is unique iff
        # exactly one vertex attains alpha
        rng = random.Random(20261019)
        degenerate = 0
        for _ in range(300):
            s = random_monomial_set(rng, max_vars=3, max_monomials=4, max_exp=4)
            e, n, m = s.exponent_matrix, s.num_monomials, s.num_vars
            _, alpha, vertices = oracles.lp_vertex_oracle([1] * n, e, [1] * m)
            optimal = [v for v in vertices if sum(v) == alpha]
            out = polygeo.maximal_points(s)
            assert out.threshold == alpha
            assert out.unique == (len(optimal) == 1), s.monomials
            if out.unique:
                point = optimal[0]
                assert out.point == point
                tight = sum(x == 0 for x in point) + sum(
                    sum(a * x for a, x in zip(row, point)) == 1 for row in e
                )
                degenerate += tight > n
        assert degenerate > 0


class TestNewtonContains:
    def test_examples(self):
        assert polygeo.newton_contains(CUSP, (F(6, 5), F(6, 5)))
        assert polygeo.newton_contains(CUSP, (2, 0))  # a generator
        assert not polygeo.newton_contains(CUSP, (0, 0))

    def test_boundary_point_maximality(self):
        alpha = polygeo.splitting_threshold(CUSP)
        v = [1 / alpha] * 2
        assert polygeo.newton_contains(CUSP, v)
        for eps in (F(1, 1000), F(1, 7), F(1)):
            shrunk = [1 / (alpha + eps)] * 2
            assert not polygeo.newton_contains(CUSP, shrunk)

    def test_boundary_maximality_on_random_sets(self):
        rng = random.Random(1009)
        for _ in range(20):
            s = random_monomial_set(rng, max_vars=3, max_monomials=3, max_exp=5)
            alpha = polygeo.splitting_threshold(s)
            v = [1 / alpha] * s.num_vars
            assert polygeo.newton_contains(s, v)
            eps = F(rng.randint(1, 9), rng.randint(10, 99))
            shrunk = [1 / (alpha + eps)] * s.num_vars
            assert not polygeo.newton_contains(s, shrunk)

    def test_against_elimination_oracle(self):
        rng = random.Random(99)
        for _ in range(60):
            s = random_monomial_set(rng, max_vars=3, max_monomials=3, max_exp=4)
            point = [F(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(s.num_vars)]
            # the same point with one coordinate pushed below zero
            bent = list(point)
            bent[rng.randrange(s.num_vars)] = F(rng.randint(-12, -1), rng.randint(1, 4))
            for v in (point, bent):
                assert polygeo.newton_contains(s, v) == oracles.newton_member_oracle(
                    s.monomials, v
                )


class TestNewtonThreshold:
    def test_cusp_and_pth_powers(self):
        assert polygeo.newton_threshold(CUSP) == F(5, 6)
        assert polygeo.newton_threshold(ms((5, 0), (0, 5))) == F(2, 5)

    def test_all_variables(self):
        vecs = [tuple(1 if i == j else 0 for i in range(3)) for j in range(3)]
        assert polygeo.newton_threshold(ms(*vecs)) == 3

    def test_agrees_with_simplex_on_random_sets(self):
        rng = random.Random(4242)
        for _ in range(40):
            s = random_monomial_set(rng)
            assert polygeo.newton_threshold(s) == polygeo.splitting_threshold(s)


class TestVertexRoute:
    @staticmethod
    def shaped_sets(rng):
        # exponent matrices by rows; their columns are the monomials
        def row(n):
            return [rng.randint(0, 4) for _ in range(n)]

        for _ in range(15):
            m, n = rng.randint(3, 5), rng.randint(1, 2)  # m > n
            yield [row(n) for _ in range(m)]
            m, n = rng.randint(1, 2), rng.randint(3, 5)  # n > m
            yield [row(n) for _ in range(m)]
            yield [row(rng.randint(1, 6))]  # m = 1
            yield [row(1) for _ in range(rng.randint(1, 6))]  # n = 1
            first = row(4)
            yield [first, [2 * a for a in first], row(4)]  # proportional rows
            yield [first, first, row(4)]  # repeated rows
            yield [row(3), [0, 0, 0], row(3)]  # a variable no monomial uses

    def test_against_vertex_oracle_on_shapes(self):
        rng = random.Random(5150)
        checked = 0
        for rows in self.shaped_sets(rng):
            columns = list(zip(*rows))
            if not all(any(c) for c in columns) or len(set(columns)) < len(columns):
                continue
            s = MonomialSet(len(rows), tuple(columns))
            status, value, _ = oracles.lp_vertex_oracle([1] * len(columns), rows, [1] * len(rows))
            assert status == "OPTIMAL"
            assert polygeo.newton_threshold(s) == value, rows
            checked += 1
        assert checked > 60

    @staticmethod
    def det(a):
        # Leibniz formula, each permutation signed by its inversions
        k = len(a)
        total = 0
        for perm in itertools.permutations(range(k)):
            inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
            term = (-1) ** inversions
            for i, j in enumerate(perm):
                term *= a[i][j]
            total += term
        return total

    def test_solver_against_gauss_oracle(self):
        rng = random.Random(1968)
        singular = negative = 0
        for _ in range(600):
            k = rng.randint(1, 4)
            a = [[rng.randint(-3, 4) for _ in range(k)] for _ in range(k)]
            if k > 1 and rng.random() < 0.2:
                a[-1] = [2 * x for x in a[0]]
            want = oracles.gauss_solve(a, [1] * k)
            got = polygeo._solve_tight([row[:] for row in a])
            if want is None:
                assert got is None, a
                singular += 1
                continue
            y, d = got
            det = self.det(a)
            assert d == abs(det) and [F(t, d) for t in y] == want, a
            negative += det < 0
        assert singular > 50 and negative > 100

    def test_cap_is_checked_before_any_work(self, monkeypatch):
        s = ms((2, 0, 1), (0, 3, 1), (1, 1, 0))  # C(6, 3) - 1 = 19 systems
        monkeypatch.setattr(polygeo, "VERTEX_SYSTEMS_CAP", 19)
        assert polygeo.newton_threshold(s) == polygeo.splitting_threshold(s)
        monkeypatch.setattr(polygeo, "VERTEX_SYSTEMS_CAP", 18)
        monkeypatch.setattr(polygeo, "_solve_tight", lambda a: pytest.fail("solved a system"))
        with pytest.raises(ValueError, match="would solve 19 systems, over the cap of 18"):
            polygeo.newton_threshold(s)


class TestNewtonAnalysis:
    def test_cusp_with_interior_generator(self):
        # the product monomial x^2*y^3 sits above the bounded facet
        out = polygeo.newton_analysis(ms((2, 0), (0, 3), (2, 3)))
        assert out.threshold == F(5, 6)
        assert out.lambda_members == (0, 1)
        assert len(out.lambda_members) == 2
        assert out.diagonal_position

    def test_single_monomial_in_two_vars(self):
        out = polygeo.newton_analysis(ms((1, 0), num_vars=2))
        assert out.threshold == 1
        assert not out.diagonal_position

    def test_diagonal_sets_are_diagonal(self):
        out = polygeo.newton_analysis(ms((3, 0), (0, 4)))
        assert out.diagonal_position
        assert out.lambda_members == (0, 1)

    def test_pyramid_is_diagonal(self):
        out = polygeo.newton_analysis(ms((3, 0), (0, 4), (2, 2)))
        assert out.diagonal_position

    def test_against_face_oracle(self):
        rng = random.Random(2718)
        non_diagonal = off_face = 0
        for _ in range(150):
            s = random_monomial_set(rng, max_vars=3, max_monomials=4, max_exp=4)
            out = polygeo.newton_analysis(s)
            assert (
                out.threshold,
                out.lambda_members,
                out.diagonal_position,
            ) == oracles.newton_face_oracle(s.monomials, s.num_vars)
            non_diagonal += not out.diagonal_position
            off_face += len(out.lambda_members) < s.num_monomials
        assert non_diagonal > 0 and off_face > 0

    def test_geometry_solved_once_per_support(self, monkeypatch):
        s = ms((2, 0), (0, 2), (1, 1), (3, 1))
        polytope = polygeo.splitting_polytope(s)
        solves, programs = [], []
        optimal_face = ratlp.optimal_face
        monkeypatch.setattr(ratlp, "optimal_face", lambda lp: solves.append(lp) or optimal_face(lp))
        post_init = ratlp.LinearProgram.__post_init__
        monkeypatch.setattr(
            ratlp.LinearProgram, "__post_init__", lambda lp: programs.append(lp) or post_init(lp)
        )
        runs = []
        over_face = ratlp.maximize_over_face
        monkeypatch.setattr(
            ratlp, "maximize_over_face", lambda face, c: runs.append(c) or over_face(face, c)
        )
        for _ in range(2):
            polygeo.splitting_threshold(s)
            polygeo.maximal_points(s)
            polygeo.newton_analysis(s)
            # n + 1 face runs on the first round, none once cached
            assert len(runs) == s.num_monomials + 1
        # one solve; no face question builds an LP
        assert solves == programs == [polytope]

    def test_maximal_point_structure_in_diagonal_position(self):
        # unique maximizer in diagonal position: zero off the face, E.eta = 1
        rng = random.Random(77)
        checked = 0
        while checked < 25:
            s = random_monomial_set(rng, max_vars=3, max_monomials=3, max_exp=4)
            mp = polygeo.maximal_points(s)
            if not mp.unique:
                continue
            analysis = polygeo.newton_analysis(s)
            if not analysis.diagonal_position:
                continue
            checked += 1
            members = set(analysis.lambda_members)
            for j, coord in enumerate(mp.point):
                if j not in members:
                    assert coord == 0
            e = s.exponent_matrix
            for row in e:
                assert sum(F(a) * x for a, x in zip(row, mp.point)) == 1


class TestTruncationIndexUniqueness:
    def test_random_sets_have_unique_truncation_index(self):
        # with a unique maximizer eta, the scaled truncation is the only
        # nonnegative integer vector with its coordinate sum and E-image
        from fptkit import exactnum

        rng = random.Random(31337)
        checked = 0
        while checked < 15:
            s = random_monomial_set(rng, max_vars=3, max_monomials=3, max_exp=4)
            mp = polygeo.maximal_points(s)
            if not mp.unique:
                continue
            checked += 1
            p = rng.choice([2, 3, 5])
            e = rng.randint(1, 2)
            q = p**e
            tr = [exactnum.truncate(x, p, e) for x in mp.point]
            target_k = [int(x * q) for x in tr]
            total = sum(target_k)
            image = [
                sum(row[j] * target_k[j] for j in range(s.num_monomials))
                for row in s.exponent_matrix
            ]
            def matches(prefix):
                return [
                    sum(row[i] * prefix[i] for i in range(len(prefix)))
                    for row in s.exponent_matrix
                ] == image

            found = []
            stack = [()]
            while stack:
                prefix = stack.pop()
                used = sum(prefix)
                if len(prefix) == s.num_monomials:
                    if used == total and matches(prefix):
                        found.append(prefix)
                    continue
                for k in range(total - used + 1):
                    stack.append(prefix + (k,))
            assert found == [tuple(target_k)]

    def test_truncation_is_the_only_index(self):
        # with a unique maximizer, no other nonnegative s matches the
        # truncation's coordinate sum and matrix image
        from fptkit import exactnum

        for p, e in ((5, 1), (7, 1), (5, 2), (3, 2)):
            mp = polygeo.maximal_points(CUSP)
            tr = [exactnum.truncate(x, p, e) for x in mp.point]
            q = p**e
            k_target = [int(x * q) for x in tr]
            total = sum(k_target)
            image = [
                sum(CUSP.exponent_matrix[i][j] * k_target[j] for j in range(2))
                for i in range(2)
            ]
            solutions = [
                (k1, total - k1)
                for k1 in range(total + 1)
                if 2 * k1 == image[0] and 3 * (total - k1) == image[1]
            ]
            assert solutions == [tuple(k_target)]
