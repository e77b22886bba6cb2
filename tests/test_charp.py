"""Frobenius-power reduction, nu, certification, brackets, reduction mod p."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from fptkit import charp
from fptkit.charp import FpPoly, TermBudget
from fptkit.errors import BudgetExceededError, IntegralityError, ReductionError
from fptkit.parsing import parse_polynomial
from fptkit.polygeo import MonomialSet

import oracles

F = Fraction


def fp(p, text):
    return charp.reduce_mod_p(parse_polynomial(text), p)


CUSP5 = fp(5, "x^2+y^3")
CUSP7 = fp(7, "x^2+y^3")


def random_fp_poly(rng, p, num_vars=2, max_terms=3, max_exp=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(rng.randint(0, max_exp) for _ in range(num_vars))
        if any(key):
            terms[key] = rng.randint(1, p - 1)
    if not terms:
        terms[(1,) + (0,) * (num_vars - 1)] = 1
    return FpPoly(p, num_vars, terms)


class TestFrobeniusReduce:
    def test_survivor_and_casualties(self):
        g = FpPoly(7, 2, {(6, 6): 1})
        assert charp.frobenius_reduce(g, 1) == g
        assert charp.frobenius_reduce(FpPoly(7, 1, {(7,): 1}), 1).is_zero()

    def test_sixth_power_of_cusp_dies_mod_seven(self):
        power = FpPoly.one(7, 2)
        for _ in range(6):
            power = power * CUSP7
        assert charp.frobenius_reduce(power, 1).is_zero()

    def test_idempotent_and_multiplicative(self):
        rng = random.Random(5)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            g = random_fp_poly(rng, p)
            h = random_fp_poly(rng, p)
            e = rng.randint(1, 2)
            red = charp.frobenius_reduce
            assert red(red(g, e), e) == red(g, e)
            assert red(g * h, e) == red(red(g, e) * h, e)


class TestNu:
    def test_cusp_values(self):
        assert charp.nu(CUSP5, 1) == 3
        assert charp.nu(CUSP7, 1) == 5

    @pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (5, 1)])
    def test_single_variable(self, p, e):
        f = FpPoly(p, 1, {(1,): 1})
        assert charp.nu(f, e) == p**e - 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            charp.nu(FpPoly(5, 1, {}), 1)
        with pytest.raises(ValueError):
            charp.nu(FpPoly(5, 1, {(0,): 1, (1,): 1}), 1)

    def test_monotonicity_of_table(self):
        rng = random.Random(11)
        for _ in range(25):
            p = rng.choice([2, 3, 5])
            f = random_fp_poly(rng, p)
            table = charp.nu_table(f, 3)
            assert table.check_monotone()
            assert all(0 <= v <= p**e - 1 for e, v in enumerate(table.values, 1))

    def test_table_matches_plain_nu(self):
        rng = random.Random(23)
        for _ in range(20):
            p = rng.choice([2, 3, 5, 7])
            f = random_fp_poly(rng, p)
            table = charp.nu_table(f, 2)
            expected = oracles.nu_expansion_oracle(f.terms, p, [1, 2], 2)
            assert table.values == (expected[1], expected[2])

    def test_against_expansion_oracle_sample(self):
        rng = random.Random(37)
        for _ in range(15):
            p = rng.choice([2, 3, 5])
            f = random_fp_poly(rng, p)
            expected = oracles.nu_expansion_oracle(f.terms, p, [1, 2], 2)
            assert charp.nu(f, 1) == expected[1]
            assert charp.nu(f, 2) == expected[2]


class TestNuIdeal:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_pth_power_ideal(self, p):
        s = MonomialSet(2, ((p, 0), (0, p)))
        assert charp.nu_ideal(s, p, 1) == 0
        assert charp.nu_ideal(s, p, 2) == 2 * (p - 1)

    def test_cusp_ideal(self):
        s = MonomialSet(2, ((2, 0), (0, 3)))
        assert charp.nu_ideal(s, 5, 1) == 3  # k = (2, 1)

    def test_against_exhaustive_search(self):
        rng = random.Random(13)
        for _ in range(20):
            m = rng.randint(1, 2)
            n = rng.randint(1, 3)
            seen = set()
            while len(seen) < n:
                v = tuple(rng.randint(0, 3) for _ in range(m))
                if any(v):
                    seen.add(v)
            s = MonomialSet(m, tuple(sorted(seen)))
            p, e = rng.choice([(2, 2), (3, 1), (5, 1)])
            cap = p**e - 1
            best = 0
            stack = [((), [cap] * m)]
            while stack:
                prefix, residual = stack.pop()
                j = len(prefix)
                if j == n:
                    best = max(best, sum(prefix))
                    continue
                ub = min(
                    residual[i] // s.monomials[j][i]
                    for i in range(m)
                    if s.monomials[j][i] > 0
                )
                for k in range(ub + 1):
                    stack.append(
                        (
                            prefix + (k,),
                            [residual[i] - k * s.monomials[j][i] for i in range(m)],
                        )
                    )
            assert charp.nu_ideal(s, p, e) == best


class TestCertifyLower:
    def test_cusp_certificates(self):
        assert charp.certify_lower(CUSP7, F(5, 6), 1) is True
        assert charp.certify_lower(CUSP7, F(1), 1) is False
        assert charp.certify_lower(FpPoly(3, 1, {(1,): 1}), F(1), 1) is True

    def test_integrality_guard(self):
        with pytest.raises(IntegralityError):
            charp.certify_lower(CUSP5, F(5, 6), 1)

    def test_certified_bound_shows_in_nu(self):
        # certified lambda at level e forces nu(e) >= (p^e - 1) * lambda
        cases = [(CUSP7, F(5, 6), 1), (fp(13, "x^2+y^3"), F(5, 6), 1)]
        for f, lam, e in cases:
            assert charp.certify_lower(f, lam, e)
            assert charp.nu(f, e) >= (f.p**e - 1) * lam

    def test_lambda_zero(self):
        assert charp.certify_lower(CUSP5, F(0), 1) is True

    def test_against_truncated_power_oracle(self):
        # t = nu(e) survives the level-e truncation of the full power, and
        # t = nu(e) + 1 (when still below p^e) does not
        rng = random.Random(61)
        for p in (2, 3, 5, 7):
            for e in (1, 2):
                q = p**e
                for _ in range(4):
                    f = random_fp_poly(rng, p)
                    v = charp.nu(f, e)
                    for t in (v, v + 1):
                        if t == 0 or t > q - 1:
                            continue
                        power = oracles.poly_pow(f.terms, t, p, f.num_vars)
                        survives = any(all(a < q for a in k) for k in power)
                        assert survives == (t == v), (f, e, t)
                        assert charp.certify_lower(f, F(t, q - 1), e) is survives


class TestTermCharges:
    # charges of the shared power loop at CUSP7; no call may charge more
    # than the loop it replaced, and nu(2) no more than nu_table(2)
    @pytest.mark.parametrize(
        "call,limit",
        [
            (lambda b: charp.nu(CUSP7, 1, b), 16),
            (lambda b: charp.nu(CUSP7, 2, b), 36),
            (lambda b: charp.nu_table(CUSP7, 2, b), 36),
            (lambda b: charp.certify_lower(CUSP7, F(5, 6), 1, b), 14),
            (lambda b: charp.certify_lower(CUSP7, F(1), 1, b), 16),
            (lambda b: charp.fpt_is_one(CUSP7, b), 16),
        ],
        ids=["nu1", "nu2", "nu_table2", "certify_5/6", "certify_1", "fpt_is_one"],
    )
    def test_cusp7_charges(self, call, limit):
        budget = TermBudget()
        call(budget)
        assert 0 < budget.used <= limit

    def test_multiply_stops_at_the_limit(self):
        # the full product has over 900 terms; the charge comes once the
        # terms built so far pass the limit, at most one row of 3 past it
        big = FpPoly(31, 2, {(i, j): 1 for i in range(30) for j in range(30)})
        small = FpPoly(31, 2, {(1, 0): 1, (0, 1): 2, (3, 3): 1})
        budget = TermBudget(100)
        with pytest.raises(BudgetExceededError):
            big.multiply(small, budget)
        assert 100 < budget.used <= 100 + 3

    @pytest.mark.parametrize("top, words", [(1000, 1), (2**40, 2)])
    def test_room_for_every_term_builds_by_columns(self, top, words):
        # 900 terms times 3 with no two keys alike: with room for exactly
        # 2700 terms the product is built column by column and does not
        # raise; with room for one less it is built row by row and stops
        # within one row of 3 past the limit
        big = FpPoly(31, 2, {(i, j): 1 for i in range(30) for j in range(30)})
        small = FpPoly(31, 2, {(top, 0): 1, (0, top): 2, (top, top): 3})
        budget = TermBudget(2700 * words)
        product = big.multiply(small, budget)
        assert budget.used == 2700 * words and len(product.terms) == 2700
        # the first column is big times small's first term, in big's order
        assert list(product.terms)[:900] == [(i + top, j) for i, j in big.terms]
        budget = TermBudget(2700 * words - 1)
        with pytest.raises(BudgetExceededError):
            big.multiply(small, budget)
        assert budget.limit < budget.used <= budget.limit + 3 * words
        # keys that coincide: the product fits with room for one less, and
        # the order of its terms shows the path, a column of big or a row
        near = FpPoly(31, 2, {(1, 0): 1, (0, 1): 2, (top, top): 3})
        by_columns = big.multiply(near, TermBudget(2700 * words))
        by_rows = big.multiply(near, TermBudget(2700 * words - 1))
        assert by_columns == by_rows and len(by_rows.terms) < 2700
        assert list(by_columns.terms)[:3] == [(1, 0), (1, 1), (1, 2)]
        assert list(by_rows.terms)[:3] == [(1, 0), (0, 1), (top, top)]


class TestMultiply:
    def test_against_product_oracle(self):
        # exponents up to 2^b - 1 fill every bit of a field but the carry bit
        rng = random.Random(83)
        for _ in range(60):
            p = rng.choice([2, 3, 5, 7, 31])
            n = rng.randint(0, 4)
            top = 2 ** rng.randint(0, 6) - 1
            a, b = (
                FpPoly(p, n, {
                    tuple(rng.randint(0, top) for _ in range(n)): rng.randint(1, p - 1)
                    for _ in range(rng.randint(0, 5))
                })
                for _ in range(2)
            )
            budget = TermBudget()
            product = a.multiply(b, budget)
            assert product.terms == oracles.poly_mul(a.terms, b.terms, p), (a, b)
            assert product == a * b
            # the charge counts every key built, zero coefficients included
            keys = {tuple(map(sum, zip(k1, k2))) for k1 in a.terms for k2 in b.terms}
            assert budget.used == len(keys)

    def test_wide_keys_charge_per_64_bit_word(self):
        # exponents up to 2^40 pack into 43-bit fields, so a term of n
        # variables costs ceil(43 n / 64) words; 0 variables still cost 1
        for n, words in ((0, 1), (1, 1), (2, 2), (3, 3)):
            a = FpPoly(5, n, {(2**40,) * n: 1, (1,) * n: 2})
            budget = TermBudget()
            a.multiply(FpPoly(5, n, {(1,) * n: 3}), budget)
            assert budget.used == len(a.terms) * words

    def test_wide_keys_stop_at_the_limit(self):
        # 2 words a term: the multiply stops once 50 terms are built, at most
        # one row of 3 past it, so the charge passes 100 by at most 3 * 2
        big = FpPoly(31, 2, {(2**40 + i, j): 1 for i in range(30) for j in range(30)})
        small = FpPoly(31, 2, {(1, 0): 1, (0, 1): 2, (3, 3): 1})
        budget = TermBudget(100)
        with pytest.raises(BudgetExceededError):
            big.multiply(small, budget)
        assert 100 < budget.used <= 100 + 3 * 2

    def test_boxed_multiply_against_reduced_product(self):
        # a boxed self keeps only the terms of the product inside its level
        # box: equal to reducing the whole product; the charge is the whole
        # unreduced product, and it raises iff that passes what is left
        rng = random.Random(89)
        paths = {"columns": 0, "rows": 0, "raised": 0, "cancelled": 0, "empty": 0}
        for _ in range(400):
            p = rng.choice([2, 3, 5, 7, 31])
            n = rng.randint(0, 3)
            a, b = (
                FpPoly(p, n, {
                    tuple(rng.randint(0, 6) for _ in range(n)): rng.randint(1, p - 1)
                    for _ in range(rng.randint(0, 12))
                })
                for _ in range(2)
            )
            e = rng.randint(1, 3)
            q = p**e
            top = sum(max((x for k in g.terms for x in k), default=0) for g in (a, b))
            width = max(top, q).bit_length() + 1
            packed = charp._Packed(a, width)
            boxed = charp._Packed(a, width, packed.terms, packed.level_box(q))
            full = oracles.poly_mul(a.terms, b.terms, p)
            built = len({tuple(map(sum, zip(k1, k2))) for k1 in a.terms for k2 in b.terms})
            paths["cancelled"] += len(full) < built
            paths["empty"] += not a.terms or not b.terms
            words = (n * width + 63) // 64 or 1
            # what is left of the budget, up to past the column path's need
            left = rng.randint(0, len(a.terms) * len(b.terms) * words + 2)
            budget = TermBudget(left + 7)
            budget.used = 7
            if built * words > left:
                paths["raised"] += 1
                with pytest.raises(BudgetExceededError):
                    boxed.multiply(charp._Packed(b, width), budget)
                continue
            paths["columns" if len(a.terms) * len(b.terms) * words <= left else "rows"] += 1
            before = budget.used
            product = boxed.multiply(charp._Packed(b, width), budget)
            assert budget.used - before == built * words
            assert product.box == boxed.box
            assert all(0 < c < p for c in product.terms.values())  # packed, yet reduced
            assert product.unpacked() == charp.frobenius_reduce(a.multiply(b), e), (a, b, e)
        assert min(paths.values()) >= 20, paths

    def test_engine_charges_only_through_multiply(self, monkeypatch):
        # the nu sweep charges only through its products: FpPoly.multiply on
        # a sparse level, _Dense.times_f once a level is dense, and the
        # budget counts both; frobenius_reduce reduces only f, at most once
        # per level
        calls = {"multiply": 0, "times_f": 0, "charged": 0, "reduce": 0}
        multiply, times_f, reduce = FpPoly.multiply, charp._Dense.times_f, charp.frobenius_reduce

        def counted(name, product):
            def wrapper(self, *args):
                budget = args[-1]
                before = budget.used
                result = product(self, *args)
                calls[name] += 1
                calls["charged"] += budget.used - before
                return result
            return wrapper

        def counted_reduce(g, e):
            calls["reduce"] += 1
            return reduce(g, e)

        level_one = TermBudget()  # the level-1 sweep, counted before the wrappers
        assert charp.nu_table(BINARY41, 1, level_one).values == (26,)
        monkeypatch.setattr(FpPoly, "multiply", counted("multiply", multiply))
        monkeypatch.setattr(charp._Dense, "times_f", counted("times_f", times_f))
        monkeypatch.setattr(charp, "frobenius_reduce", counted_reduce)
        budget = TermBudget()
        assert charp.nu_table(BINARY41, 2, budget).values == (26, 1106)
        assert calls["charged"] == budget.used == 90976
        assert calls["reduce"] <= 2
        assert budget.products == calls["multiply"] + calls["times_f"]
        assert budget.packed_products == calls["times_f"]
        # level 2 makes 41 products (nu(2) = 41 nu(1) + 40), most of them packed
        assert budget.products - level_one.products == 41
        assert budget.packed_products - level_one.packed_products > 20


class TestPackedEngine:
    # the packed sweep (nu_table, certify_lower) against full expansion, on
    # 1-3 variables with exponents up to 2p, so that a field must hold a
    # product exponent past the level-e box
    LEVELS = [(2, 3), (3, 3), (5, 2), (7, 2)]

    def test_nu_table_against_expansion_oracle(self):
        rng = random.Random(71)
        past_p = 0
        for p, top in self.LEVELS:
            for _ in range(8):
                f = random_fp_poly(rng, p, rng.randint(1, 3), max_exp=2 * p)
                past_p += any(a >= p for k in f.terms for a in k)
                e_max = rng.randint(1, top)
                levels = range(1, e_max + 1)
                expected = oracles.nu_expansion_oracle(f.terms, p, levels, f.num_vars)
                table = charp.nu_table(f, e_max)
                assert table.values == tuple(expected[e] for e in levels), f
        assert past_p >= 10

    def test_certify_lower_against_expansion_oracle(self):
        # stop values below, at and above nu(e), up to p^e - 1
        rng = random.Random(73)
        for p, e_max in self.LEVELS:
            for _ in range(6):
                f = random_fp_poly(rng, p, rng.randint(1, 3), max_exp=2 * p)
                e = rng.randint(1, e_max)
                q = p**e
                v = oracles.nu_expansion_oracle(f.terms, p, [e], f.num_vars)[e]
                stops = {1, v - 1, v, v + 1, rng.randint(1, q - 1), q - 1}
                for t in sorted(t for t in stops if 0 < t < q):
                    assert charp.certify_lower(f, F(t, q - 1), e) is (t <= v), (f, e, t)

    @pytest.mark.parametrize(
        "p,text,e_max",
        [(2, "x+y^3", 3), (3, "x+y^2", 3), (5, "x+y^2", 3), (7, "x^3+y^3+z^3", 2)],
    )
    def test_threshold_one_shortcut_against_full_expansion(self, p, text, e_max):
        # nu(1) = p - 1 yields p^e - 1 at every later level and charges no
        # terms past level 1; full expansion agrees level by level
        f = fp(p, text)
        levels = range(1, e_max + 1)
        expected = oracles.nu_expansion_oracle(f.terms, p, levels, f.num_vars)
        assert tuple(expected[e] for e in levels) == tuple(p**e - 1 for e in levels)
        level_one, budget = TermBudget(), TermBudget()
        charp.nu(f, 1, level_one)
        assert charp.nu_table(f, e_max, budget).values == tuple(p**e - 1 for e in levels)
        assert budget.used == level_one.used
        q = p**e_max
        for t in (1, p, q - p - 1, q - p, q - 1):
            power = oracles.poly_pow(f.terms, t, p, f.num_vars)
            assert any(all(a < q for a in k) for k in power)
            assert charp.certify_lower(f, F(t, q - 1), e_max) is True


class TestDenseLevels:
    # a level whose running power r fills its box runs on one packed int:
    # the same values, charges and raises as the dict product

    @staticmethod
    def near_top(p, f, corner):
        """f packed as the sweep packs it for level 1, and a seeded r on the
        cells of [corner, p), so that the box [corner, p + d) is small"""
        rng = random.Random(p)
        top = [max(k[i] for k in f.terms) for i in range(f.num_vars)]
        fk = charp._Packed(f, (p - 1 + max(top)).bit_length() + 1)
        cells = itertools.product(*(range(o, p) for o in corner))
        terms = {k: rng.randint(1, p - 1) for k in cells if rng.random() < 0.7}
        terms[tuple(corner)] = 1
        r = charp._Packed(FpPoly(p, f.num_vars, terms), fk.width, None, fk.level_box(p))
        dims = [p + d - o for d, o in zip(top, corner)]
        return fk, r, charp._Grid(fk, p, corner, dims)

    @pytest.mark.parametrize("p", [2, 3, 2**31 - 1, 2**61 - 1])
    def test_barrett_step_against_plain_mod(self, p):
        f = FpPoly(p, 2, {(1, 0): 1, (0, 1): p - 1, (1, 1): 2 % p or 1, (2, 1): p // 2 or 1})
        fk, r, grid = self.near_top(p, f, [max(p - 3, 0), max(p - 4, 0)])
        w, bound = 8 * grid.bytes, len(f.terms) * (p - 1) ** 2
        rng = random.Random(p + 1)
        # every slot below 2^b, the edges included: 0, p - 1, p, the largest
        # sum of len(f) products of two residues, and the largest v < 2^b
        # with v % p = p - 1, where a shift S one bit short errs
        top = 2 ** bound.bit_length() - 1
        slots = [0, p - 1, p, bound, top, top - (top - p + 1) % p]
        slots += [rng.randrange(2 ** bound.bit_length()) for _ in range(grid.cells - len(slots))]
        x = sum(v << i * w for i, v in enumerate(slots))
        assert grid.reduce(x) == sum(v % p << i * w for i, v in enumerate(slots))
        # one step equals the dict product, in value and in charge
        dense = grid.pack(r)
        assert dense.unpacked().terms == r.terms
        sparse_budget, dense_budget = TermBudget(), TermBudget()
        expected = r.multiply(fk, sparse_budget)
        assert dense.times_f(dense_budget).unpacked().terms == expected.terms
        assert dense_budget.used == sparse_budget.used
        # it raises iff the dict product does, after charging the full count
        room = sparse_budget.used
        assert dense.times_f(TermBudget(room)).unpacked().terms == expected.terms
        for product in (lambda b: dense.times_f(b), lambda b: r.multiply(fk, b)):
            with pytest.raises(BudgetExceededError):
                product(TermBudget(room - 1))
        budget = TermBudget(room - 1)
        with pytest.raises(BudgetExceededError):
            dense.times_f(budget)
        assert budget.used == room

    def test_nu_table_against_expansion_oracle(self):
        rng = random.Random(97)
        dense = 0
        for p, e_max in [(2, 3), (3, 3), (5, 2), (7, 1), (11, 1), (13, 1)]:
            for _ in range(60):
                f = random_fp_poly(rng, p, rng.randint(1, 3), max_terms=8, max_exp=3)
                e = rng.randint(1, e_max)
                levels = range(1, e + 1)
                expected = oracles.nu_expansion_oracle(f.terms, p, levels, f.num_vars)
                budget = TermBudget()
                assert charp.nu_table(f, e, budget).values == tuple(expected[k] for k in levels), f
                dense += budget.packed_products > 0
        assert dense >= 40

    def test_binary41_packs_level_two_and_cusp13_never(self):
        level_one, budget = TermBudget(), TermBudget()
        charp.nu_table(BINARY41, 1, level_one)
        charp.nu_table(BINARY41, 2, budget)
        assert budget.packed_products > level_one.packed_products
        cusp = TermBudget()
        assert charp.nu_table(fp(13, "x^2+y^3"), 3, cusp).values == (10, 140, 1830)
        assert cusp.products > 0 and cusp.packed_products == 0


BINARY41 = fp(41, "x^3+3*x^2*y+2*x*y^2+5*y^3+x^4+2*x^3*y+7*x^2*y^2+x*y^3+4*y^4")
QUADRIC7 = fp(7, "x+2*y+3*z+x^2+4*y^2+2*z^2+5*x*y+y*z+3*x*z")


class TestEngineCharges:
    # budget.used of the packed engine: the length of every unreduced
    # product, as FpPoly.multiply charges it, and no terms past an
    # nu(1) = p - 1 level
    def test_binary_form(self):
        budget = TermBudget()
        assert charp.nu_table(BINARY41, 2, budget).values == (26, 1106)
        assert budget.used == 90976

    def test_binary_form_budget_runs_out_at_level_three(self):
        budget = TermBudget(120_000)
        report = charp.bracket(BINARY41, 3, budget)
        assert report.budget_exhausted
        assert report.nu_values.values == (26, 1106)
        # the product that raises stops one row past the limit, so the
        # overshoot depends on the order of r's keys
        assert budget.used == 120_001

    def test_cusp13_budget_60(self):
        budget = TermBudget(60)
        report = charp.bracket(fp(13, "x^2+y^3"), 3, budget)
        assert report.nu_values.values == (10,)
        assert budget.used == 61

    @pytest.mark.parametrize("limit", [5, 60, 100, 135])
    def test_exhaustion_names_prime_level_and_exponent(self, limit):
        f = fp(13, "x^2+y^3")
        nu = charp.nu_table(f, 3).values
        with pytest.raises(BudgetExceededError) as info:
            charp.nu_table(f, 3, TermBudget(limit))
        match = re.fullmatch(
            r"term budget exhausted \((\d+) > (\d+)\) at p=13, level e=(\d+), exponent a=(\d+)",
            str(info.value),
        )
        assert match is not None
        used, cap, e, a = map(int, match.groups())
        assert used > cap == limit
        # the levels before e completed, and f^(a-1) survived level e
        start = 1 if e == 1 else 13 * nu[e - 2]
        assert start < a <= nu[e - 1] + 1

    @pytest.mark.parametrize("e_max", [1, 2])
    def test_threshold_one_quadric(self, e_max):
        # expanding level 2 as well would charge 161836 terms in all
        budget = TermBudget()
        assert charp.nu_table(QUADRIC7, e_max, budget).values == (6, 48)[:e_max]
        assert budget.used == 824


class TestFptIsOne:
    def test_line_plus_curve(self):
        for p, d in ((2, 3), (5, 4), (7, 2)):
            f = fp(p, f"x+y^{d}")
            assert charp.fpt_is_one(f) is True

    def test_cusp_is_below_one(self):
        assert charp.fpt_is_one(CUSP7) is False

    def test_fermat_cubic_supersingularity(self):
        g = parse_polynomial("x^3+y^3+z^3")
        assert charp.fpt_is_one(charp.reduce_mod_p(g, 7)) is True
        assert charp.fpt_is_one(charp.reduce_mod_p(g, 5)) is False

    def test_threshold_one_forces_trivial_bracket_top(self):
        # fpt = 1 means nu(e) = p^e - 1 at every level, so the bracket's
        # upper end sits exactly at 1 and every level certifies lambda = 1
        for p, text in ((3, "x+y^2"), (7, "x^3+y^3+z^3")):
            f = fp(p, text)
            assert charp.fpt_is_one(f)
            report = charp.bracket(f, 2)
            assert report.bracket[1] == 1
            assert report.bracket[0] <= 1
            assert charp.certify_lower(f, F(1), 1)


class TestBracket:
    def test_cusp_mod_five(self):
        report = charp.bracket(CUSP5, 3)
        low, high = report.bracket
        assert low < F(4, 5) <= high
        assert high - low == F(1, 125)
        assert report.nu_values.values == (3, 19, 99)

    def test_single_variable_mod_three(self):
        f = FpPoly(3, 1, {(1,): 1})
        report = charp.bracket(f, 2)
        assert report.bracket == (F(8, 9), F(1))

    def test_cusp_mod_two(self):
        f = fp(2, "x^2+y^3")
        report = charp.bracket(f, 4)
        low, high = report.bracket
        assert low < F(1, 2) <= high

    def test_budget_exhaustion_reports_partial(self):
        f = fp(13, "x^2+y^3")
        report = charp.bracket(f, 3, TermBudget(60))
        assert report.budget_exhausted
        assert report.nu_values is not None
        assert len(report.nu_values.values) < 3
        assert report.notes

    def test_nu_respects_budget(self):
        with pytest.raises(BudgetExceededError):
            charp.nu(fp(13, "x^2+y^3"), 3, TermBudget(100))


class TestReduceModP:
    def test_plain(self):
        f = parse_polynomial("x^2 + y^3")
        out = charp.reduce_mod_p(f, 7)
        assert out.terms == {(2, 0): 1, (0, 3): 1}

    def test_denominator_divisible(self):
        f = parse_polynomial("1/2*x^2")
        with pytest.raises(ReductionError):
            charp.reduce_mod_p(f, 2)

    def test_support_collapse(self):
        f = parse_polynomial("7*x + y")
        with pytest.raises(ReductionError):
            charp.reduce_mod_p(f, 7)
        dropped = charp.reduce_mod_p(f, 7, preserve_support=False)
        assert dropped.terms == {(0, 1): 1}

    def test_inverse_denominators(self):
        f = parse_polynomial("2/3*x")
        out = charp.reduce_mod_p(f, 5)
        assert out.terms == {(1,): 2 * pow(3, -1, 5) % 5}
