"""Polynomial and monomial-list grammar."""

from fractions import Fraction

import pytest

from fptkit.errors import InvalidMonomialSetError, ParseError
from fptkit.parsing import monomial_text, parse_monomials, parse_polynomial

F = Fraction


class TestPolynomials:
    def test_cusp(self):
        f = parse_polynomial("x^2+y^3")
        assert f.num_vars == 2
        assert f.terms == {(2, 0): F(1), (0, 3): F(1)}

    def test_coefficients_and_signs(self):
        f = parse_polynomial("2*x^2 - 3/4*y + x*y^2")
        assert f.terms == {(2, 0): F(2), (0, 1): F(-3, 4), (1, 2): F(1)}

    def test_implicit_star(self):
        assert parse_polynomial("2x").terms == {(1,): F(2)}

    def test_leading_minus_and_combining(self):
        f = parse_polynomial("-x + 3*x - x")
        assert f.terms == {(1,): F(1)}

    def test_cancellation_gives_zero(self):
        assert parse_polynomial("x - x").terms == {}

    def test_indexed_variables(self):
        f = parse_polynomial("x1^2*x3 + x2")
        assert f.num_vars == 3
        assert f.terms == {(2, 0, 1): F(1), (0, 1, 0): F(1)}

    def test_alias_and_indexed_mix(self):
        f = parse_polynomial("x + x2^2")
        assert f.terms == {(1, 0): F(1), (0, 2): F(1)}

    def test_declared_vars(self):
        f = parse_polynomial("x^2", num_vars=3)
        assert f.num_vars == 3 and f.terms == {(2, 0, 0): F(1)}
        with pytest.raises(ParseError):
            parse_polynomial("x3", num_vars=2)

    def test_constants(self):
        f = parse_polynomial("x + 1/2")
        assert f.terms[(0,)] == F(1, 2)

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x^2 + % y")
        assert err.value.line == 1 and err.value.column == 7
        with pytest.raises(ParseError):
            parse_polynomial("")
        with pytest.raises(ParseError):
            parse_polynomial("x ^")
        with pytest.raises(ParseError):
            parse_polynomial("q + 1")
        with pytest.raises(ParseError):
            parse_polynomial("1/0")

    def test_superscript_digits_are_not_numbers(self):
        # str.isdigit accepts "²" but int() does not
        with pytest.raises(ParseError) as err:
            parse_polynomial("x^²+y")
        assert err.value.line == 1 and err.value.column == 3
        with pytest.raises(ParseError) as err:
            parse_polynomial("x²+y")
        assert err.value.line == 1 and err.value.column == 1

    def test_multiline_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x +\n !")
        assert err.value.line == 2 and err.value.column == 2


class TestMonomialLists:
    def test_comma_and_plus_separators(self):
        a = parse_monomials("x^2, y^3")
        b = parse_monomials("x^2 + y^3")
        assert a == b
        assert a.monomials == ((2, 0), (0, 3))

    def test_products(self):
        s = parse_monomials("x^3, y^4, x^2*y^2")
        assert s.monomials == ((3, 0), (0, 4), (2, 2))

    def test_no_coefficients_allowed(self):
        with pytest.raises(ParseError):
            parse_monomials("2*x, y")

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidMonomialSetError):
            parse_monomials("x^2, x^2")

    def test_constant_rejected(self):
        with pytest.raises(InvalidMonomialSetError):
            parse_monomials("x^0")

    def test_declared_vars(self):
        s = parse_monomials("x", num_vars=2)
        assert s.num_vars == 2 and s.monomials == ((1, 0),)


class TestRendering:
    def test_monomial_text(self):
        assert monomial_text((2, 3), 2) == "x^2*y^3"
        assert monomial_text((1, 0), 2) == "x"
        assert monomial_text((0, 0, 0, 0, 1), 5) == "x5"
