"""Truncation, carry, Lucas-residue, prime and rational-text behaviour."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fptkit import exactnum
from fptkit.errors import SearchExhaustedError

import oracles

F = Fraction

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

unit_fractions = st.builds(
    lambda a, b: F(min(a, b), max(a, b)) if max(a, b) else F(0),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=400),
)


class TestTruncate:
    def test_truncation_of_one(self):
        for p in (2, 5, 11):
            for e in range(1, 6):
                assert exactnum.truncate(F(1), p, e) == 1 - F(1, p**e)

    def test_examples(self):
        assert exactnum.truncate(F(1, 2), 5, 1) == F(2, 5)
        assert exactnum.truncate(F(5, 6), 7, 2) == F(40, 49)
        assert exactnum.truncate(F(1, 2), 5, 0) == 0

    @given(
        alpha=unit_fractions.filter(lambda a: a > 0),
        p=st.sampled_from([p for p in PRIMES if p <= 50]),
        e=st.integers(1, 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_sandwich(self, alpha, p, e):
        tr = exactnum.truncate(alpha, p, e)
        assert tr < alpha <= tr + F(1, p**e)
        assert (tr * p**e).denominator == 1

    @given(p=st.sampled_from(PRIMES), e=st.integers(1, 6), k=st.integers(1, 50))
    @settings(max_examples=200, deadline=None)
    def test_simplified_truncation(self, p, e, k):
        # (p^e - 1) * alpha integral => (p^e - 1) * alpha = p^e * truncation
        q = p**e
        alpha = F(min(k, q - 1), q - 1)
        assert (q - 1) * alpha == q * exactnum.truncate(alpha, p, e)


class TestCarryFreePrefix:
    def test_constant_digit_pairs(self):
        assert exactnum.carry_free_prefix([F(1, 2), F(1, 3)], 7) is None
        assert exactnum.carry_free_prefix([F(1, 2), F(1, 3)], 5) == 1

    def test_half_plus_half_base_two(self):
        # digits of 1/2 in base 2 are 0,1,1,...; the first carry is at e = 2
        assert exactnum.carry_free_prefix([F(1, 2), F(1, 2)], 2) == 1

    def test_empty_and_single(self):
        assert exactnum.carry_free_prefix([], 5) is None
        # a single rational never carries against itself
        assert exactnum.carry_free_prefix([F(3, 7)], 5) is None

    def test_edge_remainders(self):
        # an entry 0 has remainder 0 and digit 0 forever: it never carries
        assert exactnum.carry_free_prefix([F(0), F(3, 7)], 5) is None
        # an entry 1 has remainder d and digit p - 1 forever: it carries at
        # the first position where another entry's digit is nonzero
        assert exactnum.carry_free_prefix([F(1), F(1, 25)], 5) == 2  # 1/25 = 0.004444...
        assert exactnum.carry_free_prefix([F(1), F(1, 2)], 3) == 0  # 1/2 = 0.1111...

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="3/2 outside"):
            exactnum.carry_free_prefix([F(1, 3), F(3, 2)], 5)
        with pytest.raises(ValueError, match="base must be prime"):
            exactnum.carry_free_prefix([F(1, 2)], 6)

    @given(
        alphas=st.lists(unit_fractions, min_size=1, max_size=4),
        p=st.sampled_from(PRIMES[:8]),
    )
    @settings(max_examples=150, deadline=None)
    def test_against_window_scan(self, alphas, p):
        window = 400
        digit_rows = [oracles.digits_long_division(a, p, window) for a in alphas]
        first_bad = next(
            (
                e
                for e in range(1, window + 1)
                if sum(row[e - 1] for row in digit_rows) > p - 1
            ),
            None,
        )
        L = exactnum.carry_free_prefix(alphas, p)
        assert L == (None if first_bad is None else first_bad - 1)

    @given(
        scaled=st.lists(st.integers(0, 12), min_size=1, max_size=4),
        p=st.sampled_from(PRIMES),
    )
    @settings(max_examples=150, deadline=None)
    def test_constant_expansion_characterization(self, scaled, p):
        # with every (p-1)*alpha integral, carry-free iff the scaled sum
        # stays below the base
        alphas = [F(min(k, p - 1), p - 1) for k in scaled]
        expected = sum((p - 1) * a for a in alphas) <= p - 1
        assert (exactnum.carry_free_prefix(alphas, p) is None) == expected


class TestMultinomialModP:
    def test_examples(self):
        assert exactnum.multinomial_mod_p([5, 5], 7) == 0  # 252 = 7 * 36
        assert exactnum.multinomial_mod_p([3, 2], 7) == 3  # C(5,3) = 10
        assert exactnum.multinomial_mod_p([9, 0, 0, 0], 13) == 1

    def test_zero_iff_carry(self):
        # digits of 5 and 5 in base 7 add to 10 > 6
        assert exactnum.multinomial_mod_p([5, 5], 7) == 0
        assert exactnum.multinomial_mod_p([3, 3], 7) == oracles.multinomial_factorial([3, 3]) % 7

    @given(
        parts=st.lists(st.integers(0, 30), min_size=1, max_size=4),
        p=st.sampled_from([2, 3, 5, 7, 11]),
    )
    @settings(max_examples=300, deadline=None)
    def test_against_factorials(self, parts, p):
        assert exactnum.multinomial_mod_p(parts, p) == (
            oracles.multinomial_factorial(parts) % p
        )

    @given(
        parts=st.lists(st.integers(0, 200), min_size=1, max_size=5),
        p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    )
    @settings(max_examples=300, deadline=None)
    def test_zero_exactly_at_digit_carries(self, parts, p):
        # the residue vanishes iff some base-p digit position carries
        carries = False
        ks = list(parts)
        while any(ks):
            if sum(k % p for k in ks) > p - 1:
                carries = True
                break
            ks = [k // p for k in ks]
        assert (exactnum.multinomial_mod_p(parts, p) == 0) == carries

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            exactnum.multinomial_mod_p([], 7)
        with pytest.raises(ValueError):
            exactnum.multinomial_mod_p([-1, 2], 7)


class TestPrimes:
    def test_progressions(self):
        assert exactnum.primes_in_progression(6, 3) == [7, 13, 19]
        assert exactnum.primes_in_progression(1, 3) == [2, 3, 5]
        assert exactnum.primes_in_progression(4, 3) == [5, 13, 17]

    def test_search_ceiling_is_enforced(self):
        with pytest.raises(SearchExhaustedError):
            exactnum.primes_in_progression(6, 3, ceiling=10)

    def test_candidate_cap_stops_a_far_ceiling(self):
        # a ceiling of 10^11 would mean 5*10^10 candidates; the cap stops
        # the search after 10^6 of them, at 2*10^6 + 1
        start = time.perf_counter()
        with pytest.raises(SearchExhaustedError, match="up to 2000001: the cap of 1000000 candidates"):
            exactnum.primes_in_progression(2, 10**8, ceiling=10**11)
        assert time.perf_counter() - start < 15
        # a count the cap does not reach still answers, whatever the ceiling
        assert exactnum.primes_in_progression(2, 10, ceiling=10**20) == [
            3, 5, 7, 11, 13, 17, 19, 23, 29, 31
        ]

    def test_against_sympy(self):
        import sympy

        for d in (1, 2, 3, 4, 5, 6, 10, 12):
            for p in exactnum.primes_in_progression(d, 5):
                assert sympy.isprime(p)
                assert p % d == 1 % d

    def test_is_prime_against_sympy(self):
        import sympy

        rng = random.Random(29)
        samples = list(range(-3, 3000))
        samples += [rng.randrange(2, exactnum.PRIMALITY_LIMIT) for _ in range(2000)]
        # strong pseudoprimes to the first 4 and the first 11 prime bases,
        # the largest odd number below the limit, and a Mersenne prime
        samples += [3215031751, 3825123056546413051, exactnum.PRIMALITY_LIMIT - 2, 2**61 - 1]
        for n in samples:
            assert exactnum.is_prime(n) == sympy.isprime(n), n

    def test_is_prime_refuses_past_its_limit(self):
        # the limit is a strong pseudoprime to all 12 witnesses: Miller-Rabin
        # alone would call it prime
        limit = exactnum.PRIMALITY_LIMIT
        with pytest.raises(ValueError, match=str(limit)):
            exactnum.is_prime(limit)
        assert exactnum.is_prime(2 * limit) is False  # a witness divides it

    def test_primes_in_range_against_sympy(self):
        import sympy

        for lo, hi in [
            (-10, 30), (0, 1), (2, 2), (4, 4), (1, 10**5),
            (10**12, 10**12 + 3000), (2**61 - 500, 2**61 + 500),
            (65537**2 - 100, 65537**2 + 100),
        ]:
            expected = list(sympy.primerange(max(lo, 0), hi + 1))
            assert exactnum.primes_in_range(lo, hi) == expected, (lo, hi)

    def test_prime_range_width_is_capped(self):
        width = exactnum.PRIME_RANGE_WIDTH
        assert len(exactnum.primes_in_range(2, width + 1)) == 78498
        with pytest.raises(ValueError, match=f"holds more than {width} integers"):
            exactnum.primes_in_range(2, width + 2)


class TestPrintable:
    def test_bound_is_ten_to_the_4300(self):
        assert not exactnum.passes_printable(10, 4300)
        assert exactnum.passes_printable(10, 4301)
        assert exactnum.passes_printable(7, 10**18)  # answered without 7^(10^18)


class TestRationalText:
    def test_round_trip(self):
        for q in (F(5, 6), F(-3, 7), F(4), F(0)):
            assert exactnum.parse_rational(exactnum.format_rational(q)) == q
        assert exactnum.format_rational(F(10, 12)) == "5/6"
        assert exactnum.format_rational(F(8, 4)) == "2"

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            exactnum.parse_rational("1/0")

    @pytest.mark.parametrize(
        "text, value",
        [(" 5/6 ", F(5, 6)), ("-3/7", F(-3, 7)), ("+4", F(4)), ("007/014", F(1, 2))],
    )
    def test_signed_integers_and_quotients(self, text, value):
        assert exactnum.parse_rational(text) == value

    def test_parts_past_4300_digits_are_refused(self):
        # Fraction would raise CPython's own int-from-text limit error
        assert exactnum.parse_rational("1" * 4300 + "/" + "1" * 4300) == 1
        assert exactnum.parse_rational("-" + "0" * 4299 + "7") == -7
        for text, part in [("1" * 4301, "numerator"), ("1/" + "2" * 5000, "denominator"),
                           ("-" + "0" * 4301 + "/3", "numerator")]:
            with pytest.raises(ValueError) as info:
                exactnum.parse_rational(text)
            assert str(info.value).startswith(f"{part} has ")
            assert "at most 4300" in str(info.value)

    @pytest.mark.parametrize(
        "text", ["1e30000000", "1e-30000000", "0.5", "1_000", "1/-2", "1 / 2", "", "٣"]
    )
    def test_anything_else_is_refused(self, text):
        # Fraction(text) reads an exponent or a decimal, and 1e30000000
        # would build a 30-million-digit integer first
        with pytest.raises(ValueError, match="^Invalid literal for Fraction: "):
            exactnum.parse_rational(text)
