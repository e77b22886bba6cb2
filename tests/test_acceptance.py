"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every expected value is exact; there are no
floating-point tolerances anywhere.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from fptkit import charp, exactnum, polygeo, thresholds
from fptkit.charp import EXACT, LOWER_BOUND, FpPoly
from fptkit.parsing import parse_polynomial
from fptkit.polygeo import MonomialSet
from fptkit.thresholds import CERTIFIED_EXACT, dense_fpurity_scan

import oracles

F = Fraction


def _report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS  {detail}")


def test_criterion_1_cusp_table():
    """Scan of x^2 + y^3 reproduces the characteristic-p threshold table."""
    started = time.monotonic()
    f = parse_polynomial("x^2+y^3")
    rows = {r.prime: r for r in dense_fpurity_scan(f, [2, 3, 5, 7, 11, 13], e_max=3)}

    expected_pinned = {2: F(1, 2), 3: F(2, 3)}
    for p, value in expected_pinned.items():
        row = rows[p]
        assert row.value == value
        assert row.bracket[1] == value  # pinned: bound meets the bracket

    for p in (7, 13):
        row = rows[p]
        assert row.claim == CERTIFIED_EXACT
        assert row.report.kind == EXACT
        assert row.value == F(5, 6)
        assert row.witness

    for p in (5, 11):
        row = rows[p]
        formula = F(5, 6) - F(1, 6 * p)
        assert row.report.kind == LOWER_BOUND
        assert row.value == formula  # the digit bound equals the closed form
        low, high = row.bracket
        assert high == formula
        assert high - low <= F(1, p**2)

    elapsed = time.monotonic() - started
    assert elapsed < 60
    _report(1, f"cusp table over 6 primes, e_max=3, in {elapsed:.2f}s")


def test_criterion_2_pth_powers():
    """x^p + y^p has threshold 1/p while its monomial ideal has 2/p."""
    for p in (2, 3, 5):
        f = charp.reduce_mod_p(parse_polynomial(f"x^{p}+y^{p}"), p)
        table = charp.nu_table(f, 3)
        assert table.values == tuple(p ** (e - 1) - 1 for e in (1, 2, 3))
        report = charp.bracket(f, 3)
        assert report.bracket[1] == F(1, p)

        ideal = MonomialSet(2, ((p, 0), (0, p)))
        assert charp.nu_ideal(ideal, p, 2) == 2 * (p - 1)
        assert polygeo.splitting_threshold(ideal) == F(2, p)
    _report(2, "nu(e) = p^(e-1) - 1 for e <= 3 and nu_ideal(2) = 2(p-1) at p = 2, 3, 5")


def _random_monomial_set(rng, max_vars, max_monomials, max_exp):
    m = rng.randint(1, max_vars)
    n = rng.randint(1, max_monomials)
    seen = set()
    while len(seen) < n:
        v = tuple(rng.randint(0, max_exp) for _ in range(m))
        if any(v):
            seen.add(v)
    return MonomialSet(m, tuple(sorted(seen)))


def test_criterion_3_threshold_oracle_equivalence():
    """Simplex and Newton-polyhedron routes agree; both match brute force."""
    rng = random.Random(362880)
    sets = [_random_monomial_set(rng, 4, 4, 6) for _ in range(100)]
    for s in sets:
        assert polygeo.splitting_threshold(s) == polygeo.newton_threshold(s)
    for s in sets[:50]:
        ones = [1] * s.num_monomials
        rows = [list(row) for row in s.exponent_matrix]
        status, value, _ = oracles.lp_vertex_oracle(ones, rows, [1] * s.num_vars)
        assert status == "OPTIMAL"
        assert polygeo.splitting_threshold(s) == value
    _report(3, "alpha = lct on 100 random monomial sets; 50 match the vertex oracle")


def test_criterion_4_lucas():
    """Digit-wise multinomials agree with exact factorial arithmetic."""
    started = time.monotonic()
    fact = [1]
    for k in range(1, 61):
        fact.append(fact[-1] * k)

    def exact(parts):
        out = fact[sum(parts)]
        for k in parts:
            out //= fact[k]
        return out

    primes = (2, 3, 5, 7, 11)
    checked = 0
    # every multiset of at most 4 parts with total <= 60; multinomials are
    # symmetric, and order-invariance is asserted separately below
    for size in range(1, 5):
        for parts in itertools.combinations_with_replacement(range(61), size):
            if sum(parts) > 60:
                continue
            value = exact(parts)
            for p in primes:
                assert exactnum.multinomial_mod_p(parts, p) == value % p
                checked += 1
    rng = random.Random(3)
    for _ in range(200):
        size = rng.randint(2, 4)
        parts = [rng.randint(0, 30) for _ in range(size)]
        if sum(parts) > 60:
            continue
        shuffled = parts[:]
        rng.shuffle(shuffled)
        for p in primes:
            assert exactnum.multinomial_mod_p(parts, p) == exactnum.multinomial_mod_p(
                shuffled, p
            )
    elapsed = time.monotonic() - started
    assert elapsed < 10
    _report(4, f"{checked} multinomial residues vs factorials in {elapsed:.2f}s")


def test_criterion_5_nu_oracle():
    """Incremental nu equals full (unpruned) expansion on a complete grid."""
    mons = [(i, j) for i in range(5) for j in range(5) if (i, j) != (0, 0)]
    supports = list(itertools.combinations(mons, 2)) + list(
        itertools.combinations(mons, 3)
    )
    primes = (2, 3, 5, 7)
    checked = 0
    for exps in supports:
        for p in primes:
            f = FpPoly(p, 2, {v: 1 for v in exps})
            expected = oracles.nu_expansion_oracle(f.terms, p, [1, 2], 2)
            for e in (1, 2):
                assert charp.nu(f, e) == expected[e], (exps, p, e)
                checked += 1
    # coefficient variation on a seeded sample
    rng = random.Random(55)
    for exps in rng.sample(supports, 150):
        p = rng.choice(primes)
        coeffs = {v: rng.randint(1, p - 1) for v in exps}
        f = FpPoly(p, 2, coeffs)
        expected = oracles.nu_expansion_oracle(f.terms, p, [1, 2], 2)
        for e in (1, 2):
            assert charp.nu(f, e) == expected[e], (exps, coeffs, p, e)
            checked += 1
    _report(5, f"{checked} nu values over all 2- and 3-term supports, exps <= 4")


def test_criterion_6_carry_sandwich():
    """Carry verdicts against brute-force brackets on random unique-point sets."""
    rng = random.Random(20260810)
    sets = []
    while len(sets) < 30:
        s = _random_monomial_set(rng, 3, 3, 4)
        mp = polygeo.maximal_points(s)
        if mp.unique:
            sets.append((s, mp))

    for s, mp in sets:
        alpha = mp.threshold
        for p in (2, 3, 5, 7):
            f_p = FpPoly(p, s.num_vars, {v: 1 for v in s.monomials})
            verdict = thresholds.carry_criterion(s, p)
            for e_max in (1, 2):
                low, high = charp.bracket(f_p, e_max).bracket
                if verdict.kind == EXACT:
                    assert low < verdict.value <= high
                else:
                    assert verdict.value <= high

        # carry-free primes found through the progression give exactness
        d = math.lcm(*(x.denominator for x in mp.point))
        if d > 24:
            continue
        (p,) = exactnum.primes_in_progression(d, 1)
        f_p = FpPoly(p, s.num_vars, {v: 1 for v in s.monomials})
        verdict = thresholds.carry_criterion(s, p)
        if alpha <= 1:
            assert verdict.kind == EXACT and verdict.value == alpha
            assert charp.certify_lower(f_p, alpha, 1) is True
        else:
            assert verdict.kind == LOWER_BOUND and verdict.value == 1
            assert charp.fpt_is_one(f_p) is True
    _report(6, "verdict/bracket sandwich plus carry-free exactness on 30 sets")


def test_criterion_7_theta_identities():
    """Reduction of the full power equals theta times the corner monomial,
    and theta is multiplicative across levels."""
    cases = [
        (MonomialSet(2, ((2, 0), (0, 3))), 7, (1,)),
        (MonomialSet(2, ((2, 0), (0, 2))), 3, (1, 2)),
    ]
    for s, p, levels in cases:
        alpha = polygeo.splitting_threshold(s)
        ones = [1] * s.num_monomials
        for e in levels:
            theta = thresholds.theta_polynomial(s, p, e)
            power = int((p**e - 1) * alpha)
            f = {v: 1 for v in s.monomials}
            expanded = oracles.poly_pow(f, power, p, s.num_vars)
            q = p**e
            reduced = {k: c for k, c in expanded.items() if all(x < q for x in k)}
            corner = (q - 1,) * s.num_vars
            assert reduced == {corner: theta.evaluate_mod_p(ones)}
        t1 = thresholds.theta_polynomial(s, p, 1)
        t2 = thresholds.theta_polynomial(s, p, 2)
        gamma = (p**2 - 1) // (p - 1)
        assert t2.evaluate_mod_p(ones) == pow(t1.evaluate_mod_p(ones), gamma, p)
    _report(7, "theta coefficient identity and multiplicativity on both cases")


def test_criterion_8_supersingularity_probe():
    """The Fermat cubic threshold hits 1 exactly at ordinary primes."""
    started = time.monotonic()
    g = parse_polynomial("x^3+y^3+z^3")
    assert charp.fpt_is_one(charp.reduce_mod_p(g, 7)) is True
    assert charp.fpt_is_one(charp.reduce_mod_p(g, 5)) is False
    elapsed = time.monotonic() - started
    assert elapsed < 30
    _report(8, f"x^3+y^3+z^3: threshold 1 at p=7, below 1 at p=5, in {elapsed:.2f}s")
