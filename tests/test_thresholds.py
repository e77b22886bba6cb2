"""Carry criterion, coefficient polynomials, gap tests, and the prime scan."""

import os
import random
import signal
import time
from fractions import Fraction

import pytest

from fptkit import charp, exactnum, polygeo, ratlp, thresholds
from fptkit.charp import EXACT, LOWER_BOUND
from fptkit.errors import NotApplicableError, ReductionError
from fptkit.parsing import parse_polynomial
from fptkit.polygeo import MonomialSet
from fptkit.thresholds import (
    BRACKET_ONLY,
    CERTIFIED_EXACT,
    LOWER_BOUND_ONLY,
    REDUCTION_ERROR,
    carry_criterion,
    dense_fpurity_scan,
    scan_csv_text,
    scan_json_document,
)

import oracles

F = Fraction

CUSP = MonomialSet(2, ((2, 0), (0, 3)))


def fp(p, text):
    return charp.reduce_mod_p(parse_polynomial(text), p)


class TestCarryCriterion:
    @pytest.mark.parametrize(
        "p,kind,value",
        [
            (2, LOWER_BOUND, F(1, 2)),
            (3, LOWER_BOUND, F(2, 3)),
            (5, LOWER_BOUND, F(4, 5)),
            (7, EXACT, F(5, 6)),
            (11, LOWER_BOUND, F(9, 11)),
            (13, EXACT, F(5, 6)),
        ],
    )
    def test_cusp_table(self, p, kind, value):
        verdict = carry_criterion(CUSP, p)
        assert (verdict.kind, verdict.value) == (kind, value)

    def test_lower_bound_matches_closed_form(self):
        # for p = 5 mod 6 the bound equals 5/6 - 1/(6p)
        for p in (5, 11, 17, 23):
            verdict = carry_criterion(CUSP, p)
            assert verdict.value == F(5, 6) - F(1, 6 * p)

    def test_requires_unique_point(self):
        tie = MonomialSet(2, ((2, 0), (0, 2), (1, 1)))
        with pytest.raises(NotApplicableError):
            carry_criterion(tie, 5)

    def test_alpha_above_one_gives_bound_one(self):
        # digits of (1, 1) carry immediately, so L = 0 and the bound is 1
        verdict = carry_criterion(MonomialSet(2, ((1, 0), (0, 1))), 3)
        assert verdict.kind == LOWER_BOUND and verdict.value == 1 and verdict.L == 0

    @staticmethod
    def _checked_against_class_oracle(s, primes):
        """carry_criterion's L and value against the residue-class oracle at
        every prime past the oracle's p_min; returns the verdicts checked."""
        point = polygeo.maximal_points(s).point
        checked = []
        for p in primes:
            L, bound, p_min = oracles.carry_class_oracle(point, p)
            if p < p_min:
                continue
            verdict = carry_criterion(s, p)
            assert (verdict.L, verdict.value) == (L, bound), (s.monomials, p)
            assert verdict.kind == (EXACT if L is None else LOWER_BOUND)
            checked.append(verdict)
        return checked

    @pytest.mark.parametrize(
        "s,count",
        [(CUSP, 427), (MonomialSet(3, ((3, 0, 0), (0, 3, 0), (0, 0, 3))), 428)],
        ids=["cusp", "fermat_cubic"],
    )
    def test_against_class_oracle(self, s, count):
        # x^2, y^3 from p = 7 and the Fermat cubic from p = 5: every prime
        # below 3000 except those dividing the denominators
        checked = self._checked_against_class_oracle(s, exactnum.primes_in_range(2, 2999))
        assert len(checked) == count
        assert {v.L for v in checked} == {None, 1}

    def test_against_class_oracle_on_random_sets(self):
        rng = random.Random(20261019)
        primes = exactnum.primes_in_range(2, 199)
        sets, positions = 0, set()
        while sets < 300:
            m, n = rng.randint(2, 3), rng.randint(2, 4)
            monomials = set()
            while len(monomials) < n:
                v = tuple(rng.randint(0, 5) for _ in range(m))
                if any(v):
                    monomials.add(v)
            s = MonomialSet(m, tuple(sorted(monomials)))
            if not polygeo.maximal_points(s).unique:
                continue
            sets += 1
            positions |= {v.L for v in self._checked_against_class_oracle(s, primes)}
        assert {None, 0, 1, 2, 3} <= positions


class TestThetaPolynomial:
    def test_cusp_mod_seven(self):
        theta = thresholds.theta_polynomial(CUSP, 7, 1)
        assert theta.terms == {(3, 2): 10}
        assert theta.indices == (0, 1)

    def test_two_squares_mod_three(self):
        theta = thresholds.theta_polynomial(MonomialSet(2, ((2, 0), (0, 2))), 3, 1)
        assert theta.terms == {(1, 1): 2}

    def test_not_applicable_when_total_fractional(self):
        with pytest.raises(NotApplicableError) as err:
            thresholds.theta_polynomial(CUSP, 2, 1)
        assert "not an integer" in str(err.value)

    def test_not_applicable_without_diagonal_position(self):
        skew = MonomialSet(2, ((1, 0),))
        with pytest.raises(NotApplicableError):
            thresholds.theta_polynomial(skew, 3, 1)

    def test_coefficient_identity_against_expansion(self):
        # expanding f^((p^e - 1) * alpha) and reducing leaves exactly
        # theta(u) * (x1...xm)^(p^e - 1)
        cases = [(CUSP, 7, 1), (MonomialSet(2, ((2, 0), (0, 2))), 3, 1),
                 (MonomialSet(2, ((2, 0), (0, 2))), 3, 2)]
        for s, p, e in cases:
            theta = thresholds.theta_polynomial(s, p, e)
            alpha = polygeo.splitting_threshold(s)
            power = int((p**e - 1) * alpha)
            f = {v: 1 for v in s.monomials}
            expanded = oracles.poly_pow(f, power, p, s.num_vars)
            reduced = {
                k: c for k, c in expanded.items() if all(x < p**e for x in k)
            }
            coeffs = [1] * len(s.monomials)
            expected_coeff = theta.evaluate_mod_p(coeffs)
            corner = (p**e - 1,) * s.num_vars
            assert reduced == {corner: expected_coeff}

    def test_multiplicativity(self):
        # theta at level 2 is theta at level 1 raised to (p^2-1)/(p-1), mod p
        for s, p in ((MonomialSet(2, ((2, 0), (0, 2))), 3), (CUSP, 7)):
            t1 = thresholds.theta_polynomial(s, p, 1)
            t2 = thresholds.theta_polynomial(s, p, 2)
            ones = [1] * len(s.monomials)
            gamma = (p**2 - 1) // (p - 1)
            assert t2.evaluate_mod_p(ones) == pow(t1.evaluate_mod_p(ones), gamma, p)


class TestThetaForPoint:
    def test_cusp_point(self):
        theta = thresholds.theta_for_point(CUSP, (F(1, 2), F(1, 3)), 7)
        assert theta.terms == {(3, 2): 10}

    def test_conic_with_middle_term(self):
        s = MonomialSet(2, ((2, 0), (1, 1), (0, 2)))
        theta = thresholds.theta_for_point(s, (F(1, 2), F(0), F(1, 2)), 3)
        assert theta.terms == {(1, 0, 1): 2, (0, 2, 0): 1}

    def test_alpha_above_one_rejected(self):
        s = MonomialSet(2, ((1, 0), (0, 1)))
        with pytest.raises(NotApplicableError):
            thresholds.theta_for_point(s, (F(1), F(1)), 3)

    def test_non_integral_point_rejected(self):
        with pytest.raises(NotApplicableError):
            thresholds.theta_for_point(CUSP, (F(1, 2), F(1, 3)), 2)


class TestGenericGapTest:
    def test_cusp_mod_seven(self):
        assert thresholds.generic_gap_test(fp(7, "x^2+y^3")) is True

    def test_support_collapse_is_rejected_at_reduction(self):
        with pytest.raises(ReductionError):
            fp(5, "2*x^2 + 5*y^3")

    def test_inconclusive_coefficients(self):
        # x^2 + 2xy + y^2 = (x+y)^2 over F_3 has fpt 1/2 < alpha = 1, and the
        # coefficient polynomial t1*t3*2 + t2^2 vanishes at (1, 2, 1) mod 3
        f = fp(3, "x^2 + 2*x*y + y^2")
        assert thresholds.generic_gap_test(f) is False

    def test_takes_the_support(self):
        f = fp(7, "x^2+y^3")
        assert thresholds.generic_gap_test(f, CUSP) is True
        with pytest.raises(ValueError):
            thresholds.generic_gap_test(f, MonomialSet(2, ((2, 0), (0, 2))))

    def test_certifies_exactness(self):
        f = fp(7, "3*x^2 + 5*y^3")
        if thresholds.generic_gap_test(f):
            assert charp.certify_lower(f, F(5, 6), 1)


# One row of each kind a scan can produce: the full JSON row and its
# certificates, pinned so that a rewrite of the row logic shows any change.
_ROW_KINDS = [
    pytest.param(
        "x^2+y^3", 7, 1, charp.DEFAULT_TERM_BUDGET, True,
        {"prime": 7, "claim": "CERTIFIED_EXACT", "kind": "EXACT", "value": "5/6",
         "bracket_low": "5/7", "bracket_high": "6/7", "nu": [5], "witness": True},
        [(1, "5/6")],
        id="carry-exact-table-certificate",
    ),
    pytest.param(
        "x^3", 2, 1, charp.DEFAULT_TERM_BUDGET, True,
        {"prime": 2, "claim": "CERTIFIED_EXACT", "kind": "EXACT", "value": "1/3",
         "bracket_low": "0", "bracket_high": "1/2", "nu": [0], "witness": True},
        [(2, "1/3")],
        id="carry-exact-replayed-past-table",
    ),
    pytest.param(
        "x^2", 2, 2, charp.DEFAULT_TERM_BUDGET, True,
        {"prime": 2, "claim": "LOWER_BOUND_ONLY", "kind": "EXACT", "value": "1/2",
         "bracket_low": "1/4", "bracket_high": "1/2", "nu": [0, 1], "witness": True,
         "notes": ["exact by carry-free digits; no finite splitting certificate "
                   "(p = 2 divides a denominator of the maximal point)"]},
        [],
        id="carry-exact-p-divides-denominator",
    ),
    pytest.param(
        "x^2+y^3", 5, 2, charp.DEFAULT_TERM_BUDGET, True,
        {"prime": 5, "claim": "LOWER_BOUND_ONLY", "kind": "LOWER_BOUND",
         "value": "4/5", "bracket_low": "19/25", "bracket_high": "4/5",
         "nu": [3, 19], "witness": False,
         "notes": ["carry criterion bound with L = 1",
                   "lower bound meets the bracket upper end: value is exact"]},
        [],
        id="carry-bound",
    ),
    pytest.param(
        "x^2+x*y+y^2", 5, 2, charp.DEFAULT_TERM_BUDGET, True,
        {"prime": 5, "claim": "CERTIFIED_EXACT", "kind": "EXACT", "value": "1",
         "bracket_low": "24/25", "bracket_high": "1", "nu": [4, 24],
         "witness": True, "notes": ["no unique maximal point"]},
        [(1, "1")],
        id="gap-exact",
    ),
    pytest.param(
        # the gap test's witness gives nu(1) = p - 1 without expanding, so a
        # budget of 1 term no longer ends the row (it was LOWER_BOUND_ONLY,
        # budget exhausted, with no nu and no certificate)
        "x^2+x*y+y^2", 5, 2, 1, True,
        {"prime": 5, "claim": "CERTIFIED_EXACT", "kind": "EXACT", "value": "1",
         "bracket_low": "24/25", "bracket_high": "1", "nu": [4, 24],
         "witness": True, "notes": ["no unique maximal point"]},
        [(1, "1")],
        id="gap-exact-witness-needs-no-budget",
    ),
    pytest.param(
        "x^2+2*x*y+y^2", 3, 2, charp.DEFAULT_TERM_BUDGET, True,
        {"prime": 3, "claim": "BRACKET_ONLY", "kind": "BRACKET",
         "bracket_low": "4/9", "bracket_high": "5/9", "nu": [1, 4],
         "witness": False,
         "notes": ["no unique maximal point",
                   "coefficient polynomial vanishes mod p (inconclusive)"]},
        [],
        id="gap-inconclusive",
    ),
    pytest.param(
        "x+y^2", 3, 2, charp.DEFAULT_TERM_BUDGET, True,
        {"prime": 3, "claim": "CERTIFIED_EXACT", "kind": "EXACT", "value": "1",
         "bracket_low": "8/9", "bracket_high": "1", "nu": [2, 8], "witness": True,
         "notes": ["carry criterion bound with L = 0"]},
        [(1, "1")],
        id="carry-bound-one",
    ),
    pytest.param(
        "x+y^2", 3, 1, 1, True,
        {"prime": 3, "claim": "LOWER_BOUND_ONLY", "kind": "EXACT", "value": "1",
         "witness": True, "budget_exhausted": True,
         "notes": ["carry criterion bound with L = 0",
                   "budget exhausted while replaying the level-1 certificate",
                   "term budget exhausted before any nu level completed"]},
        [],
        id="carry-bound-one-budget-exhausted",
    ),
    pytest.param(
        "7*x+y", 7, 2, charp.DEFAULT_TERM_BUDGET, False,
        {"prime": 7, "claim": "CERTIFIED_EXACT", "kind": "EXACT", "value": "1",
         "bracket_low": "48/49", "bracket_high": "1", "nu": [6, 48],
         "witness": False,
         "notes": ["support changed under reduction; geometric criteria skipped"]},
        [(1, "1")],
        id="support-changed-threshold-one",
    ),
    pytest.param(
        "3*x+y^2", 3, 2, charp.DEFAULT_TERM_BUDGET, False,
        {"prime": 3, "claim": "BRACKET_ONLY", "kind": "BRACKET",
         "bracket_low": "4/9", "bracket_high": "5/9", "nu": [1, 4],
         "witness": False,
         "notes": ["support changed under reduction; geometric criteria skipped",
                   "threshold is strictly below 1"]},
        [],
        id="alpha-above-one-threshold-below-one",
    ),
    pytest.param(
        "x^2+y^3+z^7", 127, 1, 10_000, True,
        {"prime": 127, "claim": "LOWER_BOUND_ONLY", "kind": "EXACT",
         "value": "41/42", "witness": True, "budget_exhausted": True,
         "notes": ["budget exhausted while replaying the level-1 certificate",
                   "term budget exhausted before any nu level completed"]},
        [],
        id="budget-exhausted-replay",
    ),
]


class TestScan:
    @pytest.mark.parametrize("text,p,e_max,budget,preserve,row,certs", _ROW_KINDS)
    def test_row_kinds_pinned(
        self, monkeypatch, text, p, e_max, budget, preserve, row, certs
    ):
        replayed = []
        certify_lower = charp.certify_lower
        monkeypatch.setattr(
            charp,
            "certify_lower",
            lambda f, lam, e, b: replayed.append(e) or certify_lower(f, lam, e, b),
        )
        rows = dense_fpurity_scan(
            parse_polynomial(text),
            [p],
            e_max=e_max,
            budget_limit=budget,
            preserve_support=preserve,
        )
        doc = scan_json_document(text, {}, rows)
        assert doc["rows"] == [row]
        assert doc["certificates"] == [
            {"prime": p, "e": e, "lambda": lam, "verified": True} for e, lam in certs
        ]
        # a certificate is replayed only past the levels the nu table holds
        assert all(e > len(row.get("nu", ())) for e in replayed)

    def test_line_scan_is_all_ones(self):
        rows = dense_fpurity_scan(parse_polynomial("x+y"), [2, 3, 5], e_max=2)
        for row in rows:
            assert row.claim == CERTIFIED_EXACT
            assert row.value == 1
            assert row.witness

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_pth_power_scan_at_its_own_prime(self, p):
        f = parse_polynomial(f"x^{p}+y^{p}")
        (row,) = dense_fpurity_scan(f, [p], e_max=3)
        # bracket pins 1/p, strictly below the monomial threshold 2/p
        assert row.bracket[1] == F(1, p)
        assert row.report.nu_values == tuple(
            p ** (e - 1) - 1 for e in (1, 2, 3)
        )
        assert not row.witness

    def test_reduction_error_row(self):
        rows = dense_fpurity_scan(parse_polynomial("1/2*x^2+y^3"), [2, 3], e_max=2)
        assert rows[0].claim == REDUCTION_ERROR
        assert rows[0].error is not None
        assert rows[1].claim == LOWER_BOUND_ONLY

    @pytest.mark.parametrize(
        "text, count",
        [("x^2+y^3", 38), ("3*x^2+5*y^3+x*y^2", 38), ("x^3+y^3+z^3", 39)],
    )
    def test_carry_rows_against_class_oracle(self, text, count):
        # every full-support row past the oracle's p_min reports the class
        # verdict: the bound, or alpha when the digits never carry, and the L
        f = parse_polynomial(text)
        point = polygeo.maximal_points(thresholds.support_monomials(f)).point
        checked = 0
        for row in dense_fpurity_scan(f, exactnum.primes_in_range(2, 180), e_max=1):
            L, bound, p_min = oracles.carry_class_oracle(point, row.prime)
            notes = row.report.notes if row.report else []
            if row.prime < p_min or "support changed" in " ".join(notes):
                continue
            assert row.value == (sum(point) if L is None else bound), (text, row.prime)
            named = [n for n in notes if n.startswith("carry criterion bound")]
            assert named == ([] if L is None else [f"carry criterion bound with L = {L}"])
            checked += 1
        assert checked == count

    def test_certificates_replay(self):
        # carry-criterion rows, gap-test rows and alpha > 1 rows (bound 1)
        cases = [("x^2+y^3", [7, 13]), ("x^2+x*y+y^2", [5, 7]), ("x+y^2", [3, 5, 7])]
        for text, primes in cases:
            rows = dense_fpurity_scan(parse_polynomial(text), primes, e_max=2)
            assert [row.prime for row in rows] == primes
            for row in rows:
                assert row.claim == CERTIFIED_EXACT
                assert row.report.certificates
                for cert in row.report.certificates:
                    f_p = fp(row.prime, text)
                    assert charp.certify_lower(f_p, cert.lam, cert.e) is True

    def test_non_unique_support_uses_gap_test(self):
        # alpha({x^2, xy, y^2}) = 1 with a whole edge of maximizers
        rows = dense_fpurity_scan(parse_polynomial("x^2+x*y+y^2"), [5, 7], e_max=2)
        for row in rows:
            assert row.claim in (CERTIFIED_EXACT, BRACKET_ONLY, LOWER_BOUND_ONLY)
            if row.claim == CERTIFIED_EXACT:
                assert row.value == 1

    @pytest.mark.parametrize(
        "text, p, expands",
        [("x^2+x*y+y^2", 5, False), ("x^2+2*x*y+y^2", 3, True)],
        ids=["gap-certified", "gap-inconclusive"],
    )
    def test_gap_certified_row_never_multiplies(self, monkeypatch, text, p, expands):
        calls = []
        multiply = charp.FpPoly.multiply
        monkeypatch.setattr(
            charp.FpPoly, "multiply", lambda *args: calls.append(1) or multiply(*args)
        )
        (row,) = dense_fpurity_scan(parse_polynomial(text), [p], e_max=2)
        assert row.claim == (BRACKET_ONLY if expands else CERTIFIED_EXACT)
        assert bool(calls) == expands

    def test_gap_certified_nu_matches_expansion(self):
        # random supports in two variables with alpha = 1 and no unique
        # maximal point, and (x + y)^2, whose gap test is inconclusive
        rng = random.Random(16)
        pool = [(a, b) for a in range(4) for b in range(4) if 0 < a + b <= 3]
        polys = [parse_polynomial("x^2+2*x*y+y^2")]
        while len(polys) < 9:
            ms = MonomialSet(2, tuple(sorted(rng.sample(pool, rng.randint(2, 4)))))
            geometry = polygeo.maximal_points(ms)
            if not geometry.unique and geometry.threshold == 1:
                polys.append(charp.QPoly(2, {mon: rng.randint(1, 60) for mon in ms.monomials}))
        kinds = set()
        for f in polys:
            for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
                e_max = 2 if p <= 7 else 1
                (row,) = dense_fpurity_scan(f, [p], e_max=e_max)
                if row.claim == REDUCTION_ERROR:
                    continue
                kinds.add(row.claim)
                expected = oracles.nu_expansion_oracle(
                    charp.reduce_mod_p(f, p).terms, p, range(1, e_max + 1), 2
                )
                assert row.report.nu_values == tuple(
                    expected[e] for e in range(1, e_max + 1)
                ), (f, p)
        assert kinds == {CERTIFIED_EXACT, BRACKET_ONLY}

    def test_square_binomial_is_inconclusive_then_bracketed(self):
        # (x+y)^2 over F_3 has threshold 1/2; the gap test is inconclusive
        # and the bracket closes in on 1/2 without ever touching it
        (row,) = dense_fpurity_scan(parse_polynomial("x^2+2*x*y+y^2"), [3], e_max=3)
        assert row.claim == BRACKET_ONLY
        low, high = row.bracket
        assert low < F(1, 2) <= high
        assert high - low == F(1, 27)

    def test_csv_shape_and_stability(self):
        f = parse_polynomial("x^2+y^3")
        rows_sequential = dense_fpurity_scan(f, [2, 3, 5, 7], e_max=2, jobs=1)
        rows_parallel = dense_fpurity_scan(f, [2, 3, 5, 7], e_max=2, jobs=3)
        text = scan_csv_text(rows_sequential)
        assert text == scan_csv_text(rows_parallel)
        header, *body = text.strip().split("\n")
        assert header == "prime,kind,value_num,value_den,bracket_low,bracket_high,witness_flag"
        assert [line.split(",")[0] for line in body] == ["2", "3", "5", "7"]

    def test_json_document(self):
        f = parse_polynomial("x^2+y^3")
        rows = dense_fpurity_scan(f, [7], e_max=2)
        doc = scan_json_document("x^2+y^3", {"e_max": 2}, rows)
        assert doc["input"] == "x^2+y^3"
        assert doc["rows"][0]["claim"] == CERTIFIED_EXACT
        assert doc["certificates"][0]["lambda"] == "5/6"

    def test_rejects_composite_input(self):
        with pytest.raises(ValueError):
            dense_fpurity_scan(parse_polynomial("x"), [4], e_max=1)

    @pytest.mark.parametrize("text", ["x^2+y^3", "x^2+x*y+y^2"])
    def test_rejects_level_below_one(self, text):
        # the second is a gap-certified row, whose nu table is never swept
        with pytest.raises(ValueError, match="e_max must be >= 1, got 0"):
            dense_fpurity_scan(parse_polynomial(text), [5], e_max=0)

    @pytest.mark.parametrize("e_max", [1, 3])
    def test_exact_certificate_at_deeper_level(self, e_max):
        # support {x^3} at p = 2: carry-free, and the smallest usable level
        # is the order of 2 mod 3, namely e = 2; with e_max = 1 that level
        # lies past the nu table and is replayed on the row's budget
        (row,) = dense_fpurity_scan(parse_polynomial("x^3"), [2], e_max=e_max)
        assert len(row.report.nu_values) == e_max
        assert row.claim == CERTIFIED_EXACT
        assert row.value == F(1, 3)
        (cert,) = row.report.certificates
        assert (cert.e, cert.lam) == (2, F(1, 3))
        f2 = charp.reduce_mod_p(parse_polynomial("x^3"), 2)
        assert charp.certify_lower(f2, cert.lam, cert.e) is True

    def test_exact_without_finite_certificate(self):
        # support {x^2} at p = 2: the carry criterion proves 1/2 exactly but
        # (2^e - 1)/2 is never integral, so no splitting certificate exists
        (row,) = dense_fpurity_scan(parse_polynomial("x^2"), [2], e_max=3)
        assert row.report.kind == EXACT
        assert row.value == F(1, 2)
        assert row.claim == LOWER_BOUND_ONLY  # no replayable certificate
        assert not row.report.certificates
        assert any("no finite splitting" in n for n in row.report.notes)
        # the bracket still pins the value
        assert row.bracket[1] == F(1, 2)

    def test_no_certificate_note_names_its_cause(self):
        # support {x^23}: at 23 the prime divides the denominator; at 5 it
        # does not, but the order of 5 mod 23 is 22, past the level cap
        rows = dense_fpurity_scan(parse_polynomial("x^23"), [5, 23], e_max=1)
        assert [(row.claim, row.report.kind) for row in rows] == [
            (LOWER_BOUND_ONLY, EXACT)
        ] * 2
        assert rows[0].report.notes == (
            "exact by carry-free digits; no splitting certificate at levels "
            "e <= 8 (the order of p = 5 modulo 23 exceeds 8)",
        )
        assert rows[1].report.notes == (
            "exact by carry-free digits; no finite splitting certificate "
            "(p = 23 divides a denominator of the maximal point)",
        )

    def test_dropped_support_skips_geometric_claims(self):
        # 7x + y loses a monomial mod 7; the remaining model is handled by
        # direct computation only and never flagged as a witness
        f = parse_polynomial("7*x + y")
        (row,) = dense_fpurity_scan(f, [7], e_max=2, preserve_support=False)
        assert row.claim == CERTIFIED_EXACT  # fpt(y) = 1, proved directly
        assert row.value == 1
        assert not row.witness
        assert any("support changed" in note for note in row.report.notes)

    def test_budget_exhausted_replay_is_labelled(self):
        # at 127 and 211 the carry criterion proves 41/42 exactly with a
        # level-1 certificate, but 10^4 terms do not finish level 1: the row
        # keeps the exact value, unreplayed, and the scan goes on
        f = parse_polynomial("x^2+y^3+z^7")
        rows = dense_fpurity_scan(f, [5, 127, 211], e_max=1, budget_limit=10_000)
        assert [row.prime for row in rows] == [5, 127, 211]
        assert (rows[0].claim, rows[0].report.kind) == (LOWER_BOUND_ONLY, LOWER_BOUND)
        for row in rows[1:]:
            assert row.report.kind == EXACT
            assert row.value == F(41, 42)
            assert row.claim == LOWER_BOUND_ONLY
            assert not row.report.certificates
            assert row.report.budget_exhausted
            assert (
                "budget exhausted while replaying the level-1 certificate"
                in row.report.notes
            )
        # x^5 at 2: the bracket completes level 1 on no terms, and the
        # level-4 replay past it runs out of a 1-term budget
        f = parse_polynomial("x^5")
        (row,) = dense_fpurity_scan(f, [2], e_max=1, budget_limit=1)
        assert row.report.nu_values == (0,)
        assert (row.report.kind, row.claim) == (EXACT, LOWER_BOUND_ONLY)
        assert row.report.budget_exhausted and not row.report.certificates
        assert row.report.notes == (
            "budget exhausted while replaying the level-4 certificate",
        )

    def test_threshold_below_one_read_off_nu1(self):
        # 3x + y^2 keeps only y^2 mod 3: alpha({x, y^2}) = 3/2 > 1, but
        # nu(1) = 1 < p - 1, so the threshold of y^2 is strictly below 1
        f = parse_polynomial("3*x + y^2")
        (row,) = dense_fpurity_scan(f, [3], e_max=2, preserve_support=False)
        assert row.claim == BRACKET_ONLY
        assert row.bracket == (F(4, 9), F(5, 9))
        assert "threshold is strictly below 1" in row.report.notes

    def test_solves_do_not_grow_with_primes(self, monkeypatch):
        solves = []
        optimal_face = ratlp.optimal_face
        monkeypatch.setattr(ratlp, "optimal_face", lambda lp: solves.append(lp) or optimal_face(lp))
        f = parse_polynomial("x^2+x*y+y^2")
        counts = []
        for top in (30, 120):
            solves.clear()
            primes = [p for p in range(2, top + 1) if exactnum.is_prime(p)]
            dense_fpurity_scan(f, primes, e_max=1)
            counts.append(len(solves))
        assert counts[0] == counts[1] > 0

    def test_vanishing_polynomial_is_a_reduction_error_row(self):
        f = parse_polynomial("7*x + 7*y")
        (row,) = dense_fpurity_scan(f, [7], e_max=1, preserve_support=False)
        assert row.claim == REDUCTION_ERROR


@pytest.fixture
def pool(monkeypatch):
    """Two usable CPUs, so jobs > 1 forks; counts the forks and the primes
    this process scans itself."""
    seen = {"forks": 0, "scanned": []}
    fork, scan_one = os.fork, thresholds._scan_one_prime

    def counted_fork():
        seen["forks"] += 1
        return fork()

    def recorded_scan(f, ms, p, *rest):
        seen["scanned"].append(p)
        return scan_one(f, ms, p, *rest)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(thresholds, "_scan_one_prime", recorded_scan)
    return seen


def _scan(*args, **kwargs):
    """dense_fpurity_scan, ending a child that comes back out of it."""
    parent = os.getpid()
    try:
        return dense_fpurity_scan(*args, **kwargs)
    finally:
        if os.getpid() != parent:
            os._exit(99)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestForkedScan:
    @pytest.mark.parametrize("text,p,e_max,budget,preserve,row,certs", _ROW_KINDS)
    def test_row_kinds_equal_serial(self, pool, text, p, e_max, budget, preserve, row, certs):
        f, primes = parse_polynomial(text), sorted({2, 3, p})
        docs = []
        for jobs in (1, 2):
            pool["scanned"].clear()
            rows = _scan(f, primes, e_max=e_max, budget_limit=budget,
                         preserve_support=preserve, jobs=jobs)
            docs.append(scan_json_document(text, {}, rows))
        # the children scanned every prime; the parent fell back to none
        assert pool == {"forks": 2, "scanned": []}
        assert docs[1] == docs[0]
        assert row in docs[1]["rows"]
        assert _no_children_left()

    def test_failing_prime_raises_as_serial(self, pool, monkeypatch):
        scan_one = thresholds._scan_one_prime

        def failing(f, ms, p, *rest):
            if p == 7:
                raise ArithmeticError(f"no row for {p}")
            return scan_one(f, ms, p, *rest)

        monkeypatch.setattr(thresholds, "_scan_one_prime", failing)
        f = parse_polynomial("x^2+y^3")
        raised = []
        for jobs in (1, 2):
            pool["scanned"].clear()
            with pytest.raises(ArithmeticError) as info:
                _scan(f, [2, 3, 5, 7, 11], e_max=2, jobs=jobs)
            raised.append((type(info.value), str(info.value)))
        # the child that met 7 wrote nothing, so the parent reran the scan
        assert pool == {"forks": 2, "scanned": [2, 3, 5]}
        assert raised[1] == raised[0] == (ArithmeticError, "no row for 7")
        assert _no_children_left()

    def test_failed_fork_scans_serially(self, pool, monkeypatch):
        fork = os.fork

        def second_fork_fails():
            if pool["forks"] == 1:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        f = parse_polynomial("x^2+y^3")
        rows = _scan(f, [2, 3, 5, 7], e_max=2, jobs=2)
        # the first child is killed and reaped, and the parent scans it all
        assert pool["scanned"] == [2, 3, 5, 7]
        assert scan_csv_text(rows) == scan_csv_text(_scan(f, [2, 3, 5, 7], e_max=2))
        assert _no_children_left()

    def test_interrupted_parent_kills_and_reaps(self, pool, monkeypatch):
        # the children would sleep for a minute; the parent is interrupted
        # while it reads their pipes
        monkeypatch.setattr(thresholds, "_scan_one_prime", lambda *args: time.sleep(60))

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                _scan(parse_polynomial("x^2+y^3"), [2, 3, 5], e_max=1, jobs=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert pool["forks"] == 2
        assert time.perf_counter() - start < 10
        assert _no_children_left()

    @pytest.mark.parametrize("affinity", [True, False])
    def test_workers_capped_by_cpus_and_primes(self, pool, monkeypatch, affinity):
        if not affinity:  # platforms without sched_getaffinity use cpu_count
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2 if not affinity else 64)
        f = parse_polynomial("x^2+y^3")
        rows = _scan(f, [2, 3, 5, 7, 11], e_max=1, jobs=10**6)
        assert pool == {"forks": 2, "scanned": []}
        assert [row.prime for row in rows] == [2, 3, 5, 7, 11]
        _scan(f, [7], e_max=1, jobs=10**6)
        assert pool == {"forks": 2, "scanned": [7]}  # one prime: no fork
        assert _no_children_left()
