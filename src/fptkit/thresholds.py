"""Threshold certification built on digits, polytopes, and Frobenius powers.

The central fact: when the splitting polytope has a unique coordinate-sum
maximizer, the base-p carrying behaviour of that point's entries decides the
threshold of every polynomial with that support and nonzero coefficients --
carry-free forever gives the exact monomial-ideal value, and the first carry
position yields a proved lower bound.  Everything else here (coefficient
polynomials, gap tests, prime scans) turns that into replayable per-prime
certificates.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import charp, exactnum, polygeo
from .charp import (
    EXACT,
    LOWER_BOUND,
    Certificate,
    FpPoly,
    QPoly,
    TermBudget,
    ThresholdReport,
)
from .errors import BudgetExceededError, NotApplicableError, ReductionError
from .exactnum import carry_free_prefix, multinomial_exact, multinomial_mod_p, truncate
from .polygeo import MonomialSet

ONE = Fraction(1)

DEFAULT_ORDER_CAP = 8


@dataclass(frozen=True)
class CarryVerdict:
    """Outcome of the carry criterion at a prime.

    kind EXACT: value is the threshold of every polynomial with the given
    support and nonzero coefficients.  kind LOWER_BOUND: value is a proved
    lower bound for all of them.
    """

    L: int | None
    kind: str
    value: Fraction


def support_monomials(f: FpPoly | QPoly) -> MonomialSet:
    """Monomial set of the supporting exponent vectors, in sorted order."""
    return MonomialSet(f.num_vars, tuple(sorted(f.support())))


def _support_of(f: FpPoly, ms: MonomialSet | None) -> MonomialSet:
    """ms after checking that it is f's support, or f's support if ms is None."""
    if ms is None:
        return support_monomials(f)
    if f.num_vars != ms.num_vars or f.support() != set(ms.monomials):
        raise ValueError("polynomial support does not match the monomial set")
    return ms


def carry_criterion(ms: MonomialSet, p: int) -> CarryVerdict:
    """Exact value or lower bound from the digits of the unique maximizer.

    With L the last position at which the maximizer's entries add without
    carrying: L infinite gives the exact monomial threshold; finite L gives
    the bound  sum of L-truncations + p**-L.
    """
    mp = polygeo.maximal_points(ms)
    if not mp.unique:
        raise NotApplicableError("splitting polytope has no unique maximal point")
    profile = carry_free_prefix(mp.point, p)
    if profile.carry_free:
        return CarryVerdict(L=None, kind=EXACT, value=mp.threshold)
    L = profile.L
    bound = sum(truncate(x, p, L) for x in mp.point) + Fraction(1, p**L)
    return CarryVerdict(L=L, kind=LOWER_BOUND, value=bound)


@dataclass(frozen=True)
class CoefficientPolynomial:
    """Integer polynomial in coefficient variables t_i.

    indices names which original monomials the variables refer to; terms map
    an exponent tuple (over those variables) to its exact integer multinomial
    coefficient.
    """

    p: int
    e: int
    indices: tuple[int, ...]
    terms: dict[tuple[int, ...], int]

    def evaluate_mod_p(self, coeffs: Sequence[int]) -> int:
        """Value mod p at residues for the variables, in indices order."""
        total = 0
        for expo, c in self.terms.items():
            term = c % self.p
            for u, k in zip(coeffs, expo):
                term = term * pow(u, k, self.p) % self.p
            total = (total + term) % self.p
        return total

    def format(self, names: Sequence[str] | None = None) -> str:
        if names is None:
            names = [f"t{i + 1}" for i in range(len(self.indices))]
        parts = []
        for expo in sorted(self.terms, reverse=True):
            c = self.terms[expo]
            factors = [str(c)] if c != 1 or not any(expo) else []
            for name, k in zip(names, expo):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            parts.append("*".join(factors) if factors else str(c))
        return " + ".join(parts) if parts else "0"


def theta_polynomial(ms: MonomialSet, p: int, e: int) -> CoefficientPolynomial:
    """Leading coefficient polynomial on the minimal-face generators.

    Sums exact multinomials over all nonnegative integer kappa supported on
    the minimal face with column-sum (p^e - 1)*(1,...,1) and total
    (p^e - 1)*alpha.  Requires diagonal position and integrality of that
    total; when no kappa exists the operation is not applicable.
    """
    exactnum._check_prime(p)
    if e < 1:
        raise ValueError(f"level must be >= 1, got {e}")
    analysis = polygeo.newton_analysis(ms)
    if not analysis.diagonal_position:
        raise NotApplicableError("Newton polyhedron is not in diagonal position")
    q = p**e
    total = (q - 1) * analysis.threshold
    if total.denominator != 1:
        raise NotApplicableError(
            f"(p^e - 1) * alpha = {total} is not an integer (p={p}, e={e})"
        )
    total = total.numerator
    members = analysis.lambda_members
    columns = [ms.monomials[i] for i in members]
    target = [q - 1] * ms.num_vars
    terms: dict[tuple[int, ...], int] = {}
    for kappa in polygeo.lattice_points(columns, target, total, exact=True):
        terms[kappa] = multinomial_exact(kappa)
    if not terms:
        raise NotApplicableError(
            "no maximal point eta with (p^e - 1) * eta integral exists"
        )
    return CoefficientPolynomial(p=p, e=e, indices=members, terms=terms)


def theta_for_point(
    ms: MonomialSet, point: Sequence[Fraction], p: int
) -> CoefficientPolynomial:
    """Coefficient polynomial attached to one maximal point, at level 1.

    Enumerates k >= 0 with sum k = (p-1)*alpha and E k = (p-1)*E*point; all
    multinomials here are nonzero mod p because the total stays below p.
    """
    exactnum._check_prime(p)
    point = tuple(Fraction(x) for x in point)
    alpha = polygeo.splitting_threshold(ms)
    if alpha > 1:
        raise NotApplicableError(f"threshold {alpha} exceeds 1")
    if sum(point) != alpha or any(x < 0 for x in point):
        raise ValueError("point is not a maximal point of the splitting polytope")
    e_mat = ms.exponent_matrix
    if any(sum(row[j] * point[j] for j in range(len(point))) > 1 for row in e_mat):
        raise ValueError("point is not a maximal point of the splitting polytope")
    scaled = [(p - 1) * x for x in point]
    if any(x.denominator != 1 for x in scaled):
        raise NotApplicableError(f"(p - 1) * point = {scaled} is not integral")
    total = (p - 1) * alpha
    assert total.denominator == 1
    target = [
        sum(e_mat[i][j] * scaled[j].numerator for j in range(len(point)))
        for i in range(ms.num_vars)
    ]
    terms: dict[tuple[int, ...], int] = {}
    for k in polygeo.lattice_points(ms.monomials, target, total.numerator, exact=True):
        terms[k] = multinomial_exact(k)
    assert terms, "the scaled point itself always solves the system"
    return CoefficientPolynomial(
        p=p, e=1, indices=tuple(range(ms.num_monomials)), terms=terms
    )


def _integral_maximal_point(
    ms: MonomialSet, alpha: Fraction, p: int
) -> tuple[Fraction, ...] | None:
    """Some maximal point eta with (p-1)*eta integral, or None."""
    total = (p - 1) * alpha
    if total.denominator != 1:
        return None
    cap = [p - 1] * ms.num_vars
    # maximality is automatic: sum k = (p-1)*alpha forces k/(p-1) onto the
    # maximal face once it lies in the polytope
    for k in polygeo.lattice_points(ms.monomials, cap, total.numerator):
        return tuple(Fraction(x, p - 1) for x in k)
    return None


def generic_gap_test(f: FpPoly, ms: MonomialSet | None = None) -> bool:
    """Certify that f attains the threshold of its monomial support.

    Evaluates the coefficient polynomial of an integral maximal point at f's
    coefficients: a nonzero value exhibits a surviving monomial in
    f^((p-1)*alpha) and proves the threshold of f equals alpha exactly.
    Zero is inconclusive (the coefficients sit on the exceptional locus).
    """
    ms = _support_of(f, ms)
    alpha = polygeo.splitting_threshold(ms)
    if alpha > 1:
        raise NotApplicableError(f"threshold {alpha} exceeds 1")
    eta = _integral_maximal_point(ms, alpha, f.p)
    if eta is None:
        raise NotApplicableError(
            f"no maximal point eta with (p - 1) * eta integral at p = {f.p}"
        )
    theta = theta_for_point(ms, eta, f.p)
    coeffs = [f.terms[mon] for mon in ms.monomials]
    return theta.evaluate_mod_p(coeffs) != 0


def restrict_to_minimal_face(f: FpPoly, ms: MonomialSet | None = None) -> FpPoly:
    """Subpolynomial supported on the minimal-face generators."""
    ms = _support_of(f, ms)
    analysis = polygeo.newton_analysis(ms)
    keep = {ms.monomials[i] for i in analysis.lambda_members}
    return FpPoly(f.p, f.num_vars, {k: c for k, c in f.terms.items() if k in keep})


def fedder_prime_bound(alpha: Fraction, n_power: int, e: int) -> Fraction:
    """Prime-power threshold B = n_power * alpha / (alpha - 1).

    Contract: if the monomial threshold alpha exceeds 1, the minimal-face
    part of f has an isolated singularity witnessed by exponent n_power
    (all x_i^n_power lie in its Jacobian ideal), and p^e > n_power with
    p^e >= B, then the threshold of f at p is exactly 1.  The exponent e
    only enters through the caller's comparison against p^e.
    """
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise ValueError(f"bound requires alpha > 1, got {alpha}")
    if n_power < 1:
        raise ValueError(f"isolated-singularity exponent must be >= 1, got {n_power}")
    if e < 1:
        raise ValueError(f"level must be >= 1, got {e}")
    return n_power * alpha / (alpha - 1)


def unique_point_coefficient(f: FpPoly, e: int, ms: MonomialSet | None = None) -> int:
    """Coefficient of the distinguished monomial in the truncation power.

    For the unique maximal point eta, the coefficient of x^(p^e E tr) in
    f^(p^e |tr|), with tr the level-e truncation of eta, is a single
    multinomial times a monomial in the coefficients -- no expansion needed.
    """
    ms = _support_of(f, ms)
    mp = polygeo.maximal_points(ms)
    if not mp.unique:
        raise NotApplicableError("splitting polytope has no unique maximal point")
    p = f.p
    q = p**e
    parts = [int(q * truncate(x, p, e)) for x in mp.point]
    value = multinomial_mod_p(parts, p)
    for mon, k in zip(ms.monomials, parts):
        value = value * pow(f.terms[mon], k, p) % p
    return value


def _certificate_level(point: Sequence[Fraction], p: int) -> int:
    """Smallest e <= DEFAULT_ORDER_CAP with (p^e - 1) * point integral, via the
    multiplicative order of p modulo the lcm d of the denominators.  Raises
    NotApplicableError saying why there is none: p divides d, or the order
    of p modulo d exceeds the cap."""
    d = math.lcm(*(Fraction(x).denominator for x in point)) if point else 1
    if d == 1:
        return 1
    if math.gcd(p, d) != 1:
        raise NotApplicableError(
            "no finite splitting certificate "
            f"(p = {p} divides a denominator of the maximal point)"
        )
    acc = 1
    for e in range(1, DEFAULT_ORDER_CAP + 1):
        acc = acc * p % d
        if acc == 1:
            return e
    raise NotApplicableError(
        f"no splitting certificate at levels e <= {DEFAULT_ORDER_CAP} "
        f"(the order of p = {p} modulo {d} exceeds {DEFAULT_ORDER_CAP})"
    )


CERTIFIED_EXACT = "CERTIFIED_EXACT"
LOWER_BOUND_ONLY = "LOWER_BOUND_ONLY"
BRACKET_ONLY = "BRACKET_ONLY"
REDUCTION_ERROR = "REDUCTION_ERROR"


@dataclass
class ScanRow:
    """One prime's worth of scan output."""

    prime: int
    claim: str
    report: ThresholdReport | None = None
    witness: bool = False
    error: str | None = None

    @property
    def value(self) -> Fraction | None:
        return self.report.value if self.report else None

    @property
    def bracket(self) -> tuple[Fraction, Fraction] | None:
        return self.report.bracket if self.report else None


def _scan_one_prime(
    f: QPoly,
    ms: MonomialSet,
    p: int,
    e_max: int,
    budget_limit: int,
    preserve_support: bool,
) -> ScanRow:
    geometry = polygeo.maximal_points(ms)
    alpha = geometry.threshold
    try:
        fp = charp.reduce_mod_p(f, p, preserve_support=preserve_support)
    except ReductionError as ex:
        return ScanRow(prime=p, claim=REDUCTION_ERROR, error=str(ex))
    if fp.is_zero():
        return ScanRow(
            prime=p, claim=REDUCTION_ERROR, error="all coefficients vanish mod p"
        )

    # One budget caps the row: the bracket's sweep and a certificate
    # replayed past the levels that sweep completed.
    budget = TermBudget(budget_limit)
    report = charp.bracket(fp, e_max, budget)
    nu = report.nu_values.values if report.nu_values is not None else ()
    notes: list[str] = []
    exact: Fraction | None = None
    lower: Fraction | None = None
    level: int | None = None  # of the certificate (level, exact) to confirm

    # the support-driven criteria speak about polynomials with the *full*
    # support; a model that dropped terms only gets direct computations
    full_support = fp.support() == set(ms.monomials)
    if not full_support:
        notes.append("support changed under reduction; geometric criteria skipped")
    elif geometry.unique:
        verdict = carry_criterion(ms, p)
        if verdict.kind == EXACT:
            exact = verdict.value
            try:
                level = _certificate_level(geometry.point, p)
            except NotApplicableError as ex:
                notes.append(f"exact by carry-free digits; {ex.reason}")
        else:
            lower = verdict.value
            notes.append(f"carry criterion bound with L = {verdict.L}")
    else:
        notes.append("no unique maximal point")
        if alpha <= 1:
            try:
                if generic_gap_test(fp, ms):
                    exact, level = alpha, 1
                else:
                    notes.append("coefficient polynomial vanishes mod p (inconclusive)")
            except NotApplicableError as ex:
                notes.append(f"gap test not applicable: {ex.reason}")

    # Above alpha = 1 the threshold is 1 exactly when nu(1) = p - 1 (Fedder).
    # lower == 1 implies alpha > 1: a carry at L + 1 puts sum trunc_L + p^-L below alpha.
    if exact is None and alpha > 1:
        if lower == 1 or (nu and nu[0] == p - 1):
            exact, level = ONE, 1
        elif not nu:
            notes.append("budget exhausted while testing threshold 1")
        else:
            notes.append("threshold is strictly below 1")

    # Confirm the certificate off the nu table, or replay it past the table.
    # exact is proved, so a refuted certificate is an internal error.
    if level is not None:
        try:
            if level <= len(nu):
                ok = (p**level - 1) * exact <= nu[level - 1]
            else:
                ok = charp.certify_lower(fp, exact, level, budget)
        except BudgetExceededError:
            report.budget_exhausted = True
            notes.append(f"budget exhausted while replaying the level-{level} certificate")
        else:
            if not ok:
                raise AssertionError(f"level-{level} certificate refutes {exact}")
            report.certificates.append(Certificate(e=level, lam=exact, verified=True))

    report.notes = notes + report.notes
    if exact is not None:
        report.kind, report.value = EXACT, exact
        claim = CERTIFIED_EXACT if report.certificates else LOWER_BOUND_ONLY
    elif lower is not None:
        report.kind, report.value = LOWER_BOUND, lower
        claim = LOWER_BOUND_ONLY
        if report.bracket is not None and lower == report.bracket[1]:
            report.notes.append("lower bound meets the bracket upper end: value is exact")
    else:
        claim = BRACKET_ONLY
    # a lower bound left here is below alpha and not 1, so it never witnesses
    witness = full_support and exact == min(ONE, alpha)
    return ScanRow(prime=p, claim=claim, report=report, witness=witness)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked_scan(work, ordered: list[int], jobs: int) -> list[ScanRow] | None:
    """Rows of ordered from jobs forked children, or None if a fork or a child failed.

    Child i scans ordered[i::jobs] and writes its rows to a pipe as one
    pickle; it never returns into the caller.  Every child is reaped before
    this returns, and killed first if the parent is interrupted.
    """
    pending: list[int] = []
    pipes = []
    try:
        for i in range(jobs):
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
            except OSError:  # out of processes: the serial scan still runs
                os.close(w)
                return None
            if pid == 0:
                code = 1
                try:
                    with os.fdopen(w, "wb") as out:
                        pickle.dump([work(p) for p in ordered[i::jobs]], out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            pending.append(pid)
        chunks = [pipe.read() for pipe in pipes]
        failed = 0  # a child exits 0 only after writing all its rows
        while pending:
            failed |= os.waitpid(pending[-1], 0)[1]
            pending.pop()
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pending:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failed:
        return None
    return sorted((row for chunk in chunks for row in pickle.loads(chunk)), key=lambda r: r.prime)


def dense_fpurity_scan(
    f: QPoly,
    primes: Sequence[int],
    e_max: int,
    budget_limit: int = charp.DEFAULT_TERM_BUDGET,
    preserve_support: bool = True,
    jobs: int = 1,
) -> list[ScanRow]:
    """Per-prime threshold reports for the mod-p models of f, ordered by prime.

    Reduction failures are recorded per prime and the scan continues.  With
    jobs > 1 the primes are dealt out to min(jobs, primes, usable CPUs)
    forked processes; if any of them fails, the whole scan is rerun here, so
    an error is raised exactly as with jobs = 1.
    """
    for p in primes:
        if not exactnum.is_prime(p):
            raise ValueError(f"scan requires primes, got {p}")
    if not f.terms:
        raise ValueError("cannot scan the zero polynomial")
    ms = support_monomials(f)
    polygeo.maximal_points(ms)  # solved here, once, before any worker starts
    ordered = sorted(set(primes))

    def work(p: int) -> ScanRow:
        return _scan_one_prime(f, ms, p, e_max, budget_limit, preserve_support)

    jobs = min(jobs, len(ordered), _usable_cpus())
    rows = _forked_scan(work, ordered, jobs) if jobs > 1 and hasattr(os, "fork") else None
    return rows if rows is not None else [work(p) for p in ordered]


def scan_csv_text(rows: Sequence[ScanRow]) -> str:
    """Scan rows as CSV, byte-stable for a fixed configuration."""
    lines = ["prime,kind,value_num,value_den,bracket_low,bracket_high,witness_flag"]
    for row in sorted(rows, key=lambda r: r.prime):
        if row.report is None or row.value is None:
            num = den = ""
        else:
            num, den = str(row.value.numerator), str(row.value.denominator)
        if row.bracket is None:
            lo = hi = ""
        else:
            lo, hi = (exactnum.format_rational(b) for b in row.bracket)
        flag = "true" if row.witness else "false"
        lines.append(f"{row.prime},{row.claim},{num},{den},{lo},{hi},{flag}")
    return "\n".join(lines) + "\n"


def scan_json_document(source: str, config: dict, rows: Sequence[ScanRow]) -> dict:
    """Scan results as a JSON-ready document embedding the certificates."""
    out_rows = []
    certs = []
    for row in sorted(rows, key=lambda r: r.prime):
        entry: dict = {"prime": row.prime, "claim": row.claim}
        if row.error is not None:
            entry["error"] = row.error
        if row.report is not None:
            rep = row.report
            entry["kind"] = rep.kind
            if rep.value is not None:
                entry["value"] = exactnum.format_rational(rep.value)
            if rep.bracket is not None:
                entry["bracket_low"] = exactnum.format_rational(rep.bracket[0])
                entry["bracket_high"] = exactnum.format_rational(rep.bracket[1])
            if rep.nu_values is not None:
                entry["nu"] = list(rep.nu_values.values)
            entry["witness"] = row.witness
            if rep.budget_exhausted:
                entry["budget_exhausted"] = True
            if rep.notes:
                entry["notes"] = list(rep.notes)
            for cert in rep.certificates:
                certs.append(
                    {
                        "prime": row.prime,
                        "e": cert.e,
                        "lambda": exactnum.format_rational(cert.lam),
                        "verified": cert.verified,
                    }
                )
        out_rows.append(entry)
    return {"input": source, "config": config, "rows": out_rows, "certificates": certs}
