"""Seeded inputs for the benchmark workloads, and the checks on their outputs.

A workload is a list of operations.  An operation is one fptkit command
line, run in-process through ``fptkit.cli.main``; its outcome is the exit
code, the captured stdout and the bytes of any report files it wrote.  Every
operation carries a check that returns a list of problems (empty = correct).

Inputs are chosen so that every seed costs about the same work: coefficients
vary with the seed, but the supports, the primes and the threshold values
that set the cost of a run do not.  Each workload's reason for existing is
in README.md next to this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import checks

# Coefficient numerators and denominators are products of these primes, so
# the REDUCTION_ERROR rows of a scan fall on small primes, which are cheap.
COEFF_PRIMES = (2, 3, 5, 7, 11, 13)

CUSP_PRIME_MAX = 180
GAP_PRIME_MAX = 120
E_MAX = 2

GEOMETRY_SETS = 16
# (variables, monomials) of the geometry sets, in order; the cost of a set is
# set mostly by its shape, so a fixed cycle of shapes keeps seeds comparable.
GEOMETRY_SHAPES = ((3, 4), (3, 5), (4, 5), (4, 6), (5, 6), (3, 6), (4, 7), (5, 5))


@dataclass
class Outcome:
    """What one operation produced."""

    rc: int
    stdout: str
    stderr: str
    files: dict[str, bytes] = field(default_factory=dict)

    def payload(self) -> bytes:
        """Everything the operation output, for digests and comparisons."""
        parts = [f"rc={self.rc}\n".encode(), self.stdout.encode()]
        for name in sorted(self.files):
            parts.append(f"\n--{name}--\n".encode())
            parts.append(self.files[name])
        return b"".join(parts)


@dataclass
class Op:
    """One command line; outputs named in ``files`` are written under the
    run's output directory and read back after the call."""

    name: str
    argv: list[str]
    check: Callable[[Outcome, dict], list[str]]
    files: tuple[str, ...] = ()


def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _prime_factors(n: int) -> set[int]:
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _seeded_rational(rng: random.Random) -> Fraction:
    num = math.prod(rng.sample(COEFF_PRIMES, rng.randrange(0, 3)))
    rest = [q for q in COEFF_PRIMES if num % q]
    den = math.prod(rng.sample(rest, rng.randrange(0, 2)))
    return Fraction(rng.choice((1, -1)) * num, den)


def _poly_text(terms: list[tuple[Fraction | int, str]]) -> str:
    out = []
    for c, mono in terms:
        c = Fraction(c)
        sign = "-" if c < 0 else "+"
        out.append(f"{sign} {abs(c)}*{mono}")
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _bad_primes(coeffs: list[Fraction]) -> set[int]:
    bad = set()
    for c in coeffs:
        bad |= _prime_factors(c.numerator) | _prime_factors(c.denominator)
    return bad


# ---------------------------------------------------------------- scan_cusp


def cusp_fpt(p: int) -> Fraction:
    """fpt(a*x^2 + b*y^3) over F_p for nonzero a, b (the paper's table)."""
    if p == 2:
        return Fraction(1, 2)
    if p == 3:
        return Fraction(2, 3)
    if p % 6 == 1:
        return Fraction(5, 6)
    return Fraction(5, 6) - Fraction(1, 6 * p)


def _cusp_scan(rng: random.Random) -> tuple[list[str], dict]:
    a, b = _seeded_rational(rng), _seeded_rational(rng)
    poly = _poly_text([(a, "x^2"), (b, "y^3")])
    primes = primes_upto(CUSP_PRIME_MAX)
    ctx = {"primes": primes, "bad": _bad_primes([a, b]) & set(primes), "fpt": cusp_fpt}
    argv = ["scan", poly, "--prime-range", f"2,{CUSP_PRIME_MAX}", "--e-max", str(E_MAX),
            "--csv", "{out}/scan.csv", "--json", "{out}/scan.json"]
    return argv, ctx


def scan_cusp(rng: random.Random) -> list[Op]:
    argv, ctx = _cusp_scan(rng)
    return [Op("scan", argv, lambda out, state: checks.check_scan(out, ctx),
               files=("scan.csv", "scan.json"))]


def scan_cusp_jobs(rng: random.Random) -> list[Op]:
    """The scan_cusp scan of the same seed, then the same scan with
    ``--jobs 2``, whose reports must equal those of the first.  The first
    scan is timed too: the --jobs 2 scan alone varied up to 23% between
    sets of runs, as its two threads hand the interpreter lock between the
    two CPUs, against under 1% for the --jobs 1 scan."""
    argv, ctx = _cusp_scan(rng)

    def check_one(out: Outcome, state: dict) -> list[str]:
        state["jobs1"] = out
        return checks.check_scan(out, ctx)

    def check_two(out: Outcome, state: dict) -> list[str]:
        return checks.check_scan(out, ctx) + checks.same_scan_output(state["jobs1"], out)

    return [
        Op("scan", argv, check_one, files=("scan.csv", "scan.json")),
        Op("scan_jobs2", argv + ["--jobs", "2"], check_two, files=("scan.csv", "scan.json")),
    ]


# ----------------------------------------------------------------- scan_gap


def scan_gap(rng: random.Random) -> list[Op]:
    # Redraw until the discriminant has no prime factor outside
    # COEFF_PRIMES: the degenerate rows (fpt 1/2) then sit on small primes.
    while True:
        a, b, c = (_seeded_rational(rng) for _ in range(3))
        disc = (b * b - 4 * a * c).numerator
        if disc and _prime_factors(disc) <= set(COEFF_PRIMES):
            break
    poly = _poly_text([(a, "x^2"), (b, "x*y"), (c, "y^2")])
    primes = primes_upto(GAP_PRIME_MAX)

    def fpt(p: int) -> Fraction:
        return Fraction(1, 2) if disc % p == 0 else Fraction(1)

    ctx = {"primes": primes, "bad": _bad_primes([a, b, c]) & set(primes), "fpt": fpt}
    argv = ["scan", poly, "--prime-range", f"2,{GAP_PRIME_MAX}", "--e-max", str(E_MAX),
            "--csv", "{out}/scan.csv", "--json", "{out}/scan.json"]
    return [Op("scan", argv, lambda out, state: checks.check_scan(out, ctx),
               files=("scan.csv", "scan.json"))]


# ------------------------------------------------------------ bracket_dense

QUADRIC_P = 7
# Base coefficients of the dense cases; a seed rescales every variable and
# the whole polynomial by units mod p.  That keeps the support, the term
# counts and nu of each case fixed while the coefficients change.
QUADRIC = {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3, (2, 0, 0): 1, (0, 2, 0): 4,
           (0, 0, 2): 2, (1, 1, 0): 5, (0, 1, 1): 1, (1, 0, 1): 3}
BINARY_P = 41
BINARY = {(3, 0): 1, (2, 1): 3, (1, 2): 2, (0, 3): 5, (4, 0): 1, (3, 1): 2,
          (2, 2): 7, (1, 3): 1, (0, 4): 4}
BINARY_E_OVER = 3
# Above the terms that levels 1 and 2 charge (about 9.1e4), far below level 3.
BINARY_BUDGET = 120_000


def _scaled(rng: random.Random, base: dict, p: int) -> str:
    m = len(next(iter(base)))
    scale = [rng.randrange(1, p) for _ in range(m)]
    unit = rng.randrange(1, p)
    names = "xyz"[:m]
    terms = []
    for expo, c in base.items():
        coeff = unit * c
        for s, k in zip(scale, expo):
            coeff = coeff * pow(s, k, p)
        mono = "*".join(f"{n}^{k}" if k > 1 else n for n, k in zip(names, expo) if k)
        terms.append((coeff % p, mono))
    return _poly_text(terms)


def bracket_dense(rng: random.Random) -> list[Op]:
    quadric = _scaled(rng, QUADRIC, QUADRIC_P)
    binary = _scaled(rng, BINARY, BINARY_P)

    def check_b(out: Outcome, state: dict) -> list[str]:
        state["nu_b"] = checks.bracket_nu(out.stdout)
        return checks.check_bracket(out, BINARY_P, E_MAX, one=False)

    def check_c(out: Outcome, state: dict) -> list[str]:
        problems = checks.check_bracket(out, BINARY_P, BINARY_E_OVER, exhausted=True)
        if checks.bracket_nu(out.stdout) != state.get("nu_b"):
            problems.append("nu levels before the budget ran out differ from the e=2 run")
        return problems

    return [
        Op("quadric", ["bracket", quadric, "-p", str(QUADRIC_P), "-e", str(E_MAX)],
           lambda out, state: checks.check_bracket(out, QUADRIC_P, E_MAX, one=True)),
        Op("binary", ["bracket", binary, "-p", str(BINARY_P), "-e", str(E_MAX)], check_b),
        Op("binary_budget", ["bracket", binary, "-p", str(BINARY_P), "-e", str(BINARY_E_OVER),
                             "--budget", str(BINARY_BUDGET)], check_c),
    ]


# -------------------------------------------------------- monomial_geometry


def _monomial_set(rng: random.Random, m: int, n: int) -> str:
    while True:
        vecs = {tuple(rng.randrange(0, 5) for _ in range(m)) for _ in range(n)}
        vecs.discard((0,) * m)
        if len(vecs) == n and all(any(v[i] for v in vecs) for i in range(m)):
            break
    names = [f"x{i + 1}" for i in range(m)]
    return ", ".join(
        "*".join(f"{x}^{k}" if k > 1 else x for x, k in zip(names, v) if k)
        for v in sorted(vecs)
    )


def _geometry_check(idx: int, key: str) -> Callable[[Outcome, dict], list[str]]:
    """Record set idx's output under key; newton, which runs last, compares
    all three."""
    def check(out: Outcome, state: dict) -> list[str]:
        state[(idx, key)] = out
        if out.rc != 0:
            return [f"exit code {out.rc}"]
        if key == "newton":
            return checks.same_geometry(state.get((idx, "alpha")), state.get((idx, "lct")), out)
        return []
    return check


def monomial_geometry(rng: random.Random) -> list[Op]:
    ops = []
    for i in range(GEOMETRY_SETS):
        m, n = GEOMETRY_SHAPES[i % len(GEOMETRY_SHAPES)]
        text = _monomial_set(rng, m, n)
        for key in ("alpha", "lct", "newton"):
            ops.append(Op(f"{key}{i}", [key, text], _geometry_check(i, key)))
    return ops


WORKLOADS = {
    "scan_cusp": scan_cusp,
    "scan_cusp_jobs": scan_cusp_jobs,
    "scan_gap": scan_gap,
    "bracket_dense": bracket_dense,
    "monomial_geometry": monomial_geometry,
}


def generate(name: str, seed: int) -> list[Op]:
    """The operations of workload ``name`` for ``seed``; deterministic.
    scan_cusp_jobs draws the same inputs as scan_cusp."""
    key = "scan_cusp" if name == "scan_cusp_jobs" else name
    return WORKLOADS[name](random.Random(f"{key}:{seed}"))
