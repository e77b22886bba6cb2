"""Sparse multivariate polynomial arithmetic over F_p and threshold data.

The reduction everything leans on: a monomial lies in the e-th Frobenius
power of the maximal ideal iff some exponent reaches p**e, so reducing a
polynomial modulo that ideal just drops such terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import exactnum
from .errors import BudgetExceededError, IntegralityError, ReductionError
from .polygeo import MonomialSet, lattice_points, splitting_threshold

DEFAULT_TERM_BUDGET = 5_000_000


class TermBudget:
    """Monotone term counter shared by the expansion routines.

    Exhaustion raises instead of truncating, so a runaway expansion can
    never silently produce a wrong answer.
    """

    def __init__(self, limit: int = DEFAULT_TERM_BUDGET):
        if limit < 1:
            raise ValueError(f"budget must be positive, got {limit}")
        self.limit = limit
        self.used = 0

    def charge(self, amount: int) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(f"term budget exhausted ({self.used} > {self.limit})")


class FpPoly:
    """Polynomial over F_p as a finite map exponent-vector -> nonzero residue."""

    __slots__ = ("p", "num_vars", "terms")

    def __init__(self, p: int, num_vars: int, terms: Mapping[tuple[int, ...], int]):
        self.p = p
        self.num_vars = num_vars
        clean: dict[tuple[int, ...], int] = {}
        for k, c in terms.items():
            c %= p
            if c == 0:
                continue
            k = tuple(int(a) for a in k)
            if len(k) != num_vars or any(a < 0 for a in k):
                raise ValueError(f"bad exponent vector {k} for {num_vars} variables")
            clean[k] = c
        self.terms = clean

    @classmethod
    def one(cls, p: int, num_vars: int) -> "FpPoly":
        return cls(p, num_vars, {(0,) * num_vars: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> set[tuple[int, ...]]:
        return set(self.terms)

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.num_vars, 0)

    def multiply(self, other: "FpPoly", budget: TermBudget | None = None) -> "FpPoly":
        """self * other, charged to budget with the length of the unreduced
        product, zero coefficients included, times the 64-bit words of a
        packed key.  The result keeps only the nonzero terms inside self's
        level box, so a boxed _Packed self reduces as it multiplies; a public
        operand has no box.  When len(self) * len(other) terms fit in what is
        left of the budget, the product cannot pass it and is built column by
        column; any other is built row by row, stops after the row that
        passes the budget, and the charge raises.  Both reduce each
        coefficient mod p as it accumulates."""
        if self.p != other.p or self.num_vars != other.num_vars:
            raise ValueError("cannot multiply polynomials over different rings")
        a, b = self, other  # the nu engine's operands come packed, at one width
        if not isinstance(self, _Packed):
            top = max((x for g in (self, other) for k in g.terms for x in k), default=0)
            a, b = _Packed(self, top.bit_length() + 2), _Packed(other, top.bit_length() + 2)
        p, rows, cols = self.p, a.terms.items(), list(b.terms.items())
        words = (self.num_vars * a.width + 63) // 64 or 1
        room = math.inf if budget is None else (budget.limit - budget.used) // words
        by_columns = len(rows) * len(cols) <= room  # then the product cannot pass the budget
        out = {k1 + cols[0][0]: c1 * cols[0][1] % p for k1, c1 in rows} if by_columns and cols else {}
        get = out.get
        if by_columns:  # b's first term above, then one column per further term
            for k2, c2 in cols[1:]:
                for k1, c1 in rows:
                    k = k1 + k2
                    out[k] = (get(k, 0) + c1 * c2) % p
        else:  # row by row, up to the row that passes the budget
            for k1, c1 in rows:
                for k2, c2 in cols:
                    k = k1 + k2
                    out[k] = (get(k, 0) + c1 * c2) % p
                if len(out) > room:
                    break
        if budget is not None:
            budget.charge(len(out) * words)
        off, high = a.box
        terms = {k: c for k, c in out.items() if c and not (k + off) & high}
        result = _Packed(a, a.width, terms, a.box)
        return result if a is self else result.unpacked()

    __mul__ = multiply

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpPoly)
            and self.p == other.p
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, self.num_vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"FpPoly(p={self.p}, num_vars={self.num_vars}, terms={self.terms!r})"


class _Packed(FpPoly):
    """FpPoly with each exponent vector packed into one int, `width` bits per
    variable, every field below 2^(width-1): adding keys adds exponents, and a
    field is >= q <= 2^(width-1) iff adding 2^(width-1) - q sets its top bit.
    box holds the two masks (off, high) of the level box [0, q)^m that its
    terms lie in (see level_box): k is inside iff not (k + off) & high.  The
    default (0, 0) is no box, and keeps every key."""

    __slots__ = ("width", "box")

    def __init__(self, f: FpPoly, width: int, terms: dict[int, int] | None = None,
                 box: tuple[int, int] = (0, 0)):
        if terms is None:  # f's own terms, packed; else the given ones, over f's ring
            terms = {sum(a << i * width for i, a in enumerate(k)): c for k, c in f.terms.items()}
        self.p, self.num_vars, self.width, self.terms, self.box = f.p, f.num_vars, width, terms, box

    def level_box(self, q: int) -> tuple[int, int]:
        """The masks (off, high) of the box [0, q)^m at this width."""
        w = self.width
        ones = ((1 << self.num_vars * w) - 1) // ((1 << w) - 1)  # a 1 in each field
        return ones * ((1 << w - 1) - q), ones << w - 1

    def unpacked(self) -> FpPoly:
        mask, fields = (1 << self.width) - 1, range(0, self.num_vars * self.width, self.width)
        terms = {tuple(k >> i & mask for i in fields): c for k, c in self.terms.items()}
        return FpPoly(self.p, self.num_vars, terms)


class QPoly:
    """Polynomial with rational coefficients, same sparse shape as FpPoly."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[tuple[int, ...], Fraction]):
        self.num_vars = num_vars
        clean: dict[tuple[int, ...], Fraction] = {}
        for k, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            k = tuple(int(a) for a in k)
            if len(k) != num_vars or any(a < 0 for a in k):
                raise ValueError(f"bad exponent vector {k} for {num_vars} variables")
            clean[k] = c
        self.terms = clean

    def support(self) -> set[tuple[int, ...]]:
        return set(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QPoly)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"QPoly(num_vars={self.num_vars}, terms={self.terms!r})"


def reduce_mod_p(f: QPoly, p: int, preserve_support: bool = True) -> FpPoly:
    """Coefficient-wise reduction num * den^-1 mod p.

    With preserve_support (the default) a coefficient that vanishes mod p is
    an error: the mod-p models downstream are only meaningful when they keep
    the full set of supporting monomials.
    """
    exactnum._check_prime(p)
    terms: dict[tuple[int, ...], int] = {}
    for k, c in f.terms.items():
        if c.denominator % p == 0:
            raise ReductionError(
                f"coefficient {c} has denominator divisible by {p}"
            )
        r = c.numerator * pow(c.denominator, -1, p) % p
        if r == 0:
            if preserve_support:
                raise ReductionError(
                    f"support collapse: coefficient {c} of {k} vanishes mod {p}"
                )
            continue
        terms[k] = r
    return FpPoly(p, f.num_vars, terms)


def frobenius_reduce(g: FpPoly, e: int) -> FpPoly:
    """Canonical representative of g modulo (x_1^{p^e}, ..., x_m^{p^e})."""
    if e < 1:
        raise ValueError(f"Frobenius level must be >= 1, got {e}")
    q = g.p**e
    if isinstance(g, _Packed):
        off, high = box = g.level_box(q)
        return _Packed(g, g.width, {k: c for k, c in g.terms.items() if not (k + off) & high}, box)
    return FpPoly(g.p, g.num_vars, {k: c for k, c in g.terms.items() if all(a < q for a in k)})


def _check_nu_input(f: FpPoly) -> None:
    if f.is_zero():
        raise ValueError("nu is undefined for the zero polynomial")
    if f.constant_term() != 0:
        raise ValueError("nu requires f(0) = 0 (no constant term)")


def nu(f: FpPoly, e: int, budget: TermBudget | None = None) -> int:
    """Largest a with f^a outside the e-th Frobenius power of (x_1,...,x_m)."""
    _check_nu_input(f)
    if e < 1:
        raise ValueError(f"level must be >= 1, got {e}")
    if budget is None:
        budget = TermBudget()
    return tuple(_nu_levels(f, e, budget))[-1]


@dataclass(frozen=True)
class NuTable:
    p: int
    e_max: int
    values: tuple[int, ...]

    def check_monotone(self) -> bool:
        return all(
            self.p * self.values[i] <= self.values[i + 1]
            for i in range(len(self.values) - 1)
        )


def _nu_levels(f: FpPoly, e_max: int, budget: TermBudget, stop: int | None = None):
    """Yield nu(e) for e = 1..e_max, sharing work across levels.

    This is the one loop that raises f to a power.  Within a level it keeps
    f^a reduced after each multiplication; since the Frobenius power is an
    ideal, reduction commutes with further multiplication, and once the
    reduced power hits zero it stays zero.  Between levels the running power
    jumps by a Frobenius twist: if r is f^a reduced at level e, then r^p is
    f^(p*a) reduced at level e+1 (p-th powers distribute over sums in
    characteristic p and send the level-e Frobenius ideal into the
    level-(e+1) one).  Since p*nu(e) <= nu(e+1), the jump never skips the
    answer; it only skips exponents already known to stay outside the ideal.
    Once nu(1) = p - 1 the threshold is 1 (Fedder), so nu(e) = p^e - 1 at
    every later level (Blickle-Mustata-Smith), yielded without expanding.

    It runs on _Packed polynomials whose fields hold p^e_max - 1 plus the
    largest exponent of f, since each multiply is by the full, unreduced f.
    r carries the box of its level, so the step r.multiply(f) reduces inside
    the product; frobenius_reduce runs only on f, at most once per level.

    With stop, the last level quits once its exponent reaches stop, so its
    value is no longer nu(e_max), but it reaches stop exactly when nu(e_max)
    does.
    """
    p = f.p
    f = _Packed(f, (p**e_max - 1 + max(a for k in f.terms for a in k)).bit_length() + 1)
    best = 0  # while best > 0, r holds f^best reduced at the last level
    for e in range(1, e_max + 1):
        q = p**e
        limit = q - 1 if stop is None or e < e_max else min(q - 1, stop)
        if e > 1 and best == q // p - 1:  # nu(e-1) = p^(e-1) - 1, so fpt = 1
            best = limit
        elif best:  # fields of r are < p^(e-1), so times p they stay < p^e
            twist = {k * p: c for k, c in r.terms.items()}
            best, r = p * best, _Packed(r, r.width, twist, f.level_box(q))
        else:
            r = frobenius_reduce(f, e)
            best = 0 if r.is_zero() else 1
        while 0 < best < limit:
            try:
                nxt = r.multiply(f, budget)
            except BudgetExceededError as ex:
                raise BudgetExceededError(f"{ex} at p={p}, level e={e}, exponent a={best + 1}") from None
            if nxt.is_zero():
                break
            r, best = nxt, best + 1
        yield best


def nu_table(f: FpPoly, e_max: int, budget: TermBudget | None = None) -> NuTable:
    """nu at every level 1..e_max in one sweep (see _nu_levels)."""
    _check_nu_input(f)
    if e_max < 1:
        raise ValueError(f"e_max must be >= 1, got {e_max}")
    if budget is None:
        budget = TermBudget()
    values = tuple(_nu_levels(f, e_max, budget))
    return NuTable(p=f.p, e_max=e_max, values=values)


def certify_lower(
    f: FpPoly, lam: Fraction, e: int, budget: TermBudget | None = None
) -> bool:
    """Decide whether f^((p^e - 1) * lam) survives the level-e reduction,
    that is, whether (p^e - 1) * lam <= nu(e).

    For rational lam in [0, 1] with (p^e - 1) * lam integral, a surviving
    power proves the threshold of f is >= lam, and a vanishing one proves
    it is < lam.
    """
    _check_nu_input(f)
    lam = Fraction(lam)
    if lam < 0 or lam > 1:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if e < 1:
        raise ValueError(f"level must be >= 1, got {e}")
    t = (f.p**e - 1) * lam
    if t.denominator != 1:
        raise IntegralityError(
            f"(p^e - 1) * lambda = {t} is not an integer (p={f.p}, e={e}, lambda={lam})"
        )
    t = t.numerator
    if t == 0:
        return True
    if budget is None:
        budget = TermBudget()
    return tuple(_nu_levels(f, e, budget, stop=t))[-1] >= t


def fpt_is_one(f: FpPoly, budget: TermBudget | None = None) -> bool:
    """Threshold equals 1 iff f^(p-1) survives level-1 reduction."""
    return certify_lower(f, Fraction(1), 1, budget)


def nu_ideal(ms: MonomialSet, p: int, e: int) -> int:
    """Largest r with the ms-generated ideal's r-th power outside level e.

    Equals max |k| over lattice points k >= 0 with E k <= (p^e - 1) * 1:
    the first total, counting down from the floor of the LP relaxation
    value, that some lattice point attains.
    """
    if e < 1:
        raise ValueError(f"level must be >= 1, got {e}")
    cap = p**e - 1
    bound = [cap] * ms.num_vars
    lp_floor = math.floor(splitting_threshold(ms) * cap)
    return next(
        total
        for total in range(lp_floor, -1, -1)
        if next(lattice_points(ms.monomials, bound, total), None) is not None
    )


@dataclass(frozen=True)
class Certificate:
    """A replayable splitting certificate: f^((p^e - 1) * lam) survives level e."""

    e: int
    lam: Fraction
    verified: bool


@dataclass
class ThresholdReport:
    """Certified threshold output.

    kind EXACT carries the exact value; LOWER_BOUND carries a proved lower
    bound; BRACKET carries only the interval pinned by the nu table.  The
    bracket, when present, always contains the true threshold: it lies in
    (low, high] with low = max nu(e)/p^e and high = min (nu(e)+1)/p^e.
    """

    kind: str  # EXACT | LOWER_BOUND | BRACKET
    value: Fraction | None = None
    bracket: tuple[Fraction, Fraction] | None = None
    nu_values: NuTable | None = None
    certificates: list[Certificate] = field(default_factory=list)
    budget_exhausted: bool = False
    notes: list[str] = field(default_factory=list)


EXACT = "EXACT"
LOWER_BOUND = "LOWER_BOUND"
BRACKET = "BRACKET"


def bracket(f: FpPoly, e_max: int, budget: TermBudget | None = None) -> ThresholdReport:
    """Two-sided threshold bracket from the nu table up to e_max.

    On budget exhaustion the report carries the levels that did complete and
    budget_exhausted is set; nothing is silently truncated.
    """
    if e_max < 1:
        raise ValueError(f"e_max must be >= 1, got {e_max}")
    if budget is None:
        budget = TermBudget()
    _check_nu_input(f)
    p = f.p
    values: list[int] = []
    exhausted = False
    try:
        for v in _nu_levels(f, e_max, budget):
            values.append(v)
    except BudgetExceededError:
        exhausted = True
    if not values:
        return ThresholdReport(
            kind=BRACKET,
            budget_exhausted=True,
            notes=["term budget exhausted before any nu level completed"],
        )
    return _bracket_report(p, values, exhausted)


def _bracket_report(p: int, values: Sequence[int], exhausted: bool = False) -> ThresholdReport:
    """BRACKET report of nu(1), ..., nu(len(values)), which must not be empty:
    the threshold lies in (max nu(e)/p^e, min (nu(e)+1)/p^e]."""
    low = max(Fraction(v, p**e) for e, v in enumerate(values, start=1))
    high = min(Fraction(v + 1, p**e) for e, v in enumerate(values, start=1))
    report = ThresholdReport(
        kind=BRACKET,
        bracket=(low, high),
        nu_values=NuTable(p=p, e_max=len(values), values=tuple(values)),
        budget_exhausted=exhausted,
    )
    if exhausted:
        report.notes.append(
            f"term budget exhausted; bracket uses levels 1..{len(values)} only"
        )
    return report
