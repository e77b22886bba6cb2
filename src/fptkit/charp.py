"""Sparse multivariate polynomial arithmetic over F_p and threshold data.

The reduction everything leans on: a monomial lies in the e-th Frobenius
power of the maximal ideal iff some exponent reaches p**e, so reducing a
polynomial modulo that ideal just drops such terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import exactnum
from .errors import BudgetExceededError, IntegralityError, ReductionError
from .polygeo import MonomialSet, lattice_points, splitting_threshold

DEFAULT_TERM_BUDGET = 5_000_000


class TermBudget:
    """Monotone term counter shared by the expansion routines.

    Exhaustion raises instead of truncating, so a runaway expansion can
    never silently produce a wrong answer.  It also counts the nu sweep's
    products, and how many of them ran on a dense level's packed integer.
    """

    def __init__(self, limit: int = DEFAULT_TERM_BUDGET):
        if limit < 1:
            raise ValueError(f"budget must be positive, got {limit}")
        self.limit = limit
        self.used = 0
        self.products = 0
        self.packed_products = 0

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

    def exponents(self, k: int) -> tuple[int, ...]:
        mask = (1 << self.width) - 1
        return tuple(k >> i & mask for i in range(0, self.num_vars * self.width, self.width))

    def unpacked(self) -> FpPoly:
        return FpPoly(self.p, self.num_vars, {self.exponents(k): c for k, c in self.terms.items()})


class _Grid:
    """The layout of a dense level q = p^e: one int with a w-bit slot per cell
    of the box [o, q + d), o the least corner of the level's running power
    and d_i the largest exponent of x_i in f.  The cell of exponent k is slot
    sum (k_i - o_i) * stride_i.  Every later power keeps its terms in
    [o, q) (f has no negative exponent), so its product by f stays in the
    box, and f's term x^k shifts every slot by w * sum k_i * stride_i.

    A slot of a product sums at most len(f) terms below p^2, so it stays
    below 2^b; with S = b + bits(p) and M = 2^S // p + 1, (v * M) >> S is
    v // p for every v < 2^b (Barrett), and v * M < 2^(b+S) fits in a slot
    of w > b + S bits, so one multiply reduces every slot at once."""

    def __init__(self, f: _Packed, q: int, corner: Sequence[int], dims: Sequence[int]):
        p = self.p = f.p
        b = (len(f.terms) * (p - 1) ** 2).bit_length()
        self.shift = b + p.bit_length()
        self.magic = (1 << self.shift) // p + 1
        wb = self.bytes = -(-(b + self.shift + 1) // 8)  # whole bytes, for int.from_bytes
        w, self.size = 8 * wb, (p - 1).bit_length() + 7 >> 3  # the bytes of a coefficient
        strides = [math.prod(dims[:i]) for i in range(len(dims))]
        self.f, self.cells, self.words = f, math.prod(dims), (f.num_vars * f.width + 63) // 64 or 1
        self.corner, self.strides, self.dims = corner, strides, dims
        self.steps = [(c, w * sum(a * t for a, t in zip(f.exponents(k), strides)))
                      for k, c in f.terms.items()]
        ones = int.from_bytes((b"\x01" + bytes(wb - 1)) * self.cells, "little")
        nz = (p - 1).bit_length()  # a slot v < p plus 2^nz - 1 sets bit nz iff v > 0
        self.fill, self.high = ones * ((1 << nz) - 1), ones << nz
        self.low = ones * ((1 << w - self.shift) - 1)  # the quotient's bits in each slot
        box = b"\xff" * wb  # every slot of [o, q): q - o cells of each row, then the rest
        for o, n in zip(corner, dims):
            box = box * (q - o) + bytes(len(box) * (n - q + o))
        self.box = int.from_bytes(box, "little")

    def pack(self, r: _Packed) -> "_Dense":
        """r, whose terms lie in [o, q), on this grid."""
        wb, size, strides = self.bytes, self.size, self.strides
        base = sum(o * t for o, t in zip(self.corner, strides))
        buf = bytearray(self.cells * wb)
        for k, c in r.terms.items():
            i = wb * (sum(a * t for a, t in zip(r.exponents(k), strides)) - base)
            buf[i:i + size] = c.to_bytes(size, "little")
        return _Dense(self, int.from_bytes(buf, "little"))

    def reduce(self, x: int) -> int:
        """x with every slot, each below 2^b, taken mod p."""
        return x - (x * self.magic >> self.shift & self.low) * self.p


class _Dense:
    """A running power on its level's _Grid: value holds its coefficients."""

    __slots__ = ("grid", "value")

    def __init__(self, grid: _Grid, value: int):
        self.grid, self.value = grid, value

    def is_zero(self) -> bool:
        return not self.value

    def times_f(self, budget: TermBudget) -> "_Dense":
        """self * f reduced at the level, charged before it is built with
        the product's distinct keys times the words of one packed key, as
        FpPoly.multiply charges the same product."""
        g, r = self.grid, self.value
        hit, keys = (r + g.fill) & g.high, 0  # one bit in each nonzero slot
        for _, s in g.steps:
            keys |= hit << s
        budget.charge(keys.bit_count() * g.words)
        budget.packed_products += 1
        product = 0
        for c, s in g.steps:
            product += c * r << s
        return _Dense(g, g.reduce(product) & g.box)

    def unpacked(self) -> _Packed:
        g = self.grid
        wb, size, width = g.bytes, g.size, g.f.width
        buf = self.value.to_bytes(g.cells * wb, "little")
        coefficients = buf[::wb] if size == 1 else (
            int.from_bytes(buf[i:i + size], "little") for i in range(0, len(buf), wb))
        fields = [[o + j << i * width for j in range(n)]
                  for i, (o, n) in enumerate(zip(g.corner, g.dims))]
        keys = itertools.product(*reversed(fields))  # x_1 runs fastest, as the slots do
        return _Packed(g.f, width, {sum(k): c for k, c in zip(keys, coefficients) if c})


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
    A level turns dense once len(r) * len(f), the dict product's work, is at
    least the cell count of the box [o, p^e + d) measured from r's least
    corner o at the level's start: from there r is one int on the level's
    _Grid, multiplied by f with shifts and adds and charged as the dict
    product would be, and it is unpacked only for the next level's twist.

    With stop, the last level quits once its exponent reaches stop, so its
    value is no longer nu(e_max), but it reaches stop exactly when nu(e_max)
    does.
    """
    p = f.p
    top = [max(k[i] for k in f.terms) for i in range(f.num_vars)]
    f = _Packed(f, (p**e_max - 1 + max(top)).bit_length() + 1)
    best = 0  # while best > 0, r holds f^best reduced at the last level
    for e in range(1, e_max + 1):
        q = p**e
        limit = q - 1 if stop is None or e < e_max else min(q - 1, stop)
        if e > 1 and best == q // p - 1:  # nu(e-1) = p^(e-1) - 1, so fpt = 1
            best = limit
        elif best:  # fields of r are < p^(e-1), so times p they stay < p^e
            if isinstance(r, _Dense):
                r = r.unpacked()
            twist = {k * p: c for k, c in r.terms.items()}
            best, r = p * best, _Packed(r, r.width, twist, f.level_box(q))
        else:
            r = frobenius_reduce(f, e)
            best = 0 if r.is_zero() else 1
        sparse = 0 < best < limit  # r is a dict until the level turns dense
        if sparse:
            corner = [min(col) for col in zip(*map(r.exponents, r.terms))]
            dims = [q + d - o for d, o in zip(top, corner)]
            dense_at = -(-math.prod(dims) // len(f.terms))  # len(r) * len(f) >= the cells
        while 0 < best < limit:
            if sparse and len(r.terms) >= dense_at:
                r, sparse = _Grid(f, q, corner, dims).pack(r), False
            try:
                nxt = r.multiply(f, budget) if sparse else r.times_f(budget)
            except BudgetExceededError as ex:
                raise BudgetExceededError(f"{ex} at p={p}, level e={e}, exponent a={best + 1}") from None
            budget.products += 1
            if nxt.is_zero():
                break
            r, best = nxt, best + 1
        yield best


def nu_table(f: FpPoly, e_max: int, budget: TermBudget | None = None) -> tuple[int, ...]:
    """(nu(1), ..., nu(e_max)) in one sweep (see _nu_levels)."""
    _check_nu_input(f)
    if e_max < 1:
        raise ValueError(f"e_max must be >= 1, got {e_max}")
    if budget is None:
        budget = TermBudget()
    return tuple(_nu_levels(f, e_max, budget))


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


@dataclass(frozen=True)
class ThresholdReport:
    """Certified threshold output.

    kind EXACT carries the exact value; LOWER_BOUND carries a proved lower
    bound; BRACKET carries only the interval pinned by the nu table.  The
    bracket, when present, always contains the true threshold: it lies in
    (low, high] with low = max nu(e)/p^e and high = min (nu(e)+1)/p^e.
    nu_values is (nu(1), ..., nu(e)) over the levels that completed.
    """

    kind: str  # EXACT | LOWER_BOUND | BRACKET
    value: Fraction | None = None
    bracket: tuple[Fraction, Fraction] | None = None
    nu_values: tuple[int, ...] = ()
    certificates: tuple[Certificate, ...] = ()
    budget_exhausted: bool = False
    notes: tuple[str, ...] = ()


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
            notes=("term budget exhausted before any nu level completed",),
        )
    return _bracket_report(p, values, exhausted)


def _bracket_report(p: int, values: Sequence[int], exhausted: bool = False) -> ThresholdReport:
    """BRACKET report of nu(1), ..., nu(len(values)), which must not be empty:
    the threshold lies in (max nu(e)/p^e, min (nu(e)+1)/p^e]."""
    low = max(Fraction(v, p**e) for e, v in enumerate(values, start=1))
    high = min(Fraction(v + 1, p**e) for e, v in enumerate(values, start=1))
    return ThresholdReport(
        kind=BRACKET,
        bracket=(low, high),
        nu_values=tuple(values),
        budget_exhausted=exhausted,
        notes=(f"term budget exhausted; bracket uses levels 1..{len(values)} only",)
        if exhausted else (),
    )
