"""Exact base-p digit arithmetic for rationals in the unit interval.

Everything here follows the *non-terminating* digit convention: an expansion
that would terminate is rewritten with an infinite tail of (p-1) digits, so
every rational in (0, 1] has a unique digit sequence and 1 = 0.(p-1)(p-1)...
in every base.  With that convention the e-th truncation t of alpha satisfies
t < alpha <= t + p**-e, which is the inequality all downstream threshold
bounds lean on.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

from .errors import SearchExhaustedError

ZERO = Fraction(0)
ONE = Fraction(1)

PRIME_SEARCH_CEILING = 10**6

# Miller-Rabin with the first 12 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 2017).
PRIMALITY_LIMIT = 318_665_857_834_031_151_167_461
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Most integers a prime range may hold; a wider range is refused before any
# work, since a scan spends at least milliseconds on each of its primes.  A
# progression search examines at most this many candidates.
PRIME_RANGE_WIDTH = 10**6


def is_prime(n: int) -> bool:
    """Deterministic primality test: trial division by the 12 witnesses,
    then strong probable-prime tests to all of them.

    Exact below PRIMALITY_LIMIT; a larger n without a witness as a factor
    raises ValueError instead of getting a probabilistic answer.
    """
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    if n < 41 * 41:  # no prime factor up to 37, so none up to its square root
        return True
    if n >= PRIMALITY_LIMIT:
        raise ValueError(
            f"primality is decided exactly only below {PRIMALITY_LIMIT}, got {n}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """The primes p with lo <= p <= hi, in increasing order.

    A range of more than PRIME_RANGE_WIDTH integers raises ValueError
    before any work.
    """
    if hi - lo + 1 > PRIME_RANGE_WIDTH:
        raise ValueError(
            f"prime range {lo},{hi} holds more than {PRIME_RANGE_WIDTH} integers"
        )
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]


def _check_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"base must be prime, got {p!r}")


def _check_unit_interval(alpha: Fraction, where: str) -> Fraction:
    alpha = Fraction(alpha)
    if alpha < 0 or alpha > 1:
        raise ValueError(f"{where}: argument {alpha} outside [0, 1]")
    return alpha


def truncate(alpha: Fraction, p: int, e: int) -> Fraction:
    """Sum of the first e digit terms of alpha in base p.

    Satisfies truncate(alpha, p, e) < alpha <= truncate(alpha, p, e) + p**-e
    for alpha in (0, 1].  truncate(0, p, e) = 0 and truncate(alpha, p, 0) = 0.
    """
    _check_prime(p)
    alpha = _check_unit_interval(alpha, "truncate")
    if e < 0:
        raise ValueError(f"truncation index must be >= 0, got {e}")
    if e == 0 or alpha == 0:
        return ZERO
    q = p**e
    return Fraction(math.ceil(alpha * q) - 1, q)


def carry_free_prefix(alphas: Sequence[Fraction], p: int) -> int | None:
    """Number of leading positions at which the digits of the alphas add
    without carrying, or None when they never carry.

    With alpha = n/d, d the lcm of the denominators, the next digit is
    (p*n - 1) // d and the next remainder p*n - digit*d, in (0, d]; 0 stays
    0.  The remainders decide every later digit, so the first joint state
    seen twice ends the scan.
    """
    _check_prime(p)
    values = [_check_unit_interval(a, "carry_free_prefix") for a in alphas]
    d = math.lcm(*(a.denominator for a in values))
    state = tuple(a.numerator * (d // a.denominator) for a in values)
    seen = set()
    while state not in seen:
        seen.add(state)
        digits = [(p * n - 1) // d if n else 0 for n in state]
        if sum(digits) > p - 1:
            return len(seen) - 1
        state = tuple(p * n - a * d for n, a in zip(state, digits))
    return None


def multinomial_mod_p(parts: Sequence[int], p: int) -> int:
    """(sum parts)! / prod(parts!) mod p, computed digit-wise (Lucas).

    The residue is zero exactly when some base-p digit position carries.
    """
    _check_prime(p)
    ks = list(parts)
    if not ks:
        raise ValueError("parts must be nonempty")
    if any(not isinstance(k, int) or k < 0 for k in ks):
        raise ValueError(f"parts must be nonnegative integers, got {parts!r}")
    result = 1
    while any(ks):
        ds = [k % p for k in ks]
        s = sum(ds)
        if s > p - 1:
            return 0
        level = math.factorial(s)
        for d in ds:
            level //= math.factorial(d)
        result = result * (level % p) % p
        ks = [k // p for k in ks]
    return result


def multinomial_exact(parts: Sequence[int]) -> int:
    """Exact multinomial coefficient (sum parts)! / prod(parts!)."""
    total = sum(parts)
    out = 1
    rest = total
    for k in parts:
        out *= math.comb(rest, k)
        rest -= k
    return out


def primes_in_progression(
    d: int, count: int, ceiling: int = PRIME_SEARCH_CEILING
) -> list[int]:
    """The `count` smallest primes congruent to 1 mod d.

    Dirichlet guarantees termination; the search still stops at `ceiling`
    or after PRIME_RANGE_WIDTH candidates and reports exhaustion explicitly.
    """
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    found: list[int] = []
    if d == 1:
        candidates = range(2, ceiling + 1)
    else:
        candidates = range(1 + d, ceiling + 1, d)
    examined = candidates[:PRIME_RANGE_WIDTH]
    for n in examined:
        if is_prime(n):
            found.append(n)
            if len(found) == count:
                return found
    where = f"below {ceiling}"
    if examined != candidates:
        where = f"up to {examined[-1]}: the cap of {PRIME_RANGE_WIDTH} candidates stopped it"
    raise SearchExhaustedError(
        f"found only {len(found)} of {count} primes = 1 mod {d} {where}"
    )


def passes_printable(base: int, exp: int) -> bool:
    """Whether base^exp > 10^4300 (base >= 2), past CPython's 4300-digit
    int-to-str limit.  2^exp passes it once exp > 14285, so a huge exp is
    answered without computing base^exp."""
    return exp > 14285 or base**exp > 10**4300


def check_printable_level(p: int, e: int, name: str) -> None:
    """Refuse, before any work, a level whose values could not be printed."""
    if passes_printable(p, e):
        raise ValueError(
            f"{name} {e} at p={p}: p^e passes 10^4300, so values at this level "
            "would have more than 4300 digits and could not be printed"
        )


def format_rational(q: Fraction) -> str:
    """Canonical reduced a/b text form (plain integer when b = 1)."""
    return str(Fraction(q))


def parse_rational(text: str) -> Fraction:
    """Inverse of format_rational; accepts 'a/b' and plain integers, each
    with an optional sign and surrounding whitespace.  Anything else (a
    decimal, an exponent such as 1e30000000), a part of more than 4300
    digits (CPython's limit for reading an int from text) and a zero
    denominator raise ValueError."""
    text = text.strip()
    match = re.fullmatch(r"[+-]?([0-9]+)(?:/([0-9]+))?", text)
    if not match:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    for part, digits in zip(("numerator", "denominator"), match.groups()):
        if digits is not None and len(digits) > 4300:
            raise ValueError(
                f"{part} has {len(digits)} digits; a rational may have at most 4300 in each part"
            )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
