"""Text grammar for polynomials and monomial lists.

Variables are x1..xN canonically; the single letters x, y, z, w are accepted
as aliases for x1..x4.  Polynomial terms join with + or -, coefficients are
integers or a/b fractions, and monomials are products like x^2*y^3.
Monomial lists separate entries with commas or plus signs and carry no
coefficients.  Parse errors report line and column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .charp import QPoly
from .errors import ParseError
from .polygeo import MonomialSet

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER | NAME | SYMBOL | END
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(_Token("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^/,":
            tokens.append(_Token("SYMBOL", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def at_symbol(self, *symbols: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYMBOL" and tok.text in symbols

    def expect_number(self) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER":
            raise self.fail(f"expected a number, found {tok.text or 'end of input'!r}")
        self.next()
        return int(tok.text)

    def variable_index(self) -> int:
        """1-based variable index from a NAME token."""
        tok = self.next()
        name = tok.text
        if name in _ALIASES:
            return _ALIASES[name]
        if name.startswith("x") and name[1:].isdecimal():
            idx = int(name[1:])
            if idx >= 1:
                return idx
        raise ParseError(
            f"unknown variable {name!r} (use x1..xN or x, y, z, w)", tok.line, tok.column
        )

    def monomial(self) -> dict[int, int]:
        """Product of NAME[^NUMBER] factors -> {var index: exponent}."""
        expo: dict[int, int] = {}
        while True:
            if self.peek().kind != "NAME":
                raise self.fail("expected a variable")
            idx = self.variable_index()
            power = 1
            if self.at_symbol("^"):
                self.next()
                power = self.expect_number()
            expo[idx] = expo.get(idx, 0) + power
            if self.at_symbol("*"):
                save = self.pos
                self.next()
                if self.peek().kind == "NAME":
                    continue
                self.pos = save
            return expo

    def coefficient(self) -> Fraction:
        num = self.expect_number()
        if self.at_symbol("/"):
            self.next()
            den_tok = self.peek()
            den = self.expect_number()
            if den == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.column)
            return Fraction(num, den)
        return Fraction(num)

    def term(self) -> tuple[Fraction, dict[int, int]]:
        """coefficient, {var: exponent} (either part may be implicit)."""
        coeff = Fraction(1)
        expo: dict[int, int] = {}
        if self.peek().kind == "NUMBER":
            coeff = self.coefficient()
            if self.at_symbol("*"):
                self.next()
                expo = self.monomial()
            elif self.peek().kind == "NAME":
                expo = self.monomial()
        else:
            expo = self.monomial()
        return coeff, expo


def _exponent_tuple(expo: dict[int, int], num_vars: int) -> tuple[int, ...]:
    vec = [0] * num_vars
    for idx, k in expo.items():
        vec[idx - 1] = k
    return tuple(vec)


def _resolve_num_vars(max_seen: int, num_vars: int | None, parser: _Parser) -> int:
    if num_vars is None:
        return max(max_seen, 1)
    if max_seen > num_vars:
        raise parser.fail(
            f"input mentions variable x{max_seen} but only {num_vars} variables were declared"
        )
    return num_vars


def parse_polynomial(text: str, num_vars: int | None = None) -> QPoly:
    """Parse a rational-coefficient polynomial.

    The variable count is inferred as the largest index mentioned unless
    num_vars pins it (variables may then go unused).
    """
    parser = _Parser(text)
    if parser.peek().kind == "END":
        raise parser.fail("empty polynomial")
    terms: list[tuple[Fraction, dict[int, int]]] = []
    sign = Fraction(1)
    if parser.at_symbol("+", "-"):
        if parser.next().text == "-":
            sign = Fraction(-1)
    while True:
        coeff, expo = parser.term()
        terms.append((sign * coeff, expo))
        tok = parser.peek()
        if tok.kind == "END":
            break
        if parser.at_symbol("+", "-"):
            sign = Fraction(1) if parser.next().text == "+" else Fraction(-1)
            continue
        raise parser.fail(f"expected '+' or '-', found {tok.text!r}")
    max_seen = max((max(e) for _, e in terms if e), default=0)
    m = _resolve_num_vars(max_seen, num_vars, parser)
    combined: dict[tuple[int, ...], Fraction] = {}
    for coeff, expo in terms:
        key = _exponent_tuple(expo, m)
        combined[key] = combined.get(key, Fraction(0)) + coeff
    return QPoly(m, combined)


def parse_monomials(text: str, num_vars: int | None = None) -> MonomialSet:
    """Parse a comma- or plus-separated list of coefficientless monomials."""
    parser = _Parser(text)
    if parser.peek().kind == "END":
        raise parser.fail("empty monomial list")
    entries: list[dict[int, int]] = []
    while True:
        if parser.peek().kind == "NUMBER":
            raise parser.fail("monomial lists carry no coefficients")
        entries.append(parser.monomial())
        tok = parser.peek()
        if tok.kind == "END":
            break
        if parser.at_symbol(",", "+"):
            parser.next()
            continue
        raise parser.fail(f"expected ',' or '+', found {tok.text!r}")
    max_seen = max((max(e) for e in entries if e), default=0)
    m = _resolve_num_vars(max_seen, num_vars, parser)
    vectors = tuple(_exponent_tuple(e, m) for e in entries)
    return MonomialSet(m, vectors)


def monomial_text(vec: tuple[int, ...], num_vars: int) -> str:
    """Render an exponent vector in the canonical x1..xN (or x,y,z,w) style."""
    names = (
        ["x", "y", "z", "w"][:num_vars]
        if num_vars <= 4
        else [f"x{i + 1}" for i in range(num_vars)]
    )
    parts = []
    for name, k in zip(names, vec):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts) if parts else "1"
