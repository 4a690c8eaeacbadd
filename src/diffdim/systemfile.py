"""Parser and printer for chain system files.

A system file declares one ring, one orderly ranking, and named chains:

    # comment
    ring derivations=(t,x) indeterminates=(u,v)
    ranking orderly tiebreak=(u<v)
    chain B {
      u[0,2] - u[1,0] - 2*u[0,1]*u[0,0];
    }

A polynomial is a signed sum of terms; a term is an optional rational
coefficient and derivative factors like v[1,0]^2 joined by '*'.  Integers
are ASCII digits.  A term's total degree is at most MAX_TERM_DEGREE, since a
monomial holds one factor per unit of degree.

The tokenizer is one regular expression whose named groups are the token
kinds; a character that starts no token is a ParseError at its line and
column.  The parser accumulates each polynomial as a {monomial: coefficient}
map, one entry per distinct power product (repeated factors add exponents,
like terms add coefficients), and builds one DiffPoly from it at the end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .chains import DiffChain
from .diffpoly import (
    Coefficient,
    ConstantPolynomialError,
    Derivative,
    DiffPoly,
    Monomial,
    Ranking,
    RingSpec,
    _monomial,
    make_derivative,
    poly_text,
)


MAX_TERM_DEGREE = 1000


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ArityMismatchError(ParseError):
    """Multi-index length does not match the declared number of derivations."""


class UnknownIdentifierError(ParseError):
    """Name is not a declared indeterminate or derivation."""


class Token(NamedTuple):
    kind: str  # "ident", "int", "symbol", "end"
    value: str
    line: int
    column: int


# The group that matched names the token kind.  Integers are [0-9], not \d,
# which takes any Unicode digit; "other" is a character no token starts with.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r]+|#[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<symbol>[=(),<{};^*+\-/\[\]])"
    r"|(?P<other>.)"
)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        column = match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "other":
            raise ParseError(f"unexpected character {match.group()!r}", line, column)
        elif kind != "space":
            tokens.append(Token(kind, match.group(), line, column))
    tokens.append(Token("end", "", line, len(text) - line_start + 1))
    return tokens


@dataclass
class SystemFile:
    ring: RingSpec
    ranking: Ranking
    chains: dict[str, DiffChain]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring: RingSpec | None = None
        self.ranking: Ranking | None = None

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None, kind=ParseError):
        tok = tok or self.peek()
        raise kind(message, tok.line, tok.column)

    def expect_symbol(self, sym: str) -> Token:
        tok = self.next()
        if tok.kind != "symbol" or tok.value != sym:
            self.fail(f"expected {sym!r}, found {tok.value!r}" if tok.value else f"expected {sym!r}", tok)
        return tok

    def expect_ident(self, name: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != "ident" or (name is not None and tok.value != name):
            wanted = repr(name) if name else "an identifier"
            self.fail(f"expected {wanted}, found {tok.value!r}", tok)
        return tok

    def expect_int(self) -> int:
        tok = self.next()
        if tok.kind != "int":
            self.fail(f"expected an integer, found {tok.value!r}", tok)
        return int(tok.value)

    def at_symbol(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "symbol" and tok.value == sym

    def separated(self, item, sep: str) -> list:
        """Parse `item (sep item)*` and return the items."""
        items = [item()]
        while self.at_symbol(sep):
            self.next()
            items.append(item())
        return items

    def sign(self) -> int | None:
        """Consume a '+' or '-' and return 1 or -1; None when there is neither."""
        if self.at_symbol("+") or self.at_symbol("-"):
            return -1 if self.next().value == "-" else 1
        return None

    def ident_list(self) -> list[str]:
        self.expect_symbol("(")
        names = [tok.value for tok in self.separated(self.expect_ident, ",")]
        self.expect_symbol(")")
        return names

    def parse(self) -> SystemFile:
        tok = self.expect_ident("ring")
        self.expect_ident("derivations")
        self.expect_symbol("=")
        derivations = self.ident_list()
        self.expect_ident("indeterminates")
        self.expect_symbol("=")
        indeterminates = self.ident_list()
        try:
            self.ring = RingSpec(tuple(derivations), tuple(indeterminates))
        except ValueError as exc:
            self.fail(str(exc), tok)

        tok = self.expect_ident("ranking")
        self.expect_ident("orderly")
        self.expect_ident("tiebreak")
        self.expect_symbol("=")
        self.expect_symbol("(")
        order_names = self.separated(self.tiebreak_name, "<")
        self.expect_symbol(")")
        if sorted(order_names) != sorted(self.ring.indeterminate_names):
            self.fail("tiebreak must list every indeterminate exactly once", tok)
        order = tuple(self.ring.indeterminate_names.index(name) for name in order_names)
        self.ranking = Ranking(self.ring, order)

        chains: dict[str, DiffChain] = {}
        while self.peek().kind != "end":
            name_tok, chain = self.chain_decl()
            if name_tok.value in chains:
                self.fail(f"duplicate chain name {name_tok.value!r}", name_tok)
            chains[name_tok.value] = chain
        if not chains:
            self.fail("expected at least one chain declaration")
        return SystemFile(self.ring, self.ranking, chains)

    def tiebreak_name(self) -> str:
        tok = self.expect_ident()
        if tok.value not in self.ring.indeterminate_names:
            self.fail(f"unknown indeterminate {tok.value!r}", tok, UnknownIdentifierError)
        return tok.value

    def chain_decl(self) -> tuple[Token, DiffChain]:
        self.expect_ident("chain")
        name_tok = self.expect_ident()
        self.expect_symbol("{")
        polys = []
        while not self.at_symbol("}"):
            start = self.peek()
            poly = self.poly()
            self.expect_symbol(";")
            if poly.is_constant():
                self.fail("chain elements must be non-constant", start)
            polys.append(poly)
        self.expect_symbol("}")
        if not polys:
            self.fail("chain must contain at least one polynomial", name_tok)
        try:
            return name_tok, DiffChain(polys, self.ranking)
        except ConstantPolynomialError as exc:
            self.fail(str(exc), name_tok)

    def poly(self) -> DiffPoly:
        terms: dict[Monomial, Coefficient] = {}
        sign = self.sign() or 1
        while sign is not None:
            mono, coeff = self.term()
            terms[mono] = terms.get(mono, 0) + sign * coeff
            sign = self.sign()
        return DiffPoly(terms)

    def term(self) -> tuple[Monomial, Coefficient]:
        """One term: an int coefficient, or a Fraction only for n/d."""
        start = self.peek()
        coeff = None
        if self.peek().kind == "int":
            coeff = self.expect_int()
            if self.at_symbol("/"):
                slash = self.next()
                denominator = self.expect_int()
                if denominator == 0:
                    self.fail("zero denominator", slash)
                coeff = Fraction(coeff, denominator)
        powers: dict[Derivative, int] = {}
        if coeff is None or self.peek().kind == "ident":
            self.factor(powers)
        while self.at_symbol("*"):
            self.next()
            self.factor(powers)
        degree = sum(powers.values())
        if degree > MAX_TERM_DEGREE:
            self.fail(f"term of total degree {degree} exceeds the limit {MAX_TERM_DEGREE}", start)
        return _monomial(powers), 1 if coeff is None else coeff

    def factor(self, powers: dict[Derivative, int]) -> None:
        """Parse one derivative factor and multiply it into `powers`."""
        tok = self.expect_ident()
        try:
            indet = self.ring.indeterminate_names.index(tok.value)
        except ValueError:
            self.fail(f"unknown indeterminate {tok.value!r}", tok, UnknownIdentifierError)
        self.expect_symbol("[")
        open_tok = self.peek()
        index = self.separated(self.expect_int, ",")
        self.expect_symbol("]")
        if len(index) != self.ring.num_derivations:
            self.fail(
                f"multi-index of length {len(index)} for a ring with "
                f"{self.ring.num_derivations} derivations",
                open_tok,
                ArityMismatchError,
            )
        exponent = 1
        if self.at_symbol("^"):
            caret = self.next()
            exponent = self.expect_int()
            if exponent < 1:
                self.fail("exponent must be positive", caret)
        d = make_derivative(indet, index)
        powers[d] = powers.get(d, 0) + exponent


def parse_system(text: str) -> SystemFile:
    return _Parser(text).parse()


def format_system(system: SystemFile) -> str:
    ring = system.ring
    lines = [
        "ring derivations=({}) indeterminates=({})".format(
            ",".join(ring.derivation_names), ",".join(ring.indeterminate_names)
        ),
        "ranking orderly tiebreak=({})".format(
            "<".join(ring.indeterminate_names[j] for j in system.ranking.indeterminate_order)
        ),
    ]
    for name, chain in system.chains.items():
        lines.append(f"chain {name} {{")
        for poly in chain.elements:
            lines.append(f"  {poly_text(poly, ring.indeterminate_names)};")
        lines.append("}")
    return "\n".join(lines) + "\n"
