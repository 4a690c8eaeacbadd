"""Parser for chain system files.

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

Reading a file takes a few passes, all in C.  Comments are stripped, and one
regular expression lists the tokens as plain strings, ending with "" for the
end of input.  A token's kind shows in its text: a symbol, a leading ASCII
digit for an integer, otherwise an identifier.  Every character that starts no
token must be whitespace; if one is not, a greedy match of whitespace,
comments and tokens from the start stops at the first unexpected character.
No position is kept: a ParseError names its token by number, and only then is
the text rescanned for that token's line and column, in code points.  An
integer has at most MAX_INTEGER_DIGITS digits, the fewest that any
interpreter's limit on int() of a string allows.  The parser accumulates each
polynomial as a {monomial: coefficient} map over interned derivative ids, one
entry per distinct power product (repeated factors add exponents, like terms
add coefficients), and builds one DiffPoly at the end; each distinct
derivative text is interned once per parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .chains import DiffChain
from .diffpoly import (
    Coefficient,
    Derivative,
    DiffPoly,
    Monomial,
    Ranking,
    RingSpec,
    _intern,
    _monomial,
)


MAX_TERM_DEGREE = 1000
MAX_INTEGER_DIGITS = 640


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ArityMismatchError(ParseError):
    """Multi-index length does not match the declared number of derivations."""


class UnknownIdentifierError(ParseError):
    """Name is not a declared indeterminate or derivation."""


# Integers are [0-9], not \d, which takes any Unicode digit.
# Symbols first, as most tokens are; the three classes start with disjoint characters.
_TOKEN = r"[=(),<{};^*+\-/\[\]]|[0-9]+|[^\W\d]\w*"
_COMMENT = r"#[^\n]*"
# Greedy with nothing after it, so re.match never backtracks into the loop;
# the loop's stack grows with the text, so it runs only on a text that fails.
_VALID = re.compile(rf"(?:[ \t\r\n]+|{_COMMENT}|{_TOKEN})*")
_TOKENS = re.compile(_TOKEN)
_COMMENTS = re.compile(_COMMENT)
_COMMENTS_AND_TOKENS = re.compile(rf"{_COMMENT}|{_TOKEN}")
_SYMBOLS = frozenset("=(),<{};^*+-/[]")
_DIGITS = frozenset("0123456789")


def _error_at(kind, message: str, text: str, offset: int) -> ParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return kind(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


@dataclass
class SystemFile:
    ring: RingSpec
    ranking: Ranking
    chains: dict[str, DiffChain]


class _Parser:
    def __init__(self, text: str):
        code = _COMMENTS.sub("", text) if "#" in text else text
        self.values = _TOKENS.findall(code)
        # findall skips what starts no token: the text is valid if that is all whitespace
        if sum(map(len, self.values)) + sum(map(code.count, " \t\r\n")) < len(code):
            end = _VALID.match(text).end()
            raise _error_at(ParseError, f"unexpected character {text[end]!r}", text, end)
        self.values.append("")
        self.text = text
        self.pos = 0
        # name[i,...,j] token values -> derivative id, shared by the factors of this parse
        self.derivatives: dict[tuple[str, ...], int] = {}

    def fail(self, message: str, at: int, kind=ParseError):
        """Raise `kind` at token number `at`, whose offset only a rescan finds."""
        starts = (m.start() for m in _COMMENTS_AND_TOKENS.finditer(self.text) if m[0][0] != "#")
        raise _error_at(kind, message, self.text, next(islice(starts, at, None), len(self.text)))

    def expect(self, *wanted: str) -> int:
        """Consume the symbols and keywords `wanted`; return the first one's token number."""
        for word in wanted:
            value = self.values[self.pos]
            if value != word:
                found = f", found {value!r}" if value or word not in _SYMBOLS else ""
                self.fail(f"expected {word!r}{found}", self.pos)
            self.pos += 1
        return self.pos - len(wanted)

    def ident(self) -> str:
        value = self.values[self.pos]
        self.pos += 1
        if not value or value[0] in _DIGITS or value in _SYMBOLS:
            self.fail(f"expected an identifier, found {value!r}", self.pos - 1)
        return value

    def integer(self) -> int:
        at = self.pos
        value = self.values[at]
        self.pos = at + 1
        if value[:1] not in _DIGITS:
            self.fail(f"expected an integer, found {value!r}", at)
        if len(value) > MAX_INTEGER_DIGITS:
            self.fail(f"integer of {len(value)} digits exceeds the limit {MAX_INTEGER_DIGITS}", at)
        return int(value)

    def separated(self, item, sep: str) -> list:
        """Parse `item (sep item)*` and return the items."""
        items = [item()]
        while self.values[self.pos] == sep:
            self.pos += 1
            items.append(item())
        return items

    def ident_list(self) -> list[str]:
        self.expect("(")
        names = self.separated(self.ident, ",")
        self.expect(")")
        return names

    def parse(self) -> SystemFile:
        at = self.expect("ring", "derivations", "=")
        derivations = self.ident_list()
        self.expect("indeterminates", "=")
        indeterminates = self.ident_list()
        try:
            self.ring = RingSpec(tuple(derivations), tuple(indeterminates))
        except ValueError as exc:
            self.fail(str(exc), at)
        self.indices = {name: i for i, name in enumerate(indeterminates)}
        self.span = 2 * len(derivations) + 2  # the tokens of name[i,...,j]

        at = self.expect("ranking", "orderly", "tiebreak", "=", "(")
        order_names = self.separated(self.tiebreak_name, "<")
        self.expect(")")
        if sorted(order_names) != sorted(indeterminates):
            self.fail("tiebreak must list every indeterminate exactly once", at)
        self.ranking = Ranking(self.ring, tuple(self.indices[name] for name in order_names))

        chains: dict[str, DiffChain] = {}
        while self.values[self.pos]:
            at, name, chain = self.chain_decl()
            if name in chains:
                self.fail(f"duplicate chain name {name!r}", at)
            chains[name] = chain
        if not chains:
            self.fail("expected at least one chain declaration", self.pos)
        return SystemFile(self.ring, self.ranking, chains)

    def tiebreak_name(self) -> str:
        name = self.ident()
        if name not in self.indices:
            self.fail(f"unknown indeterminate {name!r}", self.pos - 1, UnknownIdentifierError)
        return name

    def chain_decl(self) -> tuple[int, str, DiffChain]:
        at = self.expect("chain") + 1
        name = self.ident()
        self.expect("{")
        polys = []
        while self.values[self.pos] != "}":
            start = self.pos
            poly = self.poly()
            self.expect(";")
            if poly.is_constant():
                self.fail("chain elements must be non-constant", start)
            polys.append(poly)
        self.pos += 1
        if not polys:
            self.fail("chain must contain at least one polynomial", at)
        return at, name, DiffChain(polys, self.ranking)

    def poly(self) -> DiffPoly:
        terms: dict[Monomial, Coefficient] = {}
        sign = self.values[self.pos]
        if sign == "+" or sign == "-":
            self.pos += 1
        while True:
            mono, coeff = self.term()
            terms[mono] = terms.get(mono, 0) + (-coeff if sign == "-" else coeff)
            sign = self.values[self.pos]
            if sign != "+" and sign != "-":
                return DiffPoly._of(terms)
            self.pos += 1

    def term(self) -> tuple[Monomial, Coefficient]:
        """One term: an int coefficient, or a Fraction only for n/d."""
        values = self.values
        start = self.pos
        coeff = None
        if values[start][:1] in _DIGITS:
            coeff = self.integer()
            if values[self.pos] == "/":
                slash = self.pos
                self.pos += 1
                denominator = self.integer()
                if denominator == 0:
                    self.fail("zero denominator", slash)
                coeff = Fraction(coeff, denominator)
        powers: dict[int, int] = {}
        after = values[self.pos]
        if coeff is None or after and after[0] not in _DIGITS and after not in _SYMBOLS:
            self.factor(powers)
        while values[self.pos] == "*":
            self.pos += 1
            self.factor(powers)
        degree = sum(powers.values())
        if degree > MAX_TERM_DEGREE:
            self.fail(f"term of total degree {degree} exceeds the limit {MAX_TERM_DEGREE}", start)
        return _monomial(powers), 1 if coeff is None else coeff

    def factor(self, powers: dict[int, int]) -> None:
        """Parse one derivative factor and multiply it into `powers`."""
        at = self.pos
        key = tuple(self.values[at : at + self.span])
        d = self.derivatives.get(key)
        if d is None:
            d = self.derivatives[key] = _intern(self.derivative())
        else:
            self.pos = at + self.span
        exponent = 1
        if self.values[self.pos] == "^":
            caret = self.pos
            self.pos += 1
            exponent = self.integer()
            if exponent < 1:
                self.fail("exponent must be positive", caret)
        powers[d] = powers.get(d, 0) + exponent

    def derivative(self) -> Derivative:
        at = self.pos
        indet = self.indices.get(self.values[at])
        if indet is None:
            self.fail(f"unknown indeterminate {self.ident()!r}", at, UnknownIdentifierError)
        self.pos += 1
        open_at = self.expect("[") + 1
        index = self.separated(self.integer, ",")
        self.expect("]")
        n = self.ring.num_derivations
        if len(index) != n:
            message = f"multi-index of length {len(index)} for a ring with {n} derivations"
            self.fail(message, open_at, ArityMismatchError)
        return Derivative(indet, tuple(index))  # _intern checks it


def parse_system(text: str) -> SystemFile:
    return _Parser(text).parse()

