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
digit for an integer, a name ending in ']' for a derivative written without
blanks (u[1,0] is one token), otherwise an identifier.  A derivative written with
blanks, such as u[ 1, 0 ], is read token by token.  Every character that
starts no token must be whitespace; if one is not, a greedy match of
whitespace, comments and tokens from the start stops at the first unexpected
character.  An integer has at most MAX_INTEGER_DIGITS digits, the fewest
that any interpreter's limit on int() of a string allows.

Error positions count plain tokens, where a derivative is always its name,
brackets, commas and integers.  A parse stops at its first error, and the
text is then parsed again over plain tokens, whose error is the one raised;
no identifier is a derivative token, so a derivative in a name position also
takes the second parse.  No position is kept: a ParseError names its token
by number, and only then is the text rescanned for that token's line and
column, in code points.

Each polynomial is read in one loop.  A term's monomial is a list of
interned derivative ids, each repeated once per unit of its exponent and
sorted once; equal monomials add their coefficients in one {monomial:
coefficient} map, and one DiffPoly is built at the end.  Each distinct
derivative token is split, checked and interned once per parse.
"""

from __future__ import annotations

import re
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
)
from .record import Record


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
# A derivative written without blanks is one token, tried before its name.
_PACKED_TOKEN = rf"[^\W\d]\w*\[[0-9]+(?:,[0-9]+)*\]|{_TOKEN}"
_COMMENT = r"#[^\n]*"
# Greedy with nothing after it, so re.match never backtracks into the loop;
# the loop's stack grows with the text, so it runs only on a text that fails.
_VALID = re.compile(rf"(?:[ \t\r\n]+|{_COMMENT}|{_TOKEN})*")
_TOKENS = re.compile(_TOKEN)
_PACKED_TOKENS = re.compile(_PACKED_TOKEN)
_COMMENTS = re.compile(_COMMENT)
_COMMENTS_AND_TOKENS = re.compile(rf"{_COMMENT}|{_TOKEN}")
_SYMBOLS = frozenset("=(),<{};^*+-/[]")
_DIGITS = frozenset("0123456789")


def _error_at(kind, message: str, text: str, offset: int) -> ParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return kind(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


class _Replay(Exception):
    """A parse over packed tokens met an error, which only plain tokens place."""


class SystemFile(Record):
    __slots__ = ("ring", "ranking", "chains")

    def __init__(self, ring: RingSpec, ranking: Ranking, chains: dict[str, DiffChain]):
        self.ring, self.ranking, self.chains = ring, ranking, chains


class _Parser:
    def __init__(self, text: str, packed: bool):
        code = _COMMENTS.sub("", text) if "#" in text else text
        self.values = (_PACKED_TOKENS if packed else _TOKENS).findall(code)
        # findall skips what starts no token: the text is valid if that is all whitespace
        if sum(map(len, self.values)) + sum(map(code.count, " \t\r\n")) < len(code):
            end = _VALID.match(text).end()
            raise _error_at(ParseError, f"unexpected character {text[end]!r}", text, end)
        self.values.append("")
        self.text = text
        self.packed = packed
        self.pos = 0
        # derivative token -> derivative id, shared by the factors of this parse
        self.derivatives: dict[str, int] = {}

    def fail(self, message: str, at: int, kind=ParseError):
        """Raise `kind` at token number `at`, whose offset only a rescan finds.

        Token numbers count plain tokens, so over packed ones raise _Replay."""
        if self.packed:
            raise _Replay
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
        if not value or value[0] in _DIGITS or value in _SYMBOLS or value[-1] == "]":
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
        """A signed sum of terms, each an int coefficient (a Fraction only for
        n/d) and derivative factors."""
        values, known = self.values, self.derivatives
        terms: dict[Monomial, Coefficient] = {}
        pos = self.pos
        sign = values[pos]
        if sign == "+" or sign == "-":
            pos += 1
        while True:
            start = pos
            coeff = 1
            more = True  # whether a factor follows
            if values[pos][:1] in _DIGITS:
                self.pos = pos
                coeff = self.integer()
                if values[self.pos] == "/":
                    slash = self.pos
                    self.pos += 1
                    denominator = self.integer()
                    if denominator == 0:
                        self.fail("zero denominator", slash)
                    coeff = Fraction(coeff, denominator)
                pos = self.pos
                after = values[pos]
                if after == "*":
                    pos += 1
                else:
                    more = after and after[0] not in _DIGITS and after not in _SYMBOLS
            mono: list[int] = []
            degree = 0
            while more:
                d = known.get(values[pos])
                if d is None:
                    self.pos = pos
                    d = self.derivative()
                    pos = self.pos
                else:
                    pos += 1
                if values[pos] == "^":
                    self.pos = pos + 1
                    exponent = self.integer()
                    if exponent < 1:
                        self.fail("exponent must be positive", pos)
                    pos = self.pos
                    degree += exponent
                    if degree <= MAX_TERM_DEGREE:
                        mono += [d] * exponent
                else:
                    degree += 1
                    mono.append(d)
                more = values[pos] == "*"
                if more:
                    pos += 1
            if degree > MAX_TERM_DEGREE:
                self.fail(f"term of total degree {degree} exceeds the limit {MAX_TERM_DEGREE}", start)
            mono.sort()
            key = tuple(mono)
            terms[key] = terms.get(key, 0) + (-coeff if sign == "-" else coeff)
            sign = values[pos]
            if sign != "+" and sign != "-":
                self.pos = pos
                return DiffPoly._of(terms)
            pos += 1

    def derivative(self) -> int:
        """The id of the derivative at this token, read past it.  A packed
        token is split, checked and entered in the parse's table; one written
        with blanks is read token by token."""
        at = self.pos
        value = self.values[at]
        n = self.ring.num_derivations
        if len(value) > 1 and value[-1] == "]":
            name, _, index = value[:-1].partition("[")
            entries = index.split(",")
            indet = self.indices.get(name)
            if indet is None or len(entries) != n or max(map(len, entries)) > MAX_INTEGER_DIGITS:
                raise _Replay  # the plain parse names the fault
            self.pos = at + 1
            d = self.derivatives[value] = _intern(Derivative(indet, tuple(map(int, entries))))
            return d
        indet = self.indices.get(value)
        if indet is None:
            self.fail(f"unknown indeterminate {self.ident()!r}", at, UnknownIdentifierError)
        self.pos += 1
        open_at = self.expect("[") + 1
        index = self.separated(self.integer, ",")
        self.expect("]")
        if len(index) != n:
            message = f"multi-index of length {len(index)} for a ring with {n} derivations"
            self.fail(message, open_at, ArityMismatchError)
        return _intern(Derivative(indet, tuple(index)))  # _intern checks it


def parse_system(text: str) -> SystemFile:
    try:
        return _Parser(text, packed=True).parse()
    except _Replay:
        pass
    return _Parser(text, packed=False).parse()
