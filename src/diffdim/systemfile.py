"""Parser for chain system files.

A system file declares one ring, one orderly ranking, and named chains:

    # comment
    ring derivations=(t,x) indeterminates=(u,v)
    ranking orderly tiebreak=(u<v)
    chain B {
      u[0,2] - u[1,0] - 2*u[0,1]*u[0,0];
    }

A polynomial is a signed sum of terms.  A term is parts joined by '*': the
first a rational coefficient n or n/d or a factor name[i,...]^e, every later
one a factor.  Integers are ASCII digits, at most MAX_INTEGER_DIGITS of
them, the fewest that any interpreter's limit on int() of a string allows.
A term's total degree is at most MAX_TERM_DEGREE, since a monomial holds one
factor per unit of degree.

The token parser is the reference.  One regular expression lists every
token of the text (a symbol, an integer or an identifier), and every
character that starts none must be whitespace.  It also takes a factor after
a coefficient without '*' (2 u[0]) and blanks inside a term.  It is the only
path that places an error: a parse stops at its first error, which names its
token by number, and only then is the text rescanned for that token's line
and column, in code points.

The term reader runs first and gives the same system.  It strips comments,
sets each chain body (the text between '{' and the next '}') aside, and
lists the tokens of what is left in one pass.  A body is padded with blanks
around '+', '-' and ';' and cut by str.split(), so each term is one piece
written without blanks (3/2*v[3,0]^2*u[2,0]).  A piece is split at '*', and
each distinct part is read once per parse, by a full match of its grammar,
into one table: a coefficient as (value, ()), a factor as (1, its interned
id repeated once per unit of its exponent).  The text after a piece's
first '*' enters the same table as (1, its factors' ids sorted), so a
monomial that recurs with another coefficient is one lookup.  Anything the
reader does not take, an error, a blank other than space, tab, CR or LF, or
another layout, sends the whole file to the token parser.
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
_COMMENT = r"#[^\n]*"
# Greedy with nothing after it, so re.match never backtracks into the loop;
# the loop's stack grows with the text, so it runs only on a text that fails.
_VALID = re.compile(rf"(?:[ \t\r\n]+|{_COMMENT}|{_TOKEN})*")
_TOKENS = re.compile(_TOKEN)
_COMMENTS = re.compile(_COMMENT)
_COMMENTS_AND_TOKENS = re.compile(rf"{_COMMENT}|{_TOKEN}")
# The term reader's parts, a factor or a coefficient, over the same integers and identifiers
_PART = re.compile(r"([^\W\d]\w*)\[([0-9]+(?:,[0-9]+)*)\](?:\^([0-9]+))?|([0-9]+)(?:/([0-9]+))?")
_BLANKS = " \t\r\n"
_SYMBOLS = frozenset("=(),<{};^*+-/[]")
_DIGITS = frozenset("0123456789")


def _error_at(kind, message: str, text: str, offset: int) -> ParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return kind(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


class _Replay(Exception):
    """The term reader met text it does not take; the token parser reads it."""


class SystemFile(Record):
    __slots__ = ("ring", "ranking", "chains")

    def __init__(self, ring: RingSpec, ranking: Ranking, chains: dict[str, DiffChain]):
        self.ring, self.ranking, self.chains = ring, ranking, chains


class _Parser:
    def __init__(self, text: str, terms: bool):
        """Tokens of the text, or with `terms` of its heads, chain bodies set aside."""
        code = _COMMENTS.sub("", text) if "#" in text else text
        self.bodies = None
        if terms:
            *chunks, tail = code.split("}")
            heads, bodies = [], []
            for chunk in chunks:
                head, brace, body = chunk.partition("{")
                if not brace or "{" in body:
                    raise _Replay
                heads.append(head)
                bodies.append(body)
            if "{" in tail:
                raise _Replay
            # each '{' of the heads is followed by its '}', so the bodies come in order
            code = "{}".join(heads + [tail])
            self.bodies = iter(bodies)
            # a coefficient's or factor's text -> its (coefficient, monomial)
            self.parts: dict[str, tuple[Coefficient, Monomial]] = {}
        self.values = _TOKENS.findall(code)
        # findall skips what starts no token: the text is valid if that is all whitespace
        if sum(map(len, self.values)) + sum(map(code.count, _BLANKS)) < len(code):
            if terms:
                raise _Replay
            end = _VALID.match(text).end()
            raise _error_at(ParseError, f"unexpected character {text[end]!r}", text, end)
        self.values.append("")
        self.text = text
        self.pos = 0

    def fail(self, message: str, at: int, kind=ParseError):
        """Raise `kind` at token number `at`, whose offset only a rescan finds.

        Token numbers count the tokens of the whole text, so the term reader
        raises _Replay instead."""
        if self.bodies is not None:
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
        if self.bodies is not None:
            polys = self.body(next(self.bodies))
        else:
            polys = []
            while self.values[self.pos] != "}":
                start = self.pos
                poly = self.poly()
                self.expect(";")
                if poly.is_constant():
                    self.fail("chain elements must be non-constant", start)
                polys.append(poly)
        self.expect("}")
        if not polys:
            self.fail("chain must contain at least one polynomial", at)
        return at, name, DiffChain(polys, self.ranking)

    def body(self, text: str) -> list[DiffPoly]:
        """The polynomials of one chain body, read a term at a time."""
        pieces = text.replace("+", " + ").replace("-", " - ").replace(";", " ; ").split()
        # str.split() also drops blanks that separate no tokens, such as '\xa0'
        size = len(text) - sum(map(text.count, _BLANKS))
        if not pieces or pieces[-1] != ";" or sum(map(len, pieces)) != size:
            raise _Replay
        known, polys, start, stop = self.parts, [], 0, len(pieces)
        while start < stop:
            end = pieces.index(";", start)
            sign = pieces[start]
            if sign == "+" or sign == "-":
                start += 1
            if (end - start) % 2 == 0:  # no term, or a sign before the ';'
                raise _Replay
            piece = pieces[start]
            coeff, mono = known.get(piece) or self.term(piece)
            terms = {mono: -coeff if sign == "-" else coeff}
            if end - start > 1:
                for sign, piece in zip(pieces[start + 1 : end : 2], pieces[start + 2 : end : 2]):
                    coeff, mono = known.get(piece) or self.term(piece)
                    if sign == "-":
                        coeff = -coeff
                    elif sign != "+":
                        raise _Replay
                    terms[mono] = terms.get(mono, 0) + coeff
            poly = DiffPoly._of(terms)
            if poly.is_constant():
                raise _Replay
            polys.append(poly)
            start = end + 1
        return polys

    def term(self, piece: str) -> tuple[Coefficient, Monomial]:
        """The coefficient and monomial of a term written without blanks: the
        parts joined by '*', a coefficient or a factor first, factors after.
        The text after the first '*' is entered in the parse's table as a
        product of factors, (1, their ids sorted)."""
        known = self.parts
        first, star, rest = piece.partition("*")
        coeff, mono = known.get(first) or self.part(first)
        if not star:
            return coeff, mono
        if rest not in known:
            ids = []
            for text in rest.split("*"):
                factor = (known.get(text) or self.part(text))[1]
                ids += factor
                if not factor or len(ids) > MAX_TERM_DEGREE:  # a coefficient after '*'
                    raise _Replay
            ids.sort()
            known[rest] = 1, tuple(ids)
        factors = known[rest][1]
        if not factors:  # the text after '*' was read before as a coefficient
            raise _Replay
        if mono:  # a factor first
            mono += factors
            if len(mono) > MAX_TERM_DEGREE:
                raise _Replay
            factors = tuple(sorted(mono))
        return coeff, factors

    def part(self, text: str) -> tuple[Coefficient, Monomial]:
        """A coefficient n or n/d as (its value, ()), or a factor name[i,...]^e
        as (1, its id repeated e times), entered in the parse's table."""
        match = _PART.fullmatch(text)
        if match is None:
            raise _Replay
        name, index, exponent, numerator, denominator = match.groups()
        if name is None:
            if len(numerator) > MAX_INTEGER_DIGITS:
                raise _Replay
            value = int(numerator)
            if denominator is not None:
                if len(denominator) > MAX_INTEGER_DIGITS or not denominator.strip("0"):
                    raise _Replay
                value = Fraction(value, int(denominator))
            return self.parts.setdefault(text, (value, ()))
        indet = self.indices.get(name)
        entries = index.split(",")
        n = self.ring.num_derivations
        if indet is None or len(entries) != n or max(map(len, entries)) > MAX_INTEGER_DIGITS:
            raise _Replay
        power = 1
        if exponent is not None:
            power = int(exponent) if len(exponent) <= MAX_INTEGER_DIGITS else 0
            if not 1 <= power <= MAX_TERM_DEGREE:
                raise _Replay
        i = _intern(Derivative(indet, tuple(map(int, entries))))
        return self.parts.setdefault(text, (1, (i,) * power))

    def poly(self) -> DiffPoly:
        """A signed sum of terms, read by the token parser."""
        terms: dict[Monomial, Coefficient] = {}
        sign = self.values[self.pos]
        if sign == "+" or sign == "-":
            self.pos += 1
        while True:
            coeff, mono = self.product()
            terms[mono] = terms.get(mono, 0) + (-coeff if sign == "-" else coeff)
            sign = self.values[self.pos]
            if sign != "+" and sign != "-":
                return DiffPoly._of(terms)
            self.pos += 1

    def product(self) -> tuple[Coefficient, Monomial]:
        """The coefficient and monomial of the term at this token: parts joined
        by '*', a coefficient (an int, a Fraction only for n/d) or a factor
        first, factors after."""
        values, start = self.values, self.pos
        coeff, mono, degree = 1, [], 0
        more = True  # whether a factor follows
        if values[start][:1] in _DIGITS:
            coeff = self.integer()
            if values[self.pos] == "/":
                slash = self.pos
                self.pos += 1
                denominator = self.integer()
                if denominator == 0:
                    self.fail("zero denominator", slash)
                coeff = Fraction(coeff, denominator)
            after = values[self.pos]
            if after == "*":
                self.pos += 1
            else:  # a factor may follow without '*'; any other token ends the term
                more = after != "" and after[0] not in _DIGITS and after not in _SYMBOLS
        while more:
            d = self.derivative()
            power = 1
            if values[self.pos] == "^":
                caret = self.pos
                self.pos += 1
                power = self.integer()
                if power < 1:
                    self.fail("exponent must be positive", caret)
            degree += power
            if degree <= MAX_TERM_DEGREE:
                mono += [d] * power
            more = values[self.pos] == "*"
            self.pos += more
        if degree > MAX_TERM_DEGREE:
            self.fail(f"term of total degree {degree} exceeds the limit {MAX_TERM_DEGREE}", start)
        mono.sort()
        return coeff, tuple(mono)

    def derivative(self) -> int:
        """The id of the derivative whose name is at this token, read past
        its multi-index."""
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
        return _intern(Derivative(indet, tuple(index)))  # _intern checks it


def parse_system(text: str) -> SystemFile:
    try:
        return _Parser(text, terms=True).parse()
    except _Replay:
        pass
    return _Parser(text, terms=False).parse()
