"""Sparse differential polynomials over the rationals.

The ring has m differential indeterminates and n pairwise commuting
derivations.  A derivative is an indeterminate together with a multi-index
over the derivation axes; polynomials are finite rational combinations of
power products of derivatives.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Iterator, Mapping, NamedTuple

MultiIndex = tuple[int, ...]


class ConstantPolynomialError(ValueError):
    """Raised when an operation needs a leader but the polynomial has none."""


def index_order(mu: MultiIndex) -> int:
    return sum(mu)


def is_natural(x) -> bool:
    """True for an int >= 0, the one type of an indeterminate index, a
    multi-index entry or a count."""
    return isinstance(x, int) and x >= 0


def is_multi_index(mu) -> bool:
    return all(map(is_natural, mu))


def join_indices(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(max(x, y) for x, y in zip(a, b))


def dominates(a: MultiIndex, b: MultiIndex) -> bool:
    """True when a >= b componentwise, i.e. the derivative a derives from b."""
    return all(map(operator.ge, a, b))


def iter_indices(n: int, max_order: int) -> Iterator[MultiIndex]:
    """All multi-indices of length n with total order at most max_order."""
    if n == 0:
        yield ()
        return
    for head in range(max_order + 1):
        for tail in iter_indices(n - 1, max_order - head):
            yield (head,) + tail


@dataclass(frozen=True)
class RingSpec:
    """Names of the derivation axes and the differential indeterminates."""

    derivation_names: tuple[str, ...]
    indeterminate_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "derivation_names", tuple(self.derivation_names))
        object.__setattr__(self, "indeterminate_names", tuple(self.indeterminate_names))
        if not self.derivation_names or not self.indeterminate_names:
            raise ValueError("a ring needs at least one derivation and one indeterminate")
        if len(set(self.derivation_names)) != len(self.derivation_names):
            raise ValueError("derivation names must be distinct")
        if len(set(self.indeterminate_names)) != len(self.indeterminate_names):
            raise ValueError("indeterminate names must be distinct")

    @property
    def num_derivations(self) -> int:
        return len(self.derivation_names)

    @property
    def num_indeterminates(self) -> int:
        return len(self.indeterminate_names)


class Derivative(NamedTuple):
    indeterminate: int
    index: MultiIndex

    @property
    def order(self) -> int:
        return sum(self.index)


def make_derivative(indeterminate: int, index: Iterable[int]) -> Derivative:
    """Validated constructor; index may be any iterable of nonnegative ints."""
    index = tuple(index)
    if not is_natural(indeterminate) or not is_multi_index(index):
        raise ValueError(f"invalid derivative {(indeterminate, index)}")
    return Derivative(indeterminate, index)


def shift_derivative(d: Derivative, axis: int) -> Derivative:
    if axis < 0 or axis >= len(d.index):
        raise IndexError(f"derivation axis {axis} out of range for {d}")
    bumped = d.index[:axis] + (d.index[axis] + 1,) + d.index[axis + 1 :]
    return Derivative(d.indeterminate, bumped)


def derivative_text(d: Derivative, names: tuple[str, ...] | None = None) -> str:
    name = names[d.indeterminate] if names else f"x{d.indeterminate}"
    return name + "[" + ",".join(str(e) for e in d.index) + "]"


# An integral coefficient is an int; a Fraction holds only a non-integral one.
Coefficient = int | Fraction

# A monomial is the sorted tuple of its factors, each derivative repeated once
# per unit of its exponent: u0^2*u1 is (u0, u0, u1).  Its length is its degree.
Monomial = tuple[Derivative, ...]


def _monomial(powers: Mapping[Derivative, int]) -> Monomial:
    return tuple(sorted(d for d, e in powers.items() for _ in range(e)))


def _powers(mono: Monomial) -> tuple[tuple[Derivative, int], ...]:
    """The (derivative, exponent) pairs of a monomial, in order."""
    return tuple((d, len(list(run))) for d, run in groupby(mono))


def _add_products(acc: dict, p: Mapping, q: Mapping) -> dict:
    """Add the product of the term maps p and q into acc and return acc.

    A constant monomial of p adds q's terms as they stand, without a sort."""
    for m1, c1 in p.items():
        if not m1:
            for m2, c2 in q.items():
                acc[m2] = acc.get(m2, 0) + c1 * c2
            continue
        for m2, c2 in q.items():
            key = tuple(sorted(m1 + m2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return acc


def mul_sub(a: "DiffPoly", x: "DiffPoly", b: "DiffPoly", y: "DiffPoly") -> "DiffPoly":
    """a*x - b*y, accumulated in one pass without building either product."""
    acc = _add_products({}, a.terms, x.terms)
    return DiffPoly._of(_add_products(acc, {m: -c for m, c in b.terms.items()}, y.terms))


class DiffPoly:
    """Differential polynomial as a map from monomials to nonzero rationals.

    The zero polynomial has an empty term map, and the constant monomial is
    the empty tuple, so structural equality of the maps is equality of
    polynomials.  The constructor sorts each monomial's factors and adds
    the coefficients of monomials that then coincide.  Coefficients must be
    int or Fraction; anything else, a float included, raises TypeError.  An
    integral coefficient is stored as an int and only a non-integral one as
    a Fraction, so arithmetic on integer polynomials never leaves the ints.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Coefficient] | None = None):
        acc: dict[Monomial, Coefficient] = {}
        for mono, coeff in (terms or {}).items():
            if isinstance(coeff, int):
                coeff = int(coeff)
            elif not isinstance(coeff, Fraction):
                raise TypeError(f"coefficients must be int or Fraction, got {coeff!r}")
            key = tuple(sorted(mono))
            acc[key] = acc.get(key, 0) + coeff
        object.__setattr__(self, "terms", DiffPoly._of(acc).terms)

    @classmethod
    def _of(cls, terms: Mapping[Monomial, Coefficient]) -> "DiffPoly":
        """Arithmetic result on ints and Fractions over sorted monomials: drops
        the zeros and stores an integral Fraction as an int, without the
        constructor's type checks and sorts."""
        out = object.__new__(cls)
        clean = {
            m: c if type(c) is int or c.denominator != 1 else c.numerator
            for m, c in terms.items() if c
        }
        object.__setattr__(out, "terms", clean)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("DiffPoly is immutable")

    @classmethod
    def zero(cls) -> "DiffPoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "DiffPoly":
        return cls({(): value})

    @classmethod
    def variable(cls, d: Derivative) -> "DiffPoly":
        return cls({(d,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not mono for mono in self.terms)

    def constant_value(self) -> Coefficient:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((), 0)

    def derivatives(self) -> set[Derivative]:
        return {d for mono in self.terms for d in mono}

    @staticmethod
    def _coerce(value) -> "DiffPoly | None":
        if isinstance(value, DiffPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return DiffPoly.constant(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc[mono] = acc.get(mono, 0) + coeff
        return DiffPoly._of(acc)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly._of({mono: -coeff for mono, coeff in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return DiffPoly._of(_add_products({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = DiffPoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"DiffPoly<{poly_text(self)}>"

    def degree_in(self, d: Derivative) -> int:
        return max((mono.count(d) for mono in self.terms), default=0)

    def top_part(self, d: Derivative, degree: int, drop: int) -> "DiffPoly":
        """The terms of exactly the given degree in d, each with drop copies
        of d divided out: the coefficient of d^degree times d^(degree - drop)."""
        acc: dict[Monomial, Coefficient] = {}
        for mono, coeff in self.terms.items():
            if mono.count(d) == degree:
                i = mono.index(d) if drop else 0
                acc[mono[:i] + mono[i + drop :]] = coeff
        return DiffPoly._of(acc)

    def partial(self, d: Derivative) -> "DiffPoly":
        """Formal partial derivative with respect to one derivative symbol."""
        acc: dict[Monomial, Coefficient] = {}
        for mono, coeff in self.terms.items():
            e = mono.count(d)
            if e:
                i = mono.index(d)
                key = mono[:i] + mono[i + 1 :]
                acc[key] = acc.get(key, 0) + coeff * e
        return DiffPoly._of(acc)

    def derive(self, axis: int) -> "DiffPoly":
        """Apply the derivation along one axis, by the Leibniz rule."""
        bumped: dict[Derivative, Derivative] = {}  # each distinct factor, shifted once
        acc: dict[Monomial, Coefficient] = {}
        for mono, coeff in self.terms.items():
            for i, d in enumerate(mono):
                if i and mono[i - 1] == d:
                    continue  # each distinct factor once, weighted by its exponent
                up = bumped.get(d)
                if up is None:
                    up = bumped[d] = shift_derivative(d, axis)
                rest = mono[:i] + mono[i + 1 :]
                # up exceeds d in tuple order, so it sorts at or after d's place
                j = bisect.bisect(rest, up, i)
                key = rest[:j] + (up,) + rest[j:]
                acc[key] = acc.get(key, 0) + coeff * mono.count(d)
        return DiffPoly._of(acc)

    def derive_multi(self, mu: MultiIndex) -> "DiffPoly":
        out = self
        for axis, times in enumerate(mu):
            for _ in range(times):
                out = out.derive(axis)
        return out


def poly_text(p: DiffPoly, names: tuple[str, ...] | None = None) -> str:
    """Canonical text form, parseable by the system-file grammar."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    # Terms run in decreasing order of their (derivative, exponent) pairs.
    # Monomials are distinct, so the sort never compares coefficients.
    for powers, coeff in sorted(((_powers(m), c) for m, c in p.terms.items()), reverse=True):
        factors = []
        for d, e in powers:
            text = derivative_text(d, names)
            factors.append(text if e == 1 else f"{text}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


@dataclass(frozen=True)
class Ranking:
    """Orderly ranking of derivatives.

    Lower total order ranks lower.  Order ties go to the indeterminate that
    appears earlier in the tiebreak order; remaining ties on one
    indeterminate are broken reverse-lexicographically, so the axis listed
    first in the ring dominates.
    """

    ring: RingSpec
    indeterminate_order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indeterminate_order", tuple(self.indeterminate_order))
        if sorted(self.indeterminate_order) != list(range(self.ring.num_indeterminates)):
            raise ValueError("tiebreak order must be a permutation of the indeterminates")

    @classmethod
    def orderly(cls, ring: RingSpec, tiebreak: Iterable[int] | None = None) -> "Ranking":
        if tiebreak is None:
            tiebreak = range(ring.num_indeterminates)
        return cls(ring, tuple(tiebreak))

    def key(self, d: Derivative):
        return (
            d.order,
            self.indeterminate_order.index(d.indeterminate),
            tuple(-e for e in reversed(d.index)),
        )

    def leader(self, p: DiffPoly) -> Derivative:
        """Highest-ranking derivative occurring in p."""
        found = p.derivatives()
        if not found:
            raise ConstantPolynomialError("constant polynomial has no leader")
        return max(found, key=self.key)
