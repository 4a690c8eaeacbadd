"""Sparse differential polynomials over the rationals.

The ring has m differential indeterminates and n pairwise commuting
derivations.  A derivative is an indeterminate together with a multi-index
over the derivation axes; polynomials are finite rational combinations of
power products of derivatives.

Inside a polynomial every derivative is an int id from one interning table
per process, append-only like sys.intern: ids come in first-seen order, so
they are canonical within a process and nowhere else.  Only a valid
derivative, as make_derivative defines it, gets an id.  Every result that is
printed, compared for output or checked against a ring is decoded back to
Derivative first, and the table grows with the distinct derivatives that
polynomials of the process have held; a query such as degree_in adds none.
"""

from __future__ import annotations

import operator
import threading
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from itertools import groupby

from .record import FrozenRecord

MultiIndex = tuple[int, ...]


class ConstantPolynomialError(ValueError):
    """Raised when an operation needs a leader but the polynomial has none."""


def is_natural(x) -> bool:
    """True for an int >= 0, the one type of an indeterminate index, a
    multi-index entry or a count.  A bool or another subclass of int is not
    one: it would be a second derivative equal by value to the int one."""
    return type(x) is int and x >= 0


def is_multi_index(mu) -> bool:
    return all(map(is_natural, mu))


def join_indices(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(max, a, b))


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


class RingSpec(FrozenRecord):
    """Names of the derivation axes and the differential indeterminates."""

    __slots__ = ("derivation_names", "indeterminate_names")

    def __init__(self, derivation_names: Iterable[str], indeterminate_names: Iterable[str]):
        object.__setattr__(self, "derivation_names", tuple(derivation_names))
        object.__setattr__(self, "indeterminate_names", tuple(indeterminate_names))
        for name in self.derivation_names + self.indeterminate_names:
            if not isinstance(name, str):
                raise TypeError(f"ring names must be str, got {name!r}")
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


class Derivative(namedtuple("Derivative", ("indeterminate", "index"))):
    """An indeterminate (an int) and its multi-index over the derivation
    axes (a MultiIndex)."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return sum(self.index)


def make_derivative(indeterminate: int, index: Iterable[int]) -> Derivative:
    """Validated constructor; index may be any iterable of nonnegative ints."""
    return _valid(Derivative(indeterminate, tuple(index)))


def _valid(d: Derivative) -> Derivative:
    """d, if its indeterminate is a natural and its index a tuple of them;
    otherwise TypeError naming d if it is not a Derivative, else ValueError."""
    if not isinstance(d, Derivative):
        raise TypeError(f"expected a Derivative, got {d!r}")
    if not (is_natural(d.indeterminate) and type(d.index) is tuple and is_multi_index(d.index)):
        raise ValueError(f"invalid derivative {tuple(d)}")
    return d


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

# A monomial is the sorted tuple of the interned ids of its factors, each id
# repeated once per unit of its exponent: u0^2*u1 is (i, i, j) when i < j are
# the ids of u0 and u1.  Its length is its degree.  The decoded form that
# DiffPoly.terms shows and its constructor takes is the same tuple of
# Derivatives, sorted as Derivatives.
Monomial = tuple[int, ...]

_DERIVATIVES: list[Derivative] = []  # id -> derivative, append-only
_IDS: dict[Derivative, int] = {}  # derivative -> id
_NEW_ID = threading.Lock()  # two threads must not give one id to two derivatives
_SHIFTS: dict[int, dict[int, int]] = {}  # axis -> {id: shifted id}, added at its first shift


def _lookup(d: Derivative) -> int | None:
    """The id of d, or None if no polynomial has held d; never adds one.

    A plain lookup by value, without the check of _intern: u[0,1.0] finds
    the id of u[0,1], and a derivative no polynomial can hold finds none."""
    if not isinstance(d, Derivative):
        raise TypeError(f"expected a Derivative, got {d!r}")
    return _IDS.get(d)


def _intern(d: Derivative) -> int:
    """The id of d, given d a new one the first time it is seen.

    d is checked on every call, before the lookup, so that no invalid
    derivative gets an id and none finds the id of a valid one it equals
    by value, as u[0,1.0] and u[False,1] equal u[0,1]."""
    i = _IDS.get(_valid(d))
    if i is None:
        with _NEW_ID:
            i = _IDS.get(d)
            if i is None:
                _DERIVATIVES.append(d)  # before the id is published
                i = _IDS[d] = len(_DERIVATIVES) - 1
    return i


def _powers(mono: tuple[Derivative, ...]) -> tuple[tuple[Derivative, int], ...]:
    """The (derivative, exponent) pairs of a decoded monomial, in order."""
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


def _proportional(p: Mapping, q: Mapping, s: Coefficient, t: Coefficient) -> bool:
    """True when the term maps satisfy t*p == s*q, for nonzero s and t:
    the same monomials, with t*p[m] == s*q[m] on each."""
    if len(p) != len(q):
        return False
    get = q.get
    for m, c in p.items():
        d = get(m)
        if d is None or t * c != s * d:
            return False
    return True


def mul_sub(a: "DiffPoly", x: "DiffPoly", b: "DiffPoly", y: "DiffPoly") -> "DiffPoly":
    """a*x - b*y, accumulated in one pass without building either product.

    The zero that comes out when x = λ·y and b = λ·a is decided first, with
    no product.  With m0 the first monomial of y, s = x[m0] and t = y[m0],
    the result is zero if t·x == s·y and t·b == s·a term by term, since
    then a*x - b*y = a·(s/t)y - (s/t)a·y = 0.  These are the Δs of two
    prolongations or multiples of one element, and the reductions of θA or
    c·θA by A.  Cross-multiplying keeps int coefficients in ints, and a
    mismatch mostly stops at a length check or the first lookup."""
    xt, yt = x._terms, y._terms
    if yt:
        m0, t = next(iter(yt.items()))
        s = xt.get(m0)
        if s is not None and _proportional(xt, yt, s, t) and _proportional(b._terms, a._terms, s, t):
            return DiffPoly._of({})
    acc = _add_products({}, a._terms, xt)
    return DiffPoly._of(_add_products(acc, {m: -c for m, c in b._terms.items()}, yt))


class DiffPoly:
    """Differential polynomial as a map from monomials to nonzero rationals.

    The zero polynomial has an empty term map, and the constant monomial is
    the empty tuple, so structural equality of the maps is equality of
    polynomials.  The constructor takes monomials as tuples of Derivatives,
    interns their factors, sorts each monomial and adds the coefficients of
    monomials that then coincide; a factor that is not a Derivative raises
    TypeError, and one that make_derivative would refuse ValueError.
    degree_in, top_part and partial take a Derivative, and raise TypeError
    for anything else.  Coefficients must be int or Fraction; anything else,
    a float included, raises TypeError.  An integral coefficient is stored as
    an int and only a non-integral one as a Fraction, so arithmetic on
    integer polynomials never leaves the ints.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[Derivative, ...], Coefficient] | None = None):
        acc: dict[Monomial, Coefficient] = {}
        for mono, coeff in (terms or {}).items():
            if isinstance(coeff, int):
                coeff = int(coeff)
            elif not isinstance(coeff, Fraction):
                raise TypeError(f"coefficients must be int or Fraction, got {coeff!r}")
            key = tuple(sorted(map(_intern, mono)))
            acc[key] = acc.get(key, 0) + coeff
        object.__setattr__(self, "_terms", DiffPoly._of(acc)._terms)

    @classmethod
    def _of(cls, terms: Mapping[Monomial, Coefficient]) -> "DiffPoly":
        """Arithmetic result on ints and Fractions over sorted id monomials:
        drops the zeros and stores an integral Fraction as an int, without the
        constructor's type checks, interning and sorts."""
        out = object.__new__(cls)
        clean = {
            m: c if type(c) is int or c.denominator != 1 else c.numerator
            for m, c in terms.items() if c
        }
        object.__setattr__(out, "_terms", clean)
        return out

    @property
    def terms(self) -> dict[tuple[Derivative, ...], Coefficient]:
        """The term map over decoded monomials, each a sorted tuple of
        Derivatives; a new dict built on every access."""
        decode = _DERIVATIVES.__getitem__
        return {tuple(sorted(map(decode, mono))): coeff for mono, coeff in self._terms.items()}

    def __setattr__(self, name, value):
        raise AttributeError("DiffPoly is immutable")

    def __reduce__(self):
        # by the decoded terms: ids are canonical only within one process
        return DiffPoly, (self.terms,)

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
        return not self._terms

    def is_constant(self) -> bool:
        """True for 0 and the other constants.  The monomials are distinct
        keys, so a constant holds at most one, the empty monomial ()."""
        terms = self._terms
        return not terms or (len(terms) == 1 and not next(iter(terms)))

    def is_linear_term(self) -> bool:
        """True when p is one term c·x of degree 1, x a derivative."""
        return len(self._terms) == 1 and len(next(iter(self._terms))) == 1

    def constant_value(self) -> Coefficient:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._terms.get((), 0)

    def derivatives(self) -> set[Derivative]:
        """The derivatives in p."""
        return set(map(_DERIVATIVES.__getitem__, {i for mono in self._terms for i in mono}))

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
        acc = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc[mono] = acc.get(mono, 0) + coeff
        return DiffPoly._of(acc)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly._of({mono: -coeff for mono, coeff in self._terms.items()})

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
        return DiffPoly._of(_add_products({}, self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if type(exponent) is not int:
            raise TypeError(f"exponent of a polynomial must be an int, got {exponent!r}")
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
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"DiffPoly<{poly_text(self)}>"

    # In degree_in, top_part and partial a derivative that was never interned
    # looks up as None, which occurs in no monomial.

    def degree_in(self, d: Derivative) -> int:
        i = _lookup(d)
        return max((mono.count(i) for mono in self._terms), default=0)

    def top_part(self, d: Derivative, degree: int, drop: int) -> "DiffPoly":
        """The terms of exactly the given degree in d, each with drop copies
        of d divided out: the coefficient of d^degree times d^(degree - drop)."""
        i = _lookup(d)
        acc: dict[Monomial, Coefficient] = {}
        for mono, coeff in self._terms.items():
            if mono.count(i) == degree:
                k = mono.index(i) if drop else 0
                acc[mono[:k] + mono[k + drop :]] = coeff
        return DiffPoly._of(acc)

    def partial(self, d: Derivative) -> "DiffPoly":
        """Formal partial derivative with respect to one derivative symbol."""
        i = _lookup(d)
        acc: dict[Monomial, Coefficient] = {}
        for mono, coeff in self._terms.items():
            e = mono.count(i)
            if e:
                k = mono.index(i)
                key = mono[:k] + mono[k + 1 :]
                acc[key] = acc.get(key, 0) + coeff * e
        return DiffPoly._of(acc)

    def derive(self, axis: int) -> "DiffPoly":
        """Apply the derivation along one axis, by the Leibniz rule.

        An axis that is not an int raises TypeError, and an int that names
        no axis of the factors IndexError."""
        if type(axis) is not int:
            # checked before _SHIFTS, where 1.0 and True would find the table of 1
            raise TypeError(f"derivation axis must be an int, got {axis!r}")
        shifts = _SHIFTS.get(axis) or {}
        acc: dict[Monomial, Coefficient] = {}
        for mono, coeff in self._terms.items():
            for k, i in enumerate(mono):
                if k and mono[k - 1] == i:
                    continue  # each distinct factor once, weighted by its exponent
                up = shifts.get(i)
                if up is None:
                    up = _intern(shift_derivative(_DERIVATIVES[i], axis))
                    _SHIFTS.setdefault(axis, shifts)[i] = up
                # ids follow no order of derivatives: up may sort anywhere
                key = list(mono)
                key[k] = up
                key.sort()
                key = tuple(key)
                e = mono.count(i)
                acc[key] = acc.get(key, 0) + (coeff * e if e > 1 else coeff)
        return DiffPoly._of(acc)

    def derive_multi(self, mu: MultiIndex) -> "DiffPoly":
        """Derive mu[axis] times along each axis; ValueError naming mu unless it is a multi-index."""
        if not is_multi_index(mu):
            raise ValueError(f"cannot derive by {mu!r}: not a multi-index")
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


class Ranking(FrozenRecord):
    """Orderly ranking of derivatives.

    Lower total order ranks lower.  Order ties go to the indeterminate that
    appears earlier in the tiebreak order; remaining ties on one
    indeterminate are broken reverse-lexicographically, so the axis listed
    first in the ring dominates.
    """

    __slots__ = ("ring", "indeterminate_order")

    def __init__(self, ring: RingSpec, indeterminate_order: Iterable[int]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "indeterminate_order", tuple(indeterminate_order))
        for j in self.indeterminate_order:
            if type(j) is not int:
                raise TypeError(f"tiebreak entries must be int, got {j!r}")
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
            tuple(map(operator.neg, reversed(d.index))),
        )

    def leader(self, p: DiffPoly) -> Derivative:
        """Highest-ranking derivative occurring in p."""
        found = p.derivatives()
        if not found:
            raise ConstantPolynomialError("constant polynomial has no leader")
        return max(found, key=self.key)
