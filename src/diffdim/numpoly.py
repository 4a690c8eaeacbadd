"""Integer-valued polynomials written in the binomial coefficient basis.

A polynomial is stored as integer coefficients a_0, ..., a_k of the basis
functions C(l+i, i).  Every polynomial that takes integer values at all
sufficiently large integers has a unique such expansion, and the combinatorial
counting formulas used elsewhere in this package land in this basis directly.
The module also holds Ordering, the three-valued outcome of comparing two
such polynomials.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

MINUS = "−"


class Ordering(enum.Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"


class NumericalPolynomial:
    """Polynomial a_0*C(l,0) + a_1*C(l+1,1) + ... + a_k*C(l+k,k), a_i integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            coeffs = (0,)
        for c in coeffs:
            if type(c) is not int:
                raise TypeError(f"binomial-basis coefficients must be int, got {c!r}")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("NumericalPolynomial is immutable")

    def __reduce__(self):
        return NumericalPolynomial, (self.coeffs,)

    @classmethod
    def from_numerator(cls, numerator, n: int) -> "NumericalPolynomial":
        """Sum of K[s]*C(l - s + n, n) over the items of numerator, a dict
        {shift s: coefficient K[s]}, as n + 1 coefficients.

        Shifting the argument down by s is (1 - D)^s, where the backward
        difference D p(l) = p(l) - p(l-1) lowers the basis index by one:
        D C(l+n, n) = C(l+n-1, n-1).  So, as polynomials in l,

            C(l - s + n, n) = sum_{i=0..n} (-1)^(n-i) C(s, n-i) C(l+i, i),

        and each shift adds straight into the coefficients, its row of signed
        binomials built by the running product C(s, j+1) = C(s, j) (s - j) /
        (j + 1).  A shift or coefficient, or n, that is not an int (a bool is
        not one) raises TypeError; a negative shift or n raises ValueError.
        """
        if type(n) is not int:
            raise TypeError(f"n must be an int, got {n!r}")
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        coeffs = [0] * (n + 1)
        for s, c in numerator.items():
            if type(s) is not int or type(c) is not int:
                raise TypeError(f"numerator terms must be int: int, got {s!r}: {c!r}")
            if s < 0:
                raise ValueError(f"numerator shifts must be nonnegative, got {s}")
            for j in range(min(s, n) + 1):
                coeffs[n - j] += c  # c = (-1)^j C(s, j) K[s]
                c = -c * (s - j) // (j + 1)
        return cls(coeffs)

    @property
    def degree(self) -> int:
        """Largest basis index with nonzero coefficient, -1 for the zero polynomial."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return -1

    def eval(self, point: int) -> int:
        if type(point) is not int:
            raise TypeError(f"point must be an int, got {point!r}")
        if point < 0:
            raise ValueError("numerical polynomials are evaluated at l >= 0")
        return sum(a * math.comb(point + i, i) for i, a in enumerate(self.coeffs))

    def _padded(self, other: "NumericalPolynomial") -> tuple[tuple[int, ...], tuple[int, ...]]:
        width = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (width - len(self.coeffs))
        b = other.coeffs + (0,) * (width - len(other.coeffs))
        return a, b

    def __eq__(self, other):
        if not isinstance(other, NumericalPolynomial):
            return NotImplemented
        a, b = self._padded(other)
        return a == b

    def __hash__(self):
        coeffs = self.coeffs
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        return hash(coeffs)

    def __repr__(self):
        return f"NumericalPolynomial({list(self.coeffs)!r})"

    def compare(self, other: "NumericalPolynomial") -> Ordering:
        """Total order: decided by the highest differing basis coefficient.

        For integer-valued polynomials this is exactly eventual pointwise
        comparison: the polynomial with the larger top coefficient dominates
        for all large arguments.
        """
        a, b = self._padded(other)
        for i in range(len(a) - 1, -1, -1):
            if a[i] != b[i]:
                return Ordering.LESS if a[i] < b[i] else Ordering.GREATER
        return Ordering.EQUAL

    def to_standard_basis(self) -> tuple[Fraction, ...]:
        """Rational coefficients c_0, ..., c_k of the powers l^0, ..., l^k, one per basis coefficient.

        k! * C(l+i, i) is k!/i! times the rising product (l+1)...(l+i), an
        integer polynomial, so the sum runs in integers over the one
        denominator k!, divided out once per coefficient."""
        k = len(self.coeffs) - 1
        out = [0] * (k + 1)
        rising = [1]  # (l+1)...(l+i) by powers of l; times (l+i+1) gives the next
        for i, a in enumerate(self.coeffs):
            weight = a * math.perm(k, k - i)  # a * k!/i!
            for t, c in enumerate(rising):
                out[t] += weight * c
            rising = [(i + 1) * c + lower for c, lower in zip(rising + [0], [0] + rising)]
        scale = math.factorial(k)
        for point in range(k + 1):
            if sum(c * point**t for t, c in enumerate(out)) != scale * self.eval(point):
                raise ArithmeticError("basis conversion lost exactness")
        return tuple(Fraction(c, scale) for c in out)


def _coeff_prefix(c, sep: str) -> str:
    mag = abs(c)
    if mag == 1:
        return ""
    if isinstance(mag, Fraction) and mag.denominator != 1:
        return f"({mag}){sep}"
    return f"{mag}{sep}"


def _signed_sum(coeffs, basis: list[str], sep: str) -> str:
    """Text of the sum of coeffs[k]·basis[k], highest k first, zeros skipped.

    basis[0] is the constant function.  The first term keeps its sign; later
    ones are joined by '+ ' or '− '.
    """
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        body = str(abs(c)) if k == 0 else _coeff_prefix(c, sep) + basis[k]
        if parts:
            parts.append(("+ " if c > 0 else MINUS + " ") + body)
        else:
            parts.append(body if c > 0 else MINUS + body)
    return " ".join(parts) or "0"


def standard_text(p: NumericalPolynomial) -> str:
    """Render in falling powers of ℓ, e.g. '2ℓ + 1'."""
    coeffs = p.to_standard_basis()
    powers = ["", "ℓ"] + [f"ℓ^{k}" for k in range(2, len(coeffs))]
    return _signed_sum(coeffs, powers, "")


def binomial_text(p: NumericalPolynomial) -> str:
    """Render in the binomial basis, e.g. '2·C(ℓ+1,1) − 1'."""
    basis = [""] + [f"C(ℓ+{i},{i})" for i in range(1, len(p.coeffs))]
    return _signed_sum(p.coeffs, basis, "·")
