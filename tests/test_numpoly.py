import math
import random
from fractions import Fraction

import pytest

from diffdim import NumericalPolynomial, Ordering
from diffdim.numpoly import binomial_text, standard_text


def test_eval_sums_binomials():
    assert NumericalPolynomial([0, 1]).eval(5) == 6
    assert [NumericalPolynomial([-1, 2]).eval(l) for l in range(4)] == [1, 3, 5, 7]
    assert NumericalPolynomial([0, 0, 1]).eval(4) == math.comb(6, 2)


def test_eval_rejects_negative_argument():
    with pytest.raises(ValueError):
        NumericalPolynomial([1]).eval(-1)


@pytest.mark.parametrize("point", [True, False, 1.5, 2.0, "1", None])
def test_eval_refuses_a_point_that_is_not_an_int(point):
    with pytest.raises(TypeError, match=f"point must be an int, got {point!r}"):
        NumericalPolynomial([1, 2]).eval(point)


def test_coefficients_must_be_integers():
    with pytest.raises(TypeError):
        NumericalPolynomial([Fraction(1, 2)])
    with pytest.raises(TypeError, match="True"):
        NumericalPolynomial([True, 2])


def test_degree_conventions():
    assert NumericalPolynomial([0]).degree == -1
    assert NumericalPolynomial([0, 0, 0]).degree == -1
    assert NumericalPolynomial([7]).degree == 0
    assert NumericalPolynomial([0, 0, 3]).degree == 2


def test_equality_ignores_trailing_zeros():
    assert NumericalPolynomial([0, 1]) == NumericalPolynomial([0, 1, 0, 0])
    assert hash(NumericalPolynomial([0, 1])) == hash(NumericalPolynomial([0, 1, 0]))


def test_cmp_decided_by_highest_differing_coefficient():
    assert NumericalPolynomial([5, 1]).compare(NumericalPolynomial([0, 2])) is Ordering.LESS
    assert NumericalPolynomial([0, 2]).compare(NumericalPolynomial([5, 1])) is Ordering.GREATER
    assert NumericalPolynomial([3]).compare(NumericalPolynomial([3, 0])) is Ordering.EQUAL
    assert NumericalPolynomial([9, 9, 1]).compare(NumericalPolynomial([0, 0, 2])) is Ordering.LESS


def _random_poly(rng, top):
    return NumericalPolynomial([rng.randint(-10, 10) for _ in range(top + 1)])


def test_cmp_matches_eventual_pointwise_comparison():
    rng = random.Random(20260815)
    for _ in range(1000):
        top = rng.randint(0, 4)
        p, q = _random_poly(rng, top), _random_poly(rng, top)
        verdict = p.compare(q)
        biggest = max(
            [1] + [abs(c) for c in p.coeffs] + [abs(c) for c in q.coeffs]
        )
        start = 10 * (top + 1) * biggest
        for point in range(start, start + 21):
            a, b = p.eval(point), q.eval(point)
            if verdict is Ordering.LESS:
                assert a < b
            elif verdict is Ordering.GREATER:
                assert a > b
            else:
                assert a == b


def test_cmp_is_a_total_order_on_sampled_triples():
    rng = random.Random(7)
    for _ in range(300):
        p, q, r = (_random_poly(rng, rng.randint(0, 3)) for _ in range(3))
        assert (p.compare(q) is Ordering.EQUAL) == (p == q)
        flipped = {Ordering.LESS: Ordering.GREATER, Ordering.GREATER: Ordering.LESS,
                   Ordering.EQUAL: Ordering.EQUAL}
        assert q.compare(p) is flipped[p.compare(q)]
        if p.compare(q) is Ordering.LESS and q.compare(r) is Ordering.LESS:
            assert p.compare(r) is Ordering.LESS


def test_standard_basis_known_expansions():
    assert NumericalPolynomial([-1, 2]).to_standard_basis() == (Fraction(1), Fraction(2))
    assert NumericalPolynomial([0, 1]).to_standard_basis() == (Fraction(1), Fraction(1))
    # C(l+2,2) = 1 + 3l/2 + l^2/2
    assert NumericalPolynomial([0, 0, 1]).to_standard_basis() == (
        Fraction(1),
        Fraction(3, 2),
        Fraction(1, 2),
    )


def _fraction_standard_basis(p):
    """Standard coefficients summed in Fractions, one basis polynomial at a time."""
    out = [Fraction(0)] * len(p.coeffs)
    basis = [Fraction(1)]  # C(l+i, i) by powers of l; times (l+i+1)/(i+1) gives the next
    for i, a in enumerate(p.coeffs):
        for t, c in enumerate(basis):
            out[t] += a * c
        basis = [c + lower / (i + 1) for c, lower in zip(basis + [0], [Fraction(0)] + basis)]
    return tuple(out)


def test_standard_basis_matches_the_fraction_sum():
    rng = random.Random(31)
    for width in range(1, 12):
        for _ in range(20):
            p = NumericalPolynomial(rng.randint(-50, 50) * rng.randint(0, 1) for _ in range(width))
            got = p.to_standard_basis()
            assert got == _fraction_standard_basis(p)
            assert all(type(c) is Fraction for c in got)


def test_standard_basis_agrees_with_eval_everywhere():
    rng = random.Random(99)
    for _ in range(200):
        p = _random_poly(rng, rng.randint(0, 4))
        coeffs = p.to_standard_basis()
        for point in range(8):
            assert sum(c * point**k for k, c in enumerate(coeffs)) == p.eval(point)


def test_from_numerator_sums_shifted_binomials():
    for n in range(6):
        for s in range(13):
            for c in (1, -1, 3, -7):
                p = NumericalPolynomial.from_numerator({s: c}, n)
                assert len(p.coeffs) == n + 1
                for point in range(s + 4):
                    expected = Fraction(c)
                    for j in range(1, n + 1):
                        expected *= Fraction(point - s + j, j)
                    assert p.eval(point) == expected
    assert NumericalPolynomial.from_numerator({0: 2, 3: -1, 1: 5}, 2).coeffs == (-3, -2, 6)
    assert NumericalPolynomial.from_numerator({}, 3).coeffs == (0, 0, 0, 0)


def test_from_numerator_gives_the_per_term_expansion():
    """Cancelling coefficients and shifts of 10^12 give the coefficients of
    sum (-1)^j C(s, j) K[s] added term by term."""
    rng = random.Random(33)
    for _ in range(2000):
        n = rng.randint(0, 6)
        shifts = [rng.randint(0, 12), rng.randint(0, 12), 10**12 + rng.randint(0, 9)]
        numerator = {rng.choice(shifts): rng.randint(-5, 5) for _ in range(rng.randint(0, 10))}
        expected = [0] * (n + 1)
        for s, c in numerator.items():
            for j in range(min(s, n) + 1):
                expected[n - j] += (-1) ** j * math.comb(s, j) * c
        assert NumericalPolynomial.from_numerator(numerator, n).coeffs == tuple(expected)


@pytest.mark.parametrize(
    "numerator, n, error",
    [
        ({-1: 1}, 1, ValueError),
        ({0: 1, -3: 2}, 2, ValueError),
        ({0: 1}, -1, ValueError),
        ({1.0: 1}, 2, TypeError),
        ({True: 1}, 2, TypeError),
        ({1: 0.5}, 2, TypeError),
        ({1: Fraction(1)}, 2, TypeError),
        ({1: False}, 2, TypeError),
        ({1: 1}, 2.0, TypeError),
        ({1: 1}, True, TypeError),
    ],
)
def test_from_numerator_refuses_bad_terms(numerator, n, error):
    with pytest.raises(error):
        NumericalPolynomial.from_numerator(numerator, n)


def test_text_rendering():
    p = NumericalPolynomial([-1, 2])
    assert standard_text(p) == "2ℓ + 1"
    assert binomial_text(p) == "2·C(ℓ+1,1) − 1"
    assert standard_text(NumericalPolynomial([0])) == "0"
    assert binomial_text(NumericalPolynomial([0, 0])) == "0"
    assert standard_text(NumericalPolynomial([2, 0])) == "2"
    assert binomial_text(NumericalPolynomial([0, 1, 0])) == "C(ℓ+1,1)"
    assert standard_text(NumericalPolynomial([0, 0, 1])) == "(1/2)ℓ^2 + (3/2)ℓ + 1"
