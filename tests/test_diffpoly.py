import operator
import random
import re
import sys
import threading
from fractions import Fraction

import pytest

from diffdim import (
    ConstantPolynomialError,
    Derivative,
    DiffPoly,
    Ordering,
    Ranking,
    RingSpec,
    diffpoly,
    make_derivative,
)
from diffdim.diffpoly import iter_indices, mul_sub, poly_text, shift_derivative

from corpus import dvar, plain_ranking, plain_ring, random_index


def test_ring_spec_rejects_bad_names():
    with pytest.raises(ValueError, match="^derivation names must be distinct$"):
        RingSpec(("t", "t"), ("u",))
    with pytest.raises(ValueError, match="^indeterminate names must be distinct$"):
        RingSpec(("t",), ("u", "v", "u"))
    with pytest.raises(ValueError):
        RingSpec(("t",), ())


def test_ring_names_must_be_str():
    for names, bad in ((((1, 2), ("u",)), 1), ((("t",), ("u", None)), None)):
        with pytest.raises(TypeError, match=re.escape(f"ring names must be str, got {bad!r}")):
            RingSpec(*names)


def test_make_derivative_normalizes_index_and_validates():
    assert make_derivative(0, (1, 2)) == make_derivative(0, [1, 2])
    for index in ((-1,), (1.5,), (1.0,), (0, 2.0), (False,), (0, True)):
        with pytest.raises(ValueError, match="invalid derivative"):
            make_derivative(0, index)
    for indeterminate in (-1, 1.0, "0", None, False):
        with pytest.raises(ValueError, match="invalid derivative"):
            make_derivative(indeterminate, (1,))


def test_polynomials_refuse_invalid_derivatives():
    """A derivative enters a polynomial only if make_derivative would build
    it: a negative entry, a float, even an integral one, None or a str in
    the index or the indeterminate raises ValueError naming it, alone or
    beside a valid factor."""
    u = make_derivative(0, (0, 1))
    cases = (
        Derivative(0, (0, -1)), Derivative(-1, (0, 1)), Derivative(0, (1.5, 0)),
        Derivative(0, (0, 1.0)), Derivative(0.0, (1, 0)), Derivative(0, ("a", 1)),
        Derivative(0, (None, 1)), Derivative(0, (1, None)), Derivative(None, (0, 1)),
        Derivative(0, range(2)),
    )
    for bad in cases:
        message = re.escape(f"invalid derivative {tuple(bad)}")
        for terms in ({(bad,): 1}, {(u,): 1, (u, bad): 2}):
            with pytest.raises(ValueError, match=message):
                DiffPoly(terms)
        with pytest.raises(ValueError, match=message):
            DiffPoly.variable(bad)


def test_monomial_factors_must_be_derivatives():
    for bad in (5, (0, (1,)), "u"):
        with pytest.raises(TypeError, match=re.escape(f"expected a Derivative, got {bad!r}")):
            DiffPoly({(bad,): 1})


def test_derivative_arguments_must_be_derivatives():
    d = make_derivative(0, (1,))
    p = DiffPoly.variable(d) ** 3
    for bad in (DiffPoly.variable(d), (0, (1,)), 0):
        with pytest.raises(TypeError, match="expected a Derivative"):
            p.degree_in(bad)
        with pytest.raises(TypeError, match="expected a Derivative"):
            p.top_part(bad, 3, 3)
        with pytest.raises(TypeError, match="expected a Derivative"):
            p.partial(bad)
    # a derivative that no polynomial has held yet is simply absent, and
    # asking for it does not add it to the interning table
    from diffdim.diffpoly import _DERIVATIVES

    fresh = make_derivative(7, (123_456_789,))
    held = len(_DERIVATIVES)
    assert (p.degree_in(fresh), p.partial(fresh)) == (0, DiffPoly.zero())
    assert p.top_part(fresh, 0, 0) == p and not p.top_part(fresh, 1, 1)
    assert len(_DERIVATIVES) == held


def test_power_exponent_must_be_a_natural_int():
    u = dvar(0, (0,))
    for bad in (1.5, 2.0, Fraction(2), "2", True):
        with pytest.raises(TypeError, match=re.escape(f"must be an int, got {bad!r}")):
            u ** bad
    with pytest.raises(ValueError, match="negative power"):
        u ** -1


def test_terms_view_is_decoded_and_sorted_by_derivative():
    a, b, c = (make_derivative(0, (k,)) for k in (3, 1, 2))
    # interned in the order a, b, c, so their ids do not follow the derivative order
    p = DiffPoly({(a, b, c): 1, (c,): 2})
    assert p.terms == {(b, c, a): 1, (c,): 2}
    assert p.terms is not p.terms


def test_concurrent_interning_gives_each_derivative_one_id():
    """Threads that intern the same new derivatives at once, in different
    orders and with thread switches forced often, must agree on one id per
    derivative and never give one id to two."""
    from diffdim.diffpoly import _DERIVATIVES, _intern

    def work(fresh, seed, found):
        order = fresh[:]
        random.Random(seed).shuffle(order)
        ids = dict(zip(order, map(_intern, order)))
        found.append([ids[d] for d in fresh])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(25):
            fresh = [make_derivative(10_000 + trial, (k,)) for k in range(2000)]
            found: list[list[int]] = []
            workers = [
                threading.Thread(target=work, args=(fresh, seed, found)) for seed in range(8)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers) and len(found) == 8
            assert all(ids == found[0] for ids in found)
            assert [_DERIVATIVES[i] for i in found[0]] == fresh
    finally:
        sys.setswitchinterval(interval)


def test_arithmetic_identities():
    u = dvar(0, (0, 0))
    ux = dvar(0, (1, 0))
    p = u * u - 2 * ux + Fraction(3, 4)
    q = ux * u + 1
    assert p + q - q == p
    assert (p + q) * (p - q) == p * p - q * q
    assert (p + q) ** 2 == p * p + 2 * p * q + q * q
    assert 0 * p == DiffPoly.zero()
    assert p - p == DiffPoly.zero()
    assert not DiffPoly.zero()


def test_constant_handling():
    c = DiffPoly.constant(Fraction(3, 4))
    assert c.is_constant() and c.terms == {(): Fraction(3, 4)}
    assert DiffPoly.zero().is_constant()
    u = dvar(0, (0,))
    assert not u.is_constant()
    # a constant term beside a monomial, and a constant left when the monomials cancel
    assert not (u + 2).is_constant() and not (u * u - 1).is_constant()
    assert (u + 2 - u).is_constant() and (u + 2 - u).terms == {(): 2}


def test_coefficients_must_be_int_or_fraction():
    u = dvar(0, (0,))
    for bad in (0.1, "1/3", 2.0):
        with pytest.raises(TypeError):
            DiffPoly({(): bad})
        with pytest.raises(TypeError):
            DiffPoly.constant(bad)
        # arithmetic with a non-coefficient raises TypeError from either side; == is False
        for operation in (operator.add, operator.sub, operator.mul):
            for left, right in ((u, bad), (bad, u)):
                with pytest.raises(TypeError):
                    operation(left, right)
        assert (u == bad) is False and (bad == u) is False and u != bad
    assert DiffPoly.constant(3) == DiffPoly({(): Fraction(3)})
    assert DiffPoly.constant(Fraction(1, 3)).terms == {(): Fraction(1, 3)}


def test_constructor_sorts_monomials_and_merges_coinciding_keys():
    a, b = make_derivative(0, (0, 1)), make_derivative(0, (1, 0))
    assert DiffPoly({(b, a): 1}) == DiffPoly({(a, b): 1}) == dvar(0, (0, 1)) * dvar(0, (1, 0))
    assert DiffPoly({(b, a): 1}).terms == {(a, b): 1}
    assert not DiffPoly({(b, a): 1}) - DiffPoly({(a, b): 1})
    # three spellings of one monomial add up: 2 - 2 + 1/2
    assert DiffPoly({(b, a, b): 2, (a, b, b): -2, (b, b, a): Fraction(1, 2)}).terms == {
        (a, b, b): Fraction(1, 2)
    }
    assert DiffPoly({(b, a): Fraction(1, 2), (a, b): Fraction(1, 2)}).terms == {(a, b): 1}
    assert not DiffPoly({(b, a): 3, (a, b): -3})


def _as_univariate(p, d):
    """Coefficients of the powers of d, themselves polynomials free of d."""
    buckets = {}
    for mono, coeff in p.terms.items():
        rest = tuple(f for f in mono if f != d)
        buckets.setdefault(len(mono) - len(rest), {})[rest] = coeff
    return {e: DiffPoly(t) for e, t in buckets.items()}


def _reference_product(p, q):
    """p*q by the plain double loop, sorting every product monomial."""
    acc = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            key = tuple(sorted(m1 + m2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return DiffPoly(acc)


def _reference_derive(p, axis):
    """The Leibniz rule, shifting each factor afresh and sorting the result."""
    acc = {}
    for mono, coeff in p.terms.items():
        for i, d in enumerate(mono):
            if i and mono[i - 1] == d:
                continue
            key = tuple(sorted(mono[:i] + (shift_derivative(d, axis),) + mono[i + 1 :]))
            acc[key] = acc.get(key, 0) + coeff * mono.count(d)
    return DiffPoly(acc)


def _coefficients_are_reduced(p):
    """Every integral coefficient is an int, and only a true fraction a Fraction."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.terms.values()
    )


def test_integral_results_have_int_coefficients():
    d0, d1 = make_derivative(0, (0, 0)), make_derivative(0, (1, 0))
    u0, u1 = DiffPoly.variable(d0), DiffPoly.variable(d1)
    half, third = Fraction(1, 2), Fraction(1, 3)
    p = 3 * u0**2 * u1 - 2 * u1 + 5
    # integral Fractions are stored as ints, whichever way they come in
    q = DiffPoly({(d0,): Fraction(4, 2), (d1,): Fraction(-3)}) + Fraction(6, 3)
    assert q.terms == {(d0,): 2, (d1,): -3, (): 2}
    assert DiffPoly.constant(Fraction(6, 3)).terms == {(): 2}
    assert type(DiffPoly.constant(Fraction(6, 3)).terms[()]) is int
    assert DiffPoly.zero().terms == {}
    integral = [
        p + q, p - q, -p, p * q, p**3, p.derive(0), p.derive(1), p.partial(d0),
        p.partial(d1), p.top_part(d0, 2, 2), p.top_part(d0, 2, 1), p.top_part(d1, 1, 1),
        # fractions that cancel to integers come back as ints
        half * p * 2, half * u0 + half * u0, (half * u0**2).partial(d0),
        (half * u0**2).derive(0), (half * u0) ** 2 * 4,
        # products by a constant, and differences
        p * 1, 1 * p, p * DiffPoly.constant(-2), DiffPoly.constant(Fraction(6, 3)) * p,
        (half * p) * DiffPoly.constant(2), p - half * u0 - half * u0, 7 - p,
    ]
    for r in integral:
        assert r and all(type(c) is int for c in r.terms.values()), r
    fractional = [
        (third * p, Fraction(5, 3)),
        (p + third, Fraction(16, 3)),
        (p - third, Fraction(14, 3)),
        ((third * u0) ** 2, Fraction(1, 9)),
        ((third * u0 * u1).derive(1), third),
        ((third * u0**2).partial(d0), Fraction(2, 3)),
        ((third * u0 * u1 + u1).top_part(d1, 1, 1), third),
        (mul_sub(DiffPoly.constant(third), p, u0, u1), Fraction(5, 3)),
        (p * DiffPoly.constant(third), -Fraction(2, 3)),
        (p - third * u0, -third),
        (third - p, Fraction(-14, 3)),
    ]
    for r, value in fractional:
        assert _coefficients_are_reduced(r), r
        assert value in r.terms.values() and any(type(c) is Fraction for c in r.terms.values())


def test_high_exponents_exact_values():
    d0, d1, d2 = (make_derivative(0, (k,)) for k in range(3))
    u0, u1, u2 = (DiffPoly.variable(d) for d in (d0, d1, d2))
    p = u0**3 * u1**2
    assert p.derive(0) == 3 * u0**2 * u1**3 + 2 * u0**3 * u1 * u2
    assert (u1**4).derive(0) == 4 * u1**3 * u2
    assert p.partial(d0) == 3 * u0**2 * u1**2
    assert p.partial(d1) == 2 * u0**3 * u1
    assert p.partial(d2) == DiffPoly.zero()
    assert (p.degree_in(d0), p.degree_in(d1), p.degree_in(d2)) == (3, 2, 0)
    q = p + 5 * u0**3 * u2 - u1**4 + 7
    assert q.top_part(d0, 3, 3) == u1**2 + 5 * u2
    assert q.top_part(d0, 3, 1) == (u1**2 + 5 * u2) * u0**2
    assert q.top_part(d0, 0, 0) == 7 - u1**4
    assert q.top_part(d1, 4, 4) == DiffPoly.constant(-1)
    assert q.top_part(d1, 2, 2) == u0**3
    assert q.top_part(d2, 1, 1) == 5 * u0**3
    assert q.derivatives() == {d0, d1, d2}


def test_derive_leibniz_on_squares():
    u = dvar(0, (0, 0))
    expected = 2 * u * dvar(0, (0, 1))
    assert (u * u).derive(1) == expected
    assert DiffPoly.constant(5).derive(0) == DiffPoly.zero()


def test_derive_axis_bounds():
    u = dvar(0, (0, 0))
    for p in (u, 3 * u * dvar(0, (1, 0)) + 1):
        for axis in (-1, 2):
            with pytest.raises(IndexError):
                p.derive(axis)
        # adds the shift table of axis 1, the key that 1.0 and True would match
        p.derive(1)
        for axis in (1.0, True, "1"):
            with pytest.raises(TypeError, match=re.escape(f"must be an int, got {axis!r}")):
                p.derive(axis)
    with pytest.raises(TypeError, match="must be an int, got True"):
        DiffPoly.constant(5).derive(True)


def test_refused_axis_adds_no_shift_table():
    n = max(diffpoly._SHIFTS, default=0) + 2  # axes n - 1 and n have no table yet
    p = 3 * dvar(0, (0,) * n) * dvar(1, (1,) + (0,) * (n - 1)) + 1
    for axis in (-1, n):
        with pytest.raises(IndexError):
            p.derive(axis)
        assert axis not in diffpoly._SHIFTS
    assert DiffPoly.constant(5).derive(n - 1) == DiffPoly.zero()
    assert n - 1 not in diffpoly._SHIFTS  # no shift has succeeded on it yet
    p.derive(n - 1)
    decode = diffpoly._DERIVATIVES.__getitem__
    shifted = {decode(i): decode(up) for i, up in diffpoly._SHIFTS[n - 1].items()}
    assert shifted == {d: shift_derivative(d, n - 1) for d in p.derivatives()}


def _fresh_derivatives(order):
    """Derivatives of indeterminates no polynomial has held, interned in the
    given order: x = u[0], its shift x1 = u[1], y = v[0] and z = w[0]."""
    m = max((d.indeterminate for d in diffpoly._DERIVATIVES), default=0) + 1
    named = {"x": (m, (0,)), "x1": (m, (1,)), "y": (m + 1, (0,)), "z": (m + 2, (0,))}
    ds = {name: make_derivative(*named[name]) for name in order}
    for d in ds.values():
        DiffPoly.variable(d)
    return ds


def test_derive_places_the_shifted_factor_anywhere():
    """The shifted id sorts before, between or after the other factors,
    with repeated factors, fractional coefficients and cancelling terms."""
    for position, order in ((0, "x1 y z x"), (1, "x y x1 z"), (2, "x y z x1")):
        ds = _fresh_derivatives(order.split())
        x, x1, y, z = (DiffPoly.variable(ds[k]) for k in ("x", "x1", "y", "z"))
        ids = {k: diffpoly._IDS[d] for k, d in ds.items()}
        half = Fraction(1, 2)
        polys = [
            x * y * z, x**2 * y, x * y**2, x**2 * y * z - 3 * x**3, half * x**2 * y,
            half * x * y.derive(0) - half * x1 * y, 5 * x * y * z - 5 * z * y * x + 2,
        ]
        for p in polys:
            got = p.derive(0)
            assert got == _reference_derive(p, 0), (order, p)
            assert _coefficients_are_reduced(got), got
        # x1 leaves the place of x in (x, y, z) sorted by id for the given position
        mono = tuple(sorted((ids["x1"], ids["y"], ids["z"])))
        assert (x * y * z).derive(0)._terms[mono] == 1 and mono.index(ids["x1"]) == position
        # 1/2·x^2 -> x·x1 with the int 1
        got = (half * x**2).derive(0).terms
        assert got == {tuple(sorted((ds["x"], ds["x1"]))): 1} and type(*got.values()) is int
        # x1·y1 cancels out of the derivative of x·y1 - x1·y
        y1 = y.derive(0)
        got = (x * y1 - x1 * y).derive(0)
        assert got == x * y1.derive(0) - x1.derive(0) * y and len(got.terms) == 2


def test_derive_multi_refuses_malformed_multi_indices():
    u = dvar(0, (0, 0))
    p = 3 * u * dvar(0, (1, 0)) + 1
    for mu in ((-1, 0), (True, 0), (1.5,), (0, 1.0), (0, None), (0, -2)):
        with pytest.raises(ValueError, match=re.escape(f"cannot derive by {mu!r}")):
            p.derive_multi(mu)
    # a polynomial has no ring: only a nonzero entry past the factors' axes shows
    with pytest.raises(IndexError):
        p.derive_multi((0, 0, 1))
    assert p.derive_multi((0, 0, 0)) == p and p.derive_multi(()) == p
    assert p.derive_multi((1, 2)) == p.derive(0).derive(1).derive(1)


def _random_poly(rng, n, m, max_order=2, terms=3):
    out = DiffPoly.zero()
    for _ in range(rng.randint(1, terms)):
        mono = DiffPoly.constant(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 2)):
            mono = mono * dvar(rng.randrange(m), random_index(rng, n, max_order))
        out = out + mono
    return out


def test_products_by_constants_and_differences():
    rng = random.Random(19)
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        p, q = _random_poly(rng, n, m), _random_poly(rng, n, m)
        for c in (1, -1, 0, 3, Fraction(1, 2), Fraction(-4, 3)):
            termwise = DiffPoly({mono: coeff * c for mono, coeff in p.terms.items()})
            for product in (p * c, c * p, p * DiffPoly.constant(c), DiffPoly.constant(c) * p):
                assert product == termwise
        assert p - q == p + (-q)
        assert 5 - p == 5 + (-p) and p - Fraction(1, 2) == p + Fraction(-1, 2)


def test_derive_satisfies_leibniz_rule():
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        p = _random_poly(rng, n, m)
        q = _random_poly(rng, n, m)
        axis = rng.randrange(n)
        assert (p * q).derive(axis) == p.derive(axis) * q + p * q.derive(axis)
        assert (p + q).derive(axis) == p.derive(axis) + q.derive(axis)


def _varied_poly(rng, n, m):
    """A random polynomial over a pool of few derivatives, so factors repeat,
    with int and Fraction coefficients; zero and constants come up too."""
    pool = [make_derivative(rng.randrange(m), random_index(rng, n, 2)) for _ in range(3)]
    terms = {}
    for _ in range(rng.randint(0, 5)):
        mono = tuple(sorted(rng.choice(pool) for _ in range(rng.randint(0, 4))))
        terms[mono] = rng.choice((1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-4, 3), Fraction(5, 6)))
    return DiffPoly(terms)


def test_kernel_matches_the_sort_based_reference():
    """The fused a*x - b*y, the product, derive and top_part against the
    plain loops they replace."""
    rng = random.Random(29)
    for _ in range(400):
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        a, x, b, y = (_varied_poly(rng, n, m) for _ in range(4))
        expected = _reference_product(a, x) - _reference_product(b, y)
        for got in (mul_sub(a, x, b, y), a * x - b * y, x * y, x.derive(rng.randrange(n))):
            assert _coefficients_are_reduced(got), got
        assert mul_sub(a, x, b, y) == expected
        assert mul_sub(a, x, a, x) == DiffPoly.zero()
        assert x * y == _reference_product(x, y)
        for axis in range(n):
            assert x.derive(axis) == _reference_derive(x, axis)
        for d in x.derivatives():
            for e, coeff in _as_univariate(x, d).items():
                for drop in range(e + 1):
                    assert x.top_part(d, e, drop) == coeff * DiffPoly.variable(d) ** (e - drop)


def _with_changed_coefficient(p, rng):
    """p with the coefficient of one of its monomials, chosen at random, moved by 1."""
    terms = p.terms
    mono = rng.choice(sorted(terms))
    terms[mono] += 1
    return DiffPoly(terms)


def test_kernel_cancels_proportional_products_without_building_them(monkeypatch):
    """mul_sub(a, x, b, y) with x = λ·y and b = λ·a is zero and builds no
    product; the near misses around that rule still equal the reference."""
    products = []
    add_products = diffpoly._add_products
    monkeypatch.setattr(
        diffpoly, "_add_products", lambda *args: products.append(1) or add_products(*args)
    )
    rng = random.Random(31)
    cancelled = 0
    for _ in range(300):
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        a, y = _varied_poly(rng, n, m), _varied_poly(rng, n, m)
        lam = rng.choice((1, -1, 3, Fraction(-2, 3), Fraction(5, 6)))
        x, b = y * lam, a * lam
        # outside every pool, so it is a monomial neither a nor y has
        extra = rng.choice((2, Fraction(-1, 2))) * dvar(m, (0,) * n)
        # b + extra: the rule needs b = λ·a too, not only x = λ·y
        cases = [(a, x, b, y), (a, x, b + extra, y), (a, x + extra, b, y)]
        cases += [(DiffPoly.zero(), x, DiffPoly.zero(), y), (a, DiffPoly.zero(), b, y + extra)]
        cases.append((a, x + extra, b, DiffPoly.zero()))
        if y:
            cases.append((a, _with_changed_coefficient(x, rng), b, y))
        if a:
            cases.append((a, x, _with_changed_coefficient(b, rng), y))
        for case in cases:
            got = mul_sub(*case)
            assert got == _reference_product(case[0], case[1]) - _reference_product(case[2], case[3])
            assert _coefficients_are_reduced(got), got
        products.clear()
        assert mul_sub(a, x, b, y) == DiffPoly.zero()
        if y:
            assert products == []
            cancelled += 1
    assert cancelled >= 200, cancelled


def test_derivations_commute():
    rng = random.Random(13)
    for _ in range(40):
        n, m = rng.randint(2, 3), rng.randint(1, 2)
        p = _random_poly(rng, n, m)
        a, b = rng.randrange(n), rng.randrange(n)
        assert p.derive(a).derive(b) == p.derive(b).derive(a)


def test_derive_multi_is_order_independent():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 3)
        p = _random_poly(rng, n, 2)
        mu = random_index(rng, n, 3)
        sequence = [axis for axis, times in enumerate(mu) for _ in range(times)]
        rng.shuffle(sequence)
        out = p
        for axis in sequence:
            out = out.derive(axis)
        assert p.derive_multi(mu) == out


def _compare(ranking, d1, d2):
    """Ordering of two derivatives under the ranking, read off its keys."""
    left, right = ranking.key(d1), ranking.key(d2)
    if left == right:
        return Ordering.EQUAL
    return Ordering.LESS if left < right else Ordering.GREATER


def _initial(ranking, p):
    x = ranking.leader(p)
    return _as_univariate(p, x)[p.degree_in(x)]


def _separant(ranking, p):
    return p.partial(ranking.leader(p))


def test_orderly_ranking_examples():
    ranking = plain_ranking(2, 2)
    u10 = make_derivative(0, (1, 0))
    v10 = make_derivative(1, (1, 0))
    v00 = make_derivative(1, (0, 0))
    assert _compare(ranking, u10, v10) is Ordering.LESS
    assert _compare(ranking, v00, u10) is Ordering.LESS
    assert _compare(ranking, u10, u10) is Ordering.EQUAL
    # equal order, one indeterminate: first axis dominates
    mu = [make_derivative(0, idx) for idx in [(0, 2), (1, 1), (2, 0)]]
    assert _compare(ranking, mu[0], mu[1]) is Ordering.LESS
    assert _compare(ranking, mu[1], mu[2]) is Ordering.LESS


def test_tiebreak_order_is_respected():
    ring = plain_ring(1, 2)
    swapped = Ranking.orderly(ring, tiebreak=(1, 0))
    u = make_derivative(0, (1,))
    v = make_derivative(1, (1,))
    assert _compare(swapped, v, u) is Ordering.LESS
    with pytest.raises(ValueError):
        Ranking.orderly(ring, tiebreak=(0, 0))


def test_tiebreak_entries_must_be_ints():
    for ring, tiebreak, bad in ((plain_ring(1, 1), [0.0], 0.0), (plain_ring(1, 2), (1, True), True)):
        with pytest.raises(TypeError, match=re.escape(f"tiebreak entries must be int, got {bad!r}")):
            Ranking.orderly(ring, tiebreak)
    # an int that names no indeterminate is a wrong value, not a wrong type
    with pytest.raises(ValueError, match="permutation"):
        Ranking.orderly(plain_ring(1, 2), (1, -1))


def test_indeterminate_outside_the_ranking_is_a_value_error():
    ranking = plain_ranking(1, 1)
    outside = make_derivative(1, (0,))
    with pytest.raises(ValueError):
        ranking.key(outside)
    with pytest.raises(ValueError):
        ranking.leader(dvar(0, (1,)) + DiffPoly.variable(outside))


def test_ranking_axioms_exhaustively_small():
    ranking = plain_ranking(2, 2)
    derivs = [
        make_derivative(j, mu) for j in range(2) for mu in iter_indices(2, 3)
    ]
    from diffdim.diffpoly import shift_derivative

    for d in derivs:
        for axis in range(2):
            assert _compare(ranking, d, shift_derivative(d, axis)) is Ordering.LESS
    for d1 in derivs:
        for d2 in derivs:
            if _compare(ranking, d1, d2) is Ordering.LESS:
                assert d1.order <= d2.order  # orderly
                for axis in range(2):
                    assert (
                        _compare(ranking, shift_derivative(d1, axis), shift_derivative(d2, axis))
                        is Ordering.LESS
                    )


def test_leader_initial_separant():
    ranking = plain_ranking(1, 2)
    u1 = dvar(0, (1,))
    v0 = dvar(1, (0,))
    p = u1 * u1 - v0
    leader = ranking.leader(p)
    assert leader == make_derivative(0, (1,))
    assert _initial(ranking, p) == DiffPoly.constant(1)
    assert _separant(ranking, p) == 2 * u1
    with pytest.raises(ConstantPolynomialError):
        ranking.leader(DiffPoly.constant(2))


def test_initial_excludes_lower_terms():
    ranking = plain_ranking(1, 1)
    u0 = dvar(0, (0,))
    u1 = dvar(0, (1,))
    p = (u0 + 1) * u1 ** 2 + u0 * u1 + 3
    assert _initial(ranking, p) == u0 + 1
    assert _separant(ranking, p) == 2 * (u0 + 1) * u1 + u0


def test_univariate_reconstruction():
    rng = random.Random(5)
    ranking = plain_ranking(2, 2)
    for _ in range(50):
        p = _random_poly(rng, 2, 2)
        if p.is_constant():
            continue
        x = ranking.leader(p)
        xpoly = DiffPoly.variable(x)
        rebuilt = DiffPoly.zero()
        for e, coeff in _as_univariate(p, x).items():
            assert coeff.degree_in(x) == 0
            rebuilt = rebuilt + coeff * xpoly**e
        assert rebuilt == p


def test_poly_text_canonical_form():
    u = dvar(0, (1, 0))
    v = dvar(1, (0, 1))
    assert poly_text(u ** 2 - 2 * v + Fraction(3, 4), ("u", "v")) == (
        "-2*v[0,1] + u[1,0]^2 + 3/4"
    )
    assert poly_text(DiffPoly.zero()) == "0"
    assert poly_text(-u, ("u", "v")) == "-u[1,0]"
    assert poly_text(u * v, ("u", "v")) == "u[1,0]*v[0,1]"


def test_poly_text_orders_terms_by_exponent_pairs():
    u0, u1 = dvar(0, (0,)), dvar(0, (1,))
    # u[0]^2 comes first: its (u[0], 2) outranks the (u[0], 1) of the others
    assert poly_text(u0**2 + u0 * u1 + u1**3 * u0, ("u",)) == "u[0]^2 + u[0]*u[1]^3 + u[0]*u[1]"


def test_iter_indices_counts():
    import math

    for n in range(1, 4):
        for bound in range(5):
            got = list(iter_indices(n, bound))
            assert len(got) == math.comb(bound + n, n)
            assert len(set(got)) == len(got)
            assert all(len(mu) == n and sum(mu) <= bound for mu in got)
