"""Dimension polynomial of a chain from the geometry of its leader cones.

Once a chain validates, its dimension polynomial depends only on the set of
leaders: for each order bound the polynomial counts the derivatives that are
not derivatives of any leader.  Two closed forms are implemented, plus a
brute-force lattice-point oracle they are checked against:

- inclusion-exclusion over the leader cones, with the signed sum over
  subsets collapsed into the numerator K(t) of the Hilbert series of the
  monomial ideal the leaders generate, computed by the pivot recursion
  K(G + {m}) = K(G) - t^|m| K(G : m) (Bayer-Stillman, "Computation of
  Hilbert functions", JSC 1992), which stops at Bigatti's closed form
  once the generators, a lex-sorted antichain, are at most two or use at
  most two axes (Bigatti, "Computation of Hilbert-Poincare series", JPAA
  1997), and adds every level's terms into one accumulator.  Every group
  is packed once, in every n: each multi-index becomes one int of n
  fields of w bits plus a guard bit, w = (n * largest
  exponent).bit_length(), so a colon, a join, a divisibility test and an
  order are a few int operations;
- the minimal Janet basis of the leaders, whose Janet cones are disjoint,
  built one slice of the first coordinate at a time: every value of that
  coordinate between two consecutive first exponents of the leaders
  carries a copy of the minimal basis of the slice's tails in one variable
  fewer (Gerdt-Blinkov, "Minimal involutive bases", Math. Comput. Simul.
  45, 1998; Gerdt-Blinkov-Yanovich, "Construction of Janet bases I.
  Monomial bases", CASC 2001).  The copies of one slice are never listed:
  as polynomials in l,

      sum_{x=a}^{b-1} C(l - s - x + k, k)
          = C(l - s - a + k + 1, k + 1) - C(l - s - b + k + 1, k + 1),

  so the slice [a, b) adds its sub-basis's numerator times t^a - t^b, and
  the basis is summed as a Stanley decomposition (Seiler, "Involution",
  Springer 2010) in time independent of the gaps.  In two variables a
  lex-sorted antichain is a staircase whose generators are each their own
  slice, and the numerator is read off it in closed form, with no slice
  built.  For output, janet_boxes lists the same basis as disjoint boxes:
  a slice's copies, with their multiplicative axes, fill one box
  prod_i [a_i, b_i), b_i = infinity on a multiplicative axis, so the
  number of boxes does not depend on the gaps either.

Each route sums its groups' numerators into one dict {shift: coefficient}
and converts it once, by NumericalPolynomial.from_numerator.  omega returns
the Janet result and checks its polynomial against the inclusion-exclusion
polynomial alone, with no second bound or result.  The Janet route stays on
tuples and the check runs on packed ints, so the check never shares its
representation with the result, and above two derivations not its formula
either: a packing error shows as InternalDisagreementError, not as the same
wrong ω from both routes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .chains import DiffChain, LeaderSpec, minimalize
from .diffpoly import (
    MultiIndex,
    dominates,
    is_multi_index,
    is_natural,
    iter_indices,
)
from .numpoly import NumericalPolynomial
from .record import FrozenRecord, Record


class InternalDisagreementError(RuntimeError):
    """Two computations that must agree did not, such as the two closed-form
    algorithms for omega; this indicates a bug."""


def krull_oracle(spec: LeaderSpec, max_order: int) -> int:
    """Number of derivatives of order <= max_order free of every leader cone.

    Pure enumeration of the lattice points inside the union of leader cones,
    kept deliberately independent of both closed forms.  max_order must be an
    int (a bool is not one); a negative one raises ValueError.
    """
    if type(max_order) is not int:
        raise TypeError(f"max_order must be an int, got {max_order!r}")
    if max_order < 0:
        raise ValueError(f"max_order must be nonnegative, got {max_order}")
    n = spec.num_derivations
    covered = sum(
        any(dominates(mu, g) for g in gens)
        for gens in spec.generators
        if gens
        for mu in iter_indices(n, max_order)
    )
    return spec.num_indeterminates * math.comb(max_order + n, n) - covered


class OmegaResult(Record):
    """Dimension polynomial plus the bound after which it counts exactly.

    A result of the Janet route keeps the leaders it came from, and lists
    their minimal Janet basis as boxes when janet_boxes is read.
    """

    __slots__ = ("omega", "stabilization_bound", "leaders")

    def __init__(
        self,
        omega: NumericalPolynomial,
        stabilization_bound: int,
        leaders: LeaderSpec | None = None,
    ):
        self.omega, self.stabilization_bound, self.leaders = omega, stabilization_bound, leaders

    @property
    def janet_boxes(self) -> tuple["JanetBox", ...] | None:
        if self.leaders is None:
            return None
        n = self.leaders.num_derivations
        return tuple(
            box
            for j, gens in enumerate(self.leaders.generators)
            for box in janet_boxes(gens, n, indeterminate=j)
        )

    @property
    def janet_cones(self) -> tuple[MultiIndex, ...] | None:
        """The generators of the cones in janet_boxes, group by group and in
        increasing order within a group: N + 1 of them for u[N,0], u[0,1].
        It stays only because the traced counter of bench/layers.py and
        bench/cliffs.py read its length, until that counter counts boxes."""
        if self.leaders is None:
            return None
        n = self.leaders.num_derivations
        return tuple(u for gens in self.leaders.generators for u in janet_complete(gens, n))

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self.omega.coeffs

    @property
    def degree(self) -> int:
        return self.omega.degree

    @property
    def differential_dimension(self) -> int:
        return self.omega.coeffs[-1]


def _hilbert_numerator(gens) -> dict[int, int]:
    """Numerator K(t) of the Hilbert series of the monomial ideal generated by
    a lex-sorted antichain gens, as {exponent: nonzero coefficient}: the
    signed sum over subsets S of the generators of (-1)^|S| t^|join(S)|, and
    {0: 1} for no generators.

    The generators are packed into ints, and one loop over a stack of
    pending levels, each a lex-sorted antichain with a shift and a sign,
    adds every level's terms, shifted and signed, into one dict.  A level in
    n <= 2, on at most two generators, or on at most two used axes adds
    Bigatti's closed form 1 - sum_i t^|g_i| + sum_i t^|join(g_i, g_(i+1))|
    (JPAA 1997): on two generators it is the sum over their four subsets,
    and on two axes lex order sorts the generators up one axis and down the
    other.  Any other level pivots, K(done + {m}) = K(done) - t^|m| K(done :
    m) over the generators m in order (Bayer-Stillman 1992), where the colon
    ideal done : m is generated by the antichain of join(g, m) - m over done
    (see _colon).

    Each multi-index is packed into one int of n fields, axis 0 in the top
    one, so int order is lex order.  A field holds w bits and a guard bit
    above them, with w = (n * largest exponent).bit_length(): every entry,
    and every order, is below 2^w, so no field carries into or borrows from
    the next.  With H the guard bits and ONES bit 0 of every field:
    x >= y on every axis exactly when ((x | H) - y) & H == H, the order of x
    is the top field of x * ONES, and max(g - m, 0) is _colon's d & (G -
    (G >> w)), d = (g | H) - m and G = d & H.
    """
    if not gens:
        return {0: 1}
    n = len(gens[0])
    w = (n * max(map(max, gens))).bit_length()
    step = w + 1
    ones = ((1 << step * n) - 1) // ((1 << step) - 1)
    guards = ones << w
    top, values = (n - 1) * step, (1 << w) - 1
    packed = []
    for g in gens:
        x = 0
        for e in g:
            x = x << step | e
        packed.append(x)
    k: dict[int, int] = {}
    pending = [(packed, 0, 1)]
    while pending:
        level, shift, sign = pending.pop()
        k[shift] = k.get(shift, 0) + sign
        if n > 2 and len(level) > 2 and _used_axes(level, guards, ones) > 2:
            for i, m in enumerate(level):
                order = m * ones >> top & values
                pending.append((_colon(level[:i], m, guards, w), shift + order, -sign))
            continue
        for x in level:
            e = shift + (x * ones >> top & values)
            k[e] = k.get(e, 0) - sign
        for g, h in zip(level, level[1:]):
            d = (g | guards) - h  # join(g, h) = h + max(g - h, 0), as in _colon
            high = d & guards
            e = shift + ((h + (d & (high - (high >> w)))) * ones >> top & values)
            k[e] = k.get(e, 0) + sign
    return {e: c for e, c in k.items() if c}


def _used_axes(level: list[int], guards: int, ones: int) -> int:
    """Number of axes on which some packed index in level is nonzero."""
    return (((functools.reduce(operator.or_, level) | guards) - ones) & guards).bit_count()


def _colon(level: list[int], m: int, guards: int, w: int) -> list[int]:
    """The lex-sorted antichain of max(g - m, 0) over the packed g in level,
    packed as _hilbert_numerator describes."""
    found = set()
    for g in level:
        d = (g | guards) - m  # each field holds guard + g_a - m_a >= 1
        high = d & guards  # the guard stays set exactly where g_a >= m_a
        found.add(d & (high - (high >> w)))
    kept: list[int] = []
    for x in sorted(found):
        for y in kept:
            if ((x | guards) - y) & guards == guards:
                break
        else:
            kept.append(x)
    return kept


def _incl_excl_polynomial(spec: LeaderSpec) -> NumericalPolynomial:
    """Sum over the groups of sum_e K_e C(l - e + n, n), K the Hilbert
    numerator of the group (see _hilbert_numerator): the count of the
    derivatives of order <= l outside every leader cone, once l is at least
    the bound of omega_incl_excl.  The numerators are added into one dict
    and converted once, by NumericalPolynomial.from_numerator."""
    total: dict[int, int] = {}
    for gens in spec.generators:
        for e, c in _hilbert_numerator(gens).items():
            total[e] = total.get(e, 0) + c
    return NumericalPolynomial.from_numerator(total, spec.num_derivations)


def omega_incl_excl(spec: LeaderSpec) -> OmegaResult:
    """Dimension polynomial by inclusion-exclusion over cone intersections.

    The cone above a join q of generators holds C(l - |q| + n, n) points of
    order <= l, exactly once l >= |q| - 1.  Over the subsets S of one group,
    the empty one counting every derivative, the signed sum of these counts
    is sum_e K_e C(l - e + n, n), where K(t) = sum_S (-1)^|S| t^|join(S)| is
    the Hilbert numerator computed by the pivot (see _hilbert_numerator), so
    no subset is enumerated; each group is a lex-sorted antichain, as
    LeaderSpec stores it, which the pivot's two-axis base case (Bigatti 1997)
    needs.  Every group is packed into ints once, n fields of w = (n *
    largest exponent).bit_length() bits and a guard bit each, and the
    closed form and the pivot both run on those (see _hilbert_numerator).
    A leader of order 0 makes K = 0: its cone is everything.  The groups'
    numerators are summed and converted once (see _incl_excl_polynomial),
    the polynomial that omega checks the Janet route against.
    The identity stabilizes at the largest join order, which is the order
    of the join of all of a group's generators: the sum over the axes of
    the group's largest exponent.
    """
    bound = max((sum(map(max, zip(*gens))) for gens in spec.generators if gens), default=0)
    return OmegaResult(_incl_excl_polynomial(spec), bound)


class JanetBox(FrozenRecord):
    """Cones of a minimal Janet basis of one indeterminate whose union is the
    box prod_i [lower_i, upper_i) of multi-indices.  upper_i is None on the
    axes multiplicative for every cone of the box, where the box is
    unbounded and each generator is lower_i; on the other axes the
    generators take every value in [lower_i, upper_i)."""

    __slots__ = ("lower", "upper", "indeterminate")

    def __init__(self, lower: MultiIndex, upper: tuple[int | None, ...], indeterminate: int):
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "indeterminate", indeterminate)


def _slices(gens):
    """(a, b, tails) for each distinct first exponent a of gens, in increasing
    order: b is the next first exponent, None after the last, and tails is
    the antichain of g[1:] over the generators g with g[0] <= a."""
    slices: dict[int, list[MultiIndex]] = {}
    for g in gens:
        slices.setdefault(g[0], []).append(g[1:])
    firsts = sorted(slices)
    tails: tuple[MultiIndex, ...] = ()
    for a, b in zip(firsts, firsts[1:] + [None]):
        tails = minimalize(tails + tuple(slices[a]))
        yield a, b, tails


def _boxes(gens, n: int):
    """(lower, upper) of each box of the minimal Janet basis of the cones over
    gens in n variables, in increasing order of lower: the cone at the
    minimum in one variable, and a slice [a, b) times each box of its
    tails."""
    if n == 1:
        yield (min(g[0] for g in gens),), (None,)
        return
    for a, b, tails in _slices(gens):
        for lower, upper in _boxes(tails, n - 1):
            yield (a,) + lower, (b,) + upper


def _janet_numerator(gens, n: int) -> tuple[dict[int, int], int]:
    """(K, top) for the minimal Janet basis of the cones over a lex-sorted
    antichain gens in n variables, without listing it: its cones hold
    sum_s K[s] C(l - s + n, n) points of order <= l together, as polynomials
    in l, and top is the largest order of a cone's generator.

    In one variable the single cone at the minimum gives K = t^min.  A slice
    [a, b) copies the basis of its tails at every x in [a, b), as the boxes
    of janet_boxes show, and those copies telescope: the slice adds
    K_tails (t^a - t^b), and the last slice, where axis 0 is multiplicative,
    K_tails t^a.  Either
    way a term gains one axis, so every term has n of them.  In two
    variables the lex-sorted antichain (a_i, b_i) has increasing a_i and
    decreasing b_i, so each generator is its own slice, whose tails' basis
    is the cone at b_i: K = sum_i t^(a_i + b_i) - sum_(i<k) t^(a_(i+1) + b_i),
    and top is the largest of a_k + b_k and a_(i+1) + b_i - 1, with no slice
    built.
    """
    if n == 1:
        low = min(g[0] for g in gens)
        return {low: 1}, low
    numerator: dict[int, int] = {}
    if n == 2:
        top = sum(gens[-1])
        numerator[top] = 1
        for (a, b), (next_a, _) in zip(gens, gens[1:]):
            numerator[a + b] = numerator.get(a + b, 0) + 1
            numerator[next_a + b] = numerator.get(next_a + b, 0) - 1
            top = max(top, next_a + b - 1)
    else:
        top = 0
        for a, b, tails in _slices(gens):
            sub, sub_top = _janet_numerator(tails, n - 1)
            for s, c in sub.items():
                numerator[s + a] = numerator.get(s + a, 0) + c
                if b is not None:
                    numerator[s + b] = numerator.get(s + b, 0) - c
            top = max(top, sub_top + (a if b is None else b - 1))
    return {s: c for s, c in numerator.items() if c}, top


def janet_boxes(generators, num_derivations: int, indeterminate: int = 0) -> list[JanetBox]:
    """The unique minimal Janet basis of the cones over an antichain of
    generators, such as one group of a LeaderSpec, as disjoint boxes in
    increasing order of their lower corners.

    Slice along axis 0: with a_1 < ... < a_k the distinct first exponents and
    R_i the antichain of tails g[1:] of the generators with g[0] <= a_i, each
    x in [a_i, a_(i+1)) carries a copy of the minimal Janet basis of R_i in
    the remaining axes, with axis 0 non-multiplicative, and x = a_k alone
    carries R_k's basis with axis 0 multiplicative (Gerdt-Blinkov 1998).  In
    one variable the basis is the single cone at the minimum.  So each box of
    R_i becomes one box with [a_i, a_(i+1)) on axis 0, or [a_k, infinity) on
    the last slice: the cones cover exactly the union of the ordinary cones of
    the input, once each, and the number of boxes does not depend on the gaps
    (two for u[N,0], u[0,1], against N + 1 cones).  A num_derivations that is
    not a positive int, an indeterminate that is not a natural, or a generator
    that is not a multi-index of that many naturals raises ValueError.
    """
    if not (is_natural(num_derivations) and num_derivations > 0):
        raise ValueError(f"need at least one derivation, got {num_derivations!r}")
    if not is_natural(indeterminate):
        raise ValueError(f"bad indeterminate {indeterminate!r}")
    gens = set(map(tuple, generators))
    for mu in gens:
        if len(mu) != num_derivations or not is_multi_index(mu):
            raise ValueError(f"bad multi-index {mu}")
    if not gens:
        return []
    return [JanetBox(lower, upper, indeterminate) for lower, upper in _boxes(gens, num_derivations)]


def janet_complete(generators, num_derivations: int) -> list[MultiIndex]:
    """The generators of the cones of janet_boxes(generators,
    num_derivations), in increasing order: every point of each box, held at
    the lower corner on its multiplicative axes.  This lists every cone, so
    only OmegaResult.janet_cones and bench/make_cones_pool.py read it."""
    return sorted(
        u
        for box in janet_boxes(generators, num_derivations)
        for u in itertools.product(
            *(range(a, a + 1 if b is None else b) for a, b in zip(box.lower, box.upper))
        )
    )


def omega_janet(spec: LeaderSpec) -> OmegaResult:
    """Dimension polynomial from disjoint Janet cones, summed without
    listing them.

    A cone with z multiplicative axes rooted at order q holds C(z + l - q, z)
    points of order <= l.  _janet_numerator sums each group's cones slice by
    slice, with the telescoping identity

        sum_{x=a}^{b-1} C(l - s - x + k, k)
            = C(l - s - a + k + 1, k + 1) - C(l - s - b + k + 1, k + 1)

    for each slice's copies, into sum_s K[s] C(l - s + n, n): the Stanley
    decomposition of the Janet basis (Seiler, "Involution", 2010).  So

        omega(l) = m*C(n+l, n) - sum over groups and s of K[s] C(l - s + n, n)

    exact once l reaches the largest generator order in the basis.  The
    result lists the basis (janet_boxes) only when it is read.
    """
    n = spec.num_derivations
    total = {0: spec.num_indeterminates}
    bound = 0
    for gens in spec.generators:
        if gens:
            numerator, top = _janet_numerator(gens, n)
            for s, c in numerator.items():
                total[s] = total.get(s, 0) - c
            bound = max(bound, top)
    return OmegaResult(NumericalPolynomial.from_numerator(total, n), bound, spec)


def omega(chain: DiffChain) -> OmegaResult:
    """Dimension polynomial of a validated chain.

    The Janet route gives the result, in closed form, and lists its basis
    only if janet_boxes is read.  The inclusion-exclusion route checks it on
    every call: the polynomial of the groups' Hilbert numerators, collapsed
    by the pivot and converted by the same NumericalPolynomial.from_numerator
    (see _incl_excl_polynomial), must equal the Janet polynomial
    coefficientwise.  That is the polynomial omega_incl_excl returns, built
    without its stabilization bound or a second OmegaResult, which nothing
    here reads.  In n <= 2 the formula is shared: both routes build the
    terms sum t^|g_i| - sum t^|join(g_i, g_(i+1))|, so K_Janet = 1 -
    K_Hilbert, and krull_oracle is the formula's independent check.  The
    representation is never shared: the inclusion-exclusion route runs on
    packed ints in every n while the Janet route stays on tuples, so a
    packing error raises InternalDisagreementError.
    """
    chain.require_valid()
    spec = chain.leader_spec
    janet_result = omega_janet(spec)
    other = _incl_excl_polynomial(spec)
    if other != janet_result.omega:
        raise InternalDisagreementError(
            f"inclusion-exclusion gave {other!r}, Janet cones gave {janet_result.omega!r}"
        )
    return janet_result
