"""Dimension polynomial of a chain from the geometry of its leader cones.

Once a chain validates, its dimension polynomial depends only on the set of
leaders: for each order bound the polynomial counts the derivatives that are
not derivatives of any leader.  Two closed forms are implemented, plus a
brute-force lattice-point oracle they are checked against:

- inclusion-exclusion over the leader cones, with the signed sum over
  subsets collapsed into the numerator K(t) of the Hilbert series of the
  monomial ideal the leaders generate, computed by the pivot recursion
  K(G + {m}) = K(G) - t^|m| K(G : m) (Bayer-Stillman, "Computation of
  Hilbert functions", JSC 1992), which stops at Bigatti's two-axis closed
  form once the generators, a lex-sorted antichain, use at most two axes
  (Bigatti, "Computation of Hilbert-Poincare series", JPAA 1997);
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
  Springer 2010) in time independent of the gaps.  janet_complete lists
  the cones themselves, for output only.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .chains import DiffChain, LeaderSpec, minimalize
from .diffpoly import (
    MultiIndex,
    RingSpec,
    dominates,
    index_order,
    iter_indices,
    join_indices,
)
from .numpoly import NumericalPolynomial


class InternalDisagreementError(RuntimeError):
    """Two computations that must agree did not, such as the two closed-form
    algorithms for omega; this indicates a bug."""


def normalize_leaders(chain: DiffChain) -> LeaderSpec:
    """The leader cones of a valid chain: its leader_spec, whose groups weak
    triangularity makes antichains of every leader."""
    chain.require_valid()
    return chain.leader_spec


def count_derivatives(spec: LeaderSpec, max_order: int) -> int:
    """Lattice points of total order <= max_order inside the union of leader cones.

    Pure enumeration, kept deliberately independent of both closed forms.
    max_order must be an int (a bool is not one); a negative one raises
    ValueError.
    """
    if type(max_order) is not int:
        raise TypeError(f"max_order must be an int, got {max_order!r}")
    if max_order < 0:
        raise ValueError(f"max_order must be nonnegative, got {max_order}")
    total = 0
    for gens in spec.generators:
        if not gens:
            continue
        for mu in iter_indices(spec.num_derivations, max_order):
            if any(dominates(mu, g) for g in gens):
                total += 1
    return total


def krull_oracle(spec: LeaderSpec, max_order: int) -> int:
    """Number of derivatives of order <= max_order free of every leader cone."""
    covered = count_derivatives(spec, max_order)
    n = spec.num_derivations
    return spec.num_indeterminates * math.comb(max_order + n, n) - covered


@dataclass
class OmegaResult:
    """Dimension polynomial plus the bound after which it counts exactly.

    A result of the Janet route keeps the leaders it came from, and lists
    their minimal Janet basis the first time janet_cones is read.
    """

    omega: NumericalPolynomial
    stabilization_bound: int
    leaders: LeaderSpec | None = None

    @functools.cached_property
    def janet_cones(self) -> tuple["JanetCone", ...] | None:
        if self.leaders is None:
            return None
        n = self.leaders.num_derivations
        return tuple(
            cone
            for j, gens in enumerate(self.leaders.generators)
            for cone in janet_complete(gens, n, indeterminate=j)
        )

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self.omega.coeffs

    @property
    def degree(self) -> int:
        return self.omega.degree

    @property
    def differential_dimension(self) -> int:
        return self.omega.coeffs[-1]

    def to_json_dict(self, ring: RingSpec) -> dict:
        out = self.omega.to_json_dict()
        out["differential_dimension"] = self.differential_dimension
        out["stabilization_bound"] = self.stabilization_bound
        cones = []
        for cone in self.janet_cones or ():
            indet = ring.indeterminate_names[cone.indeterminate]
            axes = [ring.derivation_names[i] for i in sorted(cone.multiplicative)]
            cones.append(
                {
                    "generator": list(cone.generator),
                    "indeterminate": indet,
                    "multiplicative": axes,
                }
            )
        out["janet_cones"] = cones
        return out


def _hilbert_numerator(gens) -> dict[int, int]:
    """Numerator K(t) of the Hilbert series of the monomial ideal generated by
    a lex-sorted antichain gens, as {exponent: nonzero coefficient}.

    K(t) is the signed sum over subsets S of the generators of
    (-1)^|S| t^|join(S)|.  On at most two used axes, lex order sorts the
    generators up one axis and down the other, and Bigatti's closed form
    K = 1 - sum_i t^|g_i| + sum_i t^|join(g_i, g_(i+1))| applies; it covers
    the empty set, an order-0 generator and a single generator too.
    Otherwise the pivot adds one generator m at a time,
    K(done + {m}) = K(done) - t^|m| K(done : m), where the colon ideal
    done : m is generated by the antichain of join(g, m) - m over done.
    """
    if sum(map(any, zip(*gens))) <= 2:
        terms = [(sum(g), -1) for g in gens]
        terms += [(sum(map(max, g, h)), 1) for g, h in zip(gens, gens[1:])]
    else:
        terms = []
        for i, m in enumerate(gens):
            colon = minimalize(tuple(map(operator.sub, map(max, g, m), m)) for g in gens[:i])
            terms += [(e + sum(m), -c) for e, c in _hilbert_numerator(colon).items()]
    k = {0: 1}
    for e, c in terms:
        k[e] = k.get(e, 0) + c
    return {e: c for e, c in k.items() if c}


def omega_incl_excl(spec: LeaderSpec) -> OmegaResult:
    """Dimension polynomial by inclusion-exclusion over cone intersections.

    The cone above a join q of generators holds C(l - |q| + n, n) points of
    order <= l, exactly once l >= |q| - 1.  Over the subsets S of one group,
    the empty one counting every derivative, the signed sum of these counts
    is sum_e K_e C(l - e + n, n), where K(t) = sum_S (-1)^|S| t^|join(S)| is
    the Hilbert numerator computed by the pivot (see _hilbert_numerator), so
    no subset is enumerated; each group is a lex-sorted antichain, as
    LeaderSpec stores it, which the pivot's two-axis base case (Bigatti 1997)
    needs.  A leader of order 0 makes K = 0: its cone is everything.  The
    identity stabilizes at the largest join order, which is the order of the
    join of all of a group's generators.
    """
    n = spec.num_derivations
    numerators = [_hilbert_numerator(gens) for gens in spec.generators]
    bound = max(
        (index_order(functools.reduce(join_indices, g)) for g in spec.generators if g),
        default=0,
    )
    terms = [(c, e, n) for k in numerators for e, c in k.items()]
    return OmegaResult(NumericalPolynomial.from_shifted_basis(terms, n + 1), bound)


@dataclass(frozen=True)
class JanetCone:
    generator: MultiIndex
    indeterminate: int
    multiplicative: frozenset[int]


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


def _janet_basis(gens, n: int) -> list[tuple[MultiIndex, tuple[int, ...]]]:
    """Minimal Janet basis of the cones over gens in n variables, as
    (multi-index, multiplicative axes) pairs in increasing order."""
    if n == 1:
        return [((min(g[0] for g in gens),), (0,))]
    basis = []
    for a, b, tails in _slices(gens):
        head = (0,) if b is None else ()
        sub = [(u, head + tuple(k + 1 for k in axes)) for u, axes in _janet_basis(tails, n - 1)]
        for x in range(a, a + 1 if b is None else b):
            basis.extend(((x,) + u, axes) for u, axes in sub)
    return basis


def _janet_numerator(gens, n: int) -> tuple[dict[int, int], int]:
    """(K, top) for the minimal Janet basis of the cones over gens in n
    variables, without listing it: its cones hold sum_s K[s] C(l - s + n, n)
    points of order <= l together, as polynomials in l, and top is the
    largest order of a cone's generator.

    In one variable the single cone at the minimum gives K = t^min.  A slice
    [a, b) of janet_complete copies the basis of its tails at every x in
    [a, b), and those copies telescope: the slice adds K_tails (t^a - t^b),
    and the last slice, where axis 0 is multiplicative, K_tails t^a.  Either
    way a term gains one axis, so every term has n of them.
    """
    if n == 1:
        low = min(g[0] for g in gens)
        return {low: 1}, low
    numerator: dict[int, int] = {}
    top = 0
    for a, b, tails in _slices(gens):
        sub, sub_top = _janet_numerator(tails, n - 1)
        for s, c in sub.items():
            numerator[s + a] = numerator.get(s + a, 0) + c
            if b is not None:
                numerator[s + b] = numerator.get(s + b, 0) - c
        top = max(top, sub_top + (a if b is None else b - 1))
    return {s: c for s, c in numerator.items() if c}, top


def janet_complete(generators, num_derivations: int, indeterminate: int = 0) -> list[JanetCone]:
    """The unique minimal Janet basis of the cones over an antichain of
    generators, such as one group of a LeaderSpec, listed cone by cone.

    Slice along axis 0: with a_1 < ... < a_k the distinct first exponents
    and R_i the antichain of tails g[1:] of the generators with g[0] <= a_i,
    each x in [a_i, a_(i+1)) carries a copy of the minimal Janet basis of
    R_i in the remaining axes, with axis 0 non-multiplicative, and x = a_k
    alone carries R_k's basis with axis 0 multiplicative.  In one variable
    the basis is the single cone at the minimum.  The cones are pairwise
    disjoint, cover exactly the union of the ordinary cones of the input,
    and come sorted by generator.  The list grows with the gaps between
    first exponents (N + 1 cones for u[N,0], u[0,1]), so omega_janet sums
    the same slices in closed form instead, by the telescoping identity in
    the module docstring (Seiler, "Involution", 2010); this is only the
    listing, which OmegaResult.janet_cones and omega --json read.
    """
    gens = {tuple(mu) for mu in generators}
    if not gens:
        return []
    return [
        JanetCone(u, indeterminate, frozenset(axes))
        for u, axes in _janet_basis(gens, num_derivations)
    ]


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
    result lists the cones (janet_cones) only when they are read.
    """
    n = spec.num_derivations
    terms = [(spec.num_indeterminates, 0, n)]
    bound = 0
    for gens in spec.generators:
        if gens:
            numerator, top = _janet_numerator(gens, n)
            terms += [(-c, s, n) for s, c in numerator.items()]
            bound = max(bound, top)
    return OmegaResult(NumericalPolynomial.from_shifted_basis(terms, n + 1), bound, spec)


def omega(chain: DiffChain) -> OmegaResult:
    """Dimension polynomial of a validated chain.

    The Janet route gives the result, in closed form, and lists its cones
    only if janet_cones is read; the inclusion-exclusion route, collapsed
    into the Hilbert-numerator pivot, always runs as well, and the two
    polynomials must agree coefficientwise.
    """
    spec = normalize_leaders(chain)
    janet_result = omega_janet(spec)
    other = omega_incl_excl(spec)
    if other.omega != janet_result.omega:
        raise InternalDisagreementError(
            f"inclusion-exclusion gave {other.omega!r}, "
            f"Janet cones gave {janet_result.omega!r}"
        )
    return janet_result
