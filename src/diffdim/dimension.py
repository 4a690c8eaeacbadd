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
  Monomial bases", CASC 2001).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .chains import DiffChain
from .diffpoly import (
    MultiIndex,
    RingSpec,
    dominates,
    index_order,
    is_multi_index,
    is_natural,
    iter_indices,
    join_indices,
)
from .numpoly import NumericalPolynomial


class InternalDisagreementError(RuntimeError):
    """Two computations that must agree did not, such as the two closed-form
    algorithms for omega; this indicates a bug."""


def minimalize(indices) -> tuple[MultiIndex, ...]:
    """Antichain of the given multi-indices: a lexicographic scan keeps an index unless a kept
    one divides it; lex order extends the componentwise order, so minimal divisors come first."""
    kept: list[MultiIndex] = []
    for mu in sorted(set(tuple(mu) for mu in indices)):
        if not any(dominates(mu, g) for g in kept):
            kept.append(mu)
    return tuple(kept)


@dataclass(frozen=True, slots=True)
class LeaderSpec:
    """Leader cones of a chain, one antichain of multi-indices per indeterminate.

    generators may be given as a mapping from indeterminate to multi-indices or
    as a sequence indexed by indeterminate; it is stored minimalized, one tuple
    per indeterminate.
    """

    num_derivations: int
    num_indeterminates: int
    generators: tuple[tuple[MultiIndex, ...], ...] = ()

    def __post_init__(self):
        counts = (self.num_derivations, self.num_indeterminates)
        if not all(is_natural(c) and c > 0 for c in counts):
            raise ValueError("need at least one derivation and one indeterminate")
        groups: list[tuple[MultiIndex, ...]] = [()] * self.num_indeterminates
        generators = self.generators
        if generators:
            items = (
                generators.items() if hasattr(generators, "items") else enumerate(generators)
            )
            for j, gens in items:
                if not is_natural(j) or j >= self.num_indeterminates:
                    raise ValueError(f"bad indeterminate {j!r}")
                gens = tuple(tuple(mu) for mu in gens)
                for mu in gens:
                    if len(mu) != self.num_derivations or not is_multi_index(mu):
                        raise ValueError(f"bad multi-index {mu}")
                groups[j] = minimalize(gens)
        object.__setattr__(self, "generators", tuple(groups))


def normalize_leaders(chain: DiffChain) -> LeaderSpec:
    """Group the chain's leaders by indeterminate.

    Weak triangularity makes each group an antichain; LeaderSpec minimalizes it
    anyway, as it does every input, and the count check makes a drop an error.
    """
    chain.require_valid()
    ring = chain.ring
    groups: dict[int, list[MultiIndex]] = {}
    for ld in chain.leaders:
        groups.setdefault(ld.indeterminate, []).append(ld.index)
    spec = LeaderSpec(ring.num_derivations, ring.num_indeterminates, groups)
    kept = sum(len(g) for g in spec.generators)
    if kept != len(chain.leaders):
        raise InternalDisagreementError(
            f"triangular chain produced a dominated leader: "
            f"{len(chain.leaders)} leaders, {kept} after minimalization"
        )
    return spec


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
    """Dimension polynomial plus the bound after which it counts exactly."""

    omega: NumericalPolynomial
    stabilization_bound: int
    janet_cones: tuple["JanetCone", ...] | None = None

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


def _janet_basis(gens, n: int) -> list[tuple[MultiIndex, tuple[int, ...]]]:
    """Minimal Janet basis of the cones over gens in n variables, as
    (multi-index, multiplicative axes) pairs in increasing order."""
    if n == 1:
        return [((min(g[0] for g in gens),), (0,))]
    slices: dict[int, list[MultiIndex]] = {}
    for g in gens:
        slices.setdefault(g[0], []).append(g[1:])
    firsts = sorted(slices)
    basis = []
    tails: tuple[MultiIndex, ...] = ()
    for i, a in enumerate(firsts):
        tails = minimalize(tails + tuple(slices[a]))
        last = i + 1 == len(firsts)
        head = (0,) if last else ()
        sub = [(u, head + tuple(k + 1 for k in axes)) for u, axes in _janet_basis(tails, n - 1)]
        for x in range(a, a + 1 if last else firsts[i + 1]):
            basis.extend(((x,) + u, axes) for u, axes in sub)
    return basis


def janet_complete(generators, num_derivations: int, indeterminate: int = 0) -> list[JanetCone]:
    """The unique minimal Janet basis of the cones over an antichain of
    generators, such as one group of a LeaderSpec.

    Slice along axis 0: with a_1 < ... < a_k the distinct first exponents
    and R_i the antichain of tails g[1:] of the generators with g[0] <= a_i,
    each x in [a_i, a_(i+1)) carries a copy of the minimal Janet basis of
    R_i in the remaining axes, with axis 0 non-multiplicative, and x = a_k
    alone carries R_k's basis with axis 0 multiplicative.  In one variable
    the basis is the single cone at the minimum.  The cones are pairwise
    disjoint, cover exactly the union of the ordinary cones of the input,
    and come sorted by generator.
    """
    gens = {tuple(mu) for mu in generators}
    if not gens:
        return []
    return [
        JanetCone(u, indeterminate, frozenset(axes))
        for u, axes in _janet_basis(gens, num_derivations)
    ]


def omega_janet(spec: LeaderSpec) -> OmegaResult:
    """Dimension polynomial from disjoint Janet cones.

    With z multiplicative axes on a cone rooted at order q, the cone holds
    C(z + l - q, z) points of order <= l, so

        omega(l) = m*C(n+l, n) - sum over cones of C(z + l - q, z)

    exact once l reaches the largest generator order in the basis.
    """
    n = spec.num_derivations
    cones: list[JanetCone] = []
    for j, gens in enumerate(spec.generators):
        cones.extend(janet_complete(gens, n, indeterminate=j))
    bound = max((index_order(c.generator) for c in cones), default=0)
    terms = [(spec.num_indeterminates, 0, n)]
    terms += [(-1, index_order(c.generator), len(c.multiplicative)) for c in cones]
    return OmegaResult(NumericalPolynomial.from_shifted_basis(terms, n + 1), bound, tuple(cones))


def omega(chain: DiffChain) -> OmegaResult:
    """Dimension polynomial of a validated chain.

    The Janet route gives the result and its cones; the inclusion-exclusion
    route, collapsed into the Hilbert-numerator pivot, always runs as well,
    and the two polynomials must agree coefficientwise.
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
