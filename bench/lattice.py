"""Lattice counts made apart from diffdim, used to check its outputs.

Nothing here imports diffdim.  Points are multi-indices in N^n; a chain's
leaders on one indeterminate generate cones {mu : mu >= g}, and ω(ℓ) counts
the derivatives of order <= ℓ outside every cone.  The count goes by slices
of the first coordinate, which shares no code or method with diffdim's
inclusion-exclusion or Janet routes or with its brute-force oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache


def dominates(a, b) -> bool:
    return all(x >= y for x, y in zip(a, b))


def minimal(points) -> frozenset:
    unique = set(tuple(p) for p in points)
    return frozenset(p for p in unique if not any(q != p and dominates(p, q) for q in unique))


def join(points) -> tuple[int, ...]:
    return tuple(max(column) for column in zip(*points))


@lru_cache(maxsize=None)
def _covered(gens: frozenset, order: int) -> int:
    """Points of total order <= order inside the union of the cones over gens."""
    if not gens or order < 0:
        return 0
    if len(next(iter(gens))) == 1:
        return max(0, order - min(g[0] for g in gens) + 1)
    total = 0
    firsts = sorted({g[0] for g in gens})
    rest: list[tuple[int, ...]] = []
    for i, a in enumerate(firsts):
        rest.extend(g[1:] for g in gens if g[0] == a)
        tail = minimal(rest)
        stop = firsts[i + 1] if i + 1 < len(firsts) else order + 1
        for value in range(a, min(stop, order + 1)):
            total += _covered(tail, order - value)
    return total


def free_count(groups, n: int, order: int) -> int:
    """Derivatives of order <= order outside the cones, summed over indeterminates.

    groups holds one list of leader multi-indices per indeterminate; an empty
    list is a free indeterminate.
    """
    whole = math.comb(order + n, n)
    return sum(whole - _covered(minimal(g), order) for g in groups)


def check_points(groups, n: int) -> range:
    """n+1 consecutive orders from the order of the join of all leaders.

    Past that order every cone intersection counts as a polynomial in ℓ, so
    n+1 values there pin the whole degree-n polynomial ω.
    """
    leaders = [g for group in groups for g in group]
    start = sum(join(leaders)) if leaders else 0
    return range(start, start + n + 1)


def binomial_eval(coeffs, order: int) -> int:
    """Value at order of a polynomial given in the basis C(ℓ+k, k)."""
    return sum(c * math.comb(order + k, k) for k, c in enumerate(coeffs))


def omega_matches(coeffs, groups, n: int) -> bool:
    return all(
        binomial_eval(coeffs, order) == free_count(groups, n, order)
        for order in check_points(groups, n)
    )


@lru_cache(maxsize=None)
def _janet_size(gens: frozenset) -> int:
    if len(next(iter(gens))) == 1:
        return 1
    firsts = sorted({g[0] for g in gens})
    total = 0
    rest: list[tuple[int, ...]] = []
    for i, a in enumerate(firsts):
        rest.extend(g[1:] for g in gens if g[0] == a)
        repeats = firsts[i + 1] - a if i + 1 < len(firsts) else 1
        total += repeats * _janet_size(minimal(rest))
    return total


def minimal_janet_size(gens) -> int:
    """Cone count of the minimal Janet basis of the monomial ideal over gens.

    Each first-coordinate value below the largest one needs its own Janet
    basis of that slice, with the first axis non-multiplicative; the largest
    value's slice takes the first axis as multiplicative.
    """
    return _janet_size(minimal(gens))
