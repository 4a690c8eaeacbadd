"""Decide how two nested saturated ideals relate from their chains.

Given chains for ideals I (smaller) and J (larger) with I contained in J,
the dimension polynomials and per-leader degrees decide equality: equal
ideals force equal polynomials, identical leader sets, and identical leader
degrees, and under containment the larger ideal can only lower degrees.
Any reading that breaks those one-way implications contradicts the claimed
containment, which is reported rather than silently repaired.
"""

from __future__ import annotations

import enum
import math

from .chains import DiffChain, membership
from .diffpoly import Derivative
from .numpoly import NumericalPolynomial, Ordering
from .dimension import omega
from .record import Record


class RankingMismatchError(ValueError):
    """The two chains do not share one ring and ranking."""


class Relation(enum.Enum):
    EQUAL = "Equal"
    PROPERLY_CONTAINED = "ProperlyContained"
    OMEGA_DISTINCT = "OmegaDistinct-ProperlyContained"
    INPUT_CONTRADICTION = "InputContradiction"
    CONTAINMENT_UNKNOWN = "ContainmentUnknown"


class Containment(enum.Enum):
    CONTAINED = "established"
    UNKNOWN = "unknown"
    ASSERTED = "asserted"


class CompareVerdict(Record):
    __slots__ = (
        "relation",
        "omega_smaller",
        "omega_larger",
        "leader_report",
        "degree_products",
        "containment",
        "assumed_relation",
    )

    def __init__(
        self,
        relation: Relation,
        omega_smaller: NumericalPolynomial,
        omega_larger: NumericalPolynomial,
        leader_report: dict[Derivative, tuple[int | None, int | None]],
        degree_products: tuple[int, int],
        containment: Containment,
        assumed_relation: Relation | None = None,
    ):
        self.relation = relation
        self.omega_smaller, self.omega_larger = omega_smaller, omega_larger
        self.leader_report, self.degree_products = leader_report, degree_products
        self.containment, self.assumed_relation = containment, assumed_relation


def containment_check(smaller: DiffChain, larger: DiffChain) -> Containment:
    """Establish I(smaller) inside I(larger) by reducing every element.

    Zero remainders prove containment; a nonzero remainder proves nothing
    either way, so the answer is then Unknown rather than a refutation.
    """
    smaller.require_valid()
    larger.require_valid()
    if all(membership(p, larger) for p in smaller.elements):
        return Containment.CONTAINED
    return Containment.UNKNOWN


def _relation_under_containment(
    omega_small: NumericalPolynomial,
    omega_large: NumericalPolynomial,
    degrees_small: dict[Derivative, int],
    degrees_large: dict[Derivative, int],
) -> Relation:
    if omega_large.compare(omega_small) is Ordering.GREATER:
        # containment forces the larger ideal's polynomial to be <= the smaller's
        return Relation.INPUT_CONTRADICTION
    if omega_small != omega_large:
        return Relation.OMEGA_DISTINCT
    if set(degrees_small) != set(degrees_large):
        # equal polynomials force equal leader sets
        return Relation.INPUT_CONTRADICTION
    if any(degrees_large[x] > degrees_small[x] for x in degrees_small):
        # the larger ideal's chain can only lower leader degrees
        return Relation.INPUT_CONTRADICTION
    if all(degrees_large[x] == degrees_small[x] for x in degrees_small):
        return Relation.EQUAL
    return Relation.PROPERLY_CONTAINED


def compare_ideals(
    smaller: DiffChain, larger: DiffChain, containment_asserted: bool = False
) -> CompareVerdict:
    """Relate I(smaller) to I(larger), assuming or establishing containment first.

    Raises InvalidChainError, for the smaller chain first, when a chain fails
    validation.
    """
    if smaller.ranking != larger.ranking:
        raise RankingMismatchError("chains must share one ring and ranking")
    omega_small = omega(smaller).omega
    omega_large = omega(larger).omega
    # CompareVerdict.degree_products holds the product of each chain's leader
    # degrees, a chain invariant, not an ideal invariant
    degrees_small = dict(zip(smaller.leaders, smaller.degrees))
    degrees_large = dict(zip(larger.leaders, larger.degrees))
    if containment_asserted:
        containment = Containment.ASSERTED
    else:
        containment = containment_check(smaller, larger)
    ladder = _relation_under_containment(
        omega_small, omega_large, degrees_small, degrees_large
    )
    if containment is Containment.UNKNOWN:
        relation, assumed = Relation.CONTAINMENT_UNKNOWN, ladder
    else:
        relation, assumed = ladder, None
    leader_report: dict[Derivative, tuple[int | None, int | None]] = {}
    for x in set(degrees_small) | set(degrees_large):
        leader_report[x] = (degrees_small.get(x), degrees_large.get(x))
    return CompareVerdict(
        relation=relation,
        omega_smaller=omega_small,
        omega_larger=omega_large,
        leader_report=leader_report,
        degree_products=(math.prod(degrees_small.values()), math.prod(degrees_large.values())),
        containment=containment,
        assumed_relation=assumed,
    )
