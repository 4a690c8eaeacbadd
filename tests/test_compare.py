import math
import random

import pytest

from diffdim import (
    Containment,
    DiffChain,
    DiffPoly,
    InvalidChainError,
    Ordering,
    Ranking,
    RankingMismatchError,
    Relation,
    compare_ideals,
    containment_check,
    make_derivative,
    parse_system,
)
from diffdim.dimension import minimalize

from corpus import dvar, plain_ranking, plain_ring, random_power_chain, random_monomial_chain


def _u_chain(*polys):
    return DiffChain(list(polys), plain_ranking(1, 1))


def _power(exp):
    return dvar(0, (0,)) ** exp - 1


def test_ranking_mismatch_is_rejected():
    ring = plain_ring(1, 2)
    a = DiffChain([dvar(0, (1,))], Ranking.orderly(ring))
    b = DiffChain([dvar(0, (1,))], Ranking(ring, (1, 0)))
    with pytest.raises(RankingMismatchError):
        compare_ideals(a, b)


def test_compare_rejects_invalid_chain():
    good = DiffChain([dvar(0, (1, 0))], plain_ranking(2, 1))
    bad = DiffChain(
        [dvar(0, (2, 0)) - dvar(0, (0, 0)), dvar(0, (1, 1)) - dvar(0, (0, 0))],
        plain_ranking(2, 1),
    )
    with pytest.raises(InvalidChainError):
        compare_ideals(bad, good)



def test_compare_reports_the_smaller_chain_first():
    ranking = plain_ranking(2, 1)
    good = DiffChain([dvar(0, (1, 0))], ranking)
    bad_small = DiffChain(
        [dvar(0, (2, 0)) - dvar(0, (0, 0)), dvar(0, (1, 1)) - dvar(0, (0, 0))], ranking
    )
    bad_large = DiffChain(
        [dvar(0, (2, 0)) - dvar(0, (0, 1)), dvar(0, (1, 1)) - dvar(0, (0, 0))], ranking
    )
    with pytest.raises(InvalidChainError, match=r"u0\[1,0\] - u0\[0,1\]"):
        compare_ideals(bad_small, bad_large)
    with pytest.raises(InvalidChainError, match=r"u0\[1,0\] - u0\[0,2\]"):
        compare_ideals(bad_large, bad_small)
    with pytest.raises(InvalidChainError, match=r"u0\[1,0\] - u0\[0,2\]"):
        compare_ideals(good, bad_large)

def test_containment_check_directions():
    quartic = _u_chain(_power(4))
    quadratic = _u_chain(_power(2))
    assert containment_check(quartic, quadratic) is Containment.CONTAINED
    assert containment_check(quadratic, quartic) is Containment.UNKNOWN


def test_verdict_degree_product_values():
    ring = plain_ring(1, 2)
    ranking = Ranking.orderly(ring)
    ode = DiffChain(
        [dvar(0, (1,)) ** 2 - dvar(1, (0,)), dvar(1, (1,)) ** 2 - dvar(1, (0,))],
        ranking,
    )
    assert compare_ideals(ode, ode).degree_products == (4, 4)
    assert compare_ideals(_u_chain(_power(3)), _u_chain(_power(1))).degree_products == (3, 1)


def test_verdict_degree_products_are_products_of_leader_degrees():
    rng = random.Random(57)
    for _ in range(20):
        chain = random_power_chain(rng)
        head = DiffChain(chain.elements[:1], chain.ranking)
        for smaller, larger in ((chain, head), (head, chain)):
            verdict = compare_ideals(smaller, larger, containment_asserted=True)
            assert verdict.degree_products == tuple(
                math.prod(p.degree_in(ld) for p, ld in zip(c.elements, c.leaders))
                for c in (smaller, larger)
            )


def test_square_versus_linear_is_properly_contained():
    squares = _u_chain(dvar(0, (0,)) ** 2 - dvar(0, (0,)))
    linear = _u_chain(dvar(0, (0,)))
    verdict = compare_ideals(squares, linear)
    assert verdict.relation is Relation.PROPERLY_CONTAINED
    assert verdict.containment is Containment.CONTAINED
    assert verdict.degree_products == (2, 1)
    assert verdict.omega_smaller == verdict.omega_larger
    x = make_derivative(0, (0,))
    assert verdict.leader_report == {x: (2, 1)}


def test_equal_for_scalar_multiple():
    base = _u_chain(dvar(0, (0,)) ** 2 - dvar(0, (0,)))
    scaled = _u_chain(3 * dvar(0, (0,)) ** 2 - 3 * dvar(0, (0,)))
    verdict = compare_ideals(scaled, base)
    assert verdict.relation is Relation.EQUAL


def test_omega_distinct_for_prolonged_system():
    ranking = plain_ranking(2, 1)
    s1 = DiffChain([dvar(0, (1, 0))], ranking)
    s2 = DiffChain([dvar(0, (2, 0)), dvar(0, (1, 1))], ranking)
    verdict = compare_ideals(s2, s1)
    assert verdict.containment is Containment.CONTAINED
    assert verdict.relation is Relation.OMEGA_DISTINCT
    assert verdict.omega_larger.compare(verdict.omega_smaller) is Ordering.LESS
    # the same chains as pde_pair.sys's S2 and S1, whose compare --json
    # test_cli checks
    assert verdict.leader_report == {
        make_derivative(0, (1, 0)): (None, 1),
        make_derivative(0, (2, 0)): (1, None),
        make_derivative(0, (1, 1)): (1, None),
    }


def test_contradiction_when_omega_grows():
    # swapped roles: the claimed larger ideal has the larger polynomial
    ranking = plain_ranking(2, 1)
    s1 = DiffChain([dvar(0, (1, 0))], ranking)
    s2 = DiffChain([dvar(0, (2, 0)), dvar(0, (1, 1))], ranking)
    verdict = compare_ideals(s1, s2, containment_asserted=True)
    assert verdict.containment is Containment.ASSERTED
    assert verdict.relation is Relation.INPUT_CONTRADICTION


def test_contradiction_when_leader_sets_differ():
    ranking = plain_ranking(2, 1)
    dt = DiffChain([dvar(0, (1, 0))], ranking)
    dx = DiffChain([dvar(0, (0, 1))], ranking)
    verdict = compare_ideals(dt, dx, containment_asserted=True)
    assert verdict.omega_smaller == verdict.omega_larger
    assert verdict.relation is Relation.INPUT_CONTRADICTION


def test_contradiction_when_degrees_rise():
    verdict = compare_ideals(_u_chain(_power(2)), _u_chain(_power(4)), containment_asserted=True)
    assert verdict.relation is Relation.INPUT_CONTRADICTION


def test_unknown_containment_reports_assumed_relation():
    verdict = compare_ideals(_u_chain(_power(2)), _u_chain(_power(4)))
    assert verdict.relation is Relation.CONTAINMENT_UNKNOWN
    assert verdict.assumed_relation is Relation.INPUT_CONTRADICTION
    assert verdict.containment is Containment.UNKNOWN


def test_power_ladder_properly_contained():
    verdict = compare_ideals(_u_chain(_power(4)), _u_chain(_power(2)))
    assert verdict.relation is Relation.PROPERLY_CONTAINED
    assert verdict.degree_products == (4, 2)
    assert verdict.assumed_relation is None


def test_self_comparison_is_equal_on_corpus():
    rng = random.Random(23)
    for _ in range(20):
        chain = random_power_chain(rng)
        scale = rng.choice([1, 2, 5])
        doubled = DiffChain([scale * p for p in chain.elements], chain.ranking)
        verdict = compare_ideals(doubled, chain)
        assert verdict.relation is Relation.EQUAL, (chain.elements, scale)
        assert verdict.degree_products[0] == verdict.degree_products[1]


def _bump_one_leader(rng, chain):
    """Replace one element by a proper derivative of it, keeping a chain."""
    ring = chain.ring
    t = rng.randrange(len(chain.elements))
    target = chain.leaders[t]
    axis = rng.randrange(ring.num_derivations)
    bumped = tuple(
        e + 1 if i == axis else e for i, e in enumerate(target.index)
    )
    groups = {}
    for i, ld in enumerate(chain.leaders):
        groups.setdefault(ld.indeterminate, []).append(
            bumped if i == t else ld.index
        )
    elements = []
    for j in sorted(groups):
        elements.extend(dvar(j, mu) for mu in minimalize(groups[j]))
    return DiffChain(elements, chain.ranking)


def test_enlarged_cones_never_look_equal():
    rng = random.Random(31)
    for _ in range(25):
        chain = random_monomial_chain(rng)
        smaller = _bump_one_leader(rng, chain)
        verdict = compare_ideals(smaller, chain)
        assert verdict.containment is Containment.CONTAINED
        assert verdict.relation is Relation.OMEGA_DISTINCT, (
            chain.elements,
            smaller.elements,
        )
        assert verdict.omega_larger.compare(verdict.omega_smaller) is Ordering.LESS


def test_compare_takes_each_separant_once(monkeypatch, data_dir):
    system = parse_system((data_dir / "prolong_pair.sys").read_text(encoding="utf-8"))
    smaller, larger = system.chains["S"], system.chains["A"]
    calls = []
    partial = DiffPoly.partial
    monkeypatch.setattr(DiffPoly, "partial", lambda p, d: calls.append(d) or partial(p, d))
    verdict = compare_ideals(smaller, larger)
    assert verdict.relation is Relation.OMEGA_DISTINCT
    # validation and the containment reductions share them
    assert sorted(calls) == sorted(smaller.leaders + larger.leaders)
