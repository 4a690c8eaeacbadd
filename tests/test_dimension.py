import functools
import itertools
import json
import math
import operator
import pathlib
import random
import time

import pytest

import diffdim.dimension as dimension
from diffdim import (
    DiffChain,
    InternalDisagreementError,
    InvalidChainError,
    JanetBox,
    LeaderSpec,
    NumericalPolynomial,
    compare_ideals,
    janet_boxes,
    janet_complete,
    krull_oracle,
    omega,
    omega_incl_excl,
    omega_janet,
    parse_system,
)
from diffdim.dimension import minimalize
from diffdim.diffpoly import dominates, iter_indices, join_indices
from diffdim.numpoly import standard_text

from corpus import (
    acceptance_specs,
    dvar,
    plain_ranking,
    random_index,
    random_leader_spec,
    random_monomial_chain,
    run_in_fresh_process,
)


def _minimalize_all_pairs(indices):
    """The definition: the distinct indices that no other one divides, sorted."""
    unique = sorted(set(indices))
    return tuple(
        mu
        for mu in unique
        if not any(g != mu and all(x >= y for x, y in zip(mu, g)) for g in unique)
    )


def test_minimalize():
    assert minimalize([(1, 0), (2, 0), (0, 3), (1, 1)]) == ((0, 3), (1, 0))
    assert minimalize([(2,), (2,), (5,)]) == ((2,),)
    assert minimalize([]) == ()
    assert minimalize([(1, 1), (1, 2), (2, 2)]) == ((1, 1),)
    assert minimalize(iter([[0, 2], [1, 1], [0, 2]])) == ((0, 2), (1, 1))
    # seeded random sets in n = 1..5, with duplicates, empty sets and chains
    rng = random.Random(15)
    for trial in range(6000):
        n = rng.randint(1, 5)
        indices = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 10))]
        if indices and trial % 2:
            # a chain of dominations grown from one of the indices, one axis at a time
            mu = rng.choice(indices)
            for _ in range(rng.randint(1, 4)):
                axis = rng.randrange(n)
                mu = mu[:axis] + (mu[axis] + 1,) + mu[axis + 1 :]
                indices.append(mu)
        indices += rng.sample(indices, min(len(indices), rng.randint(0, 2)))
        rng.shuffle(indices)
        assert minimalize(indices) == _minimalize_all_pairs(indices), indices


def test_minimalize_sweeps_two_entry_indices_as_the_definition_does():
    """The two-entry sweep against the definition on seeded sets of up to
    300 points: entries up to 10^12, many ties on the first entry,
    duplicates, full staircases and staircases with points above them."""
    rng = random.Random(34)
    seen = {"dropped": 0, "tied first entries": 0, "kept all": 0}
    for trial in range(90):
        size = rng.randint(0, 300)
        top = rng.choice((3, 40, 10**12))
        indices = [(rng.randint(0, top), rng.randint(0, top)) for _ in range(size)]
        if trial % 3 == 1:
            # few first entries, so most points tie on one
            firsts = [rng.randint(0, top) for _ in range(rng.randint(1, 4))]
            indices = [(rng.choice(firsts), b) for _, b in indices]
        elif trial % 3 == 2:
            # a full staircase of the size, in half the cases with points above it
            step = rng.choice((1, 10**9))
            indices = [(i * step, (size - 1 - i) * step) for i in range(size)]
            above = rng.sample(indices, min(size, rng.randint(0, 30))) if trial % 2 else []
            indices += [(a + rng.randint(0, 2), b + rng.randint(0, 2)) for a, b in above]
        indices += rng.sample(indices, min(len(indices), rng.randint(0, 20)))
        rng.shuffle(indices)
        expected = _minimalize_all_pairs(indices)
        assert minimalize(indices) == expected, indices
        distinct = set(indices)
        seen["dropped"] += len(expected) < len(distinct)
        seen["tied first entries"] += len({a for a, _ in distinct}) < len(distinct)
        seen["kept all"] += bool(distinct) and len(expected) == len(distinct)
    assert min(seen.values()) >= 10, seen


def _simplex(n, d):
    """The staircase of the multi-indices of n entries and order d."""
    return [mu for mu in iter_indices(n, d) if sum(mu) == d]


def test_minimalize_sweeps_three_entry_indices_as_the_definition_does():
    """The three-entry staircase sweep against the definition on seeded sets
    of up to 300 points: entries up to 10^12, ties on the first entry and on
    the first two, duplicates, and full simplex staircases, in half the cases
    with points above them."""
    rng = random.Random(36)
    seen = {"dropped": 0, "tied first entries": 0, "tied first two": 0, "kept all": 0}
    for trial in range(120):
        size = rng.randint(0, 300)
        top = rng.choice((3, 40, 10**12))
        indices = [tuple(rng.randint(0, top) for _ in range(3)) for _ in range(size)]
        if trial % 4 == 1:
            # few first entries, so most points tie on one
            firsts = [rng.randint(0, top) for _ in range(rng.randint(1, 4))]
            indices = [(rng.choice(firsts), b, c) for _, b, c in indices]
        elif trial % 4 == 2:
            # few (first, second) pairs, so most points tie on both
            heads = [(rng.randint(0, top), rng.randint(0, top)) for _ in range(rng.randint(1, 4))]
            indices = [(*rng.choice(heads), c) for _, _, c in indices]
        elif trial % 4 == 3:
            # a full simplex staircase, scaled, in half the cases with points above it
            step = rng.choice((1, 10**9))
            stair = [tuple(e * step for e in mu) for mu in _simplex(3, rng.randint(0, 22))]
            above = rng.sample(stair, min(len(stair), rng.randint(0, 30))) if trial % 8 == 7 else []
            indices = stair + [tuple(e + rng.randint(0, 2) for e in mu) for mu in above]
        indices += rng.sample(indices, min(len(indices), rng.randint(0, 20)))
        rng.shuffle(indices)
        expected = _minimalize_all_pairs(indices)
        assert minimalize(indices) == expected, indices
        distinct = set(indices)
        seen["dropped"] += len(expected) < len(distinct)
        seen["tied first entries"] += len({mu[0] for mu in distinct}) < len(distinct)
        seen["tied first two"] += len({mu[:2] for mu in distinct}) < len(distinct)
        seen["kept all"] += bool(distinct) and len(expected) == len(distinct)
    assert min(seen.values()) >= 10, seen


def test_minimalize_agrees_with_the_definition_on_the_cones_pool_and_field_widths():
    """Every set of bench/cones_pool.json and every field-width boundary case,
    with the tails g[1:] of each, which the Janet route's slices minimalize."""
    pool = json.loads((pathlib.Path(__file__).parents[1] / "bench" / "cones_pool.json").read_text())
    cases = [[tuple(g) for g in entry["generators"]] for entry in pool["sets"]]
    cases += _field_width_boundaries()
    assert {len(gens[0]) for gens in cases} == {1, 2, 3, 4, 5}
    for gens in cases:
        for indices in (gens, [g[1:] for g in gens]):
            assert minimalize(indices) == _minimalize_all_pairs(indices), indices


def test_validate_and_janet_route_on_a_three_derivation_staircase_cost_no_quadratic_work():
    """The 11,476 leaders u[a,b,c] with a + b + c = 150: validate finds their
    antichain in one sweep and the Janet route, whose slices' tails are the
    staircases of two entries, counts the C(152, 3) derivatives below them.
    Both take well under 5 s together; validate alone took 11 s with the
    pairwise scan.  Run in a fresh process with a time limit, so that a
    quadratic return fails the test instead of slowing the suite."""
    script = """
import time
from diffdim import DiffChain, omega_janet, validate
from corpus import dvar, plain_ranking
leaders = [(a, b, 150 - a - b) for a in range(151) for b in range(151 - a)]
chain = DiffChain([dvar(0, mu) for mu in leaders], plain_ranking(3, 1))
start = time.perf_counter()
report = validate(chain)
result = omega_janet(chain.leader_spec)
print(len(leaders), report.accepted, result.omega.coeffs)
print(time.perf_counter() - start < 5)
"""
    out = run_in_fresh_process(script, timeout=60).splitlines()
    assert out == [f"11476 True {(math.comb(152, 3), 0, 0, 0)}", "True"]


def test_omega_with_its_cross_check_on_a_three_derivation_staircase_costs_no_quadratic_work():
    """The same 11,476 leaders through omega, which validates the chain,
    takes the Janet route and checks it against the inclusion-exclusion
    pivot.  Each of the pivot's colons is read off one staircase, so all of
    it takes well under 5 s; the cross-check alone took 15.8 s when every
    colon was minimalized by a pairwise scan.  Run in a fresh process with
    a time limit, as above."""
    script = """
import time
from diffdim import DiffChain, omega
from corpus import dvar, plain_ranking
leaders = [(a, b, 150 - a - b) for a in range(151) for b in range(151 - a)]
chain = DiffChain([dvar(0, mu) for mu in leaders], plain_ranking(3, 1))
start = time.perf_counter()
result = omega(chain)
print(len(leaders), result.omega.coeffs)
print(time.perf_counter() - start < 5)
"""
    out = run_in_fresh_process(script, timeout=60).splitlines()
    assert out == [f"11476 {(math.comb(152, 3), 0, 0, 0)}", "True"]


def test_leader_spec_validation():
    # a zero count, and counts that are not ints, even integral floats
    for counts in ((0, 1), (2.0, 1), (2, 1.0), ("2", 1)):
        with pytest.raises(ValueError, match="need at least one derivation and one indeterminate"):
            LeaderSpec(*counts, {0: [(1, 0)]})
    with pytest.raises(ValueError):
        LeaderSpec(2, 1, {0: [(1,)]})
    for mu in ((-1,), (1.5,), (1.0,)):
        with pytest.raises(ValueError, match="bad multi-index"):
            LeaderSpec(1, 1, {0: [mu]})
    spec = LeaderSpec(2, 2, {1: [(1, 0), (2, 0)]})
    assert spec.generators == ((), ((1, 0),))


def test_leader_spec_rejects_indeterminate_out_of_range():
    for generators in (
        {-1: [(1, 0)]},
        {0: [(1, 0)], -2: [(0, 1)]},
        {5: [(1, 0)]},
        {1.0: [(1, 0)]},
        [[(1, 0)], [(0, 1)], [(1, 1)]],
    ):
        with pytest.raises(ValueError, match="bad indeterminate"):
            LeaderSpec(2, 2, generators)


def test_leader_spec_is_frozen_hashable_and_accepts_every_form():
    gens = [(2, 0), (1, 1), (3, 0)]
    forms = [
        LeaderSpec(2, 1, {0: gens}),
        LeaderSpec(2, 1, [gens]),
        LeaderSpec(2, 1, generators={0: [list(mu) for mu in gens]}),
    ]
    for spec in forms:
        assert spec.generators == (((1, 1), (2, 0)),)
        assert spec == forms[0]
    assert len(set(forms)) == 1
    assert LeaderSpec(2, 2, {0: gens}) != forms[0]
    with pytest.raises(AttributeError, match="cannot assign to field 'generators'"):
        forms[0].generators = ()
    with pytest.raises(AttributeError, match="cannot delete field 'generators'"):
        del forms[0].generators

def test_omega_reads_the_leader_spec_of_a_valid_chain():
    chain = DiffChain(
        [dvar(0, (2, 0)), dvar(0, (0, 1)) - dvar(0, (0, 0))], plain_ranking(2, 1)
    )
    spec = chain.leader_spec
    assert spec.generators == (((0, 1), (2, 0)),)
    assert omega(chain).leaders == spec
    bad = DiffChain(
        [dvar(0, (2, 0)) - dvar(0, (0, 0)), dvar(0, (1, 1)) - dvar(0, (0, 0))],
        plain_ranking(2, 1),
    )
    with pytest.raises(InvalidChainError):
        bad.require_valid()
    with pytest.raises(InvalidChainError):
        omega(bad)


def test_oracle_hand_values():
    # covered points are m C(l + n, n) minus the oracle's free ones
    spec = LeaderSpec(2, 1, {0: [(1, 0)]})
    assert math.comb(3 + 2, 2) - krull_oracle(spec, 3) == 6
    assert krull_oracle(spec, 3) == 10 - 6
    spec = LeaderSpec(2, 1, {0: [(0, 2)]})
    assert krull_oracle(spec, 4) == 9
    empty = LeaderSpec(2, 3)
    assert 3 * math.comb(5 + 2, 2) - krull_oracle(empty, 5) == 0
    assert krull_oracle(empty, 5) == 3 * 21


def test_oracle_refuses_a_negative_order():
    for n in (1, 2, 3):
        spec = LeaderSpec(n, 1, {0: [(1,) + (0,) * (n - 1)]})
        for max_order in (-1, -3):
            with pytest.raises(ValueError, match="max_order must be nonnegative"):
                krull_oracle(spec, max_order)


def test_oracle_refuses_a_max_order_that_is_not_an_int():
    """A bool is not a natural number, and a float is not an order."""
    spec = LeaderSpec(2, 1, {0: [(1, 0)]})
    for max_order in (True, False, 2.5, 2.0, "3", None):
        with pytest.raises(TypeError, match=f"max_order must be an int, got {max_order!r}"):
            krull_oracle(spec, max_order)


def _box_cones(boxes):
    """The cones of the boxes as (generator, multiplicative axes) pairs, in
    increasing order of generator: every point of a box, held at its lower
    corner on the axes where its upper corner is None."""
    return sorted(
        (
            (u, frozenset(i for i, b in enumerate(box.upper) if b is None))
            for box in boxes
            for u in itertools.product(
                *(range(a, a + 1 if b is None else b) for a, b in zip(box.lower, box.upper))
            )
        ),
        key=operator.itemgetter(0),
    )


def test_janet_completion_no_insertion_needed():
    assert janet_boxes([(2, 0), (1, 1)], 2) == [
        JanetBox((1, 1), (2, None), 0),
        JanetBox((2, 0), (None, None), 0),
    ]
    cones = set(_box_cones(janet_boxes([(2, 0), (1, 1)], 2)))
    assert cones == {((1, 1), frozenset({1})), ((2, 0), frozenset({0, 1}))}


def test_janet_completion_inserts_generator():
    table = dict(_box_cones(janet_boxes([(2, 0), (0, 1)], 2)))
    assert set(table) == {(0, 1), (1, 1), (2, 0)}
    assert table[(0, 1)] == frozenset({1})
    assert table[(1, 1)] == frozenset({1})
    assert table[(2, 0)] == frozenset({0, 1})
    assert janet_complete([(2, 0), (0, 1)], 2) == [(0, 1), (1, 1), (2, 0)]


def test_janet_completion_empty():
    assert janet_boxes([], 3) == []
    assert janet_complete([], 3) == []


@pytest.mark.parametrize(
    "gens, n, indeterminate, message",
    [
        ([(1, 2)], 1, 0, "bad multi-index"),
        ([(1,)], 2, 0, "bad multi-index"),
        ([(1, -2)], 2, 0, "bad multi-index"),
        ([(True, 0)], 2, 0, "bad multi-index"),
        ([()], 0, 0, "need at least one derivation, got 0"),
        ([(1,)], True, 0, "need at least one derivation, got True"),
        ([], -1, 0, "need at least one derivation, got -1"),
        ([(1, 2)], 2, -1, "bad indeterminate -1"),
        ([(1, 2)], 2, True, "bad indeterminate True"),
        ([(1, 2)], 2, 1.5, r"bad indeterminate 1\.5"),
        ([(1, 2)], 2, "u", "bad indeterminate 'u'"),
    ],
)
def test_janet_boxes_and_listing_reject_a_bad_input(gens, n, indeterminate, message):
    with pytest.raises(ValueError, match=message):
        janet_boxes(gens, n, indeterminate=indeterminate)
    if indeterminate == 0:  # janet_complete lists one group and takes no indeterminate
        with pytest.raises(ValueError, match=message):
            janet_complete(gens, n)


def _janet_multiplicative(gens, n):
    """Janet's axis assignment: axis i is multiplicative for u when u[i] is the
    largest exponent on axis i among the multi-indices that agree with u
    before axis i."""
    return {
        u: frozenset(i for i in range(n) if u[i] == max(v[i] for v in gens if v[:i] == u[:i]))
        for u in gens
    }


def _first_gap(gens, n):
    """First non-multiplicative prolongation u + e_i with no Janet divisor in
    gens, scanning gens in sorted order, or None when gens is complete."""
    mult = _janet_multiplicative(gens, n)
    for u in sorted(gens):
        for i in range(n):
            if i in mult[u]:
                continue
            v = u[:i] + (u[i] + 1,) + u[i + 1 :]
            covered = any(
                dominates(v, w)
                and all(e == 0 or k in mult[w] for k, e in enumerate(map(operator.sub, v, w)))
                for w in gens
            )
            if not covered:
                return v
    return None


def _reference_janet_complete(generators, n):
    """The completion as first written: recompute every axis assignment and
    rescan every prolongation against every multi-index after each insertion.
    Its bases are Janet bases, but not always minimal ones."""
    work = sorted(set(generators))
    if not work:
        return []
    while (v := _first_gap(work, n)) is not None:
        work = sorted(set(work) | {v})
    mult = _janet_multiplicative(work, n)
    return [(u, mult[u]) for u in work]


def _random_antichain(rng, n, size, max_order):
    gens = []
    for _ in range(50 * size):
        if len(gens) == size:
            break
        mu = random_index(rng, n, rng.randint(1, max_order))
        if not any(dimension.dominates(mu, g) or dimension.dominates(g, mu) for g in gens):
            gens.append(mu)
    return gens


def test_janet_basis_is_the_minimal_subset_of_reference_completion():
    # the reference adds (3,2,1) and (3,2,2) with no multiplicative axis
    skewed = [(1, 1, 3), (2, 3, 0), (3, 1, 1), (4, 0, 0)]
    assert len(_reference_janet_complete(skewed, 3)) == 10
    assert len(_box_cones(janet_boxes(skewed, 3))) == 8
    rng = random.Random(2024)
    cases = [(skewed, 3)]
    for _ in range(200):
        n = rng.randint(2, 4)
        cases.append((_random_antichain(rng, n, rng.randint(1, 7), 6), n))
    for gens, n in cases:
        boxes = janet_boxes(gens, n)
        assert [box.lower for box in boxes] == sorted({box.lower for box in boxes}), gens
        cones = _box_cones(boxes)
        basis = [u for u, _ in cones]
        assert basis == sorted(set(basis)) == janet_complete(gens, n), gens
        assert set(basis) <= {u for u, _ in _reference_janet_complete(gens, n)}, gens
        mult = _janet_multiplicative(basis, n)
        assert all(axes == mult[u] for u, axes in cones), gens
        assert _first_gap(basis, n) is None, gens
        for extra in set(basis) - set(gens):
            assert _first_gap([u for u in basis if u != extra], n) is not None, (gens, extra)


def test_janet_twelve_leaders_in_four_derivations():
    gens = [
        (0, 4, 4, 2), (0, 5, 1, 3), (1, 5, 0, 6), (1, 6, 1, 1), (2, 2, 7, 0), (3, 5, 0, 2),
        (4, 3, 1, 2), (6, 0, 3, 1), (7, 1, 1, 2), (7, 4, 0, 0), (8, 0, 0, 1), (9, 0, 2, 0),
    ]
    spec = LeaderSpec(4, 1, {0: gens})
    start = time.perf_counter()
    result = omega_janet(spec)
    elapsed = time.perf_counter() - start
    assert len(result.janet_cones) == 207
    assert result.janet_cones == tuple(u for u, _ in _box_cones(janet_boxes(gens, 4)))
    assert result.stabilization_bound == 19
    assert result.omega == omega_incl_excl(spec).omega
    assert elapsed < 5.0, f"took {elapsed:.2f}s against a 5s budget"


def _cone_contains(cone, mu):
    """mu lies in the Janet cone (generator, multiplicative axes): above its
    generator along multiplicative axes only."""
    generator, multiplicative = cone
    if not dominates(mu, generator):
        return False
    gap = map(operator.sub, mu, generator)
    return all(e == 0 or i in multiplicative for i, e in enumerate(gap))


def test_janet_cones_partition_the_cone_union():
    rng = random.Random(7)
    for _ in range(60):
        spec = random_leader_spec(rng, max_n=3, max_m=1, max_gens=4, max_order=3)
        gens = spec.generators[0]
        cones = _box_cones(janet_boxes(gens, spec.num_derivations))
        bound = max((sum(u) for u, _ in cones), default=0)
        for mu in iter_indices(spec.num_derivations, bound + 3):
            hits = sum(_cone_contains(c, mu) for c in cones)
            in_union = any(dimension.dominates(mu, g) for g in gens)
            assert hits == (1 if in_union else 0), (gens, mu)


def test_routes_agree_and_match_oracle():
    rng = random.Random(13)
    for _ in range(40):
        spec = random_leader_spec(rng)
        a = omega_incl_excl(spec)
        b = omega_janet(spec)
        assert a.omega == b.omega
        for result in (a, b):
            start = result.stabilization_bound
            for ell in range(start, start + 5):
                assert result.omega.eval(ell) == krull_oracle(spec, ell)


def test_worked_omega_values():
    # single leader u_{1,0} in two derivations: omega(l) = l + 1
    spec = LeaderSpec(2, 1, {0: [(1, 0)]})
    assert omega_janet(spec).omega == NumericalPolynomial((0, 1, 0))
    # leaders u_{2,0}, u_{1,1}: omega(l) = l + 2
    spec = LeaderSpec(2, 1, {0: [(2, 0), (1, 1)]})
    result = omega_janet(spec)
    assert result.omega == NumericalPolynomial((1, 1, 0))
    assert result.stabilization_bound == 2
    # leaders u_{2,0}, u_{0,1}: omega constant 2 after completion
    spec = LeaderSpec(2, 1, {0: [(2, 0), (0, 1)]})
    result = omega_janet(spec)
    assert result.omega == NumericalPolynomial((2,))
    assert result.differential_dimension == 0


@pytest.fixture
def built_boxes(monkeypatch):
    """Every box that diffdim.dimension's box walk yields while the test runs."""
    built = []
    walk = dimension._boxes

    def counted(gens, n):
        for box in walk(gens, n):
            built.append(box)
            yield box

    monkeypatch.setattr(dimension, "_boxes", counted)
    return built


def test_omega_of_chain_with_cross_check(built_boxes):
    ranking = plain_ranking(2, 1)
    burgers = DiffChain(
        [dvar(0, (0, 2)) - dvar(0, (1, 0)) - 2 * dvar(0, (0, 1)) * dvar(0, (0, 0))],
        ranking,
    )
    result = omega(burgers)
    assert result.coefficients == (-1, 2, 0)
    assert result.degree == 1
    assert result.differential_dimension == 0
    assert result.stabilization_bound == 2
    assert built_boxes == []
    assert result.janet_boxes == (JanetBox((0, 2), (None, None), 0),)
    assert built_boxes
    assert result.janet_cones == tuple(janet_complete([(0, 2)], 2)) == ((0, 2),)
    assert omega_incl_excl(result.leaders).janet_boxes is None


def _janet_cone_reading(spec):
    """({l: omega(l)} for l = bound, ..., bound + n, and bound) read off the
    listed Janet cones: m C(l + n, n) - sum of C(l - |u| + z, z), and max |u|."""
    n = spec.num_derivations
    cones = [c for g in spec.generators for c in _box_cones(janet_boxes(g, n))]
    shifts = [(sum(u), len(axes)) for u, axes in cones]
    bound = max((q for q, _ in shifts), default=0)
    values = {
        ell: spec.num_indeterminates * math.comb(ell + n, n)
        - sum(math.comb(ell - q + z, z) for q, z in shifts)
        for ell in range(bound, bound + n + 1)
    }
    return values, bound


def test_janet_closed_form_matches_the_listed_cones():
    # omega_janet sums each slice's copies in closed form; the cones of
    # janet_boxes must give the same polynomial (degree <= n, so n + 1
    # values fix it) and the same bound.
    rng = random.Random(28)
    specs = acceptance_specs()
    for _ in range(500):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        gens = {
            j: [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(0, 7))]
            for j in range(m)
        }
        specs.append(LeaderSpec(n, m, gens))
    for spec in specs:
        result = omega_janet(spec)
        values, bound = _janet_cone_reading(spec)
        assert result.stabilization_bound == bound, spec
        assert {ell: result.omega.eval(ell) for ell in values} == values, spec


def _numerator_of_listed_cones(gens, n):
    """(K, top) read off the cones of janet_boxes: a cone at u with z
    multiplicative axes has Hilbert series t^|u| / (1 - t)^z, so it adds
    t^|u| (1 - t)^(n - z) to K, and top is the largest |u|."""
    k = {}
    cones = _box_cones(janet_boxes(gens, n))
    for u, axes in cones:
        q, gap = sum(u), n - len(axes)
        for j in range(gap + 1):
            k[q + j] = k.get(q + j, 0) + (-1) ** j * math.comb(gap, j)
    return {e: c for e, c in k.items() if c}, max(sum(u) for u, _ in cones)


def test_janet_numerator_two_axis_closed_form_matches_the_listed_cones():
    rng = random.Random(30)
    cases = [((0, 0),), ((4, 7),), tuple((a, 19 - a) for a in range(20))]
    cases.append(tuple((2 * a, 3 * (19 - a)) for a in range(20)))
    for _ in range(400):
        points = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(1, 9))]
        cases.append(minimalize(points))
    for gens in cases:
        assert dimension._janet_numerator(gens, 2) == _numerator_of_listed_cones(gens, 2), gens


def test_janet_numerator_two_axis_base_case_builds_no_slice(monkeypatch):
    calls = []

    def counting_minimalize(indices):
        calls.append(1)
        return minimalize(indices)

    monkeypatch.setattr(dimension, "minimalize", counting_minimalize)
    staircase = tuple((a, 19 - a) for a in range(20))
    assert dimension._janet_numerator(staircase, 2) == ({19: 20, 20: -19}, 19)
    assert dimension._janet_numerator(((0, 0),), 2) == ({0: 1}, 0)
    assert dimension._janet_numerator(((3, 1),), 2) == ({4: 1}, 4)
    assert calls == []
    three_axes = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert dimension._janet_numerator(three_axes, 3) == _numerator_of_listed_cones(three_axes, 3)
    assert calls


def _box_cone_count(box):
    """prod (b_i - a_i) over the bounded axes of a box: its number of cones."""
    return math.prod(b - a for a, b in zip(box.lower, box.upper) if b is not None)


def test_janet_cone_count_is_the_sum_of_the_box_sizes():
    rng = random.Random(29)
    for _ in range(1000):
        n, m = rng.randint(1, 4), rng.randint(1, 2)
        gens = {
            j: [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(0, 7))]
            for j in range(m)
        }
        result = omega_janet(LeaderSpec(n, m, gens))
        boxes = result.janet_boxes
        assert [box.indeterminate for box in boxes] == sorted(box.indeterminate for box in boxes)
        assert len(result.janet_cones) == sum(map(_box_cone_count, boxes)), gens


@pytest.mark.parametrize("order", [1, 2000, 10**12])
def test_a_tall_staircase_is_two_boxes(order):
    ranking = plain_ranking(2, 1)
    result = omega(DiffChain([dvar(0, (order, 0)), dvar(0, (0, 1))], ranking))
    assert result.janet_boxes == (
        JanetBox((0, 1), (order, None), 0),
        JanetBox((order, 0), (None, None), 0),
    )
    assert sum(map(_box_cone_count, result.janet_boxes)) == order + 1


def test_omega_and_compare_build_no_janet_box(built_boxes):
    ranking = plain_ranking(2, 1)
    square = DiffChain([dvar(0, (2, 0)), dvar(0, (1, 1)), dvar(0, (0, 3))], ranking)
    assert compare_ideals(square, square).omega_smaller == omega(square).omega
    assert built_boxes == []
    # 10^12 + 1 cones: listing them would not end
    tall = DiffChain([dvar(0, (10**12, 0)), dvar(0, (0, 1))], ranking)
    result = omega(tall)
    assert result.omega == NumericalPolynomial((10**12, 0, 0))
    assert result.stabilization_bound == 10**12
    verdict = compare_ideals(tall, DiffChain([dvar(0, (10**12, 0)), dvar(0, (0, 1))], ranking))
    assert verdict.omega_smaller == verdict.omega_larger == result.omega
    assert built_boxes == []


def test_omega_rejects_invalid_chain():
    bad = DiffChain(
        [dvar(0, (2, 0)) - dvar(0, (0, 0)), dvar(0, (1, 1)) - dvar(0, (0, 0))],
        plain_ranking(2, 1),
    )
    with pytest.raises(InvalidChainError):
        omega(bad)


def _wrong_numerator(gens):
    return {0: 123}


def test_cross_check_runs_above_twenty_leaders(monkeypatch):
    chain = DiffChain([dvar(0, (a, 20 - a)) for a in range(21)], plain_ranking(2, 1))
    assert omega(chain).omega == NumericalPolynomial((210,))
    monkeypatch.setattr(dimension, "_hilbert_numerator", _wrong_numerator)
    with pytest.raises(InternalDisagreementError):
        omega(chain)


def test_incl_excl_with_order_zero_leader():
    # u itself is a leader: K(t) = 0 and its cone holds every derivative
    assert dimension._hilbert_numerator(((0, 0),)) == {}
    for spec in (
        LeaderSpec(2, 1, {0: [(0, 0)]}),
        LeaderSpec(3, 2, {0: [(0, 0, 0)], 1: [(1, 0, 0), (0, 2, 1)]}),
    ):
        result = omega_incl_excl(spec)
        assert result.omega == omega_janet(spec).omega
        for ell in range(result.stabilization_bound, result.stabilization_bound + 4):
            assert result.omega.eval(ell) == krull_oracle(spec, ell)


def test_incl_excl_with_empty_group():
    spec = LeaderSpec(3, 3, {1: [(1, 0, 0), (0, 2, 1), (0, 0, 3)]})
    assert spec.generators[0] == () and spec.generators[2] == ()
    result = omega_incl_excl(spec)
    assert result.omega == omega_janet(spec).omega
    assert result.differential_dimension == 2
    for ell in range(result.stabilization_bound, result.stabilization_bound + 4):
        assert result.omega.eval(ell) == krull_oracle(spec, ell)


def test_incl_excl_bound_is_order_of_full_join():
    rng = random.Random(31)
    for _ in range(150):
        spec = random_leader_spec(rng, max_n=4, max_gens=8, max_order=5)
        expected = max(
            (sum(functools.reduce(join_indices, g)) for g in spec.generators if g),
            default=0,
        )
        assert omega_incl_excl(spec).stabilization_bound == expected, spec


def _numerator_by_subsets(gens):
    """The definition: sum over subsets S of (-1)^|S| t^|join(S)|, nonzero terms only."""
    k = {}
    for size in range(len(gens) + 1):
        for subset in itertools.combinations(gens, size):
            e = sum(functools.reduce(join_indices, subset)) if subset else 0
            k[e] = k.get(e, 0) + (-1) ** size
    return {e: c for e, c in k.items() if c}


def _embed(gens, axes, n):
    """Place multi-indices of len(axes) entries on the given axes of an n-entry index."""
    out = []
    for g in gens:
        mu = [0] * n
        for axis, e in zip(axes, g):
            mu[axis] = e
        out.append(tuple(mu))
    return minimalize(out)


def _scaled(gens, big, rng):
    """gens under a strictly increasing map of each axis, e -> e * big + r with
    r < big fixed per (axis, e), which keeps every comparison of entries."""
    offsets = {}
    return tuple(
        tuple(e * big + offsets.setdefault((a, e), rng.randrange(big)) for a, e in enumerate(g))
        for g in gens
    )


def _field_width_boundaries():
    """Antichains in n axes whose largest exponent top makes n * top equal
    2^k - 1 or 2^k (in n = 2, where n * top is even, 2^k - 2 or 2^k): the
    index (top, 0, ..., 0), the n indices with top on all axes but one,
    whose joins reach order n * top, and random antichains over {0, 1,
    top // 2, top - 1, top}."""
    rng = random.Random(61)
    cases = []
    boundaries = (
        (1, 2**10 - 1), (1, 2**10), (2, 2**15 - 1), (2, 2**15),
        (3, 5461), (5, 13107), (5, 209715), (4, 4096), (4, 2**20),
    )
    for n, top in boundaries:
        below = n * top + (2 if n == 2 else 1)
        assert below.bit_count() == 1 or (n * top).bit_count() == 1, (n, top)
        cases.append(((top,) + (0,) * (n - 1),))
        cases.append(tuple(tuple(0 if a == b else top for a in range(n)) for b in range(n)))
        for _ in range(10):
            points = [tuple(rng.choice((0, 1, top // 2, top - 1, top)) for _ in range(n))
                      for _ in range(rng.randint(3, 6))]
            cases.append(minimalize(points + [(top,) + (0,) * (n - 1)]))
    return cases


def test_hilbert_numerator_matches_subset_sum():
    rng = random.Random(16)
    cases = [(), ((0, 0, 0),), ((3,),), ((0, 2, 0, 0),), ((1, 1, 1),)]
    for _ in range(400):
        n = rng.randint(1, 6)
        cases.append(minimalize(_random_antichain(rng, n, rng.randint(0, 10), 6)))
    for n in range(3, 7):
        for axes in itertools.combinations(range(n), 2):
            for _ in range(5):
                plane = _random_antichain(rng, 2, rng.randint(1, 10), 8)
                cases.append(_embed(plane, axes, n))
        for axis in range(n):
            cases.append(_embed([(rng.randint(1, 6),)], (axis,), n))
    for n in range(1, 7):
        for big in (10**12, 10**599):
            for _ in range(5):
                gens = minimalize(_random_antichain(rng, n, rng.randint(3, 6), 5))
                cases.append(minimalize(_scaled(gens, big, rng)))
            points = [tuple(rng.randrange(big, 10 * big) for _ in range(n)) for _ in range(6)]
            cases.append(minimalize(points))
    cases.append(_embed([(2, 0), (1, 3), (0, 5)], (1, 3), 4))
    cases += _field_width_boundaries()
    assert max(max(map(max, gens), default=0) for gens in cases) >= 10**599
    for gens in cases:
        assert dimension._hilbert_numerator(gens) == _numerator_by_subsets(gens), gens


def test_incl_excl_matches_janet_on_the_cones_pool():
    """Both routes on every set of bench/cones_pool.json, the leaders of the
    cones workload in four derivations, where the pivot runs packed."""
    pool = json.loads((pathlib.Path(__file__).parents[1] / "bench" / "cones_pool.json").read_text())
    assert len(pool["sets"]) == 240
    for entry in pool["sets"]:
        gens = [tuple(g) for g in entry["generators"]]
        spec = LeaderSpec(len(gens[0]), 1, {0: gens})
        assert omega_incl_excl(spec).omega == omega_janet(spec).omega, gens


def _count_colons(monkeypatch):
    """The list that gains one entry per colon ideal the packed pivot builds."""
    calls = []
    colon = dimension._colon

    def counting_colon(*args):
        calls.append(1)
        return colon(*args)

    monkeypatch.setattr(dimension, "_colon", counting_colon)
    return calls


def test_hilbert_numerator_two_axis_base_case_skips_the_pivot(monkeypatch):
    calls = _count_colons(monkeypatch)
    staircase = tuple((a, 19 - a) for a in range(20))
    assert dimension._hilbert_numerator(staircase) == {0: 1, 19: -20, 20: 19}
    assert dimension._hilbert_numerator(_embed(staircase, (0, 2), 4)) == {0: 1, 19: -20, 20: 19}
    assert calls == []
    # three axes read every colon off the staircase; four build them by _colon
    three_axes = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert dimension._hilbert_numerator(three_axes) == _numerator_by_subsets(three_axes)
    assert calls == []
    four_axes = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))
    assert dimension._hilbert_numerator(four_axes) == _numerator_by_subsets(four_axes)
    assert calls


def _three_axis_colon_levels(monkeypatch):
    """The list that gains one entry per colon ideal _colon builds whose
    generators are more than two and use exactly three axes, the levels
    under a four-axis pivot that take the three-axis staircase."""
    levels = []
    colon = dimension._colon

    def recording_colon(level, m, guards, w):
        out = colon(level, m, guards, w)
        if len(out) > 2 and dimension._used_fields(out, guards, guards >> w).bit_count() == 3:
            levels.append(out)
        return out

    monkeypatch.setattr(dimension, "_colon", recording_colon)
    return levels


def _colon_by_definition(done, m):
    """The antichain of max(g - m, 0) over the indices g in done."""
    return _minimalize_all_pairs(tuple(max(x - y, 0) for x, y in zip(g, m)) for g in done)


def test_hilbert_numerator_three_axis_staircase_matches_the_definition(monkeypatch):
    """Seeded antichains on three axes, embedded on three of n = 3, 4 and 5
    axes, in half the cases of n >= 4 with generators on a fourth axis, so
    that the staircase runs at the top level and on the colons of a
    four-axis pivot: the numerator against the subset sum for up to 12
    generators, and against the Janet route's polynomial above that.  The
    sets have ties on the middle entry, projections that a later one
    divides, colons that are one boundary point and full simplex
    staircases, and the field-width boundary cases run too."""
    rng = random.Random(41)
    colon_levels = _three_axis_colon_levels(monkeypatch)
    seen = {
        "tied middle entries": 0, "projection dropped": 0, "one boundary point": 0,
        "simplex": 0, "under a four-axis pivot": 0, "field-width boundary": 0,
    }
    cases = []
    for trial in range(240):
        top = rng.choice((2, 5, 40, 10**12))
        if trial % 4 == 3:
            step = rng.choice((1, 10**9))
            plane = [tuple(e * step for e in mu) for mu in _simplex(3, rng.randint(1, 24))]
        else:
            plane = [tuple(rng.randint(0, top) for _ in range(3)) for _ in range(rng.randint(3, 40))]
            if trial % 4 == 1:
                middles = [rng.randint(0, top) for _ in range(rng.randint(1, 3))]
                plane = [(a, rng.choice(middles), c) for a, _, c in plane]
        plane = minimalize(plane)
        if len(plane) < 3 or sum(map(any, zip(*plane))) < 3:
            continue
        n = trial % 3 + 3
        axes = sorted(rng.sample(range(n), 3))
        gens = _embed(plane, axes, n)
        if n > 3 and trial % 2:
            # generators that also use a fourth axis, so the top level pivots
            other = rng.choice([a for a in range(n) if a not in axes])
            extra = [
                tuple(rng.randint(1, 3) if a == other else rng.randint(0, 3) * (a in axes)
                      for a in range(n))
                for _ in range(rng.randint(1, 3))
            ]
            gens = minimalize(list(gens) + extra)
        cases.append(gens)
        seen["simplex"] += trial % 4 == 3
        seen["tied middle entries"] += len({g[1] for g in plane}) < len(plane)
        seen["projection dropped"] += any(
            h[1] >= g[1] and h[2] >= g[2] for j, g in enumerate(plane) for h in plane[:j]
        )
        seen["one boundary point"] += any(
            len(colon) == 1 and not all(colon[0][1:])
            for colon in (_colon_by_definition(plane[:j], m) for j, m in enumerate(plane))
        )
    for i, gens in enumerate(cases + _field_width_boundaries()):
        before = len(colon_levels)
        got = dimension._hilbert_numerator(gens)
        if len(gens) <= 12:
            assert got == _numerator_by_subsets(gens), gens
        else:
            janet = omega_janet(LeaderSpec(len(gens[0]), 1, {0: gens})).omega
            assert NumericalPolynomial.from_numerator(got, len(gens[0])) == janet, gens
        under_pivot = len(colon_levels) > before
        on_three = len(gens) > 2 and sum(map(any, zip(*gens))) == 3
        seen["under a four-axis pivot"] += under_pivot
        seen["field-width boundary"] += i >= len(cases) and (on_three or under_pivot)
    assert min(seen.values()) >= 10, seen


def test_hilbert_numerator_on_three_axes_calls_no_janet_helper(monkeypatch):
    """The cross-check stays independent of the Janet route: with minimalize,
    _slices and _janet_numerator made to raise, the pivot still answers on
    three-axis sets, at the top level and under a four-axis pivot."""
    cases = [
        ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
        tuple(_simplex(3, 9)),
        _embed(_simplex(3, 6), (0, 2, 4), 5),
        _embed(_simplex(3, 5), (1, 2, 3), 4) + ((2, 0, 0, 0),),
    ]
    expected = [omega_janet(LeaderSpec(len(gens[0]), 1, {0: gens})).omega for gens in cases]
    colon_levels = _three_axis_colon_levels(monkeypatch)

    def refuse(*args):
        raise AssertionError("the cross-check called a helper of the Janet route")

    for name in ("minimalize", "_slices", "_janet_numerator"):
        monkeypatch.setattr(dimension, name, refuse)
    assert dimension._hilbert_numerator(cases[0]) == _numerator_by_subsets(cases[0])
    for gens, want in zip(cases, expected):
        got = dimension._hilbert_numerator(gens)
        assert NumericalPolynomial.from_numerator(got, len(gens[0])) == want, gens
    assert colon_levels


def test_hilbert_numerator_two_generator_base_case_skips_the_pivot(monkeypatch):
    rng = random.Random(32)
    cases = [((0, 1, 2), (1, 0, 0)), ((0, 0, 0, 1, 1), (2, 1, 1, 0, 0))]
    while len(cases) < 300:
        n = rng.randint(3, 5)
        gens = minimalize(random_index(rng, n, rng.randint(1, 8)) for _ in range(2))
        if len(gens) == 2 and sum(map(any, zip(*gens))) > 2:
            cases.append(gens)
    expected = [_numerator_by_subsets(gens) for gens in cases]
    calls = _count_colons(monkeypatch)
    assert [dimension._hilbert_numerator(gens) for gens in cases] == expected
    assert calls == []


def test_incl_excl_twenty_leaders_of_order_nineteen():
    start = time.perf_counter()
    result = omega_incl_excl(LeaderSpec(2, 1, {0: [(a, 19 - a) for a in range(20)]}))
    elapsed = time.perf_counter() - start
    assert result.omega == NumericalPolynomial((190,))
    assert result.stabilization_bound == 38
    assert elapsed < 5.0, f"took {elapsed:.2f}s against a 5s budget"


def test_internal_disagreement_is_raised(monkeypatch):
    monkeypatch.setattr(dimension, "_hilbert_numerator", _wrong_numerator)
    chain = DiffChain([dvar(0, (1, 0))], plain_ranking(2, 1))
    with pytest.raises(InternalDisagreementError):
        dimension.omega(chain)


def test_omega_checks_every_group_numerator_against_the_janet_polynomial(monkeypatch):
    """On seeded monomial chains in n = 1..4 with up to three indeterminates,
    empty groups and order-0 leaders among them, omega gives the polynomial
    of omega_incl_excl, and one wrong coefficient in the Hilbert numerator
    of any single group raises InternalDisagreementError."""
    rng = random.Random(37)
    right = dimension._hilbert_numerator
    seen_n, empty_groups, order_zero = set(), 0, 0
    for _ in range(150):
        chain = random_monomial_chain(rng, max_n=4, max_m=3, max_gens=4, max_order=3)
        spec = chain.leader_spec
        assert omega(chain).omega == omega_incl_excl(spec).omega
        seen_n.add(spec.num_derivations)
        empty_groups += sum(not gens for gens in spec.generators)
        order_zero += sum(not any(g) for gens in spec.generators for g in gens)
        target = rng.randrange(spec.num_indeterminates)
        calls = []

        def wrong_in_target(gens):
            k = right(gens)
            if len(calls) == target:
                shift = rng.choice(sorted(k) + [rng.randint(0, 8)])
                k = dict(k)
                k[shift] = k.get(shift, 0) + rng.choice((-2, -1, 1, 2))
            calls.append(gens)
            return k

        with monkeypatch.context() as patch:
            patch.setattr(dimension, "_hilbert_numerator", wrong_in_target)
            with pytest.raises(InternalDisagreementError, match="^inclusion-exclusion gave"):
                omega(chain)
        assert len(calls) == spec.num_indeterminates > target
    assert seen_n == {1, 2, 3, 4}
    assert empty_groups and order_zero


def test_omega_degree_and_leading_coefficient_are_birational_invariants(data_dir):
    """The degree and the leading coefficient of ω are differential
    birational invariants ("The differential dimension polynomial for
    characterizable differential ideals", arXiv:1401.5959; for prime ideals,
    Kolchin, "Differential Algebra and Algebraic Groups", 1973).  In each
    file, chain W is chain V after the invertible substitution v -> v - u[1]
    over (t), v -> v - u[1,0] over (x,y), so their ω share the top term; the
    rest need not agree, and the constant term in the binomial basis C(ℓ+i,i)
    does not.  (In powers of ℓ the pde pair differs in ℓ, not in ℓ^0.)"""
    expected = {
        "birational_ode.sys": ("ℓ + 1", "ℓ + 2"),
        "birational_pde.sys": ("(1/2)ℓ^2 + (5/2)ℓ + 2", "(1/2)ℓ^2 + (7/2)ℓ + 2"),
    }
    for name, texts in expected.items():
        chains = parse_system((data_dir / name).read_text(encoding="utf-8")).chains
        v, w = omega(chains["V"]), omega(chains["W"])
        assert (standard_text(v.omega), standard_text(w.omega)) == texts
        assert v.degree == w.degree > 0
        assert v.coefficients[v.degree] == w.coefficients[w.degree]
        assert v.omega.to_standard_basis()[v.degree] == w.omega.to_standard_basis()[w.degree]
        assert v.coefficients[0] != w.coefficients[0]
