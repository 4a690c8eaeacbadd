"""Acceptance gate: nine criteria, one PASS/FAIL line each (run with -s to see them).

Each criterion re-derives its expected values through the public API and the
brute-force counting oracle, then checks its own runtime budget.
"""

import io
import itertools
import math
import random
import time
from contextlib import redirect_stdout

from diffdim import (
    LeaderSpec,
    NumericalPolynomial,
    Ordering,
    Ranking,
    Relation,
    compare_ideals,
    krull_oracle,
    make_derivative,
    normalize_leaders,
    omega,
    omega_incl_excl,
    omega_janet,
    parse_system,
)
from diffdim.cli import run
from diffdim.diffpoly import iter_indices, shift_derivative

from corpus import acceptance_specs, plain_ring, random_index, random_leader_spec


def _report(num, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} {label}: {status} ({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, label
    assert elapsed < budget, f"{label} exceeded its {budget}s budget"


def _oracle_matches(result, spec, orders):
    return all(result.omega.eval(ell) == krull_oracle(spec, ell) for ell in orders)


def test_criterion_1_pde_pair(data_dir):
    start = time.perf_counter()
    system = parse_system((data_dir / "pde_pair.sys").read_text())
    ok = omega(system.chains["S1"]).coefficients == (0, 1, 0)
    ok &= omega(system.chains["S2"]).coefficients == (1, 1, 0)
    sink = io.StringIO()
    with redirect_stdout(sink):
        code = run(
            [
                "compare",
                str(data_dir / "pde_pair.sys"),
                "--smaller",
                "S2",
                "--larger",
                "S1",
                "--assert-containment",
            ]
        )
    ok &= code == 1
    ok &= "relation: OmegaDistinct-ProperlyContained" in sink.getvalue()
    _report(1, "prolonged pde pair, omega l+1 vs l+2", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_burgers(data_dir):
    start = time.perf_counter()
    chain = parse_system((data_dir / "burgers.sys").read_text()).chains["B"]
    result = omega(chain)
    ok = result.omega == NumericalPolynomial((-1, 2, 0))
    ok &= result.degree == 1
    ok &= result.differential_dimension == 0
    ok &= _oracle_matches(result, normalize_leaders(chain), range(2, 13))
    _report(2, "burgers omega 2l+1 with oracle on [2,12]", ok, time.perf_counter() - start, 1.0)


def test_criterion_3_square_vs_linear(data_dir):
    start = time.perf_counter()
    system = parse_system((data_dir / "square_vs_linear.sys").read_text())
    squares, linear = system.chains["Ssq"], system.chains["Slin"]
    ok = omega(squares).omega == NumericalPolynomial([0])
    ok &= omega(linear).omega == NumericalPolynomial([0])
    verdict = compare_ideals(squares, linear)
    ok &= verdict.relation is Relation.PROPERLY_CONTAINED
    ok &= verdict.leader_report == {make_derivative(0, (0,)): (2, 1)}
    _report(3, "equal omega split by leader degrees 2 vs 1", ok, time.perf_counter() - start, 1.0)


def test_criterion_4_ode_pair(data_dir):
    start = time.perf_counter()
    chain = parse_system((data_dir / "ode_pair.sys").read_text()).chains["S"]
    ok = chain.validation_report().accepted
    result = omega(chain)
    ok &= result.omega == NumericalPolynomial((2,))
    ok &= result.differential_dimension == 0
    ok &= _oracle_matches(result, normalize_leaders(chain), range(1, 11))
    _report(4, "first-order ode pair, constant omega 2", ok, time.perf_counter() - start, 1.0)


_CORPUS = None


def _corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = [(spec, omega_incl_excl(spec), omega_janet(spec)) for spec in acceptance_specs()]
    return _CORPUS


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for spec, incl, janet in _corpus():
        ok &= incl.omega == janet.omega
        for result in (incl, janet):
            first = result.stabilization_bound
            ok &= _oracle_matches(result, spec, range(first, first + 7))
    _report(5, "200 random cone systems, both routes == oracle", ok, time.perf_counter() - start, 60.0)


def test_criterion_6_bounds():
    # below the stabilization bound only the counting function is constrained;
    # the polynomial itself can overshoot there (leaders {(0,)} and {(3,)} with
    # n=1, m=2 give the constant 3 against the cap 2 at l=0)
    start = time.perf_counter()
    ok = True
    for spec, incl, janet in _corpus():
        n, m = spec.num_derivations, spec.num_indeterminates
        poly = janet.omega
        ok &= len(poly.coeffs) == n + 1
        ok &= poly.degree <= n
        ok &= 0 <= poly.coeffs[n] <= m
        top = max(incl.stabilization_bound, janet.stabilization_bound)
        for ell in range(0, top + 7):
            cap = m * math.comb(ell + n, n)
            ok &= 0 <= krull_oracle(spec, ell) <= cap
            if ell >= top:
                ok &= 0 <= poly.eval(ell) <= cap
    _report(6, "0 <= omega <= full count, degree <= n, 0 <= a_n <= m", ok, time.perf_counter() - start, 60.0)


def test_criterion_7_monotonicity():
    start = time.perf_counter()
    rng = random.Random(77)
    ok = True
    for _ in range(100):
        spec = random_leader_spec(rng)
        n, m = spec.num_derivations, spec.num_indeterminates
        groups = {j: list(gens) for j, gens in enumerate(spec.generators)}
        groups[rng.randrange(m)].append(random_index(rng, n, 4))
        enlarged = LeaderSpec(n, m, groups)
        relation = omega_janet(enlarged).omega.compare(omega_janet(spec).omega)
        ok &= relation in (Ordering.LESS, Ordering.EQUAL)
    _report(7, "100 pairs: extra generator never raises omega", ok, time.perf_counter() - start, 30.0)


def test_criterion_8_symmetry():
    start = time.perf_counter()
    rng = random.Random(88)
    ok = True
    for _ in range(50):
        spec = random_leader_spec(rng)
        n, m = spec.num_derivations, spec.num_indeterminates
        axes = list(range(n))
        indets = list(range(m))
        rng.shuffle(axes)
        rng.shuffle(indets)
        groups = {
            indets[j]: [tuple(mu[axes[i]] for i in range(n)) for mu in gens]
            for j, gens in enumerate(spec.generators)
        }
        permuted = LeaderSpec(n, m, groups)
        ok &= omega_janet(permuted).omega == omega_janet(spec).omega
    _report(8, "50 axis/indeterminate permutations leave omega fixed", ok, time.perf_counter() - start, 30.0)


def test_criterion_9_ranking_axioms():
    start = time.perf_counter()
    ok = True
    for n, m in itertools.product((1, 2, 3), (1, 2)):
        ranking = Ranking.orderly(plain_ring(n, m))
        derivs = [
            make_derivative(j, mu) for j in range(m) for mu in iter_indices(n, 4)
        ]
        keys = {x: ranking.key(x) for x in derivs}
        ok &= len(set(keys.values())) == len(derivs)
        shifted = {
            (x, i): ranking.key(shift_derivative(x, i))
            for x in derivs
            for i in range(n)
        }
        # strictly below every proper derivative of itself
        ok &= all(keys[x] < shifted[x, i] for x in derivs for i in range(n))
        by_rank = sorted(derivs, key=keys.get)
        # orderly: rank order refines total order
        ok &= all(
            a.order <= b.order for a, b in zip(by_rank, by_rank[1:])
        )
        for a, b in itertools.combinations(by_rank, 2):
            # derivation preserves the ranking
            ok &= all(shifted[a, i] < shifted[b, i] for i in range(n))
            if not ok:
                break
    _report(9, "exhaustive ranking axioms to order 4", ok, time.perf_counter() - start, 10.0)
