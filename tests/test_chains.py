import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from diffdim import (
    ConstantPolynomialError,
    Derivative,
    DiffChain,
    DiffPoly,
    InvalidChainError,
    NotTriangularError,
    chains,
    containment_check,
    delta_polynomial,
    full_pseudo_reduce,
    make_derivative,
    membership,
    parse_system,
    validate,
)
from diffdim.cli import run
from diffdim.diffpoly import derivative_text, dominates, iter_indices, join_indices
from diffdim.dimension import LeaderSpec, krull_oracle, minimalize, omega

from corpus import (
    dvar,
    plain_ranking,
    random_index,
    random_monomial_chain,
    random_power_chain,
    run_in_fresh_process,
)


def _chain(polys, n, m):
    return DiffChain(polys, plain_ranking(n, m))


def test_chain_rejects_constant_elements():
    with pytest.raises(ConstantPolynomialError):
        _chain([DiffPoly.constant(3)], 1, 1)
    with pytest.raises(ConstantPolynomialError):
        _chain([dvar(0, (0,)) - dvar(0, (0,))], 1, 1)


def test_chain_rejects_derivative_outside_its_ring():
    """A valid derivative of another ring is the chain's to refuse; invalid
    ones never reach it (see test_polynomials_refuse_invalid_derivatives)."""
    ranking = plain_ranking(2, 1)
    cases = (
        # an index longer than the ring's two derivations, after a valid element
        ([dvar(0, (2, 0)), dvar(0, (0, 1, 2))], "chain element 1 has .*index=\\(0, 1, 2\\)"),
        # an indeterminate beyond the ring's one
        ([dvar(1, (1, 0))], "chain element 0 has .*indeterminate=1"),
        # a lone element, so validation has no pair to reduce
        ([dvar(0, (0, 1, 2))], "chain element 0 has .*index=\\(0, 1, 2\\)"),
        # of two outside the ring, the least is named
        ([dvar(0, (1, 0)) + dvar(1, (0, 0)) + dvar(0, (0,))], "chain element 0 has .*index=\\(0,\\)"),
    )
    for elements, message in cases:
        with pytest.raises(ValueError, match=message):
            DiffChain(elements, ranking)


def test_interning_keeps_numerically_equal_derivatives_apart():
    """1, 1.0 and False are equal numbers, but only the int names an index
    entry.  In a fresh process, the value-equal twins of u[0,1] are refused
    at construction both before and after u[0,1] is interned, alone or
    beside it, so none finds its id, and a refused one adds no id."""
    script = """
from diffdim import Derivative, DiffPoly
from diffdim.diffpoly import _DERIVATIVES
u01 = Derivative(0, (0, 1))
twins = (Derivative(0, (0, 1.0)), Derivative(0, (0.0, 1)), Derivative(0.0, (0, 1)),
         Derivative(0, (False, 1)))
def refuse(*beside):
    for d in twins:
        held = len(_DERIVATIVES)
        try:
            DiffPoly({(*beside, d): 1})
        except ValueError as exc:
            print(exc, len(_DERIVATIVES) - held)
refuse()
DiffPoly.variable(u01)
refuse()
refuse(u01)
print(_DERIVATIVES.count(u01), len(_DERIVATIVES))
"""
    out = run_in_fresh_process(script).splitlines()
    named = ("(0, (0, 1.0))", "(0, (0.0, 1))", "(0.0, (0, 1))", "(0, (False, 1))")
    assert out == [f"invalid derivative {d} 0" for _ in range(3) for d in named] + ["1 1"]


def test_reduction_by_bool_indexed_derivatives_raises_instead_of_looping():
    """An id per type once let u[False,1] match a leader u[0,1] by value
    while its degree, read by id, never fell, so reduction looped forever;
    no polynomial can now hold the bool, so every way into reduction stops
    at construction.  Run in a fresh process with a time limit, so that a
    return of the loop fails the test instead of hanging the suite."""
    script = """
from diffdim import Derivative, DiffChain, DiffPoly, full_pseudo_reduce, make_derivative, membership
from corpus import plain_ranking
u01, b01 = Derivative(0, (0, 1)), Derivative(0, (False, 1))
chain = DiffChain([DiffPoly.variable(u01)], plain_ranking(2, 1))
for call in (
    lambda: make_derivative(0, (False, 1)),
    lambda: DiffChain([DiffPoly.variable(b01)], chain.ranking),
    lambda: full_pseudo_reduce(DiffPoly({(b01,): 1}), chain),
    lambda: membership(DiffPoly.variable(u01) + DiffPoly.variable(b01), chain),
):
    try:
        call()
    except ValueError as exc:
        print(exc)
print(membership(DiffPoly.variable(u01) ** 2, chain))
"""
    out = run_in_fresh_process(script, timeout=60).splitlines()
    assert out == ["invalid derivative (0, (False, 1))"] * 4 + ["True"]


def test_lift_refuses_what_is_not_a_multi_index_of_the_ring():
    """lift once walked a negative entry down forever and derived a short
    mu without complaint; a mu missing from the table must be a multi-index
    of the ring's length.  Run in a fresh process with a time limit, so that
    a walk that never ends fails the test instead of hanging the suite."""
    script = """
from diffdim import DiffChain
from corpus import dvar, plain_ranking
chain = DiffChain([dvar(0, (1, 0))], plain_ranking(2, 1))
for mu in ((0, -1), (1,), (0, 1, 0), (1.0, 0), (True, 0)):
    try:
        chain.lift(0, mu)
    except ValueError as exc:
        print(exc)
print(chain.lift(0, (1, 1)) == dvar(0, (2, 1)))
"""
    out = run_in_fresh_process(script, timeout=60).splitlines()
    bad = ("(0, -1)", "(1,)", "(0, 1, 0)", "(1.0, 0)", "(True, 0)")
    assert out == [f"cannot lift element 0 by {mu}: not a multi-index of the ring" for mu in bad] + [
        "True"
    ]


def test_reduction_rejects_derivative_outside_the_chain_ring():
    chain = _chain([dvar(0, (1, 0))], 2, 1)
    cases = (
        # a longer index, which the componentwise test would truncate to u[1,0]
        (dvar(0, (1, 0, 0)), "index=\\(1, 0, 0\\)"),
        # a shorter one, dividing the leader by the same truncation
        (dvar(0, (1,)), "index=\\(1,\\)"),
        # an indeterminate beyond the ring's one, which the ranking cannot place
        (dvar(1, (1, 0)) + dvar(0, (2, 0)), "indeterminate=1"),
    )
    for p, message in cases:
        for reduce in (full_pseudo_reduce, membership):
            with pytest.raises(ValueError, match="polynomial to reduce has .*" + message):
                reduce(p, chain)


def test_triangularity_detection():
    good = _chain([dvar(0, (1, 0)), dvar(0, (0, 1))], 2, 1)
    assert validate(good).triangular
    bad = _chain([dvar(0, (1, 0)), dvar(0, (2, 0))], 2, 1)
    report = validate(bad)
    assert not report.triangular and not report.accepted
    assert any("derivative of leader" in msg for msg in report.messages)
    dup = _chain([dvar(0, (1, 0)), dvar(0, (1, 0)) + dvar(0, (0, 0))], 2, 1)
    assert not validate(dup).triangular


def test_a_chain_that_is_not_partially_reduced_is_not_triangular(data_dir):
    """P is weakly triangular and coherent, but u[1] in its second element is
    a proper derivative of the leader u[0], so 1 lies in its ideal.  The
    report calls it not triangular; reduction, which needs only weak
    triangularity, still runs."""
    text = (data_dir / "partially_reduced.sys").read_text(encoding="utf-8")
    chain = parse_system(text).chains["P"]
    report = validate(chain)
    assert not report.triangular and not report.coherent
    assert report.messages == [
        "element 1 holds u[1], a proper derivative of a leader",
        "coherence not evaluated: chain is not triangular",
    ]
    with pytest.raises(InvalidChainError, match="proper derivative of a leader"):
        omega(chain)
    assert full_pseudo_reduce(chain.elements[1], chain).remainder.is_zero()
    # a derivative that is another element's leader is not a proper derivative
    fine = parse_system(text.replace("u[1]*v[1] - 1", "v[1] - u[0]")).chains["P"]
    assert validate(fine).accepted


TANGLE = (
    "ring derivations=(t,x) indeterminates=(u,v)\n"
    "ranking orderly tiebreak=(u<v)\n"
    "chain Tangle {\n  u[2,1];\n  u[1,0];\n  u[1,0] + u[0,0];\n"
    "  v[0,2];\n  v[0,1];\n  v[1,1];\n}\n"
)

TANGLE_FAILURES = [
    "leader u[2,1] of element 0 is a derivative of leader u[1,0] of element 1",
    "leader u[2,1] of element 0 is a derivative of leader u[1,0] of element 2",
    "leader u[1,0] of element 1 is a derivative of leader u[1,0] of element 2",
    "leader u[1,0] of element 2 is a derivative of leader u[1,0] of element 1",
    "leader v[0,2] of element 3 is a derivative of leader v[0,1] of element 4",
    "leader v[1,1] of element 5 is a derivative of leader v[0,1] of element 4",
]


def test_triangularity_messages_are_exact(tmp_path, capsys):
    """Every violating ordered pair, in (i, j) order: a leader dominated by two
    others, a duplicate leader reported both ways, and violations by an
    earlier and by a later element on a second indeterminate."""
    chain = parse_system(TANGLE).chains["Tangle"]
    with pytest.raises(NotTriangularError) as info:
        full_pseudo_reduce(chain.elements[0], chain)
    assert str(info.value) == "; ".join(TANGLE_FAILURES)
    not_evaluated = "coherence not evaluated: chain is not triangular"
    assert validate(chain).messages == TANGLE_FAILURES + [not_evaluated]

    path = tmp_path / "tangle.sys"
    path.write_text(TANGLE)
    assert run(["validate", str(path), "--chain", "Tangle"]) == 1
    assert capsys.readouterr().out == (
        "chain Tangle: triangular: no; coherent: no\n"
        "initial/separant regularity: unverified-assumed\n"
        + "".join(f"  note: {m}\n" for m in TANGLE_FAILURES + [not_evaluated])
    )
    assert run(["validate", str(path), "--chain", "Tangle", "--json"]) == 1
    payload = {
        "chain": "Tangle",
        "triangular": False,
        "coherent": False,
        "regularity_of_initials_and_separants": "unverified-assumed",
        "messages": TANGLE_FAILURES + [not_evaluated],
    }
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_delta_polynomial_worked_example():
    p = dvar(0, (1, 0)) ** 2 - dvar(0, (0, 0))
    q = dvar(0, (0, 1))
    assert delta_polynomial(_chain([p, q], 2, 1), 0, 1) == -dvar(0, (0, 1))
    # pure derivative leaders cancel exactly
    pure = _chain([dvar(0, (1, 0)), dvar(0, (0, 1))], 2, 1)
    assert delta_polynomial(pure, 0, 1) == DiffPoly.zero()
    # so do leader-only ones on a chain that is not triangular, u[2,0] being
    # a derivative of u[1,0], as the from-scratch formula gives; no lift is built
    p, q = dvar(0, (1, 0)), 2 * dvar(0, (2, 0))
    tall = _chain([p, q], 2, 1)
    x, y = make_derivative(0, (1, 0)), make_derivative(0, (2, 0))
    assert q.partial(y) * p.derive_multi((1, 0)) - p.partial(x) * q == DiffPoly.zero()
    assert delta_polynomial(tall, 0, 1) == DiffPoly.zero() and not any(tall._lifts)
    # leader-only is one term c*x of degree 1 in the leader x
    u0, u1 = dvar(0, (0,)), dvar(0, (1,))
    shapes = _chain([u1**2, u1 + 1, u0 * u1, 3 * u1, Fraction(-2, 7) * u1, u0 + 0 * u1], 1, 1)
    assert shapes.leader_only == (False, False, False, True, True, True)


def test_delta_polynomial_none_for_distinct_indeterminates():
    assert delta_polynomial(_chain([dvar(0, (1,)), dvar(1, (1,))], 1, 2), 0, 1) is None


def _random_nonlinear_chain(rng, n):
    """Triangular chain in u0, u1 whose elements I*x^e + T have their leaders x
    on u0, pairwise incomparable, with initial I = c*u1 + k and a tail T
    of products of lower-order derivatives, so every pair has an obstruction."""
    ranking = plain_ranking(n, 2)
    candidates = [mu for mu in iter_indices(n, 2) if any(mu)]
    rng.shuffle(candidates)
    leaders, count = [], rng.randint(2, 3)
    for mu in candidates:
        if len(leaders) < count and not any(
            all(a >= b for a, b in zip(mu, nu)) or all(b >= a for a, b in zip(mu, nu))
            for nu in leaders
        ):
            leaders.append(mu)
    elements = []
    for mu in leaders:
        x = dvar(0, mu)
        lower = [dvar(j, nu) for j in (0, 1) for nu in iter_indices(n, sum(mu) - 1)]
        initial = rng.randint(1, 3) * dvar(1, (0,) * n) + rng.choice((-2, 1, 3))
        tail = DiffPoly.constant(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 3)):
            term = DiffPoly.constant(rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(1, 2)):
                term = term * rng.choice(lower)
            tail = tail + term
        elements.append(initial * x ** rng.randint(1, 2) + tail)
    return elements, ranking


def test_chain_lifts_match_derive_multi_in_any_request_order():
    rng = random.Random(71)
    for _ in range(12):
        n = rng.randint(2, 3)
        elements, ranking = _random_nonlinear_chain(rng, n)
        requests = [(i, mu) for i in range(len(elements)) for mu in iter_indices(n, 3)]
        for order in (requests, requests[::-1], rng.sample(requests, len(requests))):
            chain = DiffChain(elements, ranking)
            for i, mu in order:
                assert chain.lift(i, mu) == elements[i].derive_multi(mu), (i, mu)
            # one entry per nonzero multi-index, however the requests ran
            per_element = len(requests) // len(elements) - 1
            assert [len(table) for table in chain._lifts] == [per_element] * len(elements)


def test_validate_deltas_match_from_scratch_obstructions(monkeypatch):
    """Every recorded Δ is s_q·θp − s_p·θq built by derive_multi, on random
    nonlinear chains and on the same chains with every element but one
    replaced by a leader-only c*x, whose pairs get their zero Δ without lifts.
    validate reduces only the kept pairs with a general element; reading
    delta_checks reuses those checks and reduces each leader-only pair once."""
    traces = []
    original = chains.full_pseudo_reduce

    def recording(p, chain):
        traces.append(original(p, chain))
        return traces[-1]

    monkeypatch.setattr(chains, "full_pseudo_reduce", recording)
    rng, pick = random.Random(73), random.Random(74)
    checked, shortcut = 0, 0
    coefficients = itertools.cycle((1, -3, Fraction(2, 7)))
    for _ in range(30):
        nonlinear, ranking = _random_nonlinear_chain(rng, rng.randint(2, 3))
        general = pick.randrange(len(nonlinear))
        mixed = [
            p if k == general else next(coefficients) * DiffPoly.variable(ranking.leader(p))
            for k, p in enumerate(nonlinear)
        ]
        for elements in (nonlinear, mixed):
            chain = DiffChain(elements, ranking)
            assert chain.leader_only == tuple(
                elements is mixed and k != general for k in range(len(elements))
            )
            traces.clear()
            report = validate(chain)
            made = list(traces)
            assert report.triangular and "_evidence" not in vars(report)
            pairs = [(c, chain.leader_only[c.first] and chain.leader_only[c.second])
                     for c in report.delta_checks]
            assert [id(c.trace) for c, zero in pairs if not zero] == list(map(id, made))
            assert len(traces) - len(made) == sum(zero for _, zero in pairs)
            for check in report.delta_checks:
                p, q = elements[check.first], elements[check.second]
                x, y = ranking.leader(p), ranking.leader(q)
                theta = tuple(max(a, b) for a, b in zip(x.index, y.index))
                lift_p = p.derive_multi(tuple(t - a for t, a in zip(theta, x.index)))
                lift_q = q.derive_multi(tuple(t - b for t, b in zip(theta, y.index)))
                sep_p, sep_q = p.partial(x), q.partial(y)
                assert check.delta == sep_q * lift_p - sep_p * lift_q
                checked += 1
                shortcut += chain.leader_only[check.first] and chain.leader_only[check.second]
    assert checked >= 40 and shortcut >= 3


def test_lift_tables_live_on_the_chain(monkeypatch):
    elements, ranking = _random_nonlinear_chain(random.Random(79), 2)
    first = DiffChain(elements, ranking)
    second = DiffChain(elements, ranking)
    assert first.validation_report().delta_checks
    cached = {
        "separants", "degrees", "initials", "by_rank", "leader_spec", "leader_table", "_report"
    }
    assert any(first._lifts) and {"separants", "leader_table", "_report"} <= set(vars(first))
    assert not any(second._lifts) and not cached & set(vars(second))
    full_pseudo_reduce(elements[0].derive_multi((1, 1)), first)
    assert cached <= set(vars(first))
    assert len(first.separants) == len(first.initials) == len(first.degrees) == len(elements)
    assert sorted(first.by_rank) == list(range(len(elements)))
    assert not any(second._lifts) and not cached & set(vars(second))
    # pure derivatives have zero obstructions only, so omega's validation
    # makes no Δ and builds no evidence list, and nothing ranks their leaders
    calls = []
    original = chains.delta_polynomial
    monkeypatch.setattr(
        chains, "delta_polynomial", lambda *args: calls.append(args[1:]) or original(*args)
    )
    staircase = _chain([dvar(0, (i, 3 - i)) for i in range(4)], 2, 1)
    omega(staircase)
    report = staircase.validation_report()
    assert report.accepted and not calls and "_evidence" not in vars(report)
    assert "by_rank" not in vars(staircase)
    # ω and the verdict read leader_spec; no pair needs a witness, so no masks
    assert "leader_spec" in vars(staircase) and "leader_table" not in vars(staircase)
    # reading the lists makes each kept pair's zero Δ, without deriving anything
    assert calls == [(c.first, c.second) for c in report.delta_checks] == [(0, 1), (1, 2), (2, 3)]
    assert not any(staircase._lifts)


def test_coherence_accepts_nontrivial_reduction():
    # obstruction reduces to zero only through the chain itself
    chain = _chain([dvar(0, (2, 0)), dvar(0, (0, 1)) - dvar(0, (0, 0))], 2, 1)
    report = validate(chain)
    assert report.accepted
    assert len(report.delta_checks) == 1
    assert report.delta_checks[0].trace.remainder.is_zero()


def test_coherence_rejects_unreducible_obstruction():
    chain = _chain(
        [dvar(0, (2, 0)) - dvar(0, (0, 0)), dvar(0, (1, 1)) - dvar(0, (0, 0))], 2, 1
    )
    report = validate(chain)
    assert report.triangular and not report.coherent
    assert any("nonzero remainder" in msg for msg in report.messages)


def test_validation_report_carries_regularity_tag():
    chain = _chain([dvar(0, (1,))], 1, 1)
    report = chain.validation_report()
    assert report.regularity_of_initials_and_separants == "unverified-assumed"


def test_full_pseudo_reduce_requires_triangular_chain():
    bad = _chain([dvar(0, (1, 0)), dvar(0, (2, 0))], 2, 1)
    for p in (dvar(0, (0, 0)), DiffPoly.zero()):
        with pytest.raises(NotTriangularError):
            full_pseudo_reduce(p, bad)


def test_full_pseudo_reduce_of_zero():
    chain = _chain([dvar(0, (2, 0)) - dvar(0, (0, 0)), dvar(0, (0, 1))], 2, 1)
    trace = full_pseudo_reduce(DiffPoly.zero(), chain)
    assert trace.remainder == DiffPoly.zero() and trace.multipliers == ()
    assert trace.steps == ()


def test_reduction_examples():
    u0 = dvar(0, (0,))
    squares = _chain([u0 * u0 - u0], 1, 1)
    linear = _chain([u0], 1, 1)
    assert full_pseudo_reduce(u0, squares).remainder == u0
    assert not membership(u0, squares)
    assert membership(u0 * u0 - u0, linear)
    assert membership(DiffPoly.zero(), squares)
    assert not membership(DiffPoly.constant(1), squares)


def test_reduction_eliminates_proper_derivatives():
    # leader u_{1}: order >= 2 disappears, u_{1} itself drops below degree 2
    u0, u1, u2 = dvar(0, (0,)), dvar(0, (1,)), dvar(0, (2,))
    chain = _chain([u1 ** 2 - u0], 1, 1)
    trace = full_pseudo_reduce(u2 * u1 + u0, chain)
    assert trace.remainder == 2 * u0 * u1 + u0
    assert all(d.order <= 1 for d in trace.remainder.derivatives())
    assert trace.remainder.degree_in(Derivative(0, (1,))) == 1
    # differential step multiplied by the separant 2*u_{1}
    assert any(factor == 2 * u1 for factor, _ in trace.multipliers)


def test_membership_rejects_invalid_chain():
    bad = _chain([dvar(0, (1, 0)), dvar(0, (2, 0))], 2, 1)
    with pytest.raises(InvalidChainError):
        membership(dvar(0, (0, 0)), bad)


def _remainder_is_fully_reduced(trace, chain):
    remainder = trace.remainder
    for x in remainder.derivatives():
        for elem, ld in zip(chain.elements, chain.leaders):
            if ld.indeterminate != x.indeterminate:
                continue
            if all(a >= b for a, b in zip(x.index, ld.index)):
                assert x == ld, f"proper derivative {x} of {ld} survived"
                assert remainder.degree_in(x) < elem.degree_in(ld)


def _multiplier_product(trace):
    out = DiffPoly.constant(1)
    for factor, e in trace.multipliers:
        out = out * factor**e
    return out


def _certificate_holds(p, trace, chain):
    """prod(lead) * p == remainder + sum(c * (product of the later leads) * θb),
    unwound from the step log in one backward sweep, with the elements
    derived from scratch rather than read from the chain's lift tables."""
    rhs, later = trace.remainder, DiffPoly.constant(1)
    for lead, coefficient, mu, idx in reversed(trace.steps):
        rhs = rhs + later * coefficient * chain.elements[idx].derive_multi(mu)
        later = later * lead
    assert later == _multiplier_product(trace)
    return later * p == rhs


def test_reduction_invariants_on_random_chains():
    rng = random.Random(101)
    checked = 0
    for _ in range(40):
        chain = random_power_chain(rng) if rng.random() < 0.5 else random_monomial_chain(rng)
        n = chain.ring.num_derivations
        m = chain.ring.num_indeterminates
        p = DiffPoly.zero()
        for _ in range(rng.randint(1, 3)):
            term = DiffPoly.constant(rng.randint(-2, 2))
            for _ in range(rng.randint(1, 2)):
                term = term * dvar(rng.randrange(m), random_index(rng, n, 3))
            p = p + term
        trace = full_pseudo_reduce(p, chain)
        _remainder_is_fully_reduced(trace, chain)
        assert _certificate_holds(p, trace, chain)
        checked += 1
    assert checked == 40


def test_derivatives_of_chain_elements_are_members():
    u0, u1 = dvar(0, (0,)), dvar(0, (1,))
    squares = _chain([u0 * u0 - u0], 1, 1)
    derived = (u0 * u0 - u0).derive(0)
    assert derived == 2 * u0 * u1 - u1
    assert membership(derived, squares)
    # the separant 2*u0 - 1 is saturated away, so u1 itself is a member
    assert membership(u1, squares)
    assert not membership(u1 + u0, squares)
    rng = random.Random(55)
    checked = 0
    for _ in range(30):
        chain = random_power_chain(rng)
        if not validate(chain).accepted:
            continue
        n = chain.ring.num_derivations
        for p in chain.elements:
            for theta in iter_indices(n, 2):
                assert membership(p.derive_multi(theta), chain), (p, theta)
        checked += 1
    assert checked >= 20


def test_oracle_covers_exactly_the_distinct_leader_derivatives():
    rng = random.Random(56)
    for _ in range(25):
        chain = random_monomial_chain(rng)
        ring = chain.ring
        spec = LeaderSpec(
            ring.num_derivations,
            ring.num_indeterminates,
            {
                j: [ld.index for ld in chain.leaders if ld.indeterminate == j]
                for j in range(ring.num_indeterminates)
            },
        )
        bound = rng.randint(0, 5)
        derived = {
            (ld.indeterminate, tuple(a + b for a, b in zip(ld.index, theta)))
            for ld in chain.leaders
            for theta in iter_indices(ring.num_derivations, bound - ld.order)
        }
        everything = ring.num_indeterminates * math.comb(bound + ring.num_derivations, bound)
        assert everything - krull_oracle(spec, bound) == len(derived)


def test_validate_accepts_leaders_of_order_1000_within_budget():
    chain = _chain([dvar(0, (1000, 0)), dvar(0, (0, 1000))], 2, 1)
    start = time.process_time()
    report = validate(chain)
    assert report.accepted
    assert time.process_time() - start < 5


def test_full_pseudo_reduce_lifts_1500_steps_deep():
    chain = _chain([dvar(0, (1, 0))], 2, 1)
    assert full_pseudo_reduce(dvar(0, (1500, 0)), chain).remainder.is_zero()


def _every_pair_failures(chain):
    """The check without the chain criterion: every same-indeterminate pair
    is reduced, and the failing ones are returned in (i, k) order."""
    failing = []
    for i in range(len(chain)):
        for k in range(i + 1, len(chain)):
            delta = delta_polynomial(chain, i, k)
            if delta is not None and not full_pseudo_reduce(delta, chain).remainder.is_zero():
                failing.append((i, k))
    return failing


def _antichain(rng, n, orders, count):
    """count pairwise incomparable multi-indices, each of a total order in orders."""
    pool = [mu for mu in iter_indices(n, max(orders)) if sum(mu) in orders]
    while True:
        rng.shuffle(pool)
        picked = []
        for mu in pool:
            if not any(dominates(mu, nu) or dominates(nu, mu) for nu in picked):
                picked.append(mu)
        if len(picked) >= count:
            return picked[:count]


def _staircase_chain(rng):
    """Regular chain in u0 and a free u1 over n = 2 or 3 derivations, with
    3 leaders on u0 (3-4 when n = 3).  Every element is linear in its leader with a
    constant or c*u1 + k initial.  Half are constant multiples of
    prolongations of one element, whose obstructions all cancel (coherent);
    the rest carry random tails below their leaders, and one prolongation in
    three of the first half gets such a tail as well (mostly incoherent)."""
    n = rng.randint(2, 3)
    ranking = plain_ranking(n, 2)
    initial = rng.choice((DiffPoly.constant(rng.choice((1, -2, 3))),
                          rng.randint(1, 3) * dvar(1, (0,) * n) + rng.choice((-2, 1, 3))))

    def tail(order):
        lower = [dvar(j, nu) for j in (0, 1) for nu in iter_indices(n, order - 1)]
        out = DiffPoly.constant(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 2)):
            term = DiffPoly.constant(rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(1, 2)):
                term = term * rng.choice(lower)
            out = out + term
        return out

    count = 3 if n == 2 else rng.randint(3, 4)
    if rng.random() < 0.5:
        base = rng.choice([mu for mu in iter_indices(n, 1) if any(mu)])
        element = initial * dvar(0, base) + tail(1)
        thetas = _antichain(rng, n, (2,) if n == 2 else (1, 2), count)
        elements = [rng.choice((1, -1, 2)) * element.derive_multi(t) for t in thetas]
        if rng.random() < 1 / 3:
            spot = rng.randrange(len(elements))
            elements[spot] = elements[spot] + tail(1 + sum(thetas[spot]))
    else:
        leaders = _antichain(rng, n, (2,) if n == 2 else (2, 3), count)
        elements = [initial * dvar(0, mu) + tail(sum(mu)) for mu in leaders]
    return DiffChain(elements, ranking)


def test_chain_criterion_agrees_with_the_every_pair_check():
    """The pruned validate and the every-pair check give the same triangular,
    coherent and accepted verdicts on regular chains, and every pair that the
    pruned check finds failing fails the full check too.  The first failing
    pair may differ: a failing pair can be skipped when a later pair in
    (i, k) order witnesses the incoherence."""
    rng = random.Random(2024)
    seen = {"skipped": 0, "coherent": 0, "incoherent": 0, "failures_skipped": 0}
    for _ in range(60):
        chain = _staircase_chain(rng)
        report = validate(chain)
        failing = _every_pair_failures(chain)
        assert report.triangular
        assert report.coherent == (not failing)
        assert report.accepted == (not failing)
        pruned = [(c.first, c.second) for c in report.delta_checks
                  if not c.trace.remainder.is_zero()]
        assert set(pruned) <= set(failing)
        leaders = chain.leaders
        for i, k, j in report.skipped_pairs:
            assert j not in (i, k)
            assert leaders[i].indeterminate == leaders[j].indeterminate == leaders[k].indeterminate
            theta = join_indices(leaders[i].index, leaders[k].index)
            for a, b in ((i, j), (j, k)):
                below = join_indices(leaders[a].index, leaders[b].index)
                assert dominates(theta, below) and below != theta
        seen["skipped"] += bool(report.skipped_pairs)
        seen["coherent" if report.coherent else "incoherent"] += 1
        seen["failures_skipped"] += len(set(failing) - set(pruned)) > 0
    assert all(seen.values()), seen


def _implied_by(leaders, i, k):
    """The chain criterion by its definition, as a scan: the first element j
    on the indeterminate of i and k whose leader divides theta = join(i, k)
    while join(i, j) and join(j, k) have lower order than theta, or None."""
    x, y = leaders[i].index, leaders[k].index
    theta = join_indices(x, y)
    for j, z in enumerate(leaders):
        if j in (i, k) or z.indeterminate != leaders[i].indeterminate:
            continue
        if (sum(join_indices(x, z.index)) < sum(theta) > sum(join_indices(z.index, y))
                and dominates(theta, z.index)):
            return j
    return None


def _reference_validation(chain):
    """(triangularity failures, skipped pairs, kept pairs) of a chain, each
    in (i, j) or (i, k) order, read off the leaders one pair at a time."""
    leaders, names = chain.leaders, chain.ring.indeterminate_names
    failures = [
        f"leader {derivative_text(x, names)} of element {i} is a derivative "
        f"of leader {derivative_text(y, names)} of element {j}"
        for i, x in enumerate(leaders)
        for j, y in enumerate(leaders)
        if j != i and x.indeterminate == y.indeterminate and dominates(x.index, y.index)
    ]
    if failures:
        return failures, [], []
    skipped, kept = [], []
    for i in range(len(leaders)):
        for k in range(i + 1, len(leaders)):
            if leaders[i].indeterminate != leaders[k].indeterminate:
                continue
            via = _implied_by(leaders, i, k)
            if via is None:
                kept.append((i, k))
            else:
                skipped.append((i, k, via))
    return failures, skipped, kept


def _random_leader_chain(rng):
    """Pure-derivative chain in n = 1-4, m = 1-3 with at most 12 elements, in
    a shuffled order: half of them antichains on each indeterminate (so the
    chain is triangular), the rest free leaders, some of them repeated."""
    n, m = rng.randint(1, 4), rng.randint(1, 3)
    max_order = rng.randint(1, 5)
    elements = []
    if rng.random() < 0.5:
        for j in range(m):
            low = rng.randint(1, 4)
            pool = [mu for mu in iter_indices(n, low + 2) if sum(mu) >= low]
            picked = rng.sample(pool, min(len(pool), rng.randint(1, 12 // m)))
            elements += [dvar(j, mu) for mu in minimalize(picked)]
    else:
        for _ in range(rng.randint(1, 12)):
            repeat = elements and rng.random() < 0.2
            elements.append(rng.choice(elements) if repeat
                            else dvar(rng.randrange(m), random_index(rng, n, max_order)))
    rng.shuffle(elements)
    return _chain(elements, n, m)


def test_chain_criterion_masks_match_the_scan_by_definition():
    rng = random.Random(4208)
    seen = {"not triangular": 0, "skipped": 0, "kept": 0}
    for _ in range(600):
        chain = _random_leader_chain(rng)
        failures, skipped, kept = _reference_validation(chain)
        report = validate(chain)
        assert report.triangular == (not failures)
        if failures:
            assert report.messages == failures + [
                "coherence not evaluated: chain is not triangular"
            ]
        assert report.skipped_pairs == skipped
        assert [(c.first, c.second) for c in report.delta_checks] == kept
        seen["not triangular"] += bool(failures)
        seen["skipped"] += bool(skipped)
        seen["kept"] += bool(kept)
    assert min(seen.values()) >= 50, seen


def test_staircase_of_400_leaders_keeps_its_consecutive_pairs():
    size = 400
    report = validate(_chain([dvar(0, (i, size - 1 - i)) for i in range(size)], 2, 1))
    assert report.accepted
    assert [(c.first, c.second) for c in report.delta_checks] == [
        (i, i + 1) for i in range(size - 1)
    ]
    # every element strictly between i and k is a witness; the lowest is kept
    assert report.skipped_pairs == [
        (i, k, i + 1) for i in range(size) for k in range(i + 2, size)
    ]


def test_validate_reduces_each_kept_pair_once_and_no_skipped_pair(monkeypatch):
    calls = []
    original = chains.delta_polynomial

    def recording(chain, i, k):
        calls.append((i, k))
        return original(chain, i, k)

    monkeypatch.setattr(chains, "delta_polynomial", recording)
    chain = _chain([dvar(0, (2, 0)), dvar(0, (1, 1)), dvar(0, (0, 2)), dvar(1, (1, 0))], 2, 2)
    report = validate(chain)
    assert calls == []  # every pair is leader-only: the lists are built when read
    assert report.skipped_pairs == [(0, 2, 1)]
    assert calls == [(c.first, c.second) for c in report.delta_checks] == [(0, 1), (1, 2)]


def _chain_families(data_dir):
    """Lists of chains over one ranking: the chains of each tests/data file,
    then seeded random nonlinear, staircase and power chains grouped by
    their ranking."""
    for path in sorted(data_dir.glob("*.sys")):
        yield list(parse_system(path.read_text(encoding="utf-8")).chains.values())
    rng = random.Random(89)
    families: dict = {}
    for _ in range(12):
        for chain in (
            DiffChain(*_random_nonlinear_chain(rng, rng.randint(2, 3))),
            _staircase_chain(rng),
            random_power_chain(rng),
        ):
            families.setdefault(chain.ranking, []).append(chain)
    yield from families.values()


def test_every_reduction_the_library_makes_has_a_certificate(data_dir):
    """The trace of every obstruction that validate reduces, and of every
    element of one chain reduced by each triangular chain over the same
    ranking, unwinds to its certificate."""
    seen = {"obstructions": 0, "elements": 0, "steps": 0}
    for family in _chain_families(data_dir):
        for chain in family:
            for check in chain.validation_report().delta_checks:
                assert _certificate_holds(check.delta, check.trace, chain)
                seen["obstructions"] += 1
                seen["steps"] += len(check.trace.steps)
        for reducer in (c for c in family if c.validation_report().triangular):
            for chain in family:
                for p in chain.elements:
                    trace = full_pseudo_reduce(p, reducer)
                    assert _certificate_holds(p, trace, reducer)
                    seen["elements"] += 1
                    seen["steps"] += len(trace.steps)
    assert seen["obstructions"] >= 50 and seen["elements"] >= 500 and seen["steps"] >= 500, seen


def test_containment_reductions_have_certificates(monkeypatch, data_dir):
    """Every reduction containment_check makes on the chain pairs of
    prolong_pair.sys and pde_pair.sys unwinds to its certificate, the
    steps whose lead·r − c·θb is exactly zero included."""
    families = [
        list(parse_system((data_dir / name).read_text(encoding="utf-8")).chains.values())
        for name in ("prolong_pair.sys", "pde_pair.sys")
    ]
    for chain in itertools.chain(*families):
        chain.validation_report()  # cached, so validate's own reductions are not recorded
    made = []
    original = chains.full_pseudo_reduce

    def recording(p, chain):
        made.append((p, chain, original(p, chain)))
        return made[-1][2]

    monkeypatch.setattr(chains, "full_pseudo_reduce", recording)
    for family in families:
        for smaller, larger in itertools.permutations(family, 2):
            containment_check(smaller, larger)
    steps = 0
    for p, chain, trace in made:
        assert _certificate_holds(p, trace, chain)
        steps += len(trace.steps)
    # S by A in prolong_pair.sys and S2 by S1 in pde_pair.sys: one step and
    # a zero remainder per element
    assert steps == 4 and sum(trace.remainder.is_zero() for *_, trace in made) == 4, made
