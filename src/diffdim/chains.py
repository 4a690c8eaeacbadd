"""Differential chains: triangularity, coherence, reduction."""

from __future__ import annotations

import bisect
import functools
import itertools
import operator

from .diffpoly import (
    ConstantPolynomialError,
    Derivative,
    DiffPoly,
    MultiIndex,
    Ranking,
    RingSpec,
    derivative_text,
    is_multi_index,
    is_natural,
    join_indices,
    mul_sub,
    poly_text,
)
from .record import FrozenRecord, Record

REGULARITY_TAG = "unverified-assumed"

_NOTE_TERMS = 64  # the most terms of a remainder that validate's notes spell out


class NotTriangularError(ValueError):
    """Reduction was asked to run against a chain that is not weakly triangular."""


class InvalidChainError(ValueError):
    """The chain failed validation and cannot feed the dimension machinery."""


def minimalize(indices) -> tuple[MultiIndex, ...]:
    """Antichain of the given multi-indices, lex-sorted: the indices that no other one divides,
    each once.

    One scan in lex order decides each index mu against the indices kept before it.  Lex order
    extends the componentwise order, so a divisor of mu comes before it, and a later index never
    divides an earlier one: nu <= mu componentwise with nu != mu puts nu first.  Each index
    dropped has a kept divisor, so mu has a divisor among the earlier indices exactly when it has
    one among the kept ones.

    Two and three entries take one sweep with no divisibility test (Kung, Luccio and Preparata,
    JACM 1975): every earlier index has a first entry at most mu[0], so mu has a divisor exactly
    when some kept index is at most mu on the other entries.  With two, one with an equal first
    entry has a smaller second, so the least second entry kept is that of the last index kept,
    and mu is kept exactly when mu[1] is below it.  With three, mu = (a, b, c), the kept (b', c')
    pairs that no other kept pair lies below form a staircase, b' rising and c' falling, and the
    last pair with b' <= b has the least c' among those pairs; one bisect finds it, and mu is
    kept exactly when that c' exceeds c.  A kept mu then enters the staircase after the pairs
    with b' < b, in place of the run of pairs it lies below, whose c' >= c.  Other lengths take
    the pairwise scan; a trie of staircases, tried for four entries, slowed the groups of eight or
    nine leaders that ω meets in four derivations."""
    unique = sorted(set(map(tuple, indices)))
    kept: list[MultiIndex] = []
    widths = {*map(len, unique)}
    if widths == {2}:
        for mu in unique:
            if not kept or mu[1] < kept[-1][1]:
                kept.append(mu)
    elif widths == {3}:
        bs: list[int] = []
        cs: list[int] = []
        for mu in unique:
            _, b, c = mu
            i = bisect.bisect_right(bs, b)
            if i and cs[i - 1] <= c:
                continue
            kept.append(mu)
            i = j = bisect.bisect_left(bs, b, 0, i)
            while j < len(cs) and cs[j] >= c:
                j += 1
            bs[i:j] = (b,)
            cs[i:j] = (c,)
    else:
        for mu in unique:
            for g in kept:
                if all(map(operator.ge, mu, g)):
                    break
            else:
                kept.append(mu)
    return tuple(kept)


class LeaderSpec(FrozenRecord):
    """Leader cones of a chain, one antichain of multi-indices per indeterminate.

    generators may be given as a mapping from indeterminate to multi-indices or
    as a sequence indexed by indeterminate; it is stored minimalized, one tuple
    per indeterminate.  This constructor checks everything it is given: the two
    counts are positive ints, each indeterminate is in range and each multi-index
    is a tuple of num_derivations naturals, or it raises ValueError.  A chain
    builds its leader_spec through _of instead, from leaders already checked.
    """

    __slots__ = ("num_derivations", "num_indeterminates", "generators")

    def __init__(self, num_derivations: int, num_indeterminates: int, generators=()):
        object.__setattr__(self, "num_derivations", num_derivations)
        object.__setattr__(self, "num_indeterminates", num_indeterminates)
        if not all(is_natural(c) and c > 0 for c in (num_derivations, num_indeterminates)):
            raise ValueError("need at least one derivation and one indeterminate")
        groups: list[tuple[MultiIndex, ...]] = [()] * num_indeterminates
        if generators:
            items = generators.items() if hasattr(generators, "items") else enumerate(generators)
            for j, gens in items:
                if not is_natural(j) or j >= num_indeterminates:
                    raise ValueError(f"bad indeterminate {j!r}")
                gens = tuple(tuple(mu) for mu in gens)
                for mu in gens:
                    if len(mu) != num_derivations or not is_multi_index(mu):
                        raise ValueError(f"bad multi-index {mu}")
                groups[j] = minimalize(gens)
        object.__setattr__(self, "generators", tuple(groups))

    @classmethod
    def _of(cls, num_derivations: int, num_indeterminates: int, groups) -> "LeaderSpec":
        """The spec of groups, a mapping from indeterminate to multi-indices
        that are known to be valid: each key is an indeterminate of the ring and
        each index a tuple of num_derivations naturals, as the leaders of a
        DiffChain are.  It only minimalizes each group, with none of the checks
        of the constructor."""
        out = object.__new__(cls)
        object.__setattr__(out, "num_derivations", num_derivations)
        object.__setattr__(out, "num_indeterminates", num_indeterminates)
        generators = tuple(minimalize(groups.get(j, ())) for j in range(num_indeterminates))
        object.__setattr__(out, "generators", generators)
        return out


def _require_in_ring(found: set[Derivative], ring: RingSpec, what: str) -> None:
    """Raise ValueError naming the least derivative in `found` outside the ring."""
    n, m = ring.num_derivations, ring.num_indeterminates
    outside = [d for d in found if d.indeterminate >= m or len(d.index) != n]
    if outside:
        raise ValueError(
            f"{what} has {min(outside)!r}, outside the ring of "
            f"{m} indeterminates and {n} derivations"
        )


class DiffChain:
    """Ordered finite family of non-constant differential polynomials.

    Every derivative must belong to the ranking's ring; one that does not
    raises ValueError naming the element and the derivative.  Each element is
    read in one pass: its set of derivatives, computed once, decides whether
    it is constant, is checked against the ring one derivative at a time,
    and gives its leader, the only derivative or the highest ranked; the
    partial-reduction check reads the set again.

    Each fact about the elements that validation, reduction and compare read
    is a cached attribute, computed for every element on its first use:
    separants, leader_only, initials, degrees (each element's degree in its
    own leader), by_rank, leader_spec (the leader antichains that ω reads and
    triangularity is decided from), leader_table (the leader index that
    answers which leaders divide a derivative, built at the first such
    question, which validating a triangular chain of pure derivatives never
    asks), the validation report, and the evidence behind its verdict,
    delta_checks and skipped_pairs, built by one scan of every pair when the
    report finds the chain d-triangular.  Lifts fill per-element tables one
    derivative at a time, a leader-only element's in one step per requested
    lift, and reduced obstructions one table of DeltaChecks keyed by pair, so
    each kept pair gets its Δ from delta_polynomial and is reduced once.  All
    of them die with the chain, and none refers back to it.
    """

    def __init__(self, elements, ranking: Ranking):
        elements = tuple(elements)
        ring = ranking.ring
        n, m = ring.num_derivations, ring.num_indeterminates
        derivatives, leaders = [], []
        for i, p in enumerate(elements):
            # a polynomial is constant exactly when it holds no derivative
            found = p.derivatives() if isinstance(p, DiffPoly) else None
            if not found:
                raise ConstantPolynomialError(
                    "chain elements must be non-constant differential polynomials"
                )
            for d in found:
                if d.indeterminate >= m or len(d.index) != n:
                    _require_in_ring(found, ring, f"chain element {i}")
            derivatives.append(found)
            leaders.append(max(found, key=ranking.key) if len(found) > 1 else next(iter(found)))
        vars(self).update(
            elements=elements,
            ranking=ranking,
            _derivatives=tuple(derivatives),
            leaders=tuple(leaders),
            _lifts=tuple({} for _ in elements),
            _checks={},
        )

    def __setattr__(self, name, value):
        raise AttributeError("DiffChain is immutable")

    @property
    def ring(self) -> RingSpec:
        return self.ranking.ring

    def __len__(self):
        return len(self.elements)

    def lift(self, i: int, mu: MultiIndex) -> DiffPoly:
        """Element i derived mu times, built by one derive from the lift one
        step below mu on its first nonzero axis.

        Walks down those steps to the nearest lift already in the table (or
        to the element itself), then derives back up, entering every lift on
        the way; a loop, so the depth of mu is bounded by time alone.  A
        leader-only element c·u[nu] lifts to c·u[nu + mu] directly, entered
        under mu alone, in time independent of mu's order.  A mu missing
        from the table that is not a multi-index of the ring's length raises
        ValueError naming it, and so does an i that is not an int in
        range(len(self))."""
        _require_element(self, i)
        table, path = self._lifts[i], []
        out = table.get(mu)
        if out is None and (len(mu) != self.ring.num_derivations or not is_multi_index(mu)):
            raise ValueError(f"cannot lift element {i} by {mu!r}: not a multi-index of the ring")
        if out is None and self.leader_only[i] and any(mu):
            x = self.leaders[i]
            up = Derivative(x.indeterminate, tuple(map(operator.add, x.index, mu)))
            out = table[mu] = self.separants[i] * DiffPoly.variable(up)
        while out is None:
            first = next(filter(None, mu), 0)
            if not first:
                out = self.elements[i]
                break
            axis = mu.index(first)  # every entry before the first nonzero one is 0
            path.append((mu, axis))
            mu = mu[:axis] + (first - 1,) + mu[axis + 1 :]
            out = table.get(mu)
        for nu, axis in reversed(path):
            out = table[nu] = out.derive(axis)
        return out

    @functools.cached_property
    def separants(self) -> tuple[DiffPoly, ...]:
        return tuple(p.partial(x) for p, x in zip(self.elements, self.leaders))

    @functools.cached_property
    def leader_only(self) -> tuple[bool, ...]:
        """Whether each element is one term c·x of degree 1, x its leader."""
        return tuple(p.is_linear_term() for p in self.elements)

    @functools.cached_property
    def degrees(self) -> tuple[int, ...]:
        """Each element's degree in its own leader."""
        return tuple(p.degree_in(x) for p, x in zip(self.elements, self.leaders))

    @functools.cached_property
    def initials(self) -> tuple[DiffPoly, ...]:
        return tuple(
            p.top_part(x, e, e) for p, x, e in zip(self.elements, self.leaders, self.degrees)
        )

    @functools.cached_property
    def by_rank(self) -> tuple[int, ...]:
        """The element indices in the rank order of their leaders."""
        return tuple(sorted(range(len(self)), key=lambda i: self.ranking.key(self.leaders[i])))

    @functools.cached_property
    def leader_spec(self) -> LeaderSpec:
        """The leaders grouped by indeterminate and minimalized, in one sweep
        per group (see minimalize).

        Minimalizing drops a leader exactly when it is a derivative of
        another one, a copy of it included, so the chain is weakly
        triangular exactly when every leader is kept.  The spec is built by
        LeaderSpec._of, without the public constructor's checks: every
        leader is an interned Derivative, whose index was checked to be a
        tuple of naturals when it was interned, and __init__ checked its
        indeterminate and length against the ring.  It equals
        LeaderSpec(n, m, groups) of the same groups.
        """
        groups: dict[int, list[MultiIndex]] = {}
        for x in self.leaders:
            groups.setdefault(x.indeterminate, []).append(x.index)
        return LeaderSpec._of(self.ring.num_derivations, self.ring.num_indeterminates, groups)

    @functools.cached_property
    def leader_table(self) -> dict[int, list[tuple[list[int], list[int]]]]:
        """The leader index: per indeterminate, per axis a, the entries l_t[a]
        of the leaders t on it in increasing order, and unions, where
        unions[p] is the bit mask of the first p leaders in that order.

        So the leaders whose entry on axis a is at most s are
        unions[bisect_right(entries, s)], and those whose entry is below s
        unions[bisect_left(entries, s)].  One sort per axis builds it; each
        query is then one bisect per axis and a few k-bit operations (see
        _divisors and _witnesses).
        """
        leaders, groups, table = self.leaders, {}, {}
        for t, x in enumerate(leaders):
            groups.setdefault(x.indeterminate, []).append(t)
        for j, ts in groups.items():
            table[j] = []
            for a in range(self.ring.num_derivations):
                ts.sort(key=lambda t: leaders[t].index[a])
                unions = itertools.accumulate((1 << t for t in ts), operator.or_, initial=0)
                table[j].append(([leaders[t].index[a] for t in ts], list(unions)))
        return table

    @functools.cached_property
    def _report(self) -> "ValidationReport":
        return validate(self)

    def _delta_check(self, i: int, k: int) -> "DeltaCheck":
        """Δ of the same-indeterminate pair (i, k), from delta_polynomial, and its reduction,
        made once."""
        check = self._checks.get((i, k))
        if check is None:
            delta = delta_polynomial(self, i, k)
            check = self._checks[i, k] = DeltaCheck(i, k, delta, full_pseudo_reduce(delta, self))
        return check

    @functools.cached_property
    def _obstruction_lists(self) -> tuple[list["DeltaCheck"], list[tuple[int, int, int]]]:
        """delta_checks and skipped_pairs, from one scan of every pair of a d-triangular chain."""
        pairs = list(_obstruction_pairs(self, every=True)) if self._report.triangular else []
        checks = [self._delta_check(i, k) for i, k, via in pairs if via is None]
        return checks, [pair for pair in pairs if pair[2] is not None]

    @property
    def delta_checks(self) -> list["DeltaCheck"]:
        """One DeltaCheck per pair that the chain criterion keeps, in (i, k) order."""
        return self._obstruction_lists[0]

    @property
    def skipped_pairs(self) -> list[tuple[int, int, int]]:
        """(first, second, via) per pair that the chain criterion skips by witness via."""
        return self._obstruction_lists[1]

    def validation_report(self) -> "ValidationReport":
        return self._report

    def require_valid(self) -> None:
        """Raise InvalidChainError with the report's messages unless the
        chain is d-triangular and coherent (see validate)."""
        report = self._report
        if not report.accepted:
            raise InvalidChainError("; ".join(report.messages))


class ReductionTrace(Record):
    """Outcome of full pseudo-reduction, with the log of its steps.

    steps holds one (lead, coefficient, mu, element index) tuple per
    pseudo-division step, in order: the step replaced the remainder r by
    lead*r - coefficient*(the element derived mu times).  Unwound, the log
    is the membership certificate that the tests check,

        prod(lead) * p  ==  remainder + sum(coefficient * (product of the
                            later leads) * element derived mu times).
    """

    __slots__ = ("remainder", "steps")

    def __init__(self, remainder: DiffPoly, steps: tuple[tuple, ...] = ()):
        self.remainder, self.steps = remainder, steps

    @property
    def multipliers(self) -> tuple[tuple[DiffPoly, int], ...]:
        """The leads as (factor, exponent) pairs, one per run of equal leads."""
        runs = itertools.groupby(step[0] for step in self.steps)
        return tuple((lead, sum(1 for _ in run)) for lead, run in runs)


class DeltaCheck(Record):
    """Coherence evidence for one pair of chain elements."""

    __slots__ = ("first", "second", "delta", "trace")

    def __init__(self, first: int, second: int, delta: DiffPoly, trace: ReductionTrace):
        self.first, self.second, self.delta, self.trace = first, second, delta, trace


class ValidationReport(Record):
    """Verdicts of validate, as plain data; the evidence behind them is the
    chain's delta_checks and skipped_pairs.  messages defaults to a new
    empty list."""

    __slots__ = ("triangular", "coherent", "messages", "regularity_of_initials_and_separants")

    def __init__(
        self,
        triangular: bool,
        coherent: bool,
        messages: list[str] | None = None,
        regularity_of_initials_and_separants: str = REGULARITY_TAG,
    ):
        self.triangular, self.coherent = triangular, coherent
        self.messages = [] if messages is None else messages
        self.regularity_of_initials_and_separants = regularity_of_initials_and_separants

    @property
    def accepted(self) -> bool:
        return self.triangular and self.coherent


def _require_element(chain: DiffChain, i) -> None:
    """Raise ValueError naming i unless it is an int in range(len(chain))."""
    if type(i) is not int or not 0 <= i < len(chain.elements):
        raise ValueError(f"no element {i!r} in a chain of {len(chain.elements)} elements")


def delta_polynomial(chain: DiffChain, i: int, j: int) -> DiffPoly | None:
    """Cross-derivation obstruction sep(q)*d^(t-mu) p - sep(p)*d^(t-nu) q
    of the chain's elements p = i and q = j.

    t is the componentwise max of the two leader multi-indices mu and nu.
    Returns None when the leaders live on distinct indeterminates, where no
    common derivative exists.  An i or j that is not an int in
    range(len(chain)) raises ValueError naming it.

    Every pair takes this one path, the chain's delta_checks included; for
    leader-only p = c·u[mu] and q = d·u[nu], mul_sub's proportionality test
    returns d·c·u[t] - c·d·u[t] = 0 without a product, after two one-step
    lifts to t (see DiffChain.lift), in time independent of t's order.
    """
    _require_element(chain, i)
    _require_element(chain, j)
    x, y = chain.leaders[i], chain.leaders[j]
    if x.indeterminate != y.indeterminate:
        return None
    theta = join_indices(x.index, y.index)
    lift_p = chain.lift(i, tuple(map(operator.sub, theta, x.index)))
    lift_q = chain.lift(j, tuple(map(operator.sub, theta, y.index)))
    separants = chain.separants
    return mul_sub(separants[j], lift_p, separants[i], lift_q)


def _triangularity_failures(chain: DiffChain) -> list[str]:
    """The weak-triangularity violations in (i, j) order, leader i a
    derivative of leader j; none exactly when leader_spec kept every leader,
    which a chain of pure derivatives answers without the leader index.
    Otherwise leader i's violations are the elements j != i of its
    _divisors."""
    leaders, names = chain.leaders, chain.ring.indeterminate_names
    if sum(map(len, chain.leader_spec.generators)) == len(leaders):
        return []
    return [
        f"leader {derivative_text(x, names)} of element {i} is a derivative "
        f"of leader {derivative_text(leaders[j], names)} of element {j}"
        for i, x in enumerate(leaders)
        for j in _bits(_divisors(chain, x) & ~(1 << i))
    ]


def _partial_reduction_failures(chain: DiffChain) -> list[str]:
    """One message per derivative of an element that is a proper derivative
    of a leader, for a weakly triangular chain, in (element, derivative) order.

    Such a derivative is not a leader but lies in the cone of a leader of
    its indeterminate.  A leader-only element holds no derivative but its
    leader, so only the others are scanned, and each derivative they hold
    is tested once, before any message is built: it is one exactly when it
    has _divisors."""
    held = [(i, xs) for i, xs in enumerate(chain._derivatives) if not chain.leader_only[i]]
    others = set().union(*(xs for _, xs in held)).difference(chain.leaders)
    proper = {x for x in others if _divisors(chain, x)}
    if not proper:
        return []
    names = chain.ring.indeterminate_names
    return [
        f"element {i} holds {derivative_text(x, names)}, a proper derivative of a leader"
        for i, xs in held
        for x in sorted(xs & proper)
    ]


def _bits(mask: int):
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _divisors(chain: DiffChain, x: Derivative) -> int:
    """Bit mask of the elements whose leader divides x, one bisect per axis
    in the chain's leader_table; 0 when no leader is on x's indeterminate."""
    axes = chain.leader_table.get(x.indeterminate, ())
    out = -1 if axes else 0
    for (entries, unions), s in zip(axes, x.index):
        out &= unions[bisect.bisect_right(entries, s)]
    return out


def _reducer(chain: DiffChain, x: Derivative) -> tuple[int, MultiIndex] | None:
    """First element, in the rank order of leaders, whose leader divides x,
    with the quotient x / leader.

    The divisors come from _divisors.  One divisor is the answer, with no
    ranking: full_pseudo_reduce, the only caller, has refused a chain that
    is not weakly triangular, where a leader's only divisor is its own
    element.  Only several divisors read by_rank."""
    divisors = _divisors(chain, x)
    if not divisors:
        return None
    if divisors & (divisors - 1):
        idx = next(i for i in chain.by_rank if divisors >> i & 1)
    else:
        idx = divisors.bit_length() - 1
    return idx, tuple(map(operator.sub, x.index, chain.leaders[idx].index))


def full_pseudo_reduce(p: DiffPoly, chain: DiffChain) -> ReductionTrace:
    """Ritt full pseudo-reduction of p by the chain.

    Repeatedly takes the highest-ranking derivative x of the remainder that
    is still reducible.  When x is a proper derivative of some leader, the
    matching prolonged element is linear in x with the separant as leading
    coefficient and x is eliminated outright; when x is itself a leader, the
    degree in x is pushed below the chain element's by ordinary
    pseudo-division, multiplying through by the initial.  No derivative
    ranked >= x is ever reintroduced, so the procedure terminates.  The
    derivatives of p are read once, for the ring check and the first step,
    and the remainder's again only after each elimination.  A p that is not
    a DiffPoly raises TypeError.
    """
    if not isinstance(p, DiffPoly):
        raise TypeError(f"p must be a DiffPoly, got {p!r}")
    failures = _triangularity_failures(chain)
    if failures:
        raise NotTriangularError("; ".join(failures))
    found = p.derivatives()
    _require_in_ring(found, chain.ring, "the polynomial to reduce")
    ranking, degrees = chain.ranking, chain.degrees
    r, steps = p, []
    while True:
        for x in sorted(found, key=ranking.key, reverse=True):
            reducer = _reducer(chain, x)
            if reducer is None:
                continue
            idx, sigma = reducer
            if any(sigma) or r.degree_in(x) >= degrees[idx]:
                break
        else:
            return ReductionTrace(r, tuple(steps))
        g = chain.lift(idx, sigma)
        if any(sigma):
            lead, g_degree = chain.separants[idx], 1
        else:
            lead, g_degree = chain.initials[idx], degrees[idx]
        while (d := r.degree_in(x)) >= g_degree:
            coefficient = r.top_part(x, d, g_degree)
            r = mul_sub(lead, r, coefficient, g)
            steps.append((lead, coefficient, sigma, idx))
        found = r.derivatives()


def _witnesses(chain: DiffChain, x: Derivative, y: Derivative) -> int:
    """Mask of the elements j whose leader divides θ = join(x, y), the
    leaders of the pair, while join(x, l_j) and join(l_j, y) lie strictly
    below θ: the chain criterion, from the leader index.

    Leader j divides θ exactly when l_j[a] <= max(x[a], y[a]) on each axis.
    For such j, join(x, l_j) agrees with θ where x >= y, and where y > x it
    reaches θ[a] = y[a] exactly when l_j[a] >= y[a].  So join(x, l_j) < θ
    exactly when l_j[a] < y[a] on some axis where y > x, and join(l_j, y) < θ
    in the mirror case; the three sets are read off the index by bisect.
    When x and y are incomparable, as in a triangular chain, neither pair
    element passes that test, so neither is its own witness.
    """
    divides, lower_y, lower_x = -1, 0, 0
    for (entries, unions), s, t in zip(chain.leader_table[x.indeterminate], x.index, y.index):
        divides &= unions[bisect.bisect_right(entries, max(s, t))]
        if s > t:
            lower_x |= unions[bisect.bisect_left(entries, s)]
        elif s < t:
            lower_y |= unions[bisect.bisect_left(entries, t)]
    return divides & lower_x & lower_y


def _obstruction_pairs(chain: DiffChain, every: bool):
    """(i, k, via) for the same-indeterminate pairs i < k of a triangular
    chain in (i, k) order, via the lowest witness of the chain criterion or
    None when the pair is kept; unless every, only the pairs with an element
    that is not leader-only.

    Those pairs are the only ones visited: a leader-only i is paired with the
    later elements that are not, so with a such elements the loop makes
    O(len(chain)·a) visits, and none at all when a = 0.  Each visit reads the
    chain's leader index in two bisects per axis (see _witnesses), which one
    sort per axis builds, so this visit count bounds the whole loop.  With
    every, all the elements count as such, and every pair is visited."""
    leaders, leader_only = chain.leaders, chain.leader_only
    others = [t for t, only in enumerate(leader_only) if every or not only]
    if not others:
        return
    for i, x in enumerate(leaders):
        later = others[bisect.bisect(others, i) :] if leader_only[i] else range(i + 1, len(leaders))
        for k in later:
            y = leaders[k]
            if x.indeterminate != y.indeterminate:
                continue
            yield i, k, next(_bits(_witnesses(chain, x, y)), None)


def validate(chain: DiffChain) -> ValidationReport:
    """Check d-triangularity and coherence; regularity is assumed, not checked.

    A chain is d-triangular when it is weakly triangular, no leader a
    derivative of another, and partially reduced, no element holding a
    proper derivative of a leader (Hubert, LNCS 2630, 2003); Rosenfeld's
    lemma needs both.  The report's triangular field is this verdict; the
    messages name every weak-triangularity violation, or when there is
    none, every proper derivative of a leader that an element holds.

    Coherence asks every cross-derivation obstruction Δ(p, q) between
    same-indeterminate leaders to pseudo-reduce to zero against the whole
    chain, except the pairs that the chain criterion proves redundant:

    Lemma.  Let p, q, r be elements whose leaders are derivatives θ_p u,
    θ_q u, θ_r u of one indeterminate u, with separants s_p, s_q, s_r, let
    θ_ab be the join of θ_a and θ_b, and φ = θ_pq.  If θ_r divides φ and
    both θ_pr and θ_rq are strictly below φ, then

        s_r·Δ(p,q) = s_q·(φ/θ_pr)Δ(p,r) + s_p·(φ/θ_rq)Δ(r,q)

    modulo derivatives of p, q and r whose leaders lie below φu.

    So Δ(p, q) lies in (A_{<φu}):H_A^∞ once Δ(p, r) and Δ(r, q) do.  Both
    of their joins are proper divisors of φ, so by induction on φ under
    divisibility the checked pairs decide coherence on their own, and the
    skipped pair (p, q) is recorded with r as its witness.  Regularity of
    the initials and separants, assumed everywhere, is used only to equate
    "reduces to zero" with membership.

    The verdict reads only the pairs that can fail.  A pair of two
    leader-only elements, c·u[mu] and d·u[nu], has the obstruction
    d·c·u[t] - c·d·u[t] = 0, kept or skipped, so it never makes a chain
    incoherent, and in the lemma's induction such a witness pair is
    trivially in the ideal.  So validate runs the chain criterion, Δ and
    reduction only on the pairs with an element that is not leader-only, and
    never visits a pair of two leader-only elements: a chain of pure
    derivatives costs no more than finding its leader antichain.  The Δs go
    through the chain's DeltaCheck table, each from delta_polynomial; its
    delta_checks reuse them, and reach a leader-only pair's zero by the same
    path, in two one-step lifts.  The report holds only data.

    Each kept pair is reduced in (i, k) order.  A skipped pair that fails
    is never reduced, so incoherence is reported by a kept pair, which may
    come later in that order.  Its note gives only the term count of a
    remainder of more than _NOTE_TERMS terms, whose text can run to
    megabytes; the whole remainder is on the pair's DeltaCheck.
    """
    failures = _triangularity_failures(chain) or _partial_reduction_failures(chain)
    if failures:
        messages = [*failures, "coherence not evaluated: chain is not triangular"]
        return ValidationReport(triangular=False, coherent=False, messages=messages)
    coherent, messages, names = True, [], chain.ring.indeterminate_names
    for i, k, via in _obstruction_pairs(chain, every=False):
        if via is not None:
            continue
        remainder = chain._delta_check(i, k).trace.remainder
        if not remainder.is_zero():
            coherent = False
            count = len(remainder._terms)  # the term map, read without decoding a monomial
            if count > _NOTE_TERMS:
                shown = f"a nonzero remainder of {count} terms"
            else:
                shown = f"the nonzero remainder {poly_text(remainder, names)}"
            messages.append(f"cross-derivation obstruction of elements {i} and {k} leaves {shown}")
    messages.append("regularity of initials and separants assumed, not verified")
    return ValidationReport(triangular=True, coherent=coherent, messages=messages)
