"""Seeded inputs for the three workloads, written as diffdim system files.

Nothing here imports diffdim: the inputs, and what each one must produce,
come from the construction alone.  The same (workload, seed) always yields
the same files, byte for byte.

levels   104 chains u[mu] whose leaders all share one order q: in each block
         of eight, five chains live in n=2 (q in 12..16) and three in n=3
         (q in 4..6); six of the eight have 13 leaders and two 12.  The four
         13-leader chains in n=2 take the middle half of the latency ranks
         and the two in n=3 the top quarter, so the median and the 90th
         percentile each sit in the middle of one kind of chain, away from
         the jump between two.  Most of the work is inclusion-exclusion over
         the 2^k leader subsets.
cones    104 chains drawn from cones_pool.json (8-9 scattered
         antichain leaders in n=4, orders 2-8, Janet bases of 40-50 cones),
         each translated by a seeded vector that keeps every order <= 8.
         Translation leaves Janet completion's work unchanged.
compare  100 files, one pair of nonlinear chains each, in n=2 with a free
         indeterminate v below u.  Every element is I*x + T, linear in its
         leader x = u of order 2 with initial I(v) nonzero, so initials and
         separants are regular by construction.  Per block of 25:
           8 x prolongation {d_xx A, d_xy A, d_yy A} against {A}
             -> OmegaDistinct-ProperlyContained, exit 1
           8 x constant multiples {c_i d_i A} against {d_xx A, d_xy A, d_yy A}
             -> Equal, exit 0
           8 x A*(A+c) against A -> ProperlyContained, exit 1
           1 x A^2 against A, the same four A for every seed
             -> exit 2: the separant 2*I*A is a zero divisor modulo A^2, so
                I(A^2) is the unit ideal, not contained in I(A)
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

LEVEL_SLOTS = ((2, 13), (3, 13), (2, 12), (2, 13), (3, 12), (2, 13), (3, 13), (2, 13))
LEVEL_BATCH = 104
CONES_BATCH = 104
CONES_MAX_ORDER = 8
COMPARE_BLOCK = ("prolong",) * 8 + ("multiple",) * 8 + ("product",) * 8 + ("square",)
COMPARE_BATCH = 100
# The A^2 pairs do not depend on the seed: they fail every time until the
# regularity check lands, and must be the same share of every run.
SQUARE_SEED = 2
DERIVATIONS = "xyzw"


@dataclass(frozen=True)
class MonomialCase:
    """One chain of pure derivatives u[mu]; ω depends on the leaders alone."""

    chain: str
    n: int
    generators: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ComparePair:
    kind: str
    path: Path
    n: int
    smaller_leaders: tuple  # one tuple of multi-indices per indeterminate
    larger_leaders: tuple
    relation: str | None  # None: any relation that exits 2
    exit_code: int


# -- sparse polynomials over Q, for building the compare inputs --------------
# A monomial is a sorted tuple of ((indeterminate, index), exponent) pairs.


def _mono(powers: dict) -> tuple:
    return tuple(sorted((d, e) for d, e in powers.items() if e))


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            powers = dict(m1)
            for d, e in m2:
                powers[d] = powers.get(d, 0) + e
            key = _mono(powers)
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def poly_scale(p: dict, c) -> dict:
    return {m: c * v for m, v in p.items()}


def poly_derive(p: dict, axis: int) -> dict:
    """Leibniz rule for the derivation along one axis."""
    out: dict = {}
    for m, c in p.items():
        for (j, mu), e in m:
            powers = dict(m)
            powers[(j, mu)] -= 1
            bumped = (j, mu[:axis] + (mu[axis] + 1,) + mu[axis + 1 :])
            powers[bumped] = powers.get(bumped, 0) + 1
            key = _mono(powers)
            out[key] = out.get(key, 0) + c * e
    return {m: c for m, c in out.items() if c}


def poly_text(p: dict, names: tuple[str, ...]) -> str:
    parts = []
    for m in sorted(p, reverse=True):
        c = Fraction(p[m])
        factors = [
            f"{names[j]}[{','.join(map(str, mu))}]" + (f"^{e}" if e > 1 else "")
            for (j, mu), e in m
        ]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        sign = "-" if c < 0 else "+"
        parts.append(("-" if c < 0 else "") + body if not parts else f"{sign} {body}")
    return " ".join(parts) if parts else "0"


# -- workloads ---------------------------------------------------------------


def _ring_header(n: int, indeterminates: tuple[str, ...]) -> str:
    return (
        f"ring derivations=({','.join(DERIVATIONS[:n])}) "
        f"indeterminates=({','.join(indeterminates)})\n"
        f"ranking orderly tiebreak=({'<'.join(indeterminates)})\n"
    )


def _compositions(n: int, q: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(q,)]
    return [(a,) + rest for a in range(q + 1) for rest in _compositions(n - 1, q - a)]


def _monomial_files(cases: list[MonomialCase], out_dir: Path, workload: str) -> list[Path]:
    """One system file per derivation count, each holding its chains."""
    paths = []
    for n in sorted({c.n for c in cases}):
        lines = [_ring_header(n, ("u",))]
        for c in cases:
            if c.n == n:
                body = " ".join(f"u[{','.join(map(str, g))}];" for g in c.generators)
                lines.append(f"chain {c.chain} {{ {body} }}\n")
        path = monomial_path(out_dir, workload, n)
        path.write_text("".join(lines))
        paths.append(path)
    return paths


def levels(seed: int, batch: int = LEVEL_BATCH) -> list[MonomialCase]:
    rng = random.Random(f"levels:{seed}")
    cases = []
    for i in range(batch):
        n, k = LEVEL_SLOTS[i % len(LEVEL_SLOTS)]
        q = rng.randint(12, 16) if n == 2 else rng.randint(4, 6)
        gens = sorted(rng.sample(_compositions(n, q), k))
        cases.append(MonomialCase(f"L{i:03d}", n, tuple(gens)))
    return cases


def cones(seed: int, batch: int = CONES_BATCH) -> list[MonomialCase]:
    pool = json.loads((HERE / "cones_pool.json").read_text())["sets"]
    rng = random.Random(f"cones:{seed}")
    cases = []
    for i, entry in enumerate(rng.sample(pool, batch)):
        gens = [tuple(g) for g in entry["generators"]]
        n = len(gens[0])
        shift = [0] * n
        for _ in range(CONES_MAX_ORDER - max(sum(g) for g in gens)):
            if rng.random() < 0.5:
                shift[rng.randrange(n)] += 1
        moved = sorted(tuple(a + b for a, b in zip(g, shift)) for g in gens)
        cases.append(MonomialCase(f"C{i:03d}", n, tuple(moved)))
    return cases


V, U = 0, 1
COMPARE_NAMES = ("v", "u")
LOW_INDICES = ((0, 0), (1, 0), (0, 1))
LEADER_INDICES = ((2, 0), (1, 1), (0, 2))
PROLONG_ORDER = 2
# The i-th pair of each kind in a block uses the i-th tail shape: costs then
# spread evenly over about a factor of four within each kind, the same way
# for every seed, so the median and the 90th percentile sit in a smooth part
# of the latency distribution rather than inside one narrow cluster.
TAIL_SHAPES = ((1, 2), (1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 2, 2, 3), (2, 2, 2, 3),
               (1, 2, 3, 3, 3), (2, 2, 3, 3, 3))
SQUARE_SHAPE = (1, 2, 2, 3)


def _sum_of_terms(rng: random.Random, symbols: list, factor_counts: tuple, coeffs: range) -> dict:
    """One term per entry of factor_counts, each a product of that many distinct
    symbols; drawn again until no two terms share a monomial, so the shape,
    and with it most of the cost, does not depend on the seed."""
    while True:
        terms = [_mono({d: 1 for d in rng.sample(symbols, k)}) for k in factor_counts]
        if len(set(terms)) == len(terms):
            return {m: rng.choice([c for c in coeffs if c]) for m in terms}


def _random_element(rng: random.Random, tail_shape: tuple) -> tuple[dict, tuple[int, int]]:
    """A = I*x + T: x = u of order 2, I a polynomial in v of order <= 1 with a
    linear and a quadratic term, T in u and v below order 2 with one term per
    entry of tail_shape, each a product of that many distinct derivatives."""
    x = rng.choice(LEADER_INDICES)
    v_syms = [(V, mu) for mu in LOW_INDICES]
    low_syms = v_syms + [(U, mu) for mu in LOW_INDICES]
    initial = _sum_of_terms(rng, v_syms, (1, 2), range(-5, 6))
    tail = _sum_of_terms(rng, low_syms, tail_shape, range(-9, 10))
    leader = {(((U, x), 1),): 1}
    return poly_add(poly_mul(initial, leader), tail), x


def _lift(p: dict, theta: tuple[int, ...]) -> dict:
    for axis, times in enumerate(theta):
        for _ in range(times):
            p = poly_derive(p, axis)
    return p


def _pair_file(path: Path, smaller: list[dict], larger: list[dict]) -> None:
    def chain(name, elems):
        body = "".join(f"  {poly_text(p, COMPARE_NAMES)};\n" for p in elems)
        return f"chain {name} {{\n{body}}}\n"

    path.write_text(_ring_header(2, COMPARE_NAMES) + chain("S", smaller) + chain("L", larger))


def compare(seed: int, out_dir: Path, batch: int = COMPARE_BATCH) -> list[ComparePair]:
    rng = random.Random(f"compare:{seed}")
    square_rng = random.Random(f"compare-square:{SQUARE_SEED}")
    pairs = []
    for i in range(batch):
        slot = i % len(COMPARE_BLOCK)
        kind = COMPARE_BLOCK[slot]
        if kind == "square":
            elem, x = _random_element(square_rng, SQUARE_SHAPE)
        else:
            elem, x = _random_element(rng, TAIL_SHAPES[slot % len(TAIL_SHAPES)])
        path = out_dir / f"pair{i:03d}_{kind}.sys"
        base = ((), (x,))
        if kind in ("prolong", "multiple"):
            thetas = _compositions(2, PROLONG_ORDER)
            prolonged = ((), tuple(tuple(a + b for a, b in zip(x, t)) for t in thetas))
            lifts = [_lift(elem, t) for t in thetas]
        if kind == "prolong":
            _pair_file(path, lifts, [elem])
            pairs.append(ComparePair(kind, path, 2, prolonged, base,
                                     "OmegaDistinct-ProperlyContained", 1))
        elif kind == "multiple":
            scaled = [poly_scale(p, rng.choice((2, 3, -1, Fraction(1, 2), -5))) for p in lifts]
            _pair_file(path, scaled, lifts)
            pairs.append(ComparePair(kind, path, 2, prolonged, prolonged, "Equal", 0))
        elif kind == "product":
            c = rng.choice((1, -1, 2, -3, 7))
            _pair_file(path, [poly_mul(elem, poly_add(elem, {(): c}))], [elem])
            pairs.append(ComparePair(kind, path, 2, base, base, "ProperlyContained", 1))
        else:
            _pair_file(path, [poly_mul(elem, elem)], [elem])
            pairs.append(ComparePair(kind, path, 2, base, base, None, 2))
    return pairs


def monomial_path(out_dir: Path, workload: str, n: int) -> Path:
    return out_dir / f"{workload}_n{n}.sys"


def build(workload: str, seed: int, out_dir: Path, batch: int | None = None):
    """Write the workload's files under out_dir and return (cases, files).

    batch, when given, replaces the workload's batch size (quick runs)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "compare":
        pairs = compare(seed, out_dir, batch or COMPARE_BATCH)
        return pairs, [p.path for p in pairs]
    if workload == "levels":
        cases = levels(seed, batch or LEVEL_BATCH)
    else:
        cases = cones(seed, batch or CONES_BATCH)
    return cases, _monomial_files(cases, out_dir, workload)
