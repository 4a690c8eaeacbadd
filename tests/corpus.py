"""Seeded random generators and helpers shared by the test modules."""

from __future__ import annotations

import importlib.util
import os
import pathlib
import random
import subprocess
import sys

from diffdim import DiffChain, DiffPoly, LeaderSpec, Ranking, RingSpec, make_derivative
from diffdim.dimension import minimalize


TESTS = pathlib.Path(__file__).resolve().parent


def bench_module(name: str):
    """bench/<name>.py, loaded from its path once and only read."""
    key = f"diffdim_bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, TESTS.parent / "bench" / f"{name}.py")
        # registered first: a module's dataclasses look themselves up there
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def run_in_fresh_process(script: str, timeout: float | None = None) -> str:
    """Standard output of a Python script run in a new interpreter that
    imports diffdim from src/ and the test modules from tests/; a run past
    timeout seconds raises subprocess.TimeoutExpired."""
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, check=True, timeout=timeout
    )
    return run.stdout.decode("utf-8")


def dvar(j, mu) -> DiffPoly:
    return DiffPoly.variable(make_derivative(j, mu))


def plain_ring(n: int, m: int) -> RingSpec:
    return RingSpec(
        tuple(f"d{i}" for i in range(n)),
        tuple(f"u{j}" for j in range(m)),
    )


def plain_ranking(n: int, m: int) -> Ranking:
    return Ranking.orderly(plain_ring(n, m))


def random_index(rng: random.Random, n: int, max_order: int) -> tuple[int, ...]:
    order = rng.randint(0, max_order)
    cuts = sorted(rng.randint(0, order) for _ in range(n - 1))
    parts = []
    previous = 0
    for cut in cuts + [order]:
        parts.append(cut - previous)
        previous = cut
    return tuple(parts)


def random_leader_spec(
    rng: random.Random, max_n: int = 3, max_m: int = 3, max_gens: int = 4, max_order: int = 4
) -> LeaderSpec:
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    gens = {
        j: [random_index(rng, n, max_order) for _ in range(rng.randint(0, max_gens))]
        for j in range(m)
    }
    return LeaderSpec(n, m, gens)


def acceptance_specs() -> list[LeaderSpec]:
    """The 200 seeded cone systems of the acceptance suite's criterion 5."""
    rng = random.Random(2026)
    return [
        random_leader_spec(rng, max_n=3, max_m=3, max_gens=4, max_order=4) for _ in range(200)
    ]


def random_monomial_chain(
    rng: random.Random, max_n: int = 3, max_m: int = 2, max_gens: int = 3, max_order: int = 3
) -> DiffChain:
    """Chain whose elements are single derivatives.

    Leaders form antichains by construction and every cross-derivation
    obstruction cancels exactly, so these chains always validate.
    """
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    elements = []
    for j in range(m):
        count = rng.randint(0 if elements or j + 1 < m else 1, max_gens)
        gens = minimalize(random_index(rng, n, max_order) for _ in range(count))
        elements.extend(dvar(j, mu) for mu in gens)
    return DiffChain(elements, plain_ranking(n, m))


def random_power_chain(
    rng: random.Random, max_n: int = 2, max_m: int = 3, max_order: int = 3, max_degree: int = 3
) -> DiffChain:
    """One element per indeterminate, of the form derivative**degree - 1.

    Distinct indeterminates never share an obstruction, so coherence holds,
    and the subtracted constant keeps each element squarefree in its leader.
    """
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    elements = []
    for j in range(m):
        mu = random_index(rng, n, max_order)
        degree = rng.randint(1, max_degree)
        elements.append(dvar(j, mu) ** degree - 1)
    return DiffChain(elements, plain_ranking(n, m))
