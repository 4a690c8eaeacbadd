"""Reference figures outside the timed workloads, each case in its own process.

    python3 bench/cliffs.py

Prints, as wall-clock milliseconds:
  - interpreter start-up alone, and start-up plus `import diffdim.cli`;
  - `diffdim compare tests/data/pde_pair.sys --smaller S2 --larger S1 --json`
    as a subprocess (what the compare workload's cli.subprocess_ms measures,
    on the repository's own example);
then runs each ω cliff case once, stopping it after TIMEOUT_S seconds:
  - incl_excl_20: omega_incl_excl on the 20 leaders of order 19 in n=2;
  - janet_12 and janet_17: omega_janet on 12 and 17 seeded antichain
    leaders in n=4 with orders 1-12.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import lattice  # noqa: E402

REPEATS = 5
TIMEOUT_S = 120
CLIFF_SEED = 4


def antichain(k: int, n: int, max_order: int) -> list[tuple[int, ...]]:
    rng = random.Random(f"cliff:{CLIFF_SEED}:{k}")
    gens: list[tuple[int, ...]] = []
    while len(gens) < k:
        mu = tuple(rng.randint(0, max_order) for _ in range(n))
        if not 1 <= sum(mu) <= max_order:
            continue
        if any(lattice.dominates(mu, g) or lattice.dominates(g, mu) for g in gens):
            continue
        gens.append(mu)
    return sorted(gens)


CASES = {
    "incl_excl_20": ("omega_incl_excl", 2, [(a, 19 - a) for a in range(20)]),
    "janet_12": ("omega_janet", 4, antichain(12, 4, 12)),
    "janet_17": ("omega_janet", 4, antichain(17, 4, 12)),
}


def run_case(name: str) -> None:
    import diffdim

    route, n, gens = CASES[name]
    spec = diffdim.LeaderSpec(n, 1, {0: gens})
    t0 = time.perf_counter()
    result = getattr(diffdim, route)(spec)
    elapsed = time.perf_counter() - t0
    cones = f", {len(result.janet_cones)} cones" if result.janet_cones else ""
    print(f"{name}: {route} on {len(gens)} leaders in n={n}: {elapsed:.2f} s{cones}")


def wall_ms(argv: list[str]) -> float:
    """Median wall time of a new process; its exit code is not looked at, as
    compare's exit code is its verdict."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=60, check=False)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", choices=sorted(CASES))
    args = parser.parse_args()
    if args.case:
        run_case(args.case)
        return 0
    py = sys.executable
    print(f"interpreter start-up: {wall_ms([py, '-c', 'pass']):.1f} ms (median of {REPEATS})")
    print(f"start-up + import diffdim.cli: {wall_ms([py, '-c', 'import diffdim.cli']):.1f} ms")
    pde = [py, "-c", "import sys; from diffdim.cli import main; main()", "compare",
           "tests/data/pde_pair.sys", "--smaller", "S2", "--larger", "S1", "--json"]
    print(f"diffdim compare pde_pair.sys subprocess: {wall_ms(pde):.1f} ms")
    for name in CASES:
        try:
            proc = subprocess.run([py, __file__, "--case", name], capture_output=True,
                                  text=True, timeout=TIMEOUT_S, check=True)
            print(proc.stdout.strip())
        except subprocess.TimeoutExpired:
            print(f"{name}: did not finish within {TIMEOUT_S} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
