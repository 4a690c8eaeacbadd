"""Regenerate bench/cones_pool.json, the leader sets the `cones` workload draws from.

    python3 bench/make_cones_pool.py

Each entry is an antichain of 8 or 9 multi-indices in n=4 with orders 2-8,
drawn from a fixed seed, and kept only when diffdim's Janet completion of it
has between CONES_LO and CONES_HI cones.  Janet time grows about as the cube
of the cone count, and unbanded draws span 5 ms to several seconds, so a
batch of a hundred would be ruled by its few largest members.  The band keeps
every operation's cost within a factor of about two while Janet completion
still does about nine tenths of ω's work.  The larger cases stay covered by
the cliff cases in bench/README.md.

The minimal Janet basis (lattice.minimal_janet_size) never has more cones
than diffdim's completion, so candidates whose minimal basis is already above
the band are skipped without running the slow completion.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from diffdim import janet_complete  # noqa: E402

import lattice  # noqa: E402

POOL_SEED = 20260
POOL_SIZE = 240
CONES_LO, CONES_HI = 40, 50
N = 4
ORDERS = (2, 8)


def scattered_antichain(rng: random.Random, k: int) -> list[tuple[int, ...]] | None:
    """k pairwise incomparable multi-indices of random order in ORDERS, or None
    when the draws keep landing on comparable points."""
    gens: list[tuple[int, ...]] = []
    for _ in range(200):
        q = rng.randint(*ORDERS)
        cuts = sorted(rng.randint(0, q) for _ in range(N - 1))
        mu = tuple(b - a for a, b in zip([0] + cuts, cuts + [q]))
        if any(lattice.dominates(mu, g) or lattice.dominates(g, mu) for g in gens):
            continue
        gens.append(mu)
        if len(gens) == k:
            return sorted(gens)
    return None


def main() -> None:
    rng = random.Random(POOL_SEED)
    pool = []
    tried = 0
    while len(pool) < POOL_SIZE:
        gens = scattered_antichain(rng, 8 + len(pool) % 2)
        if gens is None:
            continue
        tried += 1
        if lattice.minimal_janet_size(gens) > CONES_HI:
            continue
        cones = len(janet_complete(gens, N))
        if CONES_LO <= cones <= CONES_HI:
            pool.append({"generators": [list(g) for g in gens], "janet_cones": cones})
    out = HERE / "cones_pool.json"
    payload = {
        "seed": POOL_SEED,
        "band": [CONES_LO, CONES_HI],
        "candidates_tried": tried,
        "sets": pool,
    }
    out.write_text(json.dumps(payload, indent=None, separators=(",", ":")) + "\n")
    print(f"{len(pool)} sets from {tried} candidates -> {out}")


if __name__ == "__main__":
    main()
