"""Tests of the benchmark itself.

    python3 -m pytest bench        (or: python3 -m unittest discover -s bench)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import lattice  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


class SeedTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in ("levels", "cones", "compare"):
                first, second, other = (Path(tmp) / f"{workload}-{i}" for i in range(3))
                inputs.build(workload, 7, first)
                inputs.build(workload, 7, second)
                inputs.build(workload, 8, other)
                self.assertEqual(_files(first), _files(second), workload)
                self.assertNotEqual(_files(first), _files(other), workload)

    def test_square_pairs_do_not_depend_on_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, _ = inputs.build("compare", 1, Path(tmp) / "a")
            b, _ = inputs.build("compare", 2, Path(tmp) / "b")
            squares = [(p.path.read_text(), q.path.read_text())
                       for p, q in zip(a, b) if p.kind == "square"]
            self.assertEqual(len(squares), inputs.COMPARE_BATCH // len(inputs.COMPARE_BLOCK))
            for left, right in squares:
                self.assertEqual(left, right)


class LatticeTests(unittest.TestCase):
    # Hand-derived ω of tests/data, as functions of the order ℓ.
    HAND = {
        ("burgers.sys", "B"): lambda l: 2 * l + 1,
        ("pde_pair.sys", "S1"): lambda l: l + 1,
        ("pde_pair.sys", "S2"): lambda l: l + 2,
        ("ode_pair.sys", "S"): lambda l: 2,
    }

    def test_lattice_count_reproduces_hand_derived_omega(self):
        from diffdim import parse_system

        for (name, chain_name), omega in self.HAND.items():
            system = parse_system((ROOT / "tests" / "data" / name).read_text())
            chain = system.chains[chain_name]
            n = chain.ring.num_derivations
            groups = [[ld.index for ld in chain.leaders if ld.indeterminate == j]
                      for j in range(chain.ring.num_indeterminates)]
            orders = list(lattice.check_points(groups, n))
            for order in range(orders[0], orders[-1] + 4):
                self.assertEqual(lattice.free_count(groups, n, order), omega(order),
                                 f"{name} {chain_name} at order {order}")

    def test_omega_matches_rejects_a_wrong_polynomial(self):
        # burgers: 2ℓ+1 = -1 + 2·C(ℓ+1,1)
        self.assertTrue(lattice.omega_matches((-1, 2, 0), [[(0, 2)]], 2))
        self.assertFalse(lattice.omega_matches((0, 2, 0), [[(0, 2)]], 2))


class SchemaTests(unittest.TestCase):
    def test_schema_rejects_an_unknown_key(self):
        schema = json.loads((ROOT / "src/diffdim/schemas/compare_verdict.schema.json").read_text())
        poly = {"binomial_coeffs": [1], "standard_coeffs": ["1"], "degree": 0}
        verdict = {
            "relation": "Equal", "containment": "established",
            "omega_smaller": poly, "omega_larger": poly, "leader_report": {},
            "degree_products": [1, 1], "assumed_relation": None,
        }
        checks.validate_schema(verdict, schema)
        with self.assertRaises(checks.SchemaError):
            checks.validate_schema({**verdict, "extra": 1}, schema)
        with self.assertRaises(checks.SchemaError):
            checks.validate_schema({**verdict, "relation": "Same"}, schema)


class QuickRunTests(unittest.TestCase):
    def _result(self, *args: str) -> dict:
        proc = _run("--workload", "all", "--quick", *args)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_quick_run_checks_every_workload(self):
        result = self._result("--trace", "0")
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 8 + 8 + len(inputs.COMPARE_BLOCK))
        self.assertEqual(result["failed"], 1)  # the one A^2-vs-A pair
        expected = {f"{w['name']}.{m['name']}" for w in BENCHMARK["workloads"]
                    for m in BENCHMARK["end_to_end"]}
        self.assertEqual(set(result["metrics"]), expected)

    def test_quick_traced_run_reports_every_layer(self):
        result = self._result("--trace", "1")
        self.assertTrue(result["correct"])
        expected = {f"{w['name']}.{m['name']}" for w in BENCHMARK["workloads"]
                    for m in BENCHMARK["per_layer"]}
        self.assertEqual(set(result["metrics"]), expected)
        self.assertGreater(result["metrics"]["compare.chains.reduction_steps"]["value"], 0)
        self.assertGreater(result["metrics"]["cones.dimension.janet_cones"]["value"], 0)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = _run("--workload", "levels", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
