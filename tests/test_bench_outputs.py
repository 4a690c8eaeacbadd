"""One SHA-256 over the CLI's outputs on the benchmark's nonlinear inputs.

The seed-1 files of the `compare` workload (bench/inputs.py, loaded from its
path and only read) are written into a temporary directory.  On each file
four in-process `cli.run` calls are made: `compare --json` in both
directions and `validate --explain --json` on both chains.  Their exit
codes, stdout and stderr, with the directory replaced by a placeholder, are
hashed together.  The 4 A^2-against-A pairs per 100 get the known wrong
verdict (ROADMAP item 3); they are pinned as they are, so fixing them
changes the digest on purpose.

Print the digest of the current code with

    PYTHONPATH=src python tests/test_bench_outputs.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

from diffdim.cli import run

from corpus import bench_module

SEED = 1
PLACEHOLDER = "<dir>"
DIGEST = "460a81f4ffcedb3844f214cac80b057825eb1bebe5ca322b5e8640c590ffea0d"


def _argvs(path: pathlib.Path):
    for smaller, larger in (("S", "L"), ("L", "S")):
        yield ["compare", str(path), "--smaller", smaller, "--larger", larger, "--json"]
    for chain in ("S", "L"):
        yield ["validate", str(path), "--chain", chain, "--explain", "--json"]


def outputs_digest(work_dir: pathlib.Path) -> tuple[str, int]:
    """(SHA-256 hex digest, number of calls) over the seed's compare files."""
    pairs = bench_module("inputs").compare(SEED, work_dir)
    digest, calls = hashlib.sha256(), 0
    for pair in pairs:
        for argv in _argvs(pair.path):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            record = [argv[0], pair.path.name, *argv[2:], code, out.getvalue(), err.getvalue()]
            text = json.dumps(record, ensure_ascii=False).replace(str(work_dir), PLACEHOLDER)
            digest.update(text.encode("utf-8") + b"\n")
            calls += 1
    return digest.hexdigest(), calls


def test_outputs_on_bench_compare_inputs_are_pinned(tmp_path):
    assert outputs_digest(tmp_path) == (DIGEST, 400)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        print(*outputs_digest(pathlib.Path(work)))
