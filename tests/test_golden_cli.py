"""Golden outputs of the diffdim CLI on every chain of every tests/data file.

Each case records the exit code, stdout and stderr of one `cli.run` call:
`validate` (plain, --json, --explain, --explain --json), `omega` (plain,
--json) and `oracle --max-order 6` (plain, --json) per chain, and `compare`
(plain, --json, each with and without --assert-containment) on every
ordered pair of distinct chains within a file.  The data directory in
stderr is replaced by DATA_PLACEHOLDER.

Regenerate the expectations, after checking that a change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from diffdim import parse_system
from diffdim.cli import run

from corpus import run_in_fresh_process

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden_cli.json"
DATA_PLACEHOLDER = "<data>"

_CHAIN_FLAGS = [
    ("validate", []),
    ("validate", ["--json"]),
    ("validate", ["--explain"]),
    ("validate", ["--explain", "--json"]),
    ("omega", []),
    ("omega", ["--json"]),
    ("oracle", ["--max-order", "6"]),
    ("oracle", ["--max-order", "6", "--json"]),
]
_COMPARE_FLAGS = [[], ["--json"], ["--assert-containment"], ["--assert-containment", "--json"]]


def golden_cases() -> list[list[str]]:
    """argv of every case, with file names relative to the data directory."""
    cases = []
    for path in sorted(DATA.glob("*.sys")):
        names = list(parse_system(path.read_text(encoding="utf-8")).chains)
        for chain in names:
            for command, flags in _CHAIN_FLAGS:
                cases.append([command, path.name, "--chain", chain, *flags])
        for smaller in names:
            for larger in names:
                if smaller != larger:
                    for flags in _COMPARE_FLAGS:
                        cases.append(
                            ["compare", path.name, "--smaller", smaller, "--larger", larger, *flags]
                        )
    return cases


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    full = [argv[0], str(DATA / argv[1]), *argv[2:]]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(full)
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue().replace(str(DATA), DATA_PLACEHOLDER),
    }


def _expected() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_cases_cover_every_command():
    assert [case["argv"] for case in _expected()] == golden_cases()


@pytest.mark.parametrize("argv", golden_cases(), ids=" ".join)
def test_golden_cli_output(argv):
    expected = next(case for case in _expected() if case["argv"] == argv)
    assert run_case(argv) == expected


def test_golden_cli_output_does_not_depend_on_derivative_ids():
    """Derivative ids come in first-seen order.  A fresh process that
    interns a seeded shuffle of derivatives before any case runs gives the
    cases other ids, and must still print every case byte for byte."""
    script = """
import json, random
from diffdim.diffpoly import _intern, iter_indices, make_derivative
from test_golden_cli import golden_cases, run_case
found = [make_derivative(j, mu) for n in (1, 2, 3) for j in range(3) for mu in iter_indices(n, 5)]
random.Random(21).shuffle(found)
for d in found:
    _intern(d)
print(json.dumps([run_case(argv) for argv in golden_cases()], ensure_ascii=False))
"""
    assert json.loads(run_in_fresh_process(script)) == _expected()


if __name__ == "__main__":
    cases = [run_case(argv) for argv in golden_cases()]
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
