import argparse
import json
import pathlib
import os
import re
import subprocess
import sys
import time
import types
from importlib import resources

import jsonschema
import pytest

import diffdim
from diffdim import DiffPoly, chains, cli, dimension, make_derivative
from diffdim.diffpoly import poly_text
from diffdim.cli import ORACLE_VISIT_LIMIT, run

from corpus import run_in_fresh_process

GOLDEN_OMEGA = "ω(ℓ) = 2ℓ + 1 = 2·C(ℓ+1,1) − 1 (stabilizes at ℓ ≥ 2)"

INCOHERENT = (
    "ring derivations=(t,x) indeterminates=(u)\n"
    "ranking orderly tiebreak=(u)\n"
    "chain Bad {\n  u[2,0] - u[0,0];\n  u[1,1] - u[0,0];\n}\n"
)

# Two incoherent chains and a good one.
MIXED = (
    INCOHERENT
    + "chain Good {\n  u[1,0];\n}\n"
    + "chain Worse {\n  u[2,0] + u[0,0];\n  u[1,1] - u[0,1];\n}\n"
)


def _schema(name):
    text = resources.files("diffdim").joinpath("schemas", name).read_text()
    return json.loads(text)


def _check(payload, schema_name):
    jsonschema.validate(payload, _schema(schema_name))


def test_omega_text_golden(data_dir, capsys):
    code = run(["omega", str(data_dir / "burgers.sys"), "--chain", "B"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == GOLDEN_OMEGA
    assert out[1] == "degree 1, differential dimension 0"


def test_omega_json_matches_schema(data_dir, capsys):
    code = run(["omega", str(data_dir / "burgers.sys"), "--chain", "B", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    _check(payload, "omega_result.schema.json")
    assert payload["chain"] == "B"
    assert payload["binomial_coeffs"] == [-1, 2, 0]
    assert payload["standard_coeffs"] == ["1", "2", "0"]
    assert payload["degree"] == 1
    assert payload["differential_dimension"] == 0
    assert payload["stabilization_bound"] == 2
    assert payload["janet_boxes"] == [{"indeterminate": "u", "lower": [0, 2], "upper": [None, None]}]


def test_omega_result_json_shape(tmp_path, capsys):
    path = tmp_path / "square.sys"
    path.write_text(
        "ring derivations=(t,x) indeterminates=(u)\n"
        "ranking orderly tiebreak=(u)\n"
        "chain A { u[2,0]; u[1,1]; }\n"
    )
    assert run(["omega", str(path), "--chain", "A", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    _check(out, "omega_result.schema.json")
    assert out["binomial_coeffs"] == [1, 1, 0]
    assert out["standard_coeffs"] == ["2", "1", "0"]
    assert out["degree"] == 1
    assert out["differential_dimension"] == 0
    assert out["stabilization_bound"] == 2
    # the cones at (1,1), multiplicative in x, and at (2,0), multiplicative in t and x
    assert out["janet_boxes"] == [
        {"indeterminate": "u", "lower": [1, 1], "upper": [2, None]},
        {"indeterminate": "u", "lower": [2, 0], "upper": [None, None]},
    ]


def test_oracle_table(data_dir, capsys):
    code = run(["oracle", str(data_dir / "burgers.sys"), "--chain", "B", "--max-order", "6"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].endswith("match")
    assert out[-1] == "stabilizes at ℓ ≥ 2"
    assert all(line.endswith("yes") for line in out[3:-1])


def test_oracle_json_rows(data_dir, capsys):
    code = run(
        ["oracle", str(data_dir / "burgers.sys"), "--chain", "B", "--max-order", "8", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stabilization_bound"] == 2
    for row in payload["rows"]:
        assert row["omega"] == 2 * row["order"] + 1
        if row["order"] >= 2:
            assert row["match"] is True and row["count"] == row["omega"]


def test_validate_text_and_json(data_dir, capsys):
    code = run(["validate", str(data_dir / "pde_pair.sys"), "--chain", "S2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chain S2: triangular: yes; coherent: yes" in out
    assert "initial/separant regularity: unverified-assumed" in out

    code = run(["validate", str(data_dir / "pde_pair.sys"), "--chain", "S2", "--json", "--explain"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    _check(payload, "validation_report.schema.json")
    assert payload["triangular"] and payload["coherent"]
    assert payload["regularity_of_initials_and_separants"] == "unverified-assumed"
    assert payload["delta_traces"][0]["reduced_to_zero"] is True


def test_validate_explain_lists_skipped_pairs(data_dir, capsys):
    path = str(data_dir / "staircase.sys")
    assert run(["validate", path, "--chain", "Lin", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "  obstruction(0,2) skipped: implied by (0,1) and (1,2)\n" in out

    assert run(["validate", path, "--chain", "Prol", "--explain", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    _check(payload, "validation_report.schema.json")
    assert payload["skipped_pairs"] == [{"elements": [0, 2], "via": 1}]
    assert [t["elements"] for t in payload["delta_traces"]] == [[0, 1], [1, 2]]

    # without --explain the report carries no per-pair evidence
    assert run(["validate", path, "--chain", "Prol", "--json"]) == 0
    assert "skipped_pairs" not in json.loads(capsys.readouterr().out)


def test_validate_rejects_incoherent_chain(tmp_path, capsys):
    path = tmp_path / "bad.sys"
    path.write_text(INCOHERENT)
    code = run(["validate", str(path), "--chain", "Bad", "--explain"])
    out = capsys.readouterr().out
    assert code == 1
    assert "coherent: no" in out
    assert "obstruction(0,1)" in out

    code = run(["omega", str(path), "--chain", "Bad"])
    captured = capsys.readouterr()
    assert code == 1
    assert "not a valid chain" in captured.err


def _long_remainder_system(count):
    """Chain L { u[2,0] − T; u[1,1]; } with T = v + v^2 + … + v^count in the
    free v = v[0,0]: its one kept Δ is −∂T/∂y, count terms i·v^(i−1)·v[0,1]
    that no leader reduces."""
    tail = " - ".join(f"v[0,0]^{i}" for i in range(1, count + 1))
    return (
        "ring derivations=(x,y) indeterminates=(u,v)\n"
        "ranking orderly tiebreak=(u<v)\n"
        f"chain L {{ u[2,0] - {tail}; u[1,1]; }}\n"
    )


@pytest.mark.parametrize(
    "count", [chains._NOTE_TERMS, chains._NOTE_TERMS + 1], ids=["at-bound", "above-bound"]
)
def test_an_incoherence_note_counts_the_terms_of_a_long_remainder(tmp_path, capsys, count):
    """A remainder of up to _NOTE_TERMS terms is spelled out in the note; a
    longer one only counted, and the whole of it stays on the chain's
    DeltaCheck and in validate --explain, as text and as JSON."""
    path = tmp_path / "long.sys"
    path.write_text(_long_remainder_system(count), encoding="utf-8")
    chain = diffdim.parse_system(path.read_text(encoding="utf-8")).chains["L"]
    v, vy = (DiffPoly.variable(make_derivative(1, mu)) for mu in ((0, 0), (0, 1)))
    expected = DiffPoly.zero()
    for i in range(1, count + 1):
        expected = expected - i * v ** (i - 1) * vy
    report = chain.validation_report()
    (check,) = chain.delta_checks
    assert check.trace.remainder == expected and len(expected.terms) == count
    text = poly_text(expected, chain.ring.indeterminate_names)
    note = report.messages[0]
    head = "cross-derivation obstruction of elements 0 and 1 leaves "
    if count > chains._NOTE_TERMS:
        assert note == f"{head}a nonzero remainder of {count} terms"
        assert "v[" not in note and len(note) < 200  # every term of the remainder holds v[0,1]
    else:
        assert note == f"{head}the nonzero remainder {text}"

    assert run(["validate", str(path), "--chain", "L"]) == 1
    assert capsys.readouterr().out.splitlines()[2:] == [
        f"  note: {note}", "  note: regularity of initials and separants assumed, not verified"
    ]
    assert run(["validate", str(path), "--chain", "L", "--explain"]) == 1
    assert capsys.readouterr().out.endswith(f" -> remainder {text}\n")
    assert run(["validate", str(path), "--chain", "L", "--explain", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    _check(payload, "validation_report.schema.json")
    assert payload["messages"][0] == note
    assert [trace["remainder"] for trace in payload["delta_traces"]] == [text]


@pytest.mark.parametrize(
    "smaller, larger", [("Bad", "Good"), ("Good", "Bad")], ids=["smaller", "larger"]
)
def test_compare_names_the_invalid_chain(tmp_path, capsys, smaller, larger):
    path = tmp_path / "mixed.sys"
    path.write_text(INCOHERENT + "chain Good {\n  u[1,0];\n}\n")
    for extra in ([], ["--json"]):
        code = run(["compare", str(path), "--smaller", smaller, "--larger", larger, *extra])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(
            "diffdim: chain 'Bad' is not a valid chain: "
            "cross-derivation obstruction of elements 0 and 1 "
        )


def test_compare_properly_contained(data_dir, capsys):
    code = run(
        [
            "compare",
            str(data_dir / "square_vs_linear.sys"),
            "--smaller",
            "Ssq",
            "--larger",
            "Slin",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "relation: ProperlyContained" in out
    assert "containment: established" in out
    assert "leader u[0]: degree 2 in smaller, 1 in larger" in out
    assert "degree products: 2 vs 1" in out


def test_compare_equal_and_json(data_dir, capsys):
    code = run(
        [
            "compare",
            str(data_dir / "square_vs_linear.sys"),
            "--smaller",
            "Slin",
            "--larger",
            "Slin",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    _check(payload, "compare_verdict.schema.json")
    assert payload["relation"] == "Equal"
    assert payload["assumed_relation"] is None


def test_compare_omega_distinct_and_contradiction(data_dir, capsys):
    code = run(
        ["compare", str(data_dir / "pde_pair.sys"), "--smaller", "S2", "--larger", "S1"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "relation: OmegaDistinct-ProperlyContained" in out

    code = run(
        ["compare", str(data_dir / "pde_pair.sys"), "--smaller", "S2", "--larger", "S1", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    _check(payload, "compare_verdict.schema.json")
    assert payload["relation"] == "OmegaDistinct-ProperlyContained"
    assert payload["leader_report"] == {
        "u[1,0]": {"smaller_degree": None, "larger_degree": 1},
        "u[1,1]": {"smaller_degree": 1, "larger_degree": None},
        "u[2,0]": {"smaller_degree": 1, "larger_degree": None},
    }

    code = run(
        [
            "compare",
            str(data_dir / "pde_pair.sys"),
            "--smaller",
            "S1",
            "--larger",
            "S2",
            "--assert-containment",
        ]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "relation: InputContradiction" in out
    assert "containment: asserted" in out


def test_compare_unknown_containment(data_dir, capsys):
    code = run(
        ["compare", str(data_dir / "pde_pair.sys"), "--smaller", "S1", "--larger", "S2"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "relation: ContainmentUnknown" in out
    assert "relation if containment held: InputContradiction" in out

    code = run(
        ["compare", str(data_dir / "pde_pair.sys"), "--smaller", "S1", "--larger", "S2", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    _check(payload, "compare_verdict.schema.json")
    assert payload["relation"] == "ContainmentUnknown"
    assert payload["assumed_relation"] == "InputContradiction"


def test_usage_errors_exit_64(data_dir, capsys):
    path = str(data_dir / "burgers.sys")
    assert run(["omega", path, "--chain", "Nope"]) == 64
    err = capsys.readouterr().err
    assert "unknown chain 'Nope'" in err and "declares: B" in err
    assert run(["omega", path, "--chain", "B", "--frobnicate"]) == 64
    assert run([]) == 64
    assert run(["oracle", path, "--chain", "B", "--max-order", "-3"]) == 64


MAIN_USAGE = "usage: diffdim [-h] command ...\n"
BAD_REMAINDER = "u[1,0] - u[0,1]"


def _not_valid(name, remainder=BAD_REMAINDER):
    return (
        f"diffdim: chain {name!r} is not a valid chain: cross-derivation obstruction "
        f"of elements 0 and 1 leaves the nonzero remainder {remainder}; "
        "regularity of initials and separants assumed, not verified\n"
    )


def _choices(*choices):
    """The choices as this Python's argparse lists them; newer releases drop the quotes."""
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("c", choices=choices)
    with pytest.raises(argparse.ArgumentError) as info:
        probe.parse_args(["?"])
    return str(info.value).split("(choose from ")[1][:-1]


# (argv, exit, stdout, stderr) of every error path; "<file>" is MIXED and the
# temporary directory reads "<tmp>".  argparse wraps usage lines at COLUMNS=80.
ERROR_PATHS = {
    "no-command": ([], 64, "", MAIN_USAGE + (
        "diffdim: error: the following arguments are required: command\n")),
    "unknown-command": (["frob"], 64, "", MAIN_USAGE + (
        "diffdim: error: argument command: invalid choice: 'frob' (choose from "
        + _choices("validate", "omega", "oracle", "compare") + ")\n")),
    "no-chain": (["omega", "<file>"], 64, "", (
        "usage: diffdim omega [-h] --chain CHAIN [--json] file\n"
        "diffdim omega: error: the following arguments are required: --chain\n")),
    "unknown-option": (["omega", "<file>", "--chain", "Good", "--frobnicate"], 64, "",
        MAIN_USAGE + "diffdim: error: unrecognized arguments: --frobnicate\n"),
    "max-order-not-int": (["oracle", "<file>", "--chain", "Good", "--max-order", "x"], 64, "", (
        "usage: diffdim oracle [-h] --chain CHAIN --max-order MAX_ORDER [--json] file\n"
        "diffdim oracle: error: argument --max-order: invalid int value: 'x'\n")),
    "max-order-negative": (["oracle", "<file>", "--chain", "Good", "--max-order", "-3"], 64, "",
        MAIN_USAGE + "diffdim: error: --max-order must be nonnegative\n"),
    "visit-limit": (["oracle", "<file>", "--chain", "Good", "--max-order", "2000"], 64, "",
        MAIN_USAGE + "diffdim: error: --max-order 2000 would visit more multi-indices "
        "than the oracle's limit of 1000000\n"),
    "no-larger": (["compare", "<file>", "--smaller", "Good"], 64, "", (
        "usage: diffdim compare [-h] --smaller SMALLER --larger LARGER\n"
        "                       [--assert-containment] [--json]\n"
        "                       file\n"
        "diffdim compare: error: the following arguments are required: --larger\n")),
    "unknown-chain": (["omega", "<file>", "--chain", "Nope"], 64, "", MAIN_USAGE + (
        "diffdim: error: unknown chain 'Nope' (file declares: Bad, Good, Worse)\n")),
    "help": (["--help"], 0, MAIN_USAGE + (
        "\n"
        "Dimension polynomials and comparison of differential chains.\n"
        "\n"
        "positional arguments:\n"
        "  command\n"
        "    validate  check triangularity and coherence of a chain\n"
        "    omega     dimension polynomial of a chain\n"
        "    oracle    tabulate the counting oracle against omega\n"
        "    compare   relate the ideals of two chains, smaller in larger\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"), ""),
    "omega-help": (["omega", "--help"], 0, (
        "usage: diffdim omega [-h] --chain CHAIN [--json] file\n"
        "\n"
        "positional arguments:\n"
        "  file\n"
        "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --chain CHAIN\n"
        "  --json\n"), ""),
    "validate-bad": (["validate", "<file>", "--chain", "Bad"], 1, (
        "chain Bad: triangular: yes; coherent: no\n"
        "initial/separant regularity: unverified-assumed\n"
        "  note: cross-derivation obstruction of elements 0 and 1 leaves the nonzero "
        f"remainder {BAD_REMAINDER}\n"
        "  note: regularity of initials and separants assumed, not verified\n"), ""),
    "omega-bad": (["omega", "<file>", "--chain", "Bad"], 1, "", _not_valid("Bad")),
    "oracle-bad": (["oracle", "<file>", "--chain", "Bad", "--max-order", "2"], 1, "",
        _not_valid("Bad")),
    "compare-bad-good": (["compare", "<file>", "--smaller", "Bad", "--larger", "Good"], 2, "",
        _not_valid("Bad")),
    "compare-good-bad": (["compare", "<file>", "--smaller", "Good", "--larger", "Bad"], 2, "",
        _not_valid("Bad")),
    "compare-bad-bad": (["compare", "<file>", "--smaller", "Worse", "--larger", "Bad"], 2, "",
        _not_valid("Worse", "2*u[0,1]")),
}


@pytest.mark.parametrize("case", list(ERROR_PATHS))
def test_error_path_output_is_exact(tmp_path, capsys, monkeypatch, case):
    argv, code, out, err = ERROR_PATHS[case]
    monkeypatch.setenv("COLUMNS", "80")
    path = tmp_path / "mixed.sys"
    path.write_text(MIXED)
    assert run([str(path) if a == "<file>" else a for a in argv]) == code
    captured = capsys.readouterr()
    tmp = str(tmp_path)
    assert (captured.out.replace(tmp, "<tmp>"), captured.err.replace(tmp, "<tmp>")) == (out, err)


def test_oracle_table_above_visit_limit_is_usage_error(tmp_path, capsys):
    path = tmp_path / "line.sys"
    path.write_text(
        "ring derivations=(t) indeterminates=(u)\n"
        "ranking orderly tiebreak=(u)\n"
        "chain A { u[1]; }\n"
    )
    # One derivation, one indeterminate: order L visits C(L+2, 2) multi-indices,
    # and C(1415, 2) is the first count above the limit.
    for order in ("1413", "99999999999999999999"):
        start = time.perf_counter()
        code = run(["oracle", str(path), "--chain", "A", "--max-order", order])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 64
        assert out == ""
        assert f"limit of {ORACLE_VISIT_LIMIT}" in err
        assert elapsed < 1.0


def test_omega_on_a_leader_of_order_2000_stays_fast(tmp_path, capsys):
    # The Janet basis has 2,001 cones here, in two boxes; a completion that
    # rescans from the first multi-index after each insertion is quadratic in
    # the cone count.
    path = tmp_path / "tall.sys"
    path.write_text(
        "ring derivations=(t,x) indeterminates=(u)\n"
        "ranking orderly tiebreak=(u)\n"
        "chain A { u[2000,0]; u[0,1]; }\n"
    )
    start = time.perf_counter()
    code = run(["omega", str(path), "--chain", "A", "--json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["binomial_coeffs"] == [2000, 0, 0]
    assert payload["stabilization_bound"] == 2000
    assert payload["janet_boxes"] == [
        {"indeterminate": "u", "lower": [0, 1], "upper": [2000, None]},
        {"indeterminate": "u", "lower": [2000, 0], "upper": [None, None]},
    ]
    assert elapsed < 5.0, f"took {elapsed:.2f}s against a 5s budget"


@pytest.mark.parametrize(
    "argv, code, start",
    [
        (["omega", "--chain", "A"], 0, "ω(ℓ) = 1000000000000 = 1000000000000 "),
        (["compare", "--smaller", "A", "--larger", "A"], 0, "relation: Equal"),
        (["omega", "--chain", "A", "--json"], 0, '{\n  "chain": "A",\n'),
        (["validate", "--chain", "A", "--explain"], 0, "chain A: triangular: yes; coherent: yes"),
        (["validate", "--chain", "A", "--explain", "--json"], 0, '{\n  "chain": "A",\n'),
    ],
)
def test_leader_of_order_ten_to_the_twelve_answers_fast(tmp_path, argv, code, start):
    # The Janet basis has 10^12 + 1 cones here, in two boxes; omega and
    # compare sum the cones in closed form, omega --json lists the boxes, and
    # the subprocess timeout stops a run that lists the cones.  validate
    # --explain gets the leader-only pair's zero Δ from delta_polynomial,
    # whose two lifts to order 10^12 take one step each.
    path = tmp_path / "tall.sys"
    path.write_text(
        "ring derivations=(t,x) indeterminates=(u)\n"
        "ranking orderly tiebreak=(u)\n"
        "chain A { u[1000000000000,0]; u[0,1]; }\n"
    )
    argv = [argv[0], str(path), *argv[1:]]
    script = f"""
import contextlib, io, json, time
from diffdim.cli import run
out, err = io.StringIO(), io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = run({argv!r})
print(json.dumps([code, time.perf_counter() - start, out.getvalue(), err.getvalue()]))
"""
    status, elapsed, out, err = json.loads(run_in_fresh_process(script, timeout=5))
    assert status == code
    shown, silent = (out, err) if code == 0 else (err, out)
    assert shown.startswith(start)
    assert silent == ""
    assert elapsed < 2.0, f"took {elapsed:.2f}s against a 2s budget"
    if "--json" in argv and argv[0] == "validate":
        payload = json.loads(out)
        _check(payload, "validation_report.schema.json")
        traces = [(t["elements"], t["delta"], t["reduced_to_zero"]) for t in payload["delta_traces"]]
        assert traces == [([0, 1], "0", True)]
    elif "--json" in argv:
        payload = json.loads(out)
        _check(payload, "omega_result.schema.json")
        assert payload["janet_boxes"] == [
            {"indeterminate": "u", "lower": [0, 1], "upper": [10**12, None]},
            {"indeterminate": "u", "lower": [10**12, 0], "upper": [None, None]},
        ]


def test_parse_error_exits_65(tmp_path, capsys):
    path = tmp_path / "broken.sys"
    for content, detail in (
        (b"ring derivations=(t) indeterminates=(u)\n", "line"),
        (b"ring derivations=(t) indeterminates=(u)\n# \xff\n", "not UTF-8"),
    ):
        path.write_bytes(content)
        assert run(["omega", str(path), "--chain", "B"]) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert detail in err and "broken.sys" in err


def test_missing_file_exits_66(tmp_path, capsys):
    assert run(["omega", str(tmp_path / "absent.sys"), "--chain", "B"]) == 66
    assert "absent.sys" in capsys.readouterr().err


def test_omega_cross_checks_large_groups(tmp_path, capsys, monkeypatch):
    path = tmp_path / "level.sys"
    leaders = "".join(f"  u[{a},{20 - a}];\n" for a in range(21))
    path.write_text(
        "ring derivations=(t,x) indeterminates=(u)\n"
        "ranking orderly tiebreak=(u)\n"
        f"chain L {{\n{leaders}}}\n"
    )
    assert run(["omega", str(path), "--chain", "L", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["binomial_coeffs"] == [210, 0, 0]
    assert payload["stabilization_bound"] == 20

    def wrong(gens):
        return {0: 123}

    monkeypatch.setattr(dimension, "_hilbert_numerator", wrong)
    for argv in (
        ["omega", str(path), "--chain", "L"],
        ["oracle", str(path), "--chain", "L", "--max-order", "2"],
        ["compare", str(path), "--smaller", "L", "--larger", "L"],
    ):
        assert run(argv) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("diffdim: internal error: inclusion-exclusion gave")


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "validate" in capsys.readouterr().out


def test_module_form_runs_the_cli(data_dir):
    """python -m diffdim.cli prints and exits as the golden case of the
    same command does, instead of importing the module and doing nothing."""
    (case,) = [
        c for c in json.loads((data_dir / "golden_cli.json").read_text(encoding="utf-8"))
        if c["argv"] == ["omega", "burgers.sys", "--chain", "B"]
    ]
    src = pathlib.Path(__file__).parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "diffdim.cli", "omega", str(data_dir / "burgers.sys"), "--chain", "B"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")) == (
        case["exit"], case["stdout"], case["stderr"]
    )


def test_closed_output_pipe_exits_74_without_a_traceback(data_dir):
    """A reader that closes standard output early ends the run with EX_IOERR
    and nothing on stderr, in a fresh process whose stdout is that pipe."""
    src = pathlib.Path(__file__).parent.parent / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "diffdim.cli", "compare", str(data_dir / "prolong_pair.sys"),
             "--smaller", "A", "--larger", "S", "--json"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr.decode("utf-8")) == (74, "")


def test_reused_argument_parser_carries_no_state(data_dir, capsys):
    path = str(data_dir / "pde_pair.sys")
    calls = (
        ["omega", path, "--chain", "S1", "--frobnicate"],
        ["--help"],
        ["compare", path, "--smaller", "S2", "--larger", "S1", "--json"],
    )

    def outputs(fresh: bool):
        results = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            code = run(argv)
            results.append((code, *capsys.readouterr()))
        return results

    reused = outputs(fresh=False)
    assert [code for code, _, _ in reused] == [64, 0, 1]
    assert cli._build_parser() is cli._build_parser()
    assert reused == outputs(fresh=True)


def test_public_surface():
    names = sorted(
        name
        for name, value in vars(diffdim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == [
        "ArityMismatchError", "CompareVerdict", "ConstantPolynomialError", "Containment",
        "Derivative", "DiffChain", "DiffPoly", "InternalDisagreementError",
        "InvalidChainError", "JanetBox", "LeaderSpec", "NotTriangularError",
        "NumericalPolynomial", "OmegaResult", "Ordering", "ParseError", "Ranking",
        "RankingMismatchError", "ReductionTrace", "Relation", "RingSpec", "SystemFile",
        "UnknownIdentifierError", "ValidationReport", "compare_ideals", "containment_check",
        "delta_polynomial", "full_pseudo_reduce", "janet_boxes", "janet_complete",
        "krull_oracle", "make_derivative", "omega",
        "omega_incl_excl", "omega_janet", "parse_system", "validate",
    ]


def test_readme_library_example_runs():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    namespace = {}
    exec(block, namespace)
    result = namespace["result"]
    assert result.coefficients == (-1, 2, 0)
    assert result.degree == 1
    assert result.differential_dimension == 0
    assert result.stabilization_bound == 2
