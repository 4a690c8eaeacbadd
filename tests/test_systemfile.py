import hashlib
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from diffdim import (
    ArityMismatchError,
    ParseError,
    SystemFile,
    UnknownIdentifierError,
    make_derivative,
    omega,
    parse_system,
)

from diffdim.cli import run
from diffdim.diffpoly import poly_text

from corpus import bench_module, dvar, random_power_chain

HEADER = "ring derivations=(t,x) indeterminates=(u,v)\nranking orderly tiebreak=(u<v)\n"


def format_system(system: SystemFile) -> str:
    """The system as text that parse_system reads back to an equal system."""
    ring = system.ring
    lines = [
        "ring derivations=({}) indeterminates=({})".format(
            ",".join(ring.derivation_names), ",".join(ring.indeterminate_names)
        ),
        "ranking orderly tiebreak=({})".format(
            "<".join(ring.indeterminate_names[j] for j in system.ranking.indeterminate_order)
        ),
    ]
    for name, chain in system.chains.items():
        lines.append(f"chain {name} {{")
        for poly in chain.elements:
            lines.append(f"  {poly_text(poly, ring.indeterminate_names)};")
        lines.append("}")
    return "\n".join(lines) + "\n"


def test_parse_burgers_file(data_dir):
    system = parse_system((data_dir / "burgers.sys").read_text())
    assert system.ring.derivation_names == ("t", "x")
    assert system.ring.indeterminate_names == ("u",)
    assert list(system.chains) == ["B"]
    chain = system.chains["B"]
    assert chain.elements == (
        dvar(0, (0, 2)) - dvar(0, (1, 0)) - 2 * dvar(0, (0, 1)) * dvar(0, (0, 0)),
    )
    assert omega(chain).coefficients == (-1, 2, 0)


def test_parse_terms_and_signs():
    system = parse_system(
        HEADER + "chain C {\n"
        "  -u[1,0] + 3/4;\n"
        "  2v[0,1]^2 - 1/2*u[0,0]*v[0,0];\n"
        "  +u[0,1] - v[0,0] # trailing comment\n  ;\n"
        "}\n"
    )
    chain = system.chains["C"]
    assert chain.elements[0] * 4 == -4 * dvar(0, (1, 0)) + 3
    assert chain.elements[1] * 2 == 4 * dvar(1, (0, 1)) ** 2 - dvar(0, (0, 0)) * dvar(1, (0, 0))
    assert chain.elements[2] == dvar(0, (0, 1)) - dvar(1, (0, 0))


def test_tiebreak_order_is_respected():
    system = parse_system(HEADER.replace("(u<v)", "(v<u)") + "chain C { u[1,0]; }\n")
    assert system.ranking.indeterminate_order == (1, 0)


def test_format_parse_round_trip_fixed():
    text = HEADER + "chain C {\n  u[1,0]^2 - v[0,1];\n  v[1,1] - 2;\n}\n"
    system = parse_system(text)
    printed = format_system(system)
    again = parse_system(printed)
    assert again.ring == system.ring
    assert again.ranking == system.ranking
    assert list(again.chains) == list(system.chains)
    assert again.chains["C"].elements == system.chains["C"].elements
    assert format_system(again) == printed


def with_blanks(text: str, rng: random.Random) -> str:
    """text with seeded blanks between the tokens of each derivative."""

    def spread(match: re.Match) -> str:
        tokens = re.findall(r"\w+|\S", match[0])
        return "".join(token + rng.choice(("", " ", " \t ")) for token in tokens[:-1]) + "]"

    return re.sub(r"[^\W\d]\w*\[[0-9,]+\]", spread, text)


def test_format_parse_round_trip_random():
    rng, blanks = random.Random(47), random.Random(53)
    for _ in range(20):
        chain = random_power_chain(rng)
        system = SystemFile(chain.ring, chain.ranking, {"R": chain})
        printed = format_system(system)
        again = parse_system(printed)
        assert again.ranking == chain.ranking
        assert again.chains["R"].elements == chain.elements
        # a derivative written with blanks, such as u[ 1 , 0 ], reads as the same one
        spaced = with_blanks(printed, blanks)
        assert spaced != printed
        assert parse_system(spaced).chains["R"].elements == chain.elements


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("chain C { u[1,0; }", "expected"),
        ("chain C { u[1]; }", "multi-index of length 1"),
        ("chain C { w[1,0]; }", "unknown indeterminate 'w'"),
        ("chain C { u[1,0]; } chain C { v[1,0]; }", "duplicate chain name"),
        ("chain C { 3; }", "non-constant"),
        ("chain C { u[0,0] - u[0,0]; }", "non-constant"),
        ("chain C { u[1,0]^0; }", "exponent must be positive"),
        ("chain C { 1/0*u[1,0]; }", "zero denominator"),
        ("chain C { u[-1,0]; }", "expected an integer"),
        ("chain C { }", "at least one polynomial"),
        ("", "expected at least one chain"),
    ],
)
def test_parse_errors(body, fragment):
    with pytest.raises(ParseError) as err:
        parse_system(HEADER + body)
    assert fragment in str(err.value)
    assert str(err.value).startswith("line ")


def test_error_subclasses_and_positions():
    with pytest.raises(ArityMismatchError) as err:
        parse_system(HEADER + "chain C {\n  u[1];\n}\n")
    assert (err.value.line, err.value.column) == (4, 5)
    with pytest.raises(UnknownIdentifierError):
        parse_system(HEADER + "chain C { q[1,0]; }")
    with pytest.raises(UnknownIdentifierError):
        parse_system(
            "ring derivations=(t) indeterminates=(u)\n"
            "ranking orderly tiebreak=(z)\n"
            "chain C { u[1]; }"
        )


def test_tiebreak_must_be_permutation():
    bad = HEADER.replace("(u<v)", "(u<u)") + "chain C { u[1,0]; }"
    with pytest.raises(ParseError) as err:
        parse_system(bad)
    assert "every indeterminate exactly once" in str(err.value)
    missing = HEADER.replace("(u<v)", "(u)") + "chain C { u[1,0]; }"
    with pytest.raises(ParseError):
        parse_system(missing)


# Each takes a text without comments to another layout of the same system.
LAYOUTS = {
    "no blanks around signs": lambda text: re.sub(r"[ \t]*([+-])[ \t]*", r"\1", text),
    "blanks around * ^ /": lambda text: re.sub(r"([*^/])", r" \1  ", text),
    "blanks inside brackets": lambda text: re.sub(r"([\[,\]])", r" \1 ", text),
    "tabs and CRLF": lambda text: text.replace(" ", "\t").replace("\n", "\r\n"),
    "comments between terms": lambda text: re.sub(r" ([+-]) ", r" # between terms\n \1 ", text),
    "a sign glued to the first term": lambda text: re.sub(r"([{;]\s*)(?=[^\s}+-])", r"\1+", text),
    # a coefficient, after a blank or a sign, then a blank for its '*'
    "juxtaposition": lambda text: re.sub(r"(?<=[\s+-])([0-9]+(?:/[0-9]+)?)\*", r"\1 ", text),
}


def test_layouts_read_alike(data_dir, tmp_path):
    """Every layout of the data files and of a few bench-built compare pairs
    reads as the same chains, elements and leaders."""
    pairs = bench_module("inputs").compare(5, tmp_path, batch=25)
    paths = sorted(data_dir.glob("*.sys")) + [pair.path for pair in pairs[::6]]
    for path in paths:
        text = re.sub(r"#[^\n]*", "", path.read_text(encoding="utf-8"))
        system = parse_system(text)
        expected = [(name, c.elements, c.leaders) for name, c in system.chains.items()]
        layouts = dict(LAYOUTS, canonical=format_system)
        for layout, relay in layouts.items():
            again = parse_system(relay(system) if layout == "canonical" else relay(text))
            got = [(name, c.elements, c.leaders) for name, c in again.chains.items()]
            assert got == expected, (path.name, layout)
            assert again.ranking == system.ranking


def test_layouts_change_the_text():
    text = HEADER + "chain C {\n  u[1,0]^2 - 2*u[0,1]*v[0,0] + 3/4*v[1,1];\n  v[0,1] + 1;\n}\n"
    for layout, relay in LAYOUTS.items():
        assert relay(text) != text, layout
        assert parse_system(relay(text)).chains["C"].elements == parse_system(text).chains["C"].elements


def test_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse_system(HEADER + "chain C { u[1,0] @ 3; }")
    assert "unexpected character" in str(err.value)


def test_repeated_factors_and_like_terms_merge():
    system = parse_system(
        HEADER + "chain C {\n"
        "  u[0,0]*u[0,0] - u[0,0]^2 + v[1,0];\n"
        "  u[0,0]*v[0,1]*u[0,0]^2 + 1/2*v[0,1]*u[0,0]^3 + u[1,0] - u[1,0] + 2;\n"
        "  2*u[0,1] + v[0,0]*u[0,1] - 1/2*u[0,1] - u[0,1]*v[0,0] + 0*v[1,1];\n"
        "}\n"
    )
    first, second, third = system.chains["C"].elements
    assert parse_system(HEADER + "chain C { u[0,0]*u[0,0]; }").chains["C"].elements == (
        dvar(0, (0, 0)) ** 2,
    )
    assert first == dvar(1, (1, 0))
    assert second * 2 == 3 * dvar(0, (0, 0)) ** 3 * dvar(1, (0, 1)) + 4
    assert third * 2 == 3 * dvar(0, (0, 1))


ONE_AXIS = "ring derivations=(t) indeterminates=(u)\nranking orderly tiebreak=(u)\n"


@pytest.mark.parametrize("term", ["u[1]^1001", "u[1]^600*u[1]^600", "u[1]^10000000"])
def test_term_degree_above_limit_is_parse_error(tmp_path, capsys, term):
    text = ONE_AXIS + f"chain A {{\n  u[0] - 2*{term};\n}}\n"
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert time.perf_counter() - start < 1.0
    # the error points at the term, after its sign
    assert (err.value.line, err.value.column) == (4, 10)
    assert "exceeds the limit 1000" in str(err.value)
    path = tmp_path / "steep.sys"
    path.write_text(text)
    start = time.perf_counter()
    assert run(["omega", str(path), "--chain", "A"]) == 65
    assert time.perf_counter() - start < 1.0
    out, stderr = capsys.readouterr()
    assert out == ""
    assert "line 4, column 10" in stderr


def test_parser_stores_integral_coefficients_as_int():
    text = ONE_AXIS + "chain A {\n  6/3*u[1] + 3/6*u[0] - 4 + u[0]*u[1];\n}\n"
    (element,) = parse_system(text).chains["A"].elements
    d0, d1 = make_derivative(0, (0,)), make_derivative(0, (1,))
    assert element.terms == {(d1,): 2, (d0,): Fraction(1, 2), (): -4, (d0, d1): 1}
    assert [type(c) for c in element.terms.values()] == [int, Fraction, int, int]
    with pytest.raises(ParseError, match="zero denominator"):
        parse_system(ONE_AXIS + "chain A { 2/0*u[1]; }")
    assert format_system(parse_system(text)) == (
        ONE_AXIS + "chain A {\n  2*u[1] + u[0]*u[1] + 1/2*u[0] - 4;\n}\n"
    )


@pytest.mark.parametrize(
    "template, column",
    [
        ("{n}*u[1]", 10),  # a coefficient
        ("u[{n}]", 12),  # a multi-index entry
        ("u[1]^{n}", 15),  # an exponent
    ],
)
def test_integer_above_digit_limit_is_parse_error(tmp_path, capsys, template, column):
    # 5,000 digits is above the interpreter's default int-from-text limit of 4,300
    text = ONE_AXIS + "chain A {\n  u[0] - " + template.format(n="7" * 5000) + ";\n}\n"
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert str(err.value) == f"line 4, column {column}: integer of 5000 digits exceeds the limit 640"
    path = tmp_path / "big.sys"
    path.write_text(text)
    assert run(["omega", str(path), "--chain", "A"]) == 65
    out, stderr = capsys.readouterr()
    assert out == ""
    assert f"big.sys: line 4, column {column}: integer of 5000 digits" in stderr
    at_limit = ONE_AXIS + "chain A { u[0] - " + "7" * 640 + "*u[1]; }\n"
    (element,) = parse_system(at_limit).chains["A"].elements
    assert element == dvar(0, (0,)) - int("7" * 640) * dvar(0, (1,))
    with pytest.raises(ParseError, match="integer of 641 digits"):
        parse_system(at_limit.replace("7", "77", 1))


def test_term_degree_at_limit_parses():
    system = parse_system(ONE_AXIS + "chain A { u[1]^1000 + u[1]^400*u[0]*u[1]^599; }\n")
    (element,) = system.chains["A"].elements
    u0, u1 = dvar(0, (0,)), dvar(0, (1,))
    assert element == u1**1000 + u0 * u1**999


def test_non_ascii_digit_is_parse_error(tmp_path, capsys):
    with pytest.raises(ParseError) as err:
        parse_system(HEADER + "chain C { u[²,0]; }")
    assert (err.value.line, err.value.column) == (3, 13)
    with pytest.raises(ParseError) as err:
        parse_system(HEADER + "chain C { u[٣,0]; }")
    assert (err.value.line, err.value.column) == (3, 13)
    assert "unexpected character" in str(err.value)
    path = tmp_path / "superscript.sys"
    path.write_text(HEADER + "chain C { u[²]; }\n", encoding="utf-8")
    assert run(["omega", str(path), "--chain", "C"]) == 65
    assert "line 3, column 13" in capsys.readouterr().err


def test_end_of_input_after_trailing_comment():
    # the end-of-input column counts the characters of a trailing comment
    with pytest.raises(ParseError) as err:
        parse_system(HEADER + "chain C { u[1,0] # unfinished")
    assert (err.value.line, err.value.column) == (3, 30)
    assert str(err.value) == "line 3, column 30: expected ';'"


def _mutated_texts(paths):
    """2,000 seeded texts, each one of the .sys files with 1-3 character edits."""
    texts = [path.read_text(encoding="utf-8") for path in paths]
    alphabet = "uvtx019 \t\n#=(),<{};^*+-/[]_@²٣½\xa0"
    rng = random.Random(61)
    for _ in range(2000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                text = text[:i] + rng.choice(alphabet) + text[i:]
            elif edit == 1:
                text = text[:i] + text[i + 1 :]
            else:
                text = text[:i] + rng.choice(alphabet) + text[i + 1 :]
        yield text


def test_mutated_files_parse_or_raise_parse_error(data_dir):
    outcomes = set()
    for text in _mutated_texts(sorted(data_dir.glob("*.sys"))):
        try:
            outcomes.add(type(parse_system(text)))
        except ParseError as exc:
            assert str(exc).startswith(f"line {exc.line}, column {exc.column}: ")
            outcomes.add(ParseError)
    assert outcomes == {SystemFile, ParseError}


# SHA-256 of the outcomes of the 2,000 mutated texts of these files, taken from
# the tokenizer that tracked every token's line and column.  It changes when
# one of the files does.
MUTATION_SOURCES = (
    "burgers.sys", "ode_pair.sys", "pde_pair.sys", "square_vs_linear.sys", "staircase.sys"
)
MUTATION_OUTCOMES_SHA256 = "094ee9c24c0b1466913543558482e845411116c1e9ab98481ca01c8104751356"


def test_mutated_file_outcomes_match_pinned_digest(data_dir):
    outcomes = []
    for text in _mutated_texts([data_dir / name for name in MUTATION_SOURCES]):
        try:
            parse_system(text)
            outcomes.append("ok")
        except ParseError as exc:
            outcomes.append((type(exc).__name__, exc.line, exc.column, str(exc)))
    digest = hashlib.sha256(repr(outcomes).encode("utf-8")).hexdigest()
    assert digest == MUTATION_OUTCOMES_SHA256


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        # CRLF line endings: the \r ends a line's columns, the \n starts the next
        (
            HEADER.replace("\n", "\r\n") + "chain C {\r\n  u[1,0]\r\n}\r\n",
            5, 1, "expected ';', found '}'",
        ),
        (HEADER.replace("\n", "\r\n") + "chain C { u[1,0]\r\n", 4, 1, "expected ';'"),
        (HEADER.replace("\n", "\r\n") + "chain C { u[1,0] @\r\n}", 3, 18, "unexpected character '@'"),
        # a tab is one column
        (HEADER + "chain C {\n\tu[1,0] +\t@;\n}\n", 4, 11, "unexpected character '@'"),
        (HEADER + "chain C {\n\t\tw[1,0];\n}\n", 4, 3, "unknown indeterminate 'w'"),
        # the token right after a comment
        (HEADER + "chain C { # first\nw[1,0]; }\n", 4, 1, "unknown indeterminate 'w'"),
        (HEADER + "chain C { # first\n  @ }\n", 4, 3, "unexpected character '@'"),
        (HEADER + "chain C { u[1,0] # ; }\n}\n", 4, 1, "expected ';', found '}'"),
        # columns count code points: a non-BMP character is one column
        (HEADER + "chain C { u[1,0] # \U0001d518\U0001d519", 3, 22, "expected ';'"),
        (HEADER + "chain \U0001d518 { u[1,0] @ }\n", 3, 18, "unexpected character '@'"),
        (HEADER + "chain \U0001d518 { w[1,0]; }\n", 3, 11, "unknown indeterminate 'w'"),
        # an error in the last token of a file with no trailing newline
        (HEADER + "chain C { u[1,0]; }}", 3, 20, "expected 'chain', found '}'"),
        (HEADER + "chain C { u[1,0]; }\n@", 4, 1, "unexpected character '@'"),
        (HEADER + "chain C { u[1,0]; } chain", 3, 26, "expected an identifier, found ''"),
        ("", 1, 1, "expected 'ring', found ''"),
        # a ring that repeats a name is refused at its 'ring' keyword
        (HEADER.replace("(t,x)", "(t,t)") + "chain C { u[1,0]; }", 1, 1,
         "derivation names must be distinct"),
        (HEADER.replace("(u,v)", "(u,u)", 1) + "chain C { u[1,0]; }", 1, 1,
         "indeterminate names must be distinct"),
        # faults inside or around a derivative written without blanks
        (HEADER + "chain C { 2*]; }", 3, 13, "expected an identifier, found ']'"),
        (HEADER + "chain u[1,0] { u[1,0]; }", 3, 8, "expected '{', found '['"),
        (
            HEADER + "chain C { u[1,0,0]; }",
            3, 13, "multi-index of length 3 for a ring with 2 derivations",
        ),
        pytest.param(
            HEADER + "chain C { v[0," + "1" * 641 + "]; }",
            3, 15, "integer of 641 digits exceeds the limit 640",
            id="641-digit multi-index entry",
        ),
        # faults inside a term of an element in the canonical layout
        pytest.param(
            HEADER + "chain C {\n  u[1,0] + " + "7" * 641 + "*v[0,1];\n}\n",
            4, 12, "integer of 641 digits exceeds the limit 640",
            id="641-digit coefficient",
        ),
        pytest.param(
            HEADER + "chain C {\n  u[1,0]^" + "1" * 641 + " + v[0,1];\n}\n",
            4, 10, "integer of 641 digits exceeds the limit 640",
            id="641-digit exponent",
        ),
        (
            HEADER + "chain C {\n  u[1,0]^1001 + v[0,1];\n}\n",
            4, 3, "term of total degree 1001 exceeds the limit 1000",
        ),
        (
            HEADER + "chain C {\n  v[0,1] - u[1,0]^600*u[1,0]^600;\n}\n",
            4, 12, "term of total degree 1200 exceeds the limit 1000",
        ),
        (HEADER + "chain C {\n  u[1,0] + 2*;\n}\n", 4, 14, "expected an identifier, found ';'"),
        (HEADER + "chain C {\n  --u[1,0];\n}\n", 4, 4, "expected an identifier, found '-'"),
        (HEADER + "chain C {\n  u[1,0]u[0,1];\n}\n", 4, 9, "expected ';', found 'u'"),
        (HEADER + "chain C {\n  v[0,1] + 3/0*u[1,0];\n}\n", 4, 13, "zero denominator"),
        (
            HEADER + "chain C {\n  u[1,0] +\xa0v[0,1];\n}\n",
            4, 11, "unexpected character '\\xa0'",
        ),
        (
            HEADER + "chain C {\n  u[1,0] - \u0663*v[0,1];\n}\n",
            4, 12, "unexpected character '\u0663'",
        ),
        # a term is parts joined by '*': a coefficient or a factor first, factors after
        (HEADER + "chain C {\n  u[1,0]*2;\n}\n", 4, 10, "expected an identifier, found '2'"),
        (HEADER + "chain C {\n  2*3*u[1,0];\n}\n", 4, 5, "expected an identifier, found '3'"),
        (HEADER + "chain C {\n  u[1,0]*3/4;\n}\n", 4, 10, "expected an identifier, found '3'"),
        (HEADER + "chain C {\n  2*u[1,0]*1;\n}\n", 4, 12, "expected an identifier, found '1'"),
        (HEADER + "chain C {\n  *u[1,0];\n}\n", 4, 3, "expected an identifier, found '*'"),
        (
            HEADER + "chain C {\n  u[1,0]*u[1,0]^999*v[0,1];\n}\n",
            4, 3, "term of total degree 1001 exceeds the limit 1000",
        ),
        # the text after a '*' read before, as a coefficient or as factors
        (HEADER + "chain C {\n  u[1,0] + 3 + 2*3;\n}\n", 4, 18, "expected an identifier, found '3'"),
        (
            HEADER + "chain C {\n  2*u[1,0]^500*v[0,1]^500 + u[1,0]*u[1,0]^500*v[0,1]^500;\n}\n",
            4, 29, "term of total degree 1001 exceeds the limit 1000",
        ),
    ],
)
def test_error_positions_at_the_edges(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


def test_unexpected_character_costs_no_memory_in_proportion_to_the_text():
    """The offset of a character that starts no token is found by one match
    at a time, not by one match of the whole valid prefix, whose repeat
    stack grew with the text: on a 20,000-leader staircase ending in '@'
    that took about 28 MB."""
    body = " ".join(f"u[{i},{19999 - i}];" for i in range(20000))
    text = HEADER + "chain A { " + body + " }\n@"
    assert len(text) > 290_000
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_system(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "line 4, column 1: unexpected character '@'"
    assert peak < 10_000_000, peak


def test_recurring_monomial_text():
    """Factors read once after a coefficient read the same after another
    coefficient, after a further factor and as a whole term."""
    system = parse_system(
        HEADER + "chain C {\n"
        "  2*u[1,0]*v[0,1] - 3/2*u[1,0]*v[0,1] + u[0,1]*u[1,0]*v[0,1];\n"
        "  u[1,0]*v[0,1] + v[1,1];\n"
        "}\n"
    )
    first, second = system.chains["C"].elements
    product = dvar(0, (1, 0)) * dvar(1, (0, 1))
    assert first * 2 == product + 2 * dvar(0, (0, 1)) * product
    assert second == product + dvar(1, (1, 1))


def test_part_table_lives_for_one_parse():
    """The same part text names a derivative of each parse's own ring."""
    body = "chain C { 2*u[1,0]*v[0,1] + u[1,0]; }\n"
    for names in ("u,v", "v,u"):
        system = parse_system(
            f"ring derivations=(t,x) indeterminates=({names})\n"
            "ranking orderly tiebreak=(u<v)\n" + body
        )
        u, v = (system.ring.indeterminate_names.index(name) for name in "uv")
        (element,) = system.chains["C"].elements
        assert element == 2 * dvar(u, (1, 0)) * dvar(v, (0, 1)) + dvar(u, (1, 0))
