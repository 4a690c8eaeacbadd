"""Command-line front end: validate, omega, oracle, compare."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .chains import DiffChain, InvalidChainError
from .compare import Relation, compare_ideals
from .dimension import InternalDisagreementError, krull_oracle, omega
from .diffpoly import derivative_text, poly_text
from .numpoly import MINUS, NumericalPolynomial, binomial_text, standard_text
from .systemfile import ParseError, parse_system

# Most multi-indices an oracle table may visit: m*C(L+n+1, n+1) for --max-order L.
ORACLE_VISIT_LIMIT = 10**6
# compare's exit code for each relation.
RELATION_EXIT_CODES = {
    Relation.EQUAL: 0,
    Relation.PROPERLY_CONTAINED: 1,
    Relation.OMEGA_DISTINCT: 1,
    Relation.INPUT_CONTRADICTION: 2,
    Relation.CONTAINMENT_UNKNOWN: 2,
}


@functools.cache  # built on first use, then shared: parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffdim",
        description="Dimension polynomials and comparison of differential chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("validate", help="check triangularity and coherence of a chain")
    p.add_argument("file")
    p.add_argument("--chain", required=True)
    p.add_argument("--explain", action="store_true", help="show the obstruction reductions")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("omega", help="dimension polynomial of a chain")
    p.add_argument("file")
    p.add_argument("--chain", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="tabulate the counting oracle against omega")
    p.add_argument("file")
    p.add_argument("--chain", required=True)
    p.add_argument("--max-order", required=True, type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("compare", help="relate the ideals of two chains, smaller in larger")
    p.add_argument("file")
    p.add_argument("--smaller", required=True)
    p.add_argument("--larger", required=True)
    p.add_argument("--assert-containment", action="store_true")
    p.add_argument("--json", action="store_true")
    return parser


def _polynomial_json(p: NumericalPolynomial) -> dict:
    return {
        "binomial_coeffs": list(p.coeffs),
        "standard_coeffs": [str(c) for c in p.to_standard_basis()],
        "degree": p.degree,
    }


def _cmd_validate(args, chain: DiffChain) -> int:
    report = chain.validation_report()
    names = chain.ring.indeterminate_names
    if args.json:
        payload = {
            "chain": args.chain,
            "triangular": report.triangular,
            "coherent": report.coherent,
            "regularity_of_initials_and_separants": report.regularity_of_initials_and_separants,
            "messages": report.messages,
        }
        if args.explain:
            payload["delta_traces"] = [
                {
                    "elements": [check.first, check.second],
                    "delta": poly_text(check.delta, names),
                    "remainder": poly_text(check.trace.remainder, names),
                    "multipliers": [
                        {"factor": poly_text(f, names), "exponent": e}
                        for f, e in check.trace.multipliers
                    ],
                    "reduced_to_zero": check.trace.remainder.is_zero(),
                }
                for check in report.delta_checks
            ]
            if report.skipped_pairs:
                payload["skipped_pairs"] = [
                    {"elements": [i, k], "via": j} for i, k, j in report.skipped_pairs
                ]
        print(json.dumps(payload, indent=2))
    else:
        flags = ["yes" if report.triangular else "no", "yes" if report.coherent else "no"]
        print(f"chain {args.chain}: triangular: {flags[0]}; coherent: {flags[1]}")
        print(f"initial/separant regularity: {report.regularity_of_initials_and_separants}")
        for message in report.messages:
            print(f"  note: {message}")
        if args.explain:
            for check in report.delta_checks:
                print(
                    f"  obstruction({check.first},{check.second}) = "
                    f"{poly_text(check.delta, names)} -> remainder "
                    f"{poly_text(check.trace.remainder, names)}"
                )
            for i, k, j in report.skipped_pairs:
                print(
                    f"  obstruction({i},{k}) skipped: implied by "
                    f"({min(i, j)},{max(i, j)}) and ({min(j, k)},{max(j, k)})"
                )
    return 0 if report.accepted else 1


def _cmd_omega(args, chain: DiffChain) -> int:
    result = omega(chain)
    if args.json:
        names = chain.ring.indeterminate_names
        payload = {
            "chain": args.chain,
            **_polynomial_json(result.omega),
            "differential_dimension": result.differential_dimension,
            "stabilization_bound": result.stabilization_bound,
            "janet_boxes": [
                {
                    "indeterminate": names[box.indeterminate],
                    "lower": list(box.lower),
                    "upper": list(box.upper),
                }
                for box in result.janet_boxes
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"ω(ℓ) = {standard_text(result.omega)} = {binomial_text(result.omega)} "
            f"(stabilizes at ℓ ≥ {result.stabilization_bound})"
        )
        print(
            f"degree {result.degree}, differential dimension {result.differential_dimension}"
        )
    return 0


def _cmd_oracle(args, chain: DiffChain) -> int:
    result = omega(chain)
    rows = []
    for order in range(args.max_order + 1):
        counted = krull_oracle(result.leaders, order)
        predicted = result.omega.eval(order)
        rows.append((order, counted, predicted, counted == predicted))
    if args.json:
        payload = {
            "chain": args.chain,
            "stabilization_bound": result.stabilization_bound,
            "rows": [
                {"order": o, "count": c, "omega": p, "match": m} for o, c, p, m in rows
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print("{:>4} {:>10} {:>10}  match".format("ℓ", "Ω(ℓ)", "ω(ℓ)"))
        for order, counted, predicted, match in rows:
            print("{:>4} {:>10} {:>10}  {}".format(order, counted, predicted, "yes" if match else "no"))
        print(f"stabilizes at ℓ ≥ {result.stabilization_bound}")
    return 0


def _cmd_compare(args, smaller: DiffChain, larger: DiffChain) -> int:
    verdict = compare_ideals(smaller, larger, containment_asserted=args.assert_containment)
    names = smaller.ring.indeterminate_names
    report = verdict.leader_report
    leaders = [(derivative_text(x, names), *report[x]) for x in sorted(report)]
    if args.json:
        assumed = verdict.assumed_relation
        payload = {
            "relation": verdict.relation.value,
            "containment": verdict.containment.value,
            "omega_smaller": _polynomial_json(verdict.omega_smaller),
            "omega_larger": _polynomial_json(verdict.omega_larger),
            "leader_report": {
                text: {"smaller_degree": small, "larger_degree": large}
                for text, small, large in leaders
            },
            "degree_products": list(verdict.degree_products),
            "assumed_relation": None if assumed is None else assumed.value,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"relation: {verdict.relation.value}")
        print(f"containment: {verdict.containment.value}")
        if verdict.assumed_relation is not None:
            print(f"relation if containment held: {verdict.assumed_relation.value}")
        print(f"ω smaller ({args.smaller}): {standard_text(verdict.omega_smaller)}")
        print(f"ω larger ({args.larger}): {standard_text(verdict.omega_larger)}")
        for text, small, large in leaders:
            left = MINUS if small is None else str(small)
            right = MINUS if large is None else str(large)
            print(f"leader {text}: degree {left} in smaller, {right} in larger")
        a, b = verdict.degree_products
        print(f"degree products: {a} vs {b}")
    return RELATION_EXIT_CODES[verdict.relation]


def run(argv=None) -> int:
    """Run one command; every outcome maps to its exit code here, checked in this order."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
        system = parse_system(text)
        names = (args.smaller, args.larger) if args.command == "compare" else (args.chain,)
        for name in names:
            if name not in system.chains:
                known = ", ".join(sorted(system.chains))
                parser.error(f"unknown chain {name!r} (file declares: {known})")
        chains = [system.chains[name] for name in names]
        if args.command == "oracle":
            if args.max_order < 0:
                parser.error("--max-order must be nonnegative")
            ring = chains[0].ring
            n = ring.num_derivations
            visits = ring.num_indeterminates * math.comb(args.max_order + n + 1, n + 1)
            if visits > ORACLE_VISIT_LIMIT:
                parser.error(
                    f"--max-order {args.max_order} would visit more multi-indices "
                    f"than the oracle's limit of {ORACLE_VISIT_LIMIT}"
                )
    except SystemExit as exc:  # argparse's error() has printed usage and exits 2; --help 0
        return 64 if exc.code == 2 else exc.code
    except OSError as exc:
        print(f"diffdim: {exc}", file=sys.stderr)
        return 66
    except UnicodeDecodeError as exc:
        print(f"diffdim: {args.file}: not UTF-8 text: {exc}", file=sys.stderr)
        return 65
    except ParseError as exc:
        print(f"diffdim: {args.file}: {exc}", file=sys.stderr)
        return 65
    handler = {
        "validate": _cmd_validate,
        "omega": _cmd_omega,
        "oracle": _cmd_oracle,
        "compare": _cmd_compare,
    }[args.command]
    try:
        return handler(args, *chains)
    except InvalidChainError as exc:
        # reports are cached: name the first chain, in command-line order, that failed
        failed = next(
            name for name, chain in zip(names, chains) if not chain.validation_report().accepted
        )
        print(f"diffdim: chain {failed!r} is not a valid chain: {exc}", file=sys.stderr)
        return 2 if args.command == "compare" else 1
    except InternalDisagreementError as exc:
        print(f"diffdim: internal error: {exc}", file=sys.stderr)
        return 70


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
