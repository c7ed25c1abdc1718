"""Command-line interface: count tables, emit curves, run verification suites.

Every family has the enumeration and series routes, family C also the DAG
census; how far each reaches is ``tables.ROUTE_MAX_N``.

Exit codes: 0 success/agreement, 1 verification or agreement failure,
2 usage error (including an output file that cannot be written).

Every routine runs on Python ints and Fractions, with no third-party
import.  The module top loads only what every command needs: the argument
parser, the family layout and the route table.  Everything else loads where
it is used, so ``count`` by enumeration loads no series, no probability, no
``fractions`` and no ``json``:

- ``genfunc`` in the series route and in ``least``, which answers over an
  interval from the series table, up to n = 24;
- ``probability`` in ``curve``;
- ``valuesets`` in ``least`` over a discrete set and in the ``witnesses``,
  ``inclusion`` and ``complement`` suites of ``verify``;
- ``fractions`` where a step or a value set is parsed, ``json`` where JSON
  is written.
"""

from __future__ import annotations

import argparse
import sys

import leastchange

from .errors import BudgetError, DimensionError, PatternError
from .matrices import TypeSpec
from .tables import (
    ROUTE_DAG_CENSUS,
    ROUTE_ENUMERATION,
    ROUTE_GENERATING_FUNCTION,
    ROUTE_MAX_N,
    ROUTES,
    CoefficientTable,
)

ACYCLIC_MAX_N = 5  # verify acyclic holds planes of 2^(n^2-n) bits, not a counting reach


def _compute(spec: TypeSpec, route: str) -> CoefficientTable:
    if route == ROUTE_ENUMERATION:
        from .enumeration import count_pertinent

        return count_pertinent(spec)
    if route == ROUTE_DAG_CENSUS:
        from .dags import count_dags_by_edges

        return count_dags_by_edges(spec.n)
    from .genfunc import series_table

    return series_table(spec)


def _routes(spec: TypeSpec) -> list[str]:
    """The routes that reach spec.n, the census for family C alone; past every
    reach, the series alone, whose guard then rejects n."""
    reach = [route for route in ROUTES if spec.n <= ROUTE_MAX_N[route]]
    routes = [route for route in reach if route != ROUTE_DAG_CENSUS or spec.family == "C"]
    return routes or [ROUTE_GENERATING_FUNCTION]


def cmd_count(args, parser) -> int:
    spec = TypeSpec(args.family, args.n)
    if args.route == ROUTE_DAG_CENSUS and args.family != "C":
        parser.error(f"route {ROUTE_DAG_CENSUS} applies only to family C")
    routes = _routes(spec) if args.route == "all" else [args.route]

    tables = [_compute(spec, route) for route in routes]
    out = _open_out(args.out)
    try:
        for table in tables:
            _print_table(table, args.format, out)
    finally:
        if args.out:
            out.close()

    for route, table in zip(routes[1:], tables[1:]):
        if table.coeffs != tables[0].coeffs:
            print(
                f"route mismatch: {route} disagrees with {routes[0]}",
                file=sys.stderr,
            )
            return 1
    return 0


def _print_table(table: CoefficientTable, fmt: str, out) -> None:
    if fmt == "json":
        import json

        out.write(json.dumps(table.as_dict()) + "\n")
    elif fmt == "csv":
        out.write("i,count\n")
        for i, c in enumerate(table.coeffs):
            out.write(f"{i},{c}\n")
    else:
        spec = table.spec
        out.write(
            f"family={spec.family} n={spec.n} m={spec.m} i_max={spec.i_max} "
            f"route={table.route}\n"
        )
        out.write("coeffs: " + " ".join(str(c) for c in table.coeffs) + "\n")
        out.write(f"total: {table.total}\n")


def cmd_least(args, parser) -> int:
    spec = TypeSpec(args.family, args.n)
    try:
        xset = _value_set(args.values)
    except ZeroDivisionError:
        parser.error(f"value set {args.values!r} has a zero denominator")
    except ValueError as exc:
        parser.error(str(exc))
    if xset.kind == "continuous":
        # the attaining support classes are the pertinent patterns, whose
        # determinant is the family target: the coefficient table counts them
        reach = ROUTE_MAX_N[ROUTE_GENERATING_FUNCTION]
        if spec.n > reach:
            raise DimensionError(f"least over an interval supports n = 1..{reach}, got {spec.n}")
        from fractions import Fraction

        from .genfunc import series_table

        table = series_table(spec)
        least = least_binary = Fraction(spec.target_permanent)
        attaining = patterns = table.total
        sizes = {i: c for i, c in enumerate(table.coeffs) if c}
    else:
        from .valuesets import attaining_matrices, attaining_patterns

        matrices, pattern_set = attaining_matrices(spec, xset), attaining_patterns(spec, xset)
        least, least_binary = matrices.value, pattern_set.value
        attaining, patterns = len(matrices), len(pattern_set)
        sizes = matrices.sizes()
    result = {
        "family": args.family,
        "n": args.n,
        "values": str(xset),
        "least_det": str(least),
        "least_det_binary": str(least_binary),
        "attaining": attaining,
        "attaining_patterns": patterns,
        "by_nonzeros": {str(i): c for i, c in sizes.items()},
    }
    if args.format == "json":
        import json

        print(json.dumps(result))
    else:
        for key, value in result.items():
            print(f"{key}: {value}")
    return 0


def _value_set(text: str) -> leastchange.ValueSet:
    """A bracketed ``[lo:hi]`` is an interval; anything else a discrete literal."""
    from .values import ValueSet

    text = text.strip()
    if not text.startswith("["):
        return ValueSet.parse(text)
    bounds = text[1:-1].split(":")
    if not text.endswith("]") or len(bounds) != 2:
        raise ValueError(f"interval {text!r} must look like [0:2]")
    return ValueSet.continuous(*bounds)


def _grid_step(text: str) -> leastchange.values.Fraction:
    # the annotation reaches Fraction through the lazily loaded ``values``
    from fractions import Fraction

    try:
        step = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a fraction like 1/100") from None
    if not 0 < step < 1:
        raise argparse.ArgumentTypeError(f"{text} is not strictly between 0 and 1")
    return step


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def cmd_curve(args, parser) -> int:
    from fractions import Fraction

    from .probability import emit_curve, family_tables, find_order_violation

    tables = family_tables(args.n)
    out = _open_out(args.out)
    try:
        emit_curve(args.n, args.step, sink=out, tables=tables)
    finally:
        if args.out:
            out.close()
    report = find_order_violation(
        args.n, Fraction(1, 100), Fraction(99, 100), Fraction(1, 1000), tables=tables
    )
    sink = sys.stdout if args.out else sys.stderr
    if report.never_holds:
        sink.write("chain A > B > C with widening gaps: no sampled r satisfies it\n")
    elif report.always_holds:
        sink.write("chain A > B > C with widening gaps holds at every sampled r\n")
    else:
        lo, hi = report.bracket
        sink.write(
            f"chain boundary between {float(lo):.6g} and {float(hi):.6g} "
            f"(holds above, first failure below)\n"
        )
    return 0


def _open_out(path):
    if path:
        return open(path, "w", encoding="utf-8", newline="\n")
    return sys.stdout


def cmd_verify(args, parser) -> int:
    names = _SUITES if args.suite == "all" else (args.suite,)
    checks: list[tuple[str, bool, str]] = []
    for name in names:
        checks.extend(_SUITES[name](args))
    ok = all(passed for _, passed, _ in checks)
    if args.format == "json":
        import json

        payload = [
            {"check": name, "pass": passed, "detail": detail}
            for name, passed, detail in checks
        ]
        print(json.dumps(payload))
        return 0 if ok else 1
    width = max(len(name) for name, _, _ in checks)
    for name, passed, detail in checks:
        tag = "PASS" if passed else "FAIL"
        line = f"{tag}  {name.ljust(width)}"
        if detail:
            line += f"  {detail}"
        print(line)
    return 0 if ok else 1


def _suite_tables(args) -> list[tuple[str, bool, str]]:
    from .enumeration import count_pertinent
    from .reference import REFERENCE_COUNTS

    out = []
    for family, rows in REFERENCE_COUNTS.items():
        for n, expected in rows.items():
            table = count_pertinent(TypeSpec(family, n))
            ok = table.coeffs == expected
            detail = "" if ok else f"enumerated {table.coeffs}"
            out.append((f"table {family} n={n}", ok, detail))
    return out


def _suite_routes(args) -> list[tuple[str, bool, str]]:
    n_max = args.n or 5
    census_max = ROUTE_MAX_N[ROUTE_DAG_CENSUS]
    if n_max > census_max:
        # beyond the census only the series route is left: nothing to agree with
        raise DimensionError(
            f"routes suite needs the DAG census, which supports n <= {census_max}, got {n_max}"
        )
    out = []
    for spec in [TypeSpec(family, n) for family in "ABC" for n in range(1, n_max + 1)]:
        routes = _routes(spec)
        if len(routes) > 1:
            coeffs = {_compute(spec, route).coeffs for route in routes}
            ok = len(coeffs) == 1
            out.append((f"routes agree {spec.family} n={spec.n}", ok, "" if ok else "mismatch"))
    return out


def _suite_acyclic(args) -> list[tuple[str, bool, str]]:
    n_max = args.n or 4
    if n_max > ACYCLIC_MAX_N:
        raise DimensionError(
            f"acyclic suite visits all 2^(n^2-n) masks, n <= {ACYCLIC_MAX_N}, got {n_max}"
        )
    from .dags import acyclic_bits
    from .enumeration import _planes, pertinent_bits

    out = []
    for n in range(1, n_max + 1):
        # two planes over all 2^m counters: bit c is counter c's verdict, and
        # counter bit k drives the k-th edge, the k-th variable cell
        spec = TypeSpec("C", n)
        full = (1 << (1 << spec.m)) - 1
        cells = zip(spec.variable_positions, _planes(spec.m))
        edges = {(i - 1, j - 1): plane for (i, j), plane in cells}
        bad = (acyclic_bits(edges, n, full) ^ pertinent_bits(spec)).bit_count()
        out.append(
            (f"permanent-1 vs acyclic n={n}", bad == 0, f"{1 << spec.m} matrices")
        )
    return out


def _suite_witnesses(args) -> list[tuple[str, bool, str]]:
    from .valuesets import counterexample_report

    report = counterexample_report()
    return [
        (claim.description, claim.ok, f"expected {claim.expected}, got {claim.computed}")
        for claim in report.claims
    ]


def _suite_inclusion(args) -> list[tuple[str, bool, str]]:
    from fractions import Fraction

    from .values import ValueSet
    from .valuesets import check_inclusion

    dis = ValueSet.discrete([0, Fraction(1, 2), 2])
    cnt = ValueSet.continuous(0, 2)
    out = []
    for family in ("A", "B"):
        rep = check_inclusion(family, 2, dis, cnt)
        out.append((f"inclusion holds for {family} n=2", rep.holds, ""))
    rep_c = check_inclusion("C", 2, dis, cnt)
    out.append(("inclusion fails for C n=2", not rep_c.holds, ""))
    zero_one = check_inclusion("C", 2, ValueSet.discrete([0, 1]), ValueSet.continuous(0, 1))
    out.append(("C n=2 over {0,1} vs [0,1] disjoint", zero_one.disjoint, ""))
    return out


def _suite_complement(args) -> list[tuple[str, bool, str]]:
    from .valuesets import complement_identity_check

    report = complement_identity_check()
    detail = f"sum coefficients {report.sum_coeffs}"
    return [("continuous + discrete probabilities sum to 1", report.ok, detail)]


def _suite_oeis(args) -> list[tuple[str, bool, str]]:
    from .enumeration import count_pertinent
    from .reference import PUBLISHED_TOTALS

    out = []
    for family, totals in PUBLISHED_TOTALS.items():
        for n, expected in enumerate(totals, start=1):
            total = count_pertinent(TypeSpec(family, n)).total
            ok = total == expected
            detail = f"enumerated {total}" + ("" if ok else f", published {expected}")
            out.append((f"total {family} n={n}", ok, detail))
    return out


_SUITES = {
    "tables": _suite_tables,
    "routes": _suite_routes,
    "acyclic": _suite_acyclic,
    "witnesses": _suite_witnesses,
    "inclusion": _suite_inclusion,
    "complement": _suite_complement,
    "oeis": _suite_oeis,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leastchange",
        description="Exact counts and probabilities for least-change determinant perturbation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="coefficient table for one family")
    p_count.add_argument("--family", required=True, choices=("A", "B", "C"))
    p_count.add_argument("--n", required=True, type=int)
    p_count.add_argument("--route", default=ROUTE_ENUMERATION, choices=ROUTES + ("all",))
    p_count.add_argument("--format", default="text", choices=("json", "csv", "text"))
    p_count.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="accepted for compatibility; has no effect, counting runs in one process",
    )
    p_count.add_argument("--out", default=None)
    p_count.set_defaults(handler=cmd_count, parser=p_count)

    p_curve = sub.add_parser("curve", help="probability curves for all families")
    p_curve.add_argument("--n", required=True, type=int)
    p_curve.add_argument("--step", default="1/100", type=_grid_step)
    p_curve.add_argument("--out", default=None)
    p_curve.set_defaults(handler=cmd_curve, parser=p_curve)

    p_least = sub.add_parser("least", help="least attainable |det| over a value set")
    p_least.add_argument("--family", required=True, choices=("A", "B", "C"))
    p_least.add_argument("--n", required=True, type=int)
    p_least.add_argument(
        "--values",
        required=True,
        help="comma-separated fractions such as 0,1/2,2 or an interval [0:2]; "
        "a set whose first entry is negative is written --values=-1,0,1",
    )
    p_least.add_argument("--format", default="text", choices=("json", "text"))
    p_least.set_defaults(handler=cmd_least, parser=p_least)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=(*_SUITES, "all"))
    p_verify.add_argument(
        "--n",
        type=_positive_int,
        help="largest n for the routes suite "
        f"(default 5, at most {ROUTE_MAX_N[ROUTE_DAG_CENSUS]}) and the acyclic suite "
        f"(default 4, at most {ACYCLIC_MAX_N}); other suites ignore it",
    )
    p_verify.add_argument("--format", default="text", choices=("json", "text"))
    p_verify.set_defaults(handler=cmd_verify, parser=p_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # each handler reports usage errors through its own subcommand's parser
        return args.handler(args, args.parser)
    except (DimensionError, BudgetError, PatternError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
