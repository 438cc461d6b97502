"""Command-line interface.

Commands
--------
class   compute the unit-torus class for a partition, by one method or all
lambda  the i-th alternating power of the standard n-point set's class
rho     the universal weight-i coefficient on the partition basis
marks   the fixed-point matrix of the degree-n tuple sets
verify  cross-check all computation routes and the point-count oracle

Only `lambda`, `rho` and `marks` keep the Schur ring's degree bound:
they take n up to schur.DEGREE_BOUND (16).  The routes of `class` and
`verify` are those of torus.ROUTES, and each checks its own domain; rho's
is a cost estimate of its dynamic program (torus.RHO_COST_BOUND).  A
single-route `class` call outside it is a usage error.  With every route
(`class --method all`, `verify`), a route outside its domain is skipped
with the route's own reason, and at least two routes must answer and
agree with the first route that answered.

The argparse tree is built once per process, on the first `main` call,
and reused by every later call; the `--method` choices are the route
names in torus.ROUTES at that time.  A call whose first word names a
command is parsed once, by that command's subparser.  The root parser
parses only a call with any other first word, or one that leaves
arguments the subparser does not know, and prints its own help or error.

Exit status: 0 on success, 1 when a verification check fails, 2 on usage
errors (bad flags, unparsable partitions, bounds exceeded).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .combinatorics import is_prime_power
from .schur import lambda_standard, mark_matrix, torus_coefficient
from .torus import ROUTES, AlgebraSpec, OutsideDomain, TorusClass, point_count_oracle


def _render_class(tc: TorusClass, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(tc.to_json())
    if fmt == "latex":
        return tc.latex()
    return tc.text()


def _partition_key(lam) -> str:
    return ",".join(map(str, lam))


def _all_routes(spec: AlgebraSpec) -> tuple[dict[str, TorusClass | OutsideDomain], str]:
    """Every route's class of spec, or the OutsideDomain it raised when
    spec is outside its domain, and the name of the first route that
    answered, whose class the others are checked against.  At least two
    routes must answer."""
    results: dict[str, TorusClass | OutsideDomain] = {}
    for name, route in ROUTES.items():
        try:
            results[name] = route(spec)
        except OutsideDomain as skip:
            results[name] = skip
    answered = [name for name, tc in results.items() if isinstance(tc, TorusClass)]
    if len(answered) < 2:
        raise ValueError(f"fewer than two routes can answer for partition ({spec})")
    return results, answered[0]


def cmd_class(args) -> int:
    spec = AlgebraSpec.parse(args.partition)
    if args.method != "all":
        tc = ROUTES[args.method](spec)
        print(_render_class(tc, args.format))
        return 0
    results, first = _all_routes(spec)
    reference = results[first]
    agree = all(isinstance(tc, OutsideDomain) or tc == reference for tc in results.values())
    if args.format == "text":
        for name, tc in results.items():
            if isinstance(tc, OutsideDomain):
                print(f"{name}: skipped ({tc})")
            else:
                print(f"{name + ':':<11}{tc.text()}")
        print("AGREE" if agree else "DISAGREE")
    else:
        print(_render_class(reference, args.format))
    if not agree:
        print("error: computation methods disagree", file=sys.stderr)
        return 1
    return 0


def cmd_lambda(args) -> int:
    element = lambda_standard(args.n, args.i)
    matches = None
    if args.i >= 1:
        sign = -1 if args.i % 2 == 1 else 1
        signed = {mu: sign * c for mu, c in element.basis.items()}
        matches = torus_coefficient(args.n, args.i).basis == signed
    if args.format == "json":
        payload = element.to_json()
        if matches is not None:
            payload["matches_signed_rho"] = matches
        print(json.dumps(payload))
    else:
        print(f"lambda^{args.i} of the standard {args.n}-point set: {element}")
        print("marks by cycle type:")
        for lam, value in element.marks.items():
            print(f"  ({_partition_key(lam)}): {value}")
        if matches is not None:
            print(f"matches (-1)^i * rho: {'yes' if matches else 'NO'}")
    if matches is False:
        return 1
    return 0


def cmd_rho(args) -> int:
    element = torus_coefficient(args.n, args.i)
    if args.format == "json":
        print(json.dumps(element.to_json()))
        return 0
    print(f"rho(n={args.n}, i={args.i}) = {element}")
    print(f"identity mark: {element.cardinality}")
    print("marks by cycle type:")
    for lam, value in element.marks.items():
        print(f"  ({_partition_key(lam)}): {value}")
    return 0


def cmd_marks(args) -> int:
    matrix = mark_matrix(args.n)
    if args.format == "json":
        payload = {
            "n": matrix.n,
            "partitions": [_partition_key(p) for p in matrix.index],
            "matrix": [list(row) for row in matrix.entries],
        }
        print(json.dumps(payload))
        return 0
    names = [f"({_partition_key(p)})" for p in matrix.index]
    width = max(len(name) for name in names) + 1
    cell = max(len(str(v)) for row in matrix.entries for v in row) + 2
    print(f"fixed-point matrix n={matrix.n}, rows: block sizes, columns: cycle types")
    print(" " * width + "".join(f"{name:>{max(cell, len(name) + 1)}}" for name in names))
    for name, row in zip(names, matrix.entries):
        print(
            f"{name:<{width}}"
            + "".join(f"{v:>{max(cell, len(names[j]) + 1)}}" for j, v in enumerate(row))
        )
    return 0


# The most (q, e) points verify checks, counted as (qmax - 1) * emax: the
# largest such grid of `--partition 13,11,7,5,3,2`, at qmax = 10^5 + 1,
# takes about 4 s (Python 3.11, shared 2-vCPU VM).
GRID_BOUND = 10**5


def _check_grid_size(qmax: int, emax: int) -> None:
    """Refuse, before any route runs, a grid of more than GRID_BOUND points."""
    points = (qmax - 1) * emax
    if points > GRID_BOUND:
        raise ValueError(
            f"--qmax {qmax} --emax {emax}: the grid has (qmax - 1) * emax = {points:,} "
            f"points, more than {GRID_BOUND:,}"
        )


def _check_grid_prints(spec: AlgebraSpec, qmax: int, emax: int) -> None:
    """Refuse, before any route runs, a grid whose largest point count has
    more digits than int to str conversion allows (a limit of 0 is none).
    Counts grow with q and e, so the largest is the oracle's at the largest
    field size q <= qmax and at emax.  It is at least q^(n (emax - 1)), which
    refuses a grid far past the limit without computing the count."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    q = next(q for q in range(qmax, 1, -1) if is_prime_power(q))
    if limit and (
        spec.n * (emax - 1) * math.log10(q) > limit + 1
        or point_count_oracle(spec, q, emax) >= 10**limit
    ):
        raise ValueError(
            f"--qmax {qmax} --emax {emax}: the point count at q={q} e={emax} has more "
            f"than {limit} digits, past the interpreter's limit for printing an integer"
        )


def cmd_verify(args) -> int:
    spec = AlgebraSpec.parse(args.partition)
    if args.qmax < 2:
        raise ValueError("--qmax must be at least 2")
    if args.emax < 1:
        raise ValueError("--emax must be at least 1")
    _check_grid_size(args.qmax, args.emax)
    _check_grid_prints(spec, args.qmax, args.emax)
    results, first = _all_routes(spec)
    reference = results[first]
    failures = 0
    for name, tc in results.items():
        if isinstance(tc, OutsideDomain):
            print(f"{name}: skipped ({tc})")
        elif tc != reference:
            print(f"method {name} disagrees with {first}: {tc.text()} vs {reference.text()}")
            failures += 1
    if not failures:
        print(f"methods agree on partition ({spec}): {reference.text()}")
    # only prime powers are sizes of finite fields
    for q in filter(is_prime_power, range(2, args.qmax + 1)):
        for e in range(1, args.emax + 1):
            got = reference.count_points(q, e)
            expected = point_count_oracle(spec, q, e)
            status = "ok" if got == expected else "MISMATCH"
            print(f"q={q} e={e} count={got} oracle={expected} {status}")
            if got != expected:
                failures += 1
    if failures:
        print(f"FAIL ({failures} checks failed)")
        return 1
    print("PASS")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusclass",
        description="Unit-torus classes of separable algebras over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_class = sub.add_parser("class", help="compute the unit-torus class")
    p_class.add_argument("--partition", required=True, help="factor degrees, e.g. 2,2")
    p_class.add_argument("--method", choices=[*ROUTES, "all"], default="lambda")
    p_class.add_argument("--format", choices=["text", "json", "latex"], default="text")
    p_class.set_defaults(func=cmd_class)

    p_lambda = sub.add_parser("lambda", help="alternating power of the standard set")
    p_lambda.add_argument("--n", type=int, required=True)
    p_lambda.add_argument("--i", type=int, required=True)
    p_lambda.add_argument("--format", choices=["text", "json"], default="text")
    p_lambda.set_defaults(func=cmd_lambda)

    p_rho = sub.add_parser("rho", help="universal coefficient on the partition basis")
    p_rho.add_argument("--n", type=int, required=True)
    p_rho.add_argument("--i", type=int, required=True)
    p_rho.add_argument("--format", choices=["text", "json"], default="text")
    p_rho.set_defaults(func=cmd_rho)

    p_marks = sub.add_parser("marks", help="fixed-point matrix of the tuple sets")
    p_marks.add_argument("--n", type=int, required=True)
    p_marks.add_argument("--format", choices=["text", "json"], default="text")
    p_marks.set_defaults(func=cmd_marks)

    p_verify = sub.add_parser("verify", help="cross-check methods and point counts")
    p_verify.add_argument("--partition", required=True)
    p_verify.add_argument("--qmax", type=int, default=5)
    p_verify.add_argument("--emax", type=int, default=3)
    p_verify.set_defaults(func=cmd_verify)

    return parser


_parser: argparse.ArgumentParser | None = None
_commands: dict[str, argparse.ArgumentParser] = {}


def main(argv=None) -> int:
    global _parser, _commands
    if _parser is None:
        _parser = build_parser()
        (sub,) = (a for a in _parser._actions if isinstance(a, argparse._SubParsersAction))
        _commands = sub.choices
    argv = sys.argv[1:] if argv is None else list(argv)
    # the root parser would hand everything after a command word to that
    # command's subparser; it parses the call itself only for any other
    # first word, or to report arguments the subparser does not know
    command = _commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if command is None or extras:
        args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
