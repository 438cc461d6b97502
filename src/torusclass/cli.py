"""Command-line interface.

Commands
--------
class   compute the unit-torus class for a partition, by one method or all
lambda  the i-th alternating power of the standard n-point set's class
rho     the universal weight-i coefficient on the partition basis
marks   the fixed-point matrix of the degree-n tuple sets
verify  cross-check all computation routes and the point-count oracle

`lambda`, `rho` and `marks` take n up to the Schur ring's degree bound
(schur.DEGREE_BOUND, 16).  With every route (`class --method all`,
`verify`), the rho route is skipped above that bound and the other two
must agree.

Exit status: 0 on success, 1 when a verification check fails, 2 on usage
errors (bad flags, unparsable partitions, bounds exceeded).
"""

from __future__ import annotations

import argparse
import json
import sys

from .combinatorics import is_prime_power
from .schur import DEGREE_BOUND, lambda_standard, mark_matrix, torus_coefficient
from .torus import (
    AlgebraSpec,
    TorusClass,
    class_via_lambda,
    class_via_recursion,
    class_via_universal,
    point_count_oracle,
)

_METHODS = {
    "lambda": class_via_lambda,
    "rho": class_via_universal,
    "recursion": class_via_recursion,
}


def _render_class(tc: TorusClass, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(tc.to_json())
    if fmt == "latex":
        return tc.latex()
    return tc.text()


def _partition_key(lam) -> str:
    return ",".join(map(str, lam))


def _all_routes(spec: AlgebraSpec) -> dict[str, TorusClass | None]:
    """Every route's class of spec, or None for a route skipped because
    spec is outside its domain.  At least two routes must answer."""
    results = {
        name: None if name == "rho" and spec.n > DEGREE_BOUND else fn(spec)
        for name, fn in _METHODS.items()
    }
    if sum(tc is not None for tc in results.values()) < 2:
        raise ValueError(f"fewer than two routes can answer for partition ({spec})")
    return results


def _skipped_line(name: str) -> str:
    return f"{name}: skipped (n > {DEGREE_BOUND})"


def cmd_class(args) -> int:
    spec = AlgebraSpec.parse(args.partition)
    if args.method != "all":
        tc = _METHODS[args.method](spec)
        print(_render_class(tc, args.format))
        return 0
    results = _all_routes(spec)
    reference = results["lambda"]
    agree = all(tc in (None, reference) for tc in results.values())
    if args.format == "text":
        for name, tc in results.items():
            print(_skipped_line(name) if tc is None else f"{name + ':':<11}{tc.text()}")
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
        matches = torus_coefficient(args.n, args.i) == sign * element
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


def cmd_verify(args) -> int:
    spec = AlgebraSpec.parse(args.partition)
    if args.qmax < 2:
        raise ValueError("--qmax must be at least 2")
    if args.emax < 1:
        raise ValueError("--emax must be at least 1")
    results = _all_routes(spec)
    reference = results["lambda"]
    failures = 0
    for name, tc in results.items():
        if tc is None:
            print(_skipped_line(name))
        elif tc != reference:
            print(f"method {name} disagrees with lambda: {tc.text()} vs {reference.text()}")
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
    p_class.add_argument("--method", choices=["lambda", "rho", "recursion", "all"], default="lambda")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
