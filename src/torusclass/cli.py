"""Command-line interface.

Commands
--------
class   compute the unit-torus class for a partition, by one method or all
lambda  the i-th alternating power of the standard n-point set's class
rho     the universal weight-i coefficient on the partition basis
marks   the fixed-point matrix of the degree-n tuple sets
verify  cross-check all computation routes and the point-count oracle

Only `lambda`, `rho` and `marks` keep the Schur ring's degree bound:
they take n up to schur.DEGREE_BOUND (16), and only `marks` builds the
p(n)^2 table schur.mark_matrix, labelled by partitions(n).  The routes of
`class` and `verify` are those of torus.ROUTES, and each checks its own
domain; rho's is a cost estimate of its dynamic program
(torus.RHO_COST_BOUND).  A single-route `class` call outside it is a
usage error.  With every route (`class --method all`, `verify`), a route
outside its domain is skipped with the route's own reason; at least two
must answer, and _all_routes alone compares each answer with the first.

Each command's flags are declared once, in COMMANDS.  `main` reads a call
of exactly the form `<command> (--flag value)*` off that table, without
argparse: each flag named in full and at most once, no value starting
with "-", each value of its flag's type and among its choices, and every
required flag given.  Any other call (help, "--", an abbreviated or
"="-joined flag, a repeat, a bad value, an unknown word) goes to the
argparse tree that build_parser() makes from the same table, which prints
its own help or usage error.  That tree is built at most once per process,
on the first call that needs it; argparse is not imported before then.
The `--method` choices are the route names in torus.ROUTES and "all".
An int flag takes ASCII decimal digits after an optional "-", and nothing
else that int() would read.

Exit status: 0 on success, 1 when routes disagree or a verification check
fails, 2 on usage errors (bad flags, unparsable partitions, bounds exceeded).
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .combinatorics import _partition_text, is_prime_power, partitions
from .schur import lambda_standard, mark_matrix, torus_coefficient
from .torus import ROUTES, AlgebraSpec, OutsideDomain, TorusClass, point_count_oracle

if TYPE_CHECKING:
    import argparse


def _render_class(tc: TorusClass, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(tc.to_json())
    if fmt == "latex":
        return tc.latex()
    return tc.text()


def _print_rendered(text: str) -> None:
    """print(text), written 64 KiB at a time: a whole long output, such as
    the class of (5000,), would otherwise be encoded into a second copy."""
    step = 1 << 16
    for start in range(0, len(text), step):
        sys.stdout.write(text[start:start + step])
    sys.stdout.write("\n")


def _all_routes(
    spec: AlgebraSpec,
) -> tuple[dict[str, TorusClass | OutsideDomain], str, list[str]]:
    """Every route's class of spec, or the OutsideDomain it raised outside
    its domain; the first route that answered; and, in ROUTES order, the
    routes whose class differs from its class.  Both `class --method all`
    and `verify` print this one verdict.  At least two routes must answer."""
    results: dict[str, TorusClass | OutsideDomain] = {}
    for name, route in ROUTES.items():
        try:
            results[name] = route(spec)
        except OutsideDomain as skip:
            results[name] = skip
    answered = [name for name, tc in results.items() if isinstance(tc, TorusClass)]
    if len(answered) < 2:
        raise ValueError(f"fewer than two routes can answer for partition ({spec})")
    first = answered[0]
    return results, first, [name for name in answered if results[name] != results[first]]


def cmd_class(args) -> int:
    spec = AlgebraSpec.parse(args.partition)
    if args.method != "all":
        tc = ROUTES[args.method](spec)
        _print_rendered(_render_class(tc, args.format))
        return 0
    results, first, disagree = _all_routes(spec)
    if args.format == "text":
        for name, tc in results.items():
            if isinstance(tc, OutsideDomain):
                print(f"{name}: skipped ({tc})")
            else:
                print(f"{name + ':':<11}{tc.text()}")
        print("DISAGREE" if disagree else "AGREE")
    else:
        _print_rendered(_render_class(results[first], args.format))
    if disagree:
        print("error: computation methods disagree", file=sys.stderr)
        return 1
    return 0


def _print_marks(element) -> None:
    print("marks by cycle type:")
    for lam, value in element.marks.items():
        print(f"  ({_partition_text(lam)}): {value}")


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
        _print_marks(element)
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
    _print_marks(element)
    return 0


def cmd_marks(args) -> int:
    matrix = mark_matrix(args.n)
    index = partitions(args.n)
    if args.format == "json":
        payload = {
            "n": args.n,
            "partitions": [_partition_text(p) for p in index],
            "matrix": [list(row) for row in matrix],
        }
        print(json.dumps(payload))
        return 0
    names = [f"({_partition_text(p)})" for p in index]
    width = max(len(name) for name in names) + 1
    cell = max(len(str(v)) for row in matrix for v in row) + 2
    columns = [max(cell, len(name) + 1) for name in names]
    print(f"fixed-point matrix n={args.n}, rows: block sizes, columns: cycle types")
    print(" " * width + "".join(f"{name:>{c}}" for name, c in zip(names, columns)))
    for name, row in zip(names, matrix):
        print(f"{name:<{width}}" + "".join(f"{v:>{c}}" for v, c in zip(row, columns)))
    return 0


# The most (q, e) points verify checks, counted as (qmax - 1) * emax: the
# largest such grid of `--partition 13,11,7,5,3,2`, at qmax = 10^5 + 1,
# takes about 4 s (Python 3.11, shared 2-vCPU VM).
GRID_BOUND = 10**5


def _check_grid(spec: AlgebraSpec, qmax: int, emax: int) -> None:
    """Refuse, before any route runs, a grid verify cannot check: qmax < 2,
    emax < 1, more than GRID_BOUND points, or a largest point count with
    more digits than int to str conversion allows (a limit of 0 is none).
    Counts grow with q and e, so the largest is the oracle's at the largest
    field size q <= qmax and at emax: the product over the parts n_j of
    (q^m_j - 1)^g_j, g_j = gcd(n_j, emax), where the m_j g_j sum to n emax.
    As q^m - 1 >= q^m / 2, it is at least q^(n emax) / 2^(sum of the g_j),
    which refuses a grid far past the limit without computing the count."""
    if qmax < 2:
        raise ValueError("--qmax must be at least 2")
    if emax < 1:
        raise ValueError("--emax must be at least 1")
    points = (qmax - 1) * emax
    if points > GRID_BOUND:
        raise ValueError(
            f"--qmax {qmax} --emax {emax}: the grid has (qmax - 1) * emax = {points:,} "
            f"points, more than {GRID_BOUND:,}"
        )
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    q = next(q for q in range(qmax, 1, -1) if is_prime_power(q))
    halvings = sum(math.gcd(nj, emax) for nj in spec.parts)
    if limit and (
        spec.n * emax * math.log10(q) - halvings * math.log10(2) > limit + 1
        or point_count_oracle(spec, q, emax) >= 10**limit
    ):
        raise ValueError(
            f"--qmax {qmax} --emax {emax}: the point count at q={q} e={emax} has more "
            f"than {limit} digits, past the interpreter's limit for printing an integer"
        )


def cmd_verify(args) -> int:
    spec = AlgebraSpec.parse(args.partition)
    _check_grid(spec, args.qmax, args.emax)
    results, first, disagree = _all_routes(spec)
    reference = results[first]
    for name, tc in results.items():
        if isinstance(tc, OutsideDomain):
            print(f"{name}: skipped ({tc})")
        elif name in disagree:
            print(f"method {name} disagrees with {first}: {tc.text()} vs {reference.text()}")
    failures = len(disagree)
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


def _int(text: str) -> int:
    """An int flag's value: ASCII decimal digits after an optional "-".
    int() would also read "1_0", "+3", " 3" and other scripts' digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"  # argparse's error names the type: "invalid int value: '1_0'"


# Each command's function, help line and flags, declared once: main() reads
# a well-formed call off this table and build_parser() builds argparse from
# it.  A flag is (name, type, choices, default, help); a default of REQUIRED
# makes the flag required.  The `--method` choices are the routes of
# torus.ROUTES, and "all".
REQUIRED = object()
_N = ("n", _int, None, REQUIRED, None)
_FORMAT = ("format", str, ("text", "json"), "text", None)
_N_I_FORMAT = (_N, ("i", _int, None, REQUIRED, None), _FORMAT)
COMMANDS = {
    "class": (cmd_class, "compute the unit-torus class", (
        ("partition", str, None, REQUIRED, "factor degrees, e.g. 2,2"),
        ("method", str, (*ROUTES, "all"), "lambda", None),
        ("format", str, ("text", "json", "latex"), "text", None),
    )),
    "lambda": (cmd_lambda, "alternating power of the standard set", _N_I_FORMAT),
    "rho": (cmd_rho, "universal coefficient on the partition basis", _N_I_FORMAT),
    "marks": (cmd_marks, "fixed-point matrix of the tuple sets", (_N, _FORMAT)),
    "verify": (cmd_verify, "cross-check methods and point counts", (
        ("partition", str, None, REQUIRED, None),
        ("qmax", _int, None, 5, None),
        ("emax", _int, None, 3, None),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="torusclass",
        description="Unit-torus classes of separable algebras over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_, flags) in COMMANDS.items():
        p_command = sub.add_parser(command, help=help_)
        for name, type_, choices, default, flag_help in flags:
            required = default is REQUIRED
            p_command.add_argument(
                f"--{name}", type=type_, choices=choices, required=required,
                default=None if required else default, help=flag_help,
            )
        p_command.set_defaults(func=func)
    return parser


def _read_call(argv: list[str]) -> SimpleNamespace | None:
    """The arguments argparse would set for a call of exactly the form
    `<command> (--flag value)*`: each flag named in full and at most once,
    no value starting with "-", every value of its type and among its
    choices, every required flag given.  None for any other call."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, flags = COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    # a last word with no value, or a flag given twice, leaves fewer pairs
    if len(given) != len(argv) // 2:
        return None
    args = SimpleNamespace(command=argv[0], func=func)
    for name, type_, choices, default, _ in flags:
        text = given.pop(f"--{name}", None)
        if text is None:
            if default is REQUIRED:
                return None
            value = default
        else:
            if text.startswith("-"):
                return None
            try:
                value = type_(text)
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
        setattr(args, name, value)
    # a word left over is not a flag of this command
    return None if given else args


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_call(argv)
    if args is None:
        # help, usage errors and every other form argparse accepts
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
