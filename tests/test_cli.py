"""Command-line surface: formats, determinism, exit codes, public names."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusclass
from torusclass import cli
from torusclass.cli import main
from torusclass.combinatorics import partitions
from torusclass.cyclic import CyclicBurnside
from torusclass.schur import DEGREE_BOUND
from torusclass.torus import (
    LAMBDA_COST_BOUND,
    RECURSION_RANK_BOUND,
    RHO_COST_BOUND,
    ROUTES,
    AlgebraSpec,
    OutsideDomain,
    TorusClass,
    class_via_lambda,
    norm_one_class,
)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_class_all_methods_agree(capsys):
    code, out, _ = _run(capsys, ["class", "--partition", "2", "--method", "all"])
    assert code == 0
    assert "AGREE" in out
    assert out.count("L^2 - [Spec F_q^2]·L + [Spec F_q^2] - 1") == 3


def test_class_default_method(capsys):
    code, out, _ = _run(capsys, ["class", "--partition", "1,1,1"])
    assert code == 0
    assert out.strip() == "L^3 - 3·L^2 + 3·L - 1"


def test_class_json_matches_library(capsys):
    code, out, _ = _run(capsys, ["class", "--partition", "2,2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == class_via_lambda(AlgebraSpec((2, 2))).to_json()
    powers = [entry["power"] for entry in payload["coeffs"]]
    assert powers == sorted(powers, reverse=True)


def test_an_output_of_several_pieces_prints_as_one(capsys):
    # (600,) renders to 148-206 kB in each format, past the 64 KiB pieces
    # that the class command writes, and the text format has non-ASCII dots
    tc = class_via_lambda(AlgebraSpec((600,)))
    renders = {"text": tc.text(), "json": json.dumps(tc.to_json()), "latex": tc.latex()}
    for fmt, text in renders.items():
        assert len(text) > 2 * (1 << 16)
        argv = ["class", "--partition", "600", "--method", "lambda", "--format", fmt]
        assert _run(capsys, argv)[:2] == (0, text + "\n")


def test_json_is_what_json_dumps_prints(capsys):
    # the class command writes each format from its pieces, byte for byte
    # as json.dumps prints to_json(), and as text() and latex() join them,
    # for every route on all 272 partitions of n <= 12
    specs = [AlgebraSpec(parts) for n in range(13) for parts in partitions(n)]
    assert len(specs) == 272
    for spec in specs:
        for route in ROUTES.values():
            tc = route(spec)
            cli._print_class(tc, "json")
            assert capsys.readouterr().out == json.dumps(tc.to_json()) + "\n"
            for fmt, text in [("text", tc.text()), ("latex", tc.latex())]:
                cli._print_class(tc, fmt)
                assert capsys.readouterr().out == text + "\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int printing limit")
def test_json_past_the_int_printing_limit_writes_nothing(capsys):
    # under a limit of 640 digits, 199 coefficients of 601 digits (more than
    # 64 KiB in each format) print and a last one of 700 digits does not:
    # every piece is built before the first write, so nothing is written
    long = [CyclicBurnside({1: 10**600})] * 199
    tc = TorusClass(200, [CyclicBurnside.ONE, *long, CyclicBurnside({1: 10**699})])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for fmt in ("json", "text", "latex"):
            cli._print_class(TorusClass(199, tc.coeffs[:200]), fmt)
            assert len(capsys.readouterr().out) > 1 << 16
            with pytest.raises(ValueError):
                cli._print_class(tc, fmt)
            assert capsys.readouterr().out == ""
    finally:
        sys.set_int_max_str_digits(limit)


def test_class_latex(capsys):
    code, out, _ = _run(capsys, ["class", "--partition", "4", "--format", "latex"])
    assert code == 0
    assert r"\mathbb{L}^{4}" in out
    assert r"[\operatorname{Spec}\mathbb{F}_{q^{4}}]" in out


def test_output_is_deterministic(capsys):
    _, first, _ = _run(capsys, ["marks", "--n", "4"])
    _, second, _ = _run(capsys, ["marks", "--n", "4"])
    assert first == second
    _, third, _ = _run(capsys, ["class", "--partition", "3,2", "--format", "json"])
    _, fourth, _ = _run(capsys, ["class", "--partition", "3,2", "--format", "json"])
    assert third == fourth


def test_output_is_pinned(capsys):
    # one SHA-256 over every route's printed output, in each format, and
    # over the norm-one class, on all 138 partitions of n <= 10 and on
    # (13,11,7,5,3,2): a refactor of the routes must leave each byte as is
    digest = hashlib.sha256()
    specs = [p for n in range(1, 11) for p in partitions(n)] + [(13, 11, 7, 5, 3, 2)]
    assert len(specs) == 139
    for parts in specs:
        key = ",".join(map(str, parts))
        for fmt in ("text", "json", "latex"):
            argv = ["class", "--partition", key, "--method", "all", "--format", fmt]
            code, out, _ = _run(capsys, argv)
            digest.update(f"{key} {fmt} {code}\n{out}".encode())
        digest.update(json.dumps(norm_one_class(AlgebraSpec(parts)).to_json()).encode() + b"\n")
    assert digest.hexdigest() == "93a411baab1ecb5c3c56c2d66056b6a88fb7514def7bd9a9c65f9fe84e394012"


def test_verify_output_is_pinned(capsys):
    # one SHA-256 over verify's output on all 44 partitions of n <= 7, at
    # q = 2, 3, 4 and e = 1, 2: the route comparison and every grid line
    digest = hashlib.sha256()
    specs = [p for n in range(1, 8) for p in partitions(n)]
    assert len(specs) == 44
    for parts in specs:
        key = ",".join(map(str, parts))
        code, out, _ = _run(capsys, ["verify", "--partition", key, "--qmax", "4", "--emax", "2"])
        digest.update(f"{key} {code}\n{out}".encode())
    assert digest.hexdigest() == "884dfacb998ecc68152fa1f3e648fb85be945095b4ee68811fc9124fe4b24dd2"


def test_schur_command_output_is_pinned(capsys):
    # one SHA-256 over the lambda, rho and marks commands for n <= 8, in
    # both formats: 176 calls whose every byte a refactor of the Schur ring
    # must leave as is
    digest = hashlib.sha256()
    calls = 0
    for n in range(1, 9):
        commands = [["lambda", "--n", str(n), "--i", str(i)] for i in range(n + 1)]
        commands += [["rho", "--n", str(n), "--i", str(i)] for i in range(1, n + 1)]
        commands.append(["marks", "--n", str(n)])
        for command in commands:
            for fmt in ("text", "json"):
                argv = [*command, "--format", fmt]
                code, out, _ = _run(capsys, argv)
                digest.update(f"{' '.join(argv)} {code}\n{out}".encode())
                calls += 1
    assert calls == 176
    assert digest.hexdigest() == "9e5f55dcc7709ea071d8e975c73c1cc6b07dbc5a5e7d8a75095deb38f12943aa"


def test_lambda_command_reports_match(capsys):
    code, out, _ = _run(capsys, ["lambda", "--n", "4", "--i", "2"])
    assert code == 0
    assert "matches (-1)^i * rho: yes" in out
    assert "(2,2): -2" in out


def test_rho_command_identity_mark(capsys):
    code, out, _ = _run(capsys, ["rho", "--n", "4", "--i", "1"])
    assert code == 0
    assert "-1·[P_(3,1)]" in out
    assert "identity mark: -4" in out


def test_marks_identity_column(capsys):
    code, out, _ = _run(capsys, ["marks", "--n", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["partitions"] == ["3", "2,1", "1,1,1"]
    identity = payload["partitions"].index("1,1,1")
    assert [row[identity] for row in payload["matrix"]] == [1, 3, 6]
    assert payload["matrix"][0] == [1, 1, 1]


def test_verify_passes_on_cubic_field(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--partition", "3", "--qmax", "4", "--emax", "3"]
    )
    assert code == 0
    assert "PASS" in out
    assert "q=2 e=1 count=7 oracle=7 ok" in out


def test_verify_split_line_counts(capsys):
    code, out, _ = _run(capsys, ["verify", "--partition", "1"])
    assert code == 0
    assert "q=2 e=1 count=1 oracle=1 ok" in out
    assert "PASS" in out


def test_verify_counts_points_only_over_fields(capsys):
    code, out, _ = _run(capsys, ["verify", "--partition", "2", "--qmax", "6", "--emax", "1"])
    assert code == 0
    assert "q=5 e=1 count=24 oracle=24 ok" in out
    assert "q=6" not in out


# ten fields of prime degree, n = 129: the power types of its 1,024 divisors
# put rho's cost estimate at 354,512,640, far past any calibration of the bound
TEN_FIELDS = "29,23,19,17,13,11,7,5,3,2"
TEN_FIELDS_REASON = f"mark DP estimate 354,512,640 > {RHO_COST_BOUND:,}"


def test_all_routes_skip_rho_past_its_cost_estimate(capsys):
    # verify prints a skip the same way; see the skipped-lambda test below
    skipped = f"rho: skipped ({TEN_FIELDS_REASON})"
    code, out, _ = _run(capsys, ["class", "--partition", TEN_FIELDS, "--method", "all"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("lambda:    L^129 + (-[Spec F_q^29] - [Spec F_q^23] - ")
    assert lines[1] == skipped
    assert lines[2] == "recursion: " + lines[0][len("lambda:    "):]
    assert lines[-1] == "AGREE"


def test_single_route_outside_its_domain_exits_2_with_its_reason(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["class", "--partition", TEN_FIELDS, "--method", "rho"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == f"error: {TEN_FIELDS_REASON}\n"
    # one field of degree 5,000: the shape at d = L alone, 5000^3 / 2, is
    # past the bound before any divisor is listed
    start = time.perf_counter()
    code, out, err = _run(capsys, ["class", "--partition", "5000", "--method", "rho"])
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert out == ""
    assert err == f"error: mark DP estimate 62,500,000,000 > {RHO_COST_BOUND:,}\n"


def test_lambda_past_its_counting_estimate_exits_2(capsys):
    # one prime field of degree 10^14 + 31, declined on the first power's
    # term before its part is factored; it used to die with MemoryError
    start = time.perf_counter()
    code, out, err = _run(capsys, ["class", "--partition", "100000000000031", "--method", "lambda"])
    assert time.perf_counter() - start < 0.1
    reason = f"counting estimate 100,000,000,000,032 > {LAMBDA_COST_BOUND:,}"
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_a_block_past_the_recursion_rank_bound_exits_2(capsys):
    # 300 quadratic fields, one block of rank 600: the recursion declines it
    # instead of dying with RecursionError, and rho's estimate is past its
    # bound too, so only lambda answers
    partition = ",".join(["2"] * 300)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["class", "--partition", partition, "--method", "recursion"])
    assert time.perf_counter() - start < 1
    reason = f"isotypic block rank 600 > {RECURSION_RANK_BOUND:,}"
    assert (code, out, err) == (2, "", f"error: {reason}\n")
    for command in (["class", "--method", "all"], ["verify"]):
        code, out, err = _run(capsys, [*command, "--partition", partition])
        assert (code, out) == (2, "")
        assert err == f"error: fewer than two routes can answer for partition ({partition})\n"


def test_all_routes_refuse_before_lambda_when_two_cannot_answer(capsys, monkeypatch):
    # one field of degree 5,000: rho and the recursion decline it at once,
    # so lambda, which alone could answer, is never run
    calls = []
    lam = ROUTES["lambda"]
    monkeypatch.setitem(ROUTES, "lambda", lambda spec: calls.append(spec) or lam(spec))
    for command in (["class", "--method", "all"], ["verify", "--qmax", "2", "--emax", "1"]):
        start = time.perf_counter()
        code, out, err = _run(capsys, [*command, "--partition", "5000"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: fewer than two routes can answer for partition (5000)\n"
    assert calls == []


def test_a_skipped_lambda_route_leaves_the_first_answer_as_reference(capsys, monkeypatch):
    def skip(spec):
        raise OutsideDomain("lambda is off")

    monkeypatch.setitem(ROUTES, "lambda", skip)
    rho = ROUTES["rho"](AlgebraSpec((2, 1)))
    code, out, err = _run(capsys, ["class", "--partition", "2,1", "--method", "all"])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "lambda: skipped (lambda is off)",
        f"rho:       {rho.text()}",
        f"recursion: {rho.text()}",
        "AGREE",
    ]
    code, out, _ = _run(
        capsys, ["class", "--partition", "2,1", "--method", "all", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == rho.to_json()
    code, out, _ = _run(capsys, ["verify", "--partition", "2,1", "--qmax", "3", "--emax", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda: skipped (lambda is off)"
    assert lines[1] == f"methods agree on partition (2,1): {rho.text()}"
    assert "MISMATCH" not in out
    assert lines[-1] == "PASS"


def test_a_disagreeing_route_fails_class_and_verify(capsys, monkeypatch):
    # rho answers with [2] added to its constant coefficient: a wrong class
    # that no point count at e = 1 can tell, as [2] has no points over F_q
    rho = ROUTES["rho"]

    def wrong(spec):
        tc = rho(spec)
        return TorusClass(tc.n, (*tc.coeffs[:-1], tc.coeffs[-1] + CyclicBurnside.orbit(2)))

    monkeypatch.setitem(ROUTES, "rho", wrong)
    right = class_via_lambda(AlgebraSpec((2, 1)))
    bad = wrong(AlgebraSpec((2, 1)))
    assert right.text().endswith("·L - [Spec F_q^2] + 1") and bad.text().endswith("·L + 1")
    code, out, err = _run(capsys, ["class", "--partition", "2,1", "--method", "all"])
    assert (code, err) == (1, "error: computation methods disagree\n")
    assert out.splitlines() == [
        f"lambda:    {right.text()}",
        f"rho:       {bad.text()}",
        f"recursion: {right.text()}",
        "DISAGREE",
    ]
    code, out, err = _run(
        capsys, ["class", "--partition", "2,1", "--method", "all", "--format", "json"]
    )
    assert (code, err) == (1, "error: computation methods disagree\n")
    assert json.loads(out) == right.to_json()
    code, out, err = _run(capsys, ["verify", "--partition", "2,1", "--qmax", "3", "--emax", "1"])
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"method rho disagrees with lambda: {bad.text()} vs {right.text()}",
        "q=2 e=1 count=3 oracle=3 ok",
        "q=3 e=1 count=16 oracle=16 ok",
        "FAIL (1 checks failed)",
    ]


def test_a_route_fault_is_not_a_skip(capsys, monkeypatch):
    def faulty(spec):
        raise ValueError("route fault")

    monkeypatch.setitem(ROUTES, "rho", faulty)
    code, out, err = _run(capsys, ["class", "--partition", "3", "--method", "all"])
    assert code == 2
    assert "skipped" not in out
    assert err == "error: route fault\n"


# the root parser and its five subcommands: the whole argparse tree
PARSER_TREE = ["torusclass"] + [
    f"torusclass {command}" for command in ("class", "lambda", "rho", "marks", "verify")
]


@pytest.fixture
def parser_builds(monkeypatch):
    """The prog of each ArgumentParser built from here on; no parser is kept."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_the_parser_is_built_once_per_process(capsys, parser_builds):
    calls = (["class", "--partition", "2"], ["marks", "--n", "3"], ["rho", "--n", "3", "--i", "1"])
    for argv in calls:
        assert main(argv) == 0
    assert parser_builds == []
    for argv in (["class"], ["marks"]):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    # the root parser and its five subcommands, once for both usage errors
    assert parser_builds == PARSER_TREE


@pytest.mark.parametrize(
    "argv, root_builds",
    [
        (["class", "--partition", "2"], 0),
        (["verify", "--partition", "1", "--qmax", "2", "--emax", "1"], 0),
        (["lambda", "--n", "3", "--i", "1"], 0),
        (["rho", "--n", "3", "--i", "1"], 0),
        (["marks", "--n", "3"], 0),
        ([], 1),
        (["-h"], 1),
        (["bogus"], 1),
        (["class", "--partition", "2", "--bogus"], 1),
    ],
)
def test_only_a_call_argparse_must_read_builds_the_parser(capsys, parser_builds, argv, root_builds):
    # a well-formed call is read off the flag table; help and usage errors
    # build the root parser, once
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert parser_builds == PARSER_TREE * root_builds


# the root parser is the reference: no arguments, help, an unknown command,
# "--" before the command, unrecognised options and a stray positional, an
# abbreviated or "="-joined flag, repeated flags, help after the command,
# missing values, bad choices and a bad integer, a bad value given before a
# good one and a value that looks like a flag
EDGE_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["bogus", "--partition", "2"],
    ["--", "class", "--partition", "2"],
    ["--bogus", "class", "--partition", "2"],
    ["-h", "class"],
    ["class", "--partition", "2", "--bogus"],
    ["class", "--partition", "2", "stray"],
    ["class", "--part", "3,2"],
    ["class", "--partition=3,2"],
    ["class", "--partition", "2", "--partition", "3,2"],
    ["class", "--partition", "2", "--method", "rho", "--method", "recursion"],
    ["class", "--m", "rho", "--partition", "2", "--format", "latex"],
    ["class", "-h"],
    ["class", "--partition", "2", "-h"],
    ["class", "--partition"],
    ["class"],
    ["class", "--partition", "2", "--method", "bogus"],
    ["class", "--partition", "2", "--", "x"],
    ["class", "--", "--partition", "2"],
    ["class", "--partition", "x"],
    ["verify", "--partition", "2", "--qmax", "x"],
    ["rho", "--n", "3", "--i", "1", "extra"],
    ["marks", "--n", "3", "--bogus=1"],
    ["lambda", "--n", "3", "--i", "1", "--format", "json"],
    ["lambda", "--n", "x", "--n", "3", "--i", "1"],
    ["class", "--partition", "-h"],
    ["marks", "--n", "1_0"],
    ["lambda", "--n", "\u0663", "--i", "1"],
    ["lambda", "--n", "+3", "--i", "1"],
    ["lambda", "--n", " 3", "--i", "1"],
]


def _through_the_root(argv) -> int:
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@pytest.mark.parametrize("argv", EDGE_ARGV)
def test_dispatch_matches_the_root_parser(capsys, monkeypatch, argv):
    # argparse wraps usage and help to the terminal width: fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    outcomes = []
    for run in (main, _through_the_root):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


# `--help` of the root parser and of each command at COLUMNS=80, byte for
# byte: the parser is built from the same table that main() reads a call
# off, so the differential tests alone would not see a changed help text
HELP = {
    (): (
        "usage: torusclass [-h] {class,lambda,rho,marks,verify} ...\n"
        "\n"
        "Unit-torus classes of separable algebras over finite fields.\n"
        "\n"
        "positional arguments:\n"
        "  {class,lambda,rho,marks,verify}\n"
        "    class               compute the unit-torus class\n"
        "    lambda              alternating power of the standard set\n"
        "    rho                 universal coefficient on the partition basis\n"
        "    marks               fixed-point matrix of the tuple sets\n"
        "    verify              cross-check methods and point counts\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    ("class",): (
        "usage: torusclass class [-h] --partition PARTITION\n"
        "                        [--method {lambda,rho,recursion,all}]\n"
        "                        [--format {text,json,latex}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --partition PARTITION\n"
        "                        factor degrees, e.g. 2,2\n"
        "  --method {lambda,rho,recursion,all}\n"
        "  --format {text,json,latex}\n"
    ),
    ("lambda",): (
        "usage: torusclass lambda [-h] --n N --i I [--format {text,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --n N\n"
        "  --i I\n"
        "  --format {text,json}\n"
    ),
    ("rho",): (
        "usage: torusclass rho [-h] --n N --i I [--format {text,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --n N\n"
        "  --i I\n"
        "  --format {text,json}\n"
    ),
    ("marks",): (
        "usage: torusclass marks [-h] --n N [--format {text,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --n N\n"
        "  --format {text,json}\n"
    ),
    ("verify",): (
        "usage: torusclass verify [-h] --partition PARTITION [--qmax QMAX]\n"
        "                         [--emax EMAX]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --partition PARTITION\n"
        "  --qmax QMAX\n"
        "  --emax EMAX\n"
    ),
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda command: " ".join(command) or "root")
def test_help_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")


# each command's flags, spelled out here rather than read off cli.COMMANDS;
# the first REQUIRED_FLAGS[command] flags of a command are required
COMMAND_FLAGS = {
    "class": ["--partition", "--method", "--format"],
    "lambda": ["--n", "--i", "--format"],
    "rho": ["--n", "--i", "--format"],
    "marks": ["--n", "--format"],
    "verify": ["--partition", "--qmax", "--emax"],
}
REQUIRED_FLAGS = {"class": 1, "lambda": 2, "rho": 2, "marks": 1, "verify": 1}
# small values each flag takes in a well-formed call
GOOD = {
    "--partition": ["3,2", "2", "1"],
    "--method": [*ROUTES, "all"],
    "--format": ["text", "json", "latex"],
    "--n": ["2", "1"],
    "--i": ["2", "1", "0"],
    "--qmax": ["2", "3"],
    "--emax": ["1", "2"],
}
VALUES = ["-1", "", "x", "3,2", "2", "1", *ROUTES, "all", "text", "json", "latex"]
TOKENS = [*COMMAND_FLAGS, *GOOD, "--par", "--partition=3,2", "--", "-h", *VALUES]


@st.composite
def _calls(draw):
    """A well-formed call, its flags in any order, then changed in up to two
    places: a token replaced by any other, or one put in."""
    command = draw(st.sampled_from(list(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    given = [
        flag for flag in draw(st.permutations(flags))
        if flags.index(flag) < REQUIRED_FLAGS[command] or draw(st.booleans())
    ]
    argv = [command, *(token for flag in given for token in (flag, draw(st.sampled_from(GOOD[flag]))))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(argv)))
        token = draw(st.sampled_from(TOKENS))
        if at < len(argv) and draw(st.booleans()):
            argv[at] = token
        else:
            argv.insert(at, token)
    return argv


def _outcome(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(TOKENS), max_size=7), _calls()))
def test_main_matches_the_root_parser_on_drawn_argv(argv):
    # EDGE_ARGV generalised: whichever path main takes, the exit code and
    # every byte printed are those of argparse parsing the whole call
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert _outcome(main, argv) == _outcome(_through_the_root, argv)


# every method and format, each command, a usage error, an error exit,
# then the defaults again: nothing may leak from one call into the next
REPEATED = [
    *(
        ["class", "--partition", "3,2", "--method", method, "--format", fmt]
        for method in ROUTES
        for fmt in ("text", "json", "latex")
    ),
    ["class", "--partition", "3,2", "--method", "all"],
    ["verify", "--partition", "3,2"],
    ["lambda", "--n", "4", "--i", "2"],
    ["rho", "--n", "4", "--i", "2"],
    ["marks", "--n", "4"],
    ["class", "--method", "rho", "--format", "json"],
    ["class", "--partition", "2,x"],
    ["class", "--help"],
    ["class", "--partition", "3,2"],
]


def test_repeated_calls_in_one_process_match_fresh_processes(capsys, monkeypatch):
    # argparse wraps usage and help to the terminal width: fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_parser", None)
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(torusclass.__file__)),
        PYTHONIOENCODING="utf-8",
    )
    for argv in REPEATED:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "torusclass.cli", *argv],
            env=env, capture_output=True, encoding="utf-8", timeout=60,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["class"])
    assert excinfo.value.code == 2


def test_missing_command_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_unparsable_partition_exits_2(capsys):
    code, _, err = _run(capsys, ["class", "--partition", "x"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text", ["1_0", "+3", " 3", "\u0663,2"])
def test_a_partition_is_read_in_ascii_decimal_digits_only(capsys, text):
    # int() would read these as (10,), (3,), (3,) and (3, 2)
    assert _run(capsys, ["class", "--partition", text]) == (
        2, "", f"error: cannot parse partition {text!r}\n"
    )


@pytest.mark.parametrize("text", ["2,0", "0", "00,3"])
def test_a_zero_factor_degree_is_named_in_the_error(capsys, text):
    assert _run(capsys, ["class", "--partition", text]) == (
        2, "", "error: factor degree=0 is not an integer >= 1\n"
    )


@pytest.mark.parametrize("text", ["1_0", "+3", " 3", "\u0663"])
def test_an_int_flag_is_read_in_ascii_decimal_digits_only(capsys, text):
    # int() would read each of these as 10 or 3; argparse prints the usage
    # line, then its own error for the type
    with pytest.raises(SystemExit) as excinfo:
        main(["marks", "--n", text])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --n: invalid int value: {text!r}\n")


def test_a_negative_int_flag_reaches_its_command(capsys):
    assert _run(capsys, ["verify", "--partition", "2", "--qmax", "-1"]) == (
        2, "", "error: --qmax must be at least 2\n"
    )


def test_bound_violation_exits_2(capsys):
    code, _, err = _run(capsys, ["rho", "--n", str(DEGREE_BOUND + 1), "--i", "1"])
    assert code == 2
    assert "error:" in err


def test_class_of_degree_14_field(capsys):
    code, out, _ = _run(capsys, ["class", "--partition", "14"])
    assert code == 0
    assert out.startswith("L^14 - [Spec F_q^14]·L^13")


def test_recursion_answers_for_a_degree_22_field(capsys):
    code, out, _ = _run(capsys, ["class", "--partition", "22", "--method", "recursion"])
    assert code == 0
    assert out.startswith("L^22 - [Spec F_q^22]·L^21")


def test_all_routes_answer_for_six_fields_at_n_41(capsys):
    # past the Schur ring's degree bound, all three routes answer and agree
    code, out, _ = _run(capsys, ["class", "--partition", "13,11,7,5,3,2", "--method", "all"])
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["lambda", "rho", "recursion", "AGREE"]
    assert "skipped" not in out


@pytest.mark.parametrize("command", [["lambda", "--i", "1"], ["rho", "--i", "1"], ["marks"]])
def test_latex_format_rejected_where_unsupported(command):
    with pytest.raises(SystemExit) as excinfo:
        main(command + ["--n", "3", "--format", "latex"])
    assert excinfo.value.code == 2


def test_bad_verify_grid_exits_2(capsys):
    code, _, err = _run(capsys, ["verify", "--partition", "2", "--qmax", "1"])
    assert code == 2
    assert "error:" in err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int printing limit"
)
@pytest.mark.parametrize(
    "argv",
    [
        ["--partition", "1", "--emax", "7000"],
        ["--partition", "13,11,7,5,3,2", "--emax", "300"],
        ["--partition", "2", "--qmax", "10", "--emax", "1000000000"],
        # at emax = 1 the count 3^(3 * 10^7) - 1 is refused from its lower bound q^n / 2
        ["--partition", "30000000", "--qmax", "3", "--emax", "1"],
    ],
)
def test_verify_refuses_a_grid_it_could_not_print(capsys, argv):
    # the largest point count has more digits than int to str allows:
    # refused before any route runs, so no line of the grid is printed
    start = time.perf_counter()
    code, out, err = _run(capsys, ["verify", *argv])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: --qmax ") and "--emax " in err


def test_verify_prints_a_grid_just_inside_the_limit(capsys, monkeypatch):
    # at q = 5, e = 61 the count 5^61 - 1 has 43 digits, and at e = 62 it has 44
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 43, raising=False)
    code, out, _ = _run(capsys, ["verify", "--partition", "1", "--emax", "61"])
    assert code == 0
    assert f"q=5 e=61 count={5**61 - 1} oracle={5**61 - 1} ok" in out
    code, out, err = _run(capsys, ["verify", "--partition", "1", "--emax", "62"])
    assert (code, out) == (2, "")
    assert "q=5 e=62" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--partition", "1", "--qmax", "1000000000000", "--emax", "1"],
        ["--partition", "2", "--qmax", str(cli.GRID_BOUND + 2)],
        ["--partition", "2", "--qmax", "2", "--emax", str(cli.GRID_BOUND + 1)],
    ],
)
def test_verify_refuses_a_grid_past_the_bound(capsys, argv):
    # refused from qmax and emax alone: no prime power is sought, no route
    # runs and no line of the grid is printed
    start = time.perf_counter()
    code, out, err = _run(capsys, ["verify", *argv])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: --qmax ") and "--emax " in err
    assert f"more than {cli.GRID_BOUND:,}" in err


def test_verify_prints_a_grid_at_the_bound(capsys, monkeypatch):
    # the default grid, q = 2..5 and e = 1..3, has 4 * 3 = 12 points
    monkeypatch.setattr(cli, "GRID_BOUND", 12)
    code, out, _ = _run(capsys, ["verify", "--partition", "2"])
    assert code == 0 and out.endswith("q=5 e=3 count=15624 oracle=15624 ok\nPASS\n")
    monkeypatch.setattr(cli, "GRID_BOUND", 11)
    code, out, err = _run(capsys, ["verify", "--partition", "2"])
    assert (code, out) == (2, "")
    assert err == (
        "error: --qmax 5 --emax 3: the grid has (qmax - 1) * emax = 12 points, more than 11\n"
    )


SHIPPED = {
    "AlgebraSpec",
    "CyclicBurnside",
    "Partition",
    "SchurElement",
    "TorusClass",
    "char_poly_oracle",
    "class_via_lambda",
    "class_via_recursion",
    "class_via_universal",
    "lambda_standard",
    "mark_matrix",
    "norm_one_class",
    "partitions",
    "point_count_oracle",
    "spec_class",
    "torus_coefficient",
}


def test_package_ships_only_the_routes():
    # the routes, their rings and oracles, and the CLI; the brute-force
    # g-set engine and the test-only helpers live under tests/oracles
    assert len(torusclass.__all__) == len(SHIPPED) == 16
    assert set(torusclass.__all__) == SHIPPED
    for name in torusclass.__all__:
        assert getattr(torusclass, name) is not None, name
    assert importlib.util.find_spec("torusclass.gsets") is None
    assert importlib.util.find_spec("torusclass.series") is None
    # a fresh interpreter that finds the package where this one did
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(torusclass.__file__)))
    probe = "import torusclass, torusclass.cli, sys; print('torusclass.gsets' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
    # the README's library quickstart runs as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_import_loads_neither_dataclasses_nor_inspect():
    # importing the package and its CLI stays cheap: neither module (nor
    # the ast, dis and tokenize that inspect pulls in) is loaded on the way,
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(torusclass.__file__)))
    # and a well-formed call, read off the flag table, loads neither
    # argparse nor the gettext it imports
    probe = (
        "import sys; before = set(sys.modules); import torusclass, torusclass.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))); "
        "torusclass.cli.main(['class', '--partition', '1']); "
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "L - 1", "[]"]
    spec = AlgebraSpec((1, 2))
    assert spec == AlgebraSpec([2, 1]) and hash(spec) == hash(AlgebraSpec((2, 1)))
    assert spec != (2, 1) and repr(spec) == "AlgebraSpec(parts=(2, 1))"
    with pytest.raises(AttributeError):
        spec.parts = (3,)
    with pytest.raises(AttributeError):
        del spec.parts
