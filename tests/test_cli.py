"""Command-line surface: formats, determinism, exit codes."""

import json

import pytest

from torusclass.cli import main
from torusclass.schur import DEGREE_BOUND
from torusclass.torus import AlgebraSpec, TorusClass, class_via_lambda


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
    assert TorusClass.from_json(payload) == class_via_lambda(AlgebraSpec((2, 2)))
    powers = [entry["power"] for entry in payload["coeffs"]]
    assert powers == sorted(powers, reverse=True)


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


def test_all_routes_skip_rho_past_its_degree_bound(capsys):
    n = DEGREE_BOUND + 1
    skipped = f"rho: skipped (n > {DEGREE_BOUND})"
    code, out, _ = _run(capsys, ["class", "--partition", str(n), "--method", "all"])
    assert code == 0
    lines = out.splitlines()
    assert skipped in lines
    assert lines[0].startswith(f"lambda:    L^{n} - [Spec F_q^{n}]·L^{n - 1}")
    assert lines[2] == "recursion: " + lines[0][len("lambda:    "):]
    assert lines[-1] == "AGREE"
    code, out, _ = _run(capsys, ["verify", "--partition", str(n), "--qmax", "3", "--emax", "1"])
    assert code == 0
    assert skipped in out
    assert "PASS" in out


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
    # rho is past its degree bound, so lambda and recursion alone must agree
    code, out, _ = _run(capsys, ["class", "--partition", "13,11,7,5,3,2", "--method", "all"])
    assert code == 0
    lines = out.splitlines()
    assert f"rho: skipped (n > {DEGREE_BOUND})" in lines
    assert lines[-1] == "AGREE"


@pytest.mark.parametrize("command", [["lambda", "--i", "1"], ["rho", "--i", "1"], ["marks"]])
def test_latex_format_rejected_where_unsupported(command):
    with pytest.raises(SystemExit) as excinfo:
        main(command + ["--n", "3", "--format", "latex"])
    assert excinfo.value.code == 2


def test_bad_verify_grid_exits_2(capsys):
    code, _, err = _run(capsys, ["verify", "--partition", "2", "--qmax", "1"])
    assert code == 2
    assert "error:" in err
