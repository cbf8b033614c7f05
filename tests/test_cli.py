"""Tests for the linset-lab command-line interface."""

import json

import pytest

from linsetlab import classify
from linsetlab.cli import main, parse_coeff, parse_poly, CliError
from linsetlab.gf import build_tower
from linsetlab.linpoly import LinearizedPolynomial
from linsetlab.linset import construct_club


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- input grammar ---------------------------------------------------------------


def test_parse_coeff_forms():
    t = build_tower(3, 1, 2)
    assert parse_coeff(t, "5") == 5
    assert parse_coeff(t, "[2,1]") == 2 + 1 * 3
    assert parse_coeff(t, " [0,1] ") == 3
    for bad in ("9", "-1", "x", "[3]", "[0,0,0]", "[1,"):
        with pytest.raises(CliError):
            parse_coeff(t, bad)


def test_parse_poly_forms():
    t = build_tower(2, 1, 4)
    assert parse_poly(t, "x").coeffs == (1, 0, 0, 0)
    assert parse_poly(t, "x^q").coeffs == (0, 1, 0, 0)
    assert parse_poly(t, "x^q^3").coeffs == (0, 0, 0, 1)
    assert parse_poly(t, "7*x + x^q^2").coeffs == (7, 0, 1, 0)
    assert parse_poly(t, "[1,0,1]*x^q").coeffs == (0, 5, 0, 0)
    assert parse_poly(t, "3").coeffs == (3, 0, 0, 0)
    assert parse_poly(t, "0").coeffs == (0, 0, 0, 0)
    # repeated exponents add in the field
    assert parse_poly(t, "x^q + x^q").coeffs == (0, 0, 0, 0)
    assert parse_poly(t, "2*x^q + 1*x^q").coeffs == (0, 3, 0, 0)
    for bad in ("x^q^4", "y", "x^p", "* x", "x +", "2**x"):
        with pytest.raises(CliError):
            parse_poly(t, bad)


def test_parse_poly_from_file(tmp_path):
    t = build_tower(2, 1, 4)
    f = LinearizedPolynomial(t, [3, 0, 7, 1])
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(f.to_json()))
    assert parse_poly(t, f"@{path}") == f


# -- spec'd example invocations --------------------------------------------------


def test_compare_pseudoregulus_pair(capsys):
    code, out, _ = run(capsys, ["compare", "--p", "2", "--e", "1", "--n", "5",
                                "--f", "x^q", "--g", "x^q^2"])
    blob = json.loads(out)
    assert code == 0
    assert blob["equal"] is True
    assert blob["verdict"] == "pseudoregulus"


def test_show_club_spectrum_csv(capsys, tmp_path):
    t = build_tower(2, 1, 4)
    U = construct_club(t.element(0), t.element(1), t.element(1))
    path = tmp_path / "club.json"
    path.write_text(json.dumps(U.as_graph_poly().to_json()))
    code, out, _ = run(capsys, ["show", "--p", "2", "--e", "1", "--n", "4",
                                "--f", f"@{path}", "--spectrum"])
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert rows == {"1": "8", "3": "1"}


def test_search_small_n_exits_zero(capsys):
    code, out, _ = run(capsys, ["search", "--p", "2", "--e", "1", "--n", "3"])
    blob = json.loads(out)
    assert code == 0
    assert blob["theorem_confirmed"] is True
    assert set(blob["verdict_histogram"]) <= {"multiple", "perp_multiple"}


# -- other subcommands -----------------------------------------------------------


def test_field_info(capsys):
    code, out, _ = run(capsys, ["field-info", "--p", "3", "--e", "1", "--n", "3"])
    blob = json.loads(out)
    assert code == 0
    assert (blob["q"], blob["order"]) == (3, 27)
    code, out2, _ = run(capsys, ["field-info", "--p", "3", "--e", "1", "--n", "3",
                                 "--modulus", "[1,2,0,1]"])
    assert json.loads(out2)["modulus"] == [1, 2, 0, 1]


def test_field_info_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("LINSETLAB_BUDGET", "12345")
    _, out, _ = run(capsys, ["field-info", "--p", "2", "--e", "1", "--n", "2"])
    assert json.loads(out)["enumeration_budget"] == 12345


@pytest.mark.parametrize("argv", [
    ["search", "--workers", "0"],
    ["search", "--workers", "-3"],
    ["verify", "--workers", "0"],
    ["search", "--sample", "-1"],
    ["search", "--n", "8", "--sample", "300"],  # 2^64 ids to draw from
    ["search", "--n", "13", "--sample", "3"],
    ["search", "--n", "6", "--budget", "1000", "--sample", "1001"],
    ["search", "--e", "11", "--n", "2", "--sample", "50", "--modulo-twist"],
    ["field-info", "--e", "0"],
    ["field-info", "--n", "0"],
    ["field-info", "--modulus", "1,1"],
    ["field-info", "--modulus", "1,1,1,1"],
    ["field-info", "--n", "2", "--modulus", "3,1,1"],  # 3 is no digit at p = 2
    ["verify", "--n", "2"],
    ["show", "--f", "@{tmp}/not_json.txt"],
    ["show", "--f", "@{tmp}/no_coeffs.json"],
    ["show", "--f", "@{tmp}/bad_digits.json"],
    ["show", "--fingerprint", "--f", "[1,1,1,1]*x"],
    ["show", "--fingerprint", "--f", "@{tmp}/bad_digits.json"],
    # digits are ints: floats, booleans and strings are refused
    ["show", "--f", "@{tmp}/odd_digits.json"],
    ["show", "--f", "@{tmp}/float_digit.json"],
    ["show", "--f", "@{tmp}/bool_digit.json"],
    ["show", "--f", "@{tmp}/str_digit.json"],
    ["show", "--f", "[true,true]*x^q"],
    ["show", "--f", "[1.0]*x"],
    ["search", "--modulus", "[true,true,false,true]"],
    ["search", "--modulus", "[1.5,1,0,1]"],
    ["field-info", "--modulus", "[1,1,0,true]"],
])
def test_bad_workers_and_sample_are_one_line_errors(capsys, tmp_path, argv):
    (tmp_path / "not_json.txt").write_text("x^q + 1\n", encoding="utf-8")
    (tmp_path / "no_coeffs.json").write_text('{"coefs": []}', encoding="utf-8")
    (tmp_path / "bad_digits.json").write_text('{"coeffs": [[5], [7, 3]]}',
                                              encoding="utf-8")
    (tmp_path / "odd_digits.json").write_text(
        '{"coeffs": [[1.9, 0, 1], [true], ["1"]]}', encoding="utf-8")
    for name in ("float", "bool", "str"):
        digit = {"float": "1.0", "bool": "true", "str": '"1"'}[name]
        (tmp_path / f"{name}_digit.json").write_text(
            f'{{"coeffs": [[{digit}], [0], [0]]}}', encoding="utf-8")
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(capsys, argv[:1] + ["--p", "2", "--e", "1", "--n", "3"]
                         + argv[1:])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_bad_budget_env_is_one_line_error(capsys, monkeypatch):
    for raw in ("abc", "0", "-5"):
        monkeypatch.setenv("LINSETLAB_BUDGET", raw)
        code, _, err = run(capsys, ["field-info", "--p", "2", "--e", "1",
                                    "--n", "3"])
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1


def test_construct_families(capsys):
    code, out, _ = run(capsys, ["construct", "--p", "2", "--e", "1", "--n", "4",
                                "--family", "club", "--a", "0", "--b", "1",
                                "--lam", "1", "--spectrum"])
    blob = json.loads(out)
    assert code == 0
    assert blob["spectrum"] == {"1": 8, "3": 1}

    code, out, _ = run(capsys, ["construct", "--p", "2", "--e", "1", "--n", "5",
                                "--family", "pseudoregulus", "--a", "1",
                                "--i", "2"])
    assert code == 0
    assert json.loads(out)["graph_coeffs"] == [0, 0, 1, 0, 0]

    code, out, _ = run(capsys, ["construct", "--p", "2", "--e", "1", "--n", "6",
                                "--family", "generalized", "--bs", "[0,1,0]",
                                "--a", "1", "--d", "3", "--fprime", "0"])
    assert code == 0
    assert json.loads(out)["family"] == "generalized"

    code, _, err = run(capsys, ["construct", "--p", "2", "--e", "1", "--n", "4",
                                "--family", "club"])
    assert code == 1 and "club needs" in err


def test_show_fingerprint_and_points(capsys):
    code, out, _ = run(capsys, ["show", "--p", "2", "--e", "1", "--n", "4",
                                "--f", "x^q", "--fingerprint", "--points"])
    blob = json.loads(out)
    assert code == 0
    assert blob["support"] == [1]
    assert blob["map_rank"] == 4
    assert len(blob["digest"]) == 16
    assert len(blob["points"]) == 15
    assert blob["is_club"] is False


def test_compare_unequal_and_enumerate(capsys):
    code, out, _ = run(capsys, ["compare", "--p", "2", "--e", "1", "--n", "4",
                                "--f", "x^q", "--g", "x^q + x^q^3",
                                "--enumerate"])
    blob = json.loads(out)
    assert code == 0
    assert blob["equal"] is False
    assert blob["enumeration_agrees"] is True
    assert "verdict" not in blob


def test_classify_verdict_and_exit_codes(capsys):
    code, out, _ = run(capsys, ["classify", "--p", "2", "--e", "1", "--n", "5",
                                "--f", "x^q", "--g", "x^q^2", "--exhaustive"])
    blob = json.loads(out)
    assert code == 0
    assert blob["case"] == "pseudoregulus"
    assert blob["replay"] is True
    assert blob["certificate"]
    # unequal sets are a runtime error for classify
    code, _, err = run(capsys, ["classify", "--p", "2", "--e", "1", "--n", "4",
                                "--f", "x^q", "--g", "x^q + x^q^3"])
    assert code == 1 and "error" in err


def test_search_csv_budget_and_sample(capsys):
    code, out, _ = run(capsys, ["search", "--p", "2", "--e", "1", "--n", "3",
                                "--csv"])
    assert code == 0
    assert out.splitlines()[0] == "case,count"

    code, _, err = run(capsys, ["search", "--p", "2", "--e", "1", "--n", "6"])
    assert code == 1 and "budget" in err

    code1, out1, _ = run(capsys, ["search", "--p", "2", "--e", "1", "--n", "6",
                                  "--sample", "200"])
    code2, out2, _ = run(capsys, ["search", "--p", "2", "--e", "1", "--n", "6",
                                  "--sample", "200"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_workers_identical_bytes(capsys):
    _, out1, _ = run(capsys, ["search", "--p", "2", "--e", "1", "--n", "3",
                              "--workers", "1"])
    _, out2, _ = run(capsys, ["search", "--p", "2", "--e", "1", "--n", "3",
                              "--workers", "2"])
    assert out1 == out2


def test_search_progress_on_stderr(capsys, monkeypatch):
    monkeypatch.setattr(classify, "PROGRESS_EVERY", 128)
    _, out, err = run(capsys, ["search", "--p", "2", "--e", "1", "--n", "3"])
    assert "progress:" in err
    assert "progress" not in out


def test_out_file_matches_stdout(capsys, tmp_path):
    _, out, _ = run(capsys, ["field-info", "--p", "2", "--e", "1", "--n", "4"])
    path = tmp_path / "info.json"
    code, empty, _ = run(capsys, ["field-info", "--p", "2", "--e", "1", "--n", "4",
                                  "--out", str(path)])
    assert code == 0 and empty == ""
    assert path.read_text() == out


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, ["verify", "--p", "2", "--e", "1", "--n", "3"])
    assert code == 0
    assert json.loads(out)["club_uniqueness"] is True


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, ["compare", "--p", "2", "--e", "1", "--n", "5",
                                "--f", "x^q"])
    assert code == 1
    assert "usage" in err
    code, _, _ = run(capsys, ["search", "--p", "4", "--e", "1", "--n", "2"])
    assert code == 1  # 4 is not prime


def test_identical_invocations_identical_bytes(capsys):
    argv = ["show", "--p", "3", "--e", "1", "--n", "3", "--f",
            "2*x + x^q^2", "--fingerprint", "--points"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
