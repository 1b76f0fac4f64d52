"""Command-line surface: frozen outputs, exit codes, round-trips."""

import dataclasses
import subprocess
import sys

import pytest

from superberezin import cli, groups
from superberezin.grassmann import Scalar
from superberezin.textio import parse_grassmann, parse_scalar

DIAG_6_3 = "1 1 0\n6\n0\n0\n3\n"

GL11_ALGEBRA = """generators E11:even E22:even E12:odd E21:odd
0 2 -> 0 0 1 0
0 3 -> 0 0 0 -1
1 2 -> 0 0 -1 0
1 3 -> 0 0 0 1
2 3 -> 1 1 0 0
"""

GAUSS_FUNCTION = "1 1 0\naxis R\nx1^2 : xi1\n"

BOX_FUNCTION = "1 0 0\naxis 0 1\nx1 : 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- ber ---------------------------------------------------------------------


def test_ber_diagonal(tmp_path, capsys):
    assert cli.main(["ber", write(tmp_path, "m.txt", DIAG_6_3)]) == 0
    assert capsys.readouterr().out == "2\n"


def test_ber_output_round_trips(tmp_path, capsys):
    text = "1 1 2\n2 + xi1 xi2\nxi1\nxi2\n4\n"
    assert cli.main(["ber", write(tmp_path, "m.txt", text)]) == 0
    printed = capsys.readouterr().out.strip()
    from superberezin.textio import parse_supermatrix
    expected = parse_supermatrix(text).berezinian()
    assert parse_grassmann(printed, 2) == expected


def test_ber_entries_mixing_powers_of_s(tmp_path, capsys):
    # elimination from the 1 at (0, 0) would form s - 1; the answer is -s
    text = "3 0 0\n1\n1\n1\n1\ns\n0\n1\n0\n0\n"
    assert cli.main(["ber", write(tmp_path, "m.txt", text)]) == 0
    assert capsys.readouterr().out == "-s\n"


def test_ber_sums_mixing_powers_of_s(tmp_path, capsys):
    # det = 2 s; eliminating from the -1 at (0, 0) forms 4 s^2 + 2 s
    text = "3 0 0\n-1\n-1\n2 s\n2 s\n0\n2 s\ns^-1\ns^-1\n-1\n"
    assert cli.main(["ber", write(tmp_path, "m.txt", text)]) == 0
    assert capsys.readouterr().out == "2 s\n"


def test_ber_missing_file(tmp_path, capsys):
    assert cli.main(["ber", str(tmp_path / "absent.txt")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_ber_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "1 0 1\n1 + zeta\n")
    assert cli.main(["ber", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 2, column 5")


def test_ber_zero_denominator_is_a_parse_error(tmp_path, capsys):
    path = write(tmp_path, "div0.txt", "1 1 2\n1/0\n0\n0\n1\n")
    assert cli.main(["ber", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 2, column 1")
    assert "Traceback" not in err


def test_ber_singular_matrix(tmp_path, capsys):
    path = write(tmp_path, "sing.txt", "1 1 0\n1\n0\n0\n0\n")
    assert cli.main(["ber", path]) == 1
    assert "error:" in capsys.readouterr().err


# -- integrate ---------------------------------------------------------------


def test_integrate_gaussian_default(tmp_path, capsys):
    path = write(tmp_path, "f.txt", GAUSS_FUNCTION)
    assert cli.main(["integrate", path]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-s"
    assert parse_scalar(out) == Scalar(-1, 1)


def test_integrate_box(tmp_path, capsys):
    path = write(tmp_path, "f.txt", BOX_FUNCTION)
    assert cli.main(["integrate", path, "--backend", "box", "0", "1"]) == 0
    assert capsys.readouterr().out == "1/2\n"


def test_integrate_box_fractional_bounds(tmp_path, capsys):
    path = write(tmp_path, "f.txt", BOX_FUNCTION)
    code = cli.main(["integrate", path, "--backend", "box", "0", "1/2"])
    assert code == 0
    assert capsys.readouterr().out == "1/8\n"


def test_integrate_box_odd_bound_count(tmp_path, capsys):
    path = write(tmp_path, "f.txt", BOX_FUNCTION)
    assert cli.main(["integrate", path, "--backend", "box", "0"]) == 2
    assert "even number of bounds" in capsys.readouterr().err


def test_integrate_box_bad_bound(tmp_path, capsys):
    path = write(tmp_path, "f.txt", BOX_FUNCTION)
    assert cli.main(["integrate", path, "--backend", "box", "1/0", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 1, column 5")
    assert "rational" in err


@pytest.mark.parametrize("bound", ["1e9", "0.5", "1e999999999", "+1"])
def test_integrate_box_bounds_use_the_text_grammar(tmp_path, capsys, bound):
    # bounds are read like 'axis lo hi' rationals: a decimal exponent is a
    # parse error at the bound's column, never expanded
    path = write(tmp_path, "f.txt", BOX_FUNCTION)
    assert cli.main(["integrate", path, "--backend", "box", "0", bound]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 1, column 7: expected a rational number, "
        f"got {bound!r}\n")


def test_integrate_box_overlong_bound(tmp_path, capsys):
    path = write(tmp_path, "f.txt", BOX_FUNCTION)
    code = cli.main(["integrate", path, "--backend", "box", "0", "9" * 5000])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "parse error: line 1, column 7: number too long")


def test_integrate_zero_denominator_is_a_parse_error(tmp_path, capsys):
    path = write(tmp_path, "f.txt", "1 0 0\naxis 0 1\nx1 + 3/0 x1^2 : 1\n")
    assert cli.main(["integrate", path, "--backend", "box", "0", "1"]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 3, column 6")


def test_integrate_unknown_backend(tmp_path, capsys):
    path = write(tmp_path, "f.txt", BOX_FUNCTION)
    assert cli.main(["integrate", path, "--backend", "montecarlo"]) == 2


def test_integrate_nonintegrable_exponent(tmp_path, capsys):
    path = write(tmp_path, "f.txt", "1 0 0\naxis 1 2\nx1^-1 : 1\n")
    assert cli.main(["integrate", path, "--backend", "box", "1", "2"]) == 1
    assert "antiderivative" in capsys.readouterr().err


def test_integrate_box_outside_axis(tmp_path, capsys):
    path = write(tmp_path, "f.txt", BOX_FUNCTION)
    assert cli.main(["integrate", path, "--backend", "box", "-1", "1"]) == 1


def test_integrate_exponent_over_the_bound_is_a_parse_error(tmp_path, capsys):
    path = write(tmp_path, "f.txt", "1 0 0\naxis 1 2\n3 x1^20000 : 1\n")
    assert cli.main(["integrate", path, "--backend", "box", "1", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error: line 3, column 3")
    assert "exponent 20000 exceeds the bound |e| <= 1000" in captured.err
    assert captured.out == ""


def test_integrate_exponent_at_the_bound(tmp_path, capsys):
    path = write(tmp_path, "f.txt", "1 0 0\naxis 0 1\nx1^1000 : 1\n")
    assert cli.main(["integrate", path, "--backend", "box", "0", "1"]) == 0
    assert capsys.readouterr().out == "1/1001\n"


def test_integrate_result_too_large_to_print(tmp_path, capsys):
    # (10^20)^1001 / 1001 has about 20000 digits
    big = "1" + "0" * 20
    path = write(tmp_path, "f.txt", f"1 0 0\naxis 0 {big}\nx1^1000 : 1\n")
    assert cli.main(["integrate", path, "--backend", "box", "0", big]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: result too large to print")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_ber_number_too_long_is_a_parse_error(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 1 0\n" + "9" * 5000 + "\n0\n0\n1\n")
    assert cli.main(["ber", path]) == 2
    assert capsys.readouterr().err.startswith(
        "parse error: line 2, column 1: number too long")


def test_ber_result_too_large_to_print(tmp_path, capsys):
    big = "9" * 4000
    path = write(tmp_path, "m.txt", f"2 0 0\n{big}\n0\n0\n{big}\n")
    assert cli.main(["ber", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: result too large to print")
    assert captured.out == ""


# -- unimodular --------------------------------------------------------------


def test_unimodular_borel_of_gl11(tmp_path, capsys):
    path = write(tmp_path, "g.txt", GL11_ALGEBRA)
    assert cli.main(["unimodular", path, "--subalgebra", "0,1,2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "NOT_UNIMODULAR witness=E11 str=1"
    assert out[1].startswith("note:")


def test_unimodular_even_part(tmp_path, capsys):
    path = write(tmp_path, "g.txt", GL11_ALGEBRA)
    assert cli.main(["unimodular", path, "--subalgebra", "0,1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "UNIMODULAR"


def test_unimodular_span_not_closed(tmp_path, capsys):
    path = write(tmp_path, "g.txt", GL11_ALGEBRA)
    assert cli.main(["unimodular", path, "--subalgebra", "2,3"]) == 1
    assert "span" in capsys.readouterr().err


def test_unimodular_bad_span_token(tmp_path, capsys):
    path = write(tmp_path, "g.txt", GL11_ALGEBRA)
    assert cli.main(["unimodular", path, "--subalgebra", "0,x"]) == 2


def test_unimodular_span_out_of_range(tmp_path, capsys):
    path = write(tmp_path, "g.txt", GL11_ALGEBRA)
    assert cli.main(["unimodular", path, "--subalgebra", "0,9"]) == 2


def test_unimodular_invalid_algebra(tmp_path, capsys):
    # brackets violating antisymmetry for an even pair
    bad = "generators a:even b:even\n0 1 -> 1 0\n1 0 -> 1 0\n"
    path = write(tmp_path, "g.txt", bad)
    assert cli.main(["unimodular", path, "--subalgebra", "0"]) == 1
    assert "invalid structure constants" in capsys.readouterr().err


# -- examples ----------------------------------------------------------------


def test_examples_list(capsys):
    assert cli.main(["examples", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split(":")[0] for line in lines]
    assert names == sorted(names)
    assert set(names) == {"fubini-ax+b", "heisenberg-fubini", "product-ax+b",
                          "unimod-gl11", "unimod-borel"}


@pytest.mark.parametrize("name", ["fubini-ax+b", "heisenberg-fubini",
                                  "product-ax+b", "unimod-gl11",
                                  "unimod-borel"])
def test_examples_all_pass(name, capsys):
    assert cli.main(["examples", "run", name]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 2
    assert "FAIL" not in out


def test_examples_report_line_format(capsys):
    cli.main(["examples", "run", "fubini-ax+b"])
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "PASS axb-odd staged integral lhs=15/8 rhs=15/8"


def test_examples_compare_with_frozen_answers(monkeypatch, capsys):
    fubini = groups.axb_fubini_example()
    monkeypatch.setattr(groups, "axb_fubini_example",
                        lambda: dataclasses.replace(fubini, staging_sign=1))
    odd_even, even_odd = groups.product_builtins()
    wrong = dataclasses.replace(even_odd, modular_ratio=odd_even.modular_ratio)
    monkeypatch.setattr(groups, "product_builtins", lambda: (odd_even, wrong))
    assert cli.main(["examples", "run", "fubini-ax+b"]) == 1
    assert "FAIL axb-odd staging sign lhs=-1 rhs=1" in capsys.readouterr().out
    assert cli.main(["examples", "run", "product-ax+b"]) == 1
    assert "FAIL axb-even-odd modular ratio lhs=1 rhs=x1" in \
        capsys.readouterr().out


def test_examples_unknown_name(capsys):
    assert cli.main(["examples", "run", "nonsense"]) == 2
    assert "unknown example" in capsys.readouterr().err


def test_examples_run_needs_name(capsys):
    assert cli.main(["examples", "run"]) == 2


# -- verify ------------------------------------------------------------------


def test_verify_summary_line(capsys):
    assert cli.main(["verify", "berezinian-line", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # berezinian-line takes no seed, so the summary must not name one
    assert lines[-1] == "5/5 checks passed (unseeded)"
    assert all(line.startswith("PASS ") for line in lines[:-1])


def test_verify_seeded_summary_names_the_seed(capsys):
    assert cli.main(["verify", "support", "--seed", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "checks passed (seed 3)")


def test_verify_does_not_retry_on_type_error(monkeypatch):
    calls = []

    def broken(seed=0):
        calls.append(seed)
        raise TypeError("bug inside the suite")

    monkeypatch.setitem(cli.SUITES, "broken", broken)
    with pytest.raises(TypeError, match="bug inside the suite"):
        cli.main(["verify", "broken", "--seed", "5"])
    assert calls == [5]


def test_verify_default_seed(capsys):
    assert cli.main(["verify", "support"]) == 0
    assert "(seed 0)" in capsys.readouterr().out.splitlines()[-1]


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_failure_exit_code(capsys, monkeypatch):
    from superberezin.suites import CheckLine

    def rigged(seed=0):
        return [CheckLine(name="rigged", passed=False, lhs="0", rhs="1")]

    monkeypatch.setitem(cli.SUITES, "rigged", rigged)
    assert cli.main(["verify", "rigged"]) == 1
    out = capsys.readouterr().out
    assert "FAIL rigged lhs=0 rhs=1" in out
    assert "0/1 checks passed" in out


# -- top level ---------------------------------------------------------------


def test_usage_errors_exit_two():
    assert cli.main([]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["ber"]) == 2


def test_console_entry_point(tmp_path):
    path = write(tmp_path, "m.txt", DIAG_6_3)
    for module in ("superberezin.cli", "superberezin"):
        proc = subprocess.run([sys.executable, "-m", module, "ber", path],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "2\n"
