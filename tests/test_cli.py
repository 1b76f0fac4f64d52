"""Command-line surface: frozen outputs, exit codes, round-trips."""

import inspect
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from superberezin import cli, groups, supergroup
from superberezin.grassmann import GrassmannElement, Scalar
from superberezin.errors import ParseError
from superberezin.superdomain import (
    REALLINE,
    Polynomial,
    SuperDomainShape,
    SuperFunction,
    SuperMorphism,
)
from superberezin.suites import SUITES, UNSEEDED, CheckLine
from superberezin.textio import (
    parse_grassmann,
    parse_scalar,
    parse_superfunction,
)

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


@pytest.mark.parametrize("command, options", [
    ("ber", []), ("integrate", []), ("unimodular", ["--subalgebra", "0"])])
def test_a_file_that_is_not_utf8_cannot_be_read(tmp_path, capsys, command,
                                                options):
    # "1 1" saved as UTF-16 with its byte-order mark: byte 0 is 0xff
    path = tmp_path / "utf16.txt"
    path.write_bytes("1 1".encode("utf-16"))
    assert cli.main([command, str(path), *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read input: {path} is not UTF-8 text: ")
    assert "Traceback" not in err


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
    # columns count along the words after --backend: the unpaired last bound
    path = write(tmp_path, "f.txt", BOX_FUNCTION)
    assert cli.main(["integrate", path, "--backend", "box", "0"]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 1, column 5: box backend needs an even number "
        "of bounds\n")
    assert cli.main(["integrate", path, "--backend", "box", "0", "1", "-2"]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 1, column 9:")


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


@pytest.mark.parametrize("bounds,column", [
    (["1", "0"], 5), (["1/2", "1/2"], 5), (["0", "1", "2", "-1"], 9),
    (["2", "1", "x", "3"], 5)])
def test_integrate_box_reversed_bounds_are_a_usage_error(
        tmp_path, capsys, bounds, column):
    # the message, exit code and word of 'axis lo hi' with lo >= hi in a
    # file: the lower bound of the offending pair; pairs are read in turn,
    # so a reversed pair is reported before a bad word in a later one
    path = write(tmp_path, "f.txt", BOX_FUNCTION)
    assert cli.main(["integrate", path, "--backend", "box", *bounds]) == 2
    assert capsys.readouterr().err == (
        f"parse error: line 1, column {column}: "
        "interval bounds must be increasing\n")


def test_integrate_zero_denominator_is_a_parse_error(tmp_path, capsys):
    path = write(tmp_path, "f.txt", "1 0 0\naxis 0 1\nx1 + 3/0 x1^2 : 1\n")
    assert cli.main(["integrate", path, "--backend", "box", "0", "1"]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 3, column 6")


def test_integrate_unknown_backend(tmp_path, capsys):
    path = write(tmp_path, "f.txt", BOX_FUNCTION)
    assert cli.main(["integrate", path, "--backend", "montecarlo"]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 1, column 1: unknown backend 'montecarlo'\n")


def test_integrate_extra_word_after_gaussian(tmp_path, capsys):
    # the offending word is the one after the known name
    path = write(tmp_path, "f.txt", BOX_FUNCTION)
    assert cli.main(["integrate", path, "--backend", "gaussian", "box"]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 1, column 10: unknown backend 'gaussian box'\n")


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


def test_integrate_reserved_header_field_is_a_parse_error(tmp_path, capsys):
    text = "0 1 1\n1 : xi1\n"
    with pytest.raises(ParseError) as info:
        parse_superfunction(text)
    assert (info.value.line, info.value.column) == (1, 5)
    assert cli.main(["integrate", write(tmp_path, "f.txt", text)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error: line 1, column 5")
    assert captured.out == ""


@pytest.mark.parametrize("command, text, column", [
    ("ber", "1 0 100000000000\n1\n", 5),
    ("integrate", "0 100000000000 0\n1 : 1\n", 3),
])
def test_generator_count_over_the_bound_is_a_parse_error(
        tmp_path, capsys, command, text, column):
    # read at its header word, before the layout builds an N-bit mask
    assert cli.main([command, write(tmp_path, "f.txt", text)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"parse error: line 1, column {column}: generator count 100000000000 "
        "exceeds the bound N <= 1000\n")
    assert captured.out == ""


@pytest.mark.parametrize("command, text, out", [
    ("ber", "1 1 1000\n2 + xi1 xi1000\nxi1\nxi1000\n3\n", "2/3 + 2/9 xi1 xi1000\n"),
    ("integrate", "0 1000 0\n1 : xi1000\n", "0\n"),
])
def test_generator_count_at_the_bound(tmp_path, capsys, command, text, out):
    assert cli.main([command, write(tmp_path, "f.txt", text)]) == 0
    assert capsys.readouterr().out == out


def test_even_variable_count_over_the_bound_is_a_parse_error(tmp_path, capsys):
    # read at its header word, before any axis line or key layout
    for m in (1001, 10**9):
        assert cli.main(["integrate", write(tmp_path, "f.txt", f"{m} 0 0\n")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"parse error: line 1, column 1: even variable count {m} "
            "exceeds the bound m <= 1000\n")
        assert captured.out == ""


def test_even_variable_count_at_the_bound(tmp_path, capsys):
    # one s per whole-line axis: the Gaussian moment of x1000^2
    text = "1000 0 0\n" + "axis R\n" * 1000 + "x1000^2 : 1\n"
    assert cli.main(["integrate", write(tmp_path, "f.txt", text)]) == 0
    assert capsys.readouterr().out == "s^1000\n"


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
    # columns count along the --subalgebra value
    path = write(tmp_path, "g.txt", GL11_ALGEBRA)
    assert cli.main(["unimodular", path, "--subalgebra", "0,x"]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 1, column 3: expected an integer, got 'x'\n")
    assert cli.main(["unimodular", path, "--subalgebra", "1,3,1.5"]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 1, column 5:")


def test_unimodular_span_out_of_range(tmp_path, capsys):
    path = write(tmp_path, "g.txt", GL11_ALGEBRA)
    assert cli.main(["unimodular", path, "--subalgebra", "0,9"]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 1, column 3: subalgebra indices must lie in 0..3\n")
    assert cli.main(["unimodular", path, "--subalgebra", "1,,-1"]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 1, column 4:")


def test_unimodular_invalid_algebra(tmp_path, capsys):
    # brackets violating antisymmetry for an even pair
    bad = "generators a:even b:even\n0 1 -> 1 0\n1 0 -> 1 0\n"
    path = write(tmp_path, "g.txt", bad)
    assert cli.main(["unimodular", path, "--subalgebra", "0"]) == 1
    assert "invalid structure constants" in capsys.readouterr().err


# sl(2)-like constants with [e, f] corrupted to h + e
SL2_BAD_JACOBI = """generators h:even e:even f:even
0 1 -> 0 2 0
0 2 -> 0 0 -2
1 2 -> 1 1 0
"""


def test_unimodular_jacobi_violation(tmp_path, capsys):
    # every triple of distinct generators fails, in the order of a sweep
    # over all triples
    path = write(tmp_path, "g.txt", SL2_BAD_JACOBI)
    assert cli.main(["unimodular", path, "--subalgebra", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(
        f"invalid structure constants: jacobi: triple ({a}, {b}, {c})\n"
        for a, b, c in [("h", "e", "f"), ("h", "f", "e"), ("e", "h", "f"),
                        ("e", "f", "h"), ("f", "h", "e"), ("f", "e", "h")])


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
    ex = groups.axb_fubini_example()
    fubini = groups.FubiniExample(
        ex.name, ex.group, ex.subgroup, ex.section, ex.test_function,
        staging_sign=1, backend=ex.backend)
    monkeypatch.setattr(groups, "axb_fubini_example", lambda: fubini)
    odd_even, even_odd = groups.product_builtins()
    wrong = groups.ProductExample(
        even_odd.name, even_odd.group, even_odd.left, even_odd.right,
        even_odd.test_function, modular_ratio=odd_even.modular_ratio,
        ratio_label=even_odd.ratio_label,
        modular_constant=even_odd.modular_constant, backend=even_odd.backend)
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


def test_unseeded_suites_are_the_ones_without_a_seed_parameter():
    # cli reads whether a suite takes --seed from this declaration
    assert UNSEEDED == {name for name, suite in SUITES.items()
                        if "seed" not in inspect.signature(suite).parameters}


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
    def rigged(seed=0):
        return [CheckLine(name="rigged", passed=False, lhs="0", rhs="1")]

    monkeypatch.setitem(cli.SUITES, "rigged", rigged)
    assert cli.main(["verify", "rigged"]) == 1
    out = capsys.readouterr().out
    assert "FAIL rigged lhs=0 rhs=1" in out
    assert "0/1 checks passed" in out


def test_verify_other_side_haar_densities_fail_as_before(monkeypatch, capsys):
    # right densities where left ones belong: an example of the staged
    # suites stops where its per-integrand checks stopped, as one FAIL line
    # naming the error; the examples before it keep their lines
    haar = supergroup.haar_density

    def other_side(G, side="left"):
        return haar(G, "right" if side == "left" else "left")

    monkeypatch.setattr(supergroup, "haar_density", other_side)
    assert cli.main(["verify", "fubini-quotients"]) == 1
    assert capsys.readouterr() == (
        "PASS fubini line-odd case 0 lhs=s rhs=s\n"
        "PASS fubini line-odd case 1 lhs=4 s rhs=4 s\n"
        "PASS fubini line-odd case 2 lhs=4 s rhs=4 s\n"
        "PASS fubini line-odd case 3 lhs=4 s rhs=4 s\n"
        "PASS fubini line-odd sign consistency lhs=-1 rhs=-1\n"
        "PASS fubini heisenberg-centre case 0 lhs=7 s rhs=7 s\n"
        "PASS fubini heisenberg-centre case 1 lhs=5 s rhs=5 s\n"
        "PASS fubini heisenberg-centre case 2 lhs=s rhs=s\n"
        "PASS fubini heisenberg-centre case 3 lhs=s rhs=s\n"
        "PASS fubini heisenberg-centre sign consistency lhs=1 rhs=1\n"
        "FAIL fubini axb-odd error lhs=NonIntegrableError "
        "rhs=exponent -1 has no rational antiderivative\n"
        "10/11 checks passed (seed 0)\n", "")
    assert cli.main(["verify", "product-formula"]) == 1
    ratio_text = ("rhs=pullback of the total density is not a constant "
                  "multiple of ratio * (product of subgroup densities)\n")
    assert capsys.readouterr() == (
        "FAIL product axb-odd-even error lhs=NormalizationError "
        + ratio_text
        + "FAIL product axb-even-odd error lhs=NormalizationError "
        + ratio_text
        + "0/2 checks passed (seed 0)\n", "")
    # an example stops the same way, naming itself
    assert cli.main(["examples", "run", "product-ax+b"]) == 1
    assert capsys.readouterr() == (
        "", "error: examples run product-ax+b: pullback of the total density "
        "is not a constant "
        "multiple of ratio * (product of subgroup densities)\n")


def test_verify_quotient_without_invariant_density_fails(monkeypatch,
                                                         capsys):
    # axb over its scaling subgroup: tau^*omega_G does not factor, which
    # the suite reports once, from staging, before any integrand
    ex = groups.axb_fubini_example()
    base = SuperDomainShape(0, (), 1)
    section = SuperMorphism(base, ex.group.shape,
                            [SuperFunction.constant(base, 1)],
                            [SuperFunction.odd_gen(base, 0)])
    scaling = groups.FubiniExample(
        ex.name, ex.group, subgroup=groups.axb_even_subgroup(),
        section=section, test_function=ex.test_function,
        staging_sign=ex.staging_sign, backend=ex.backend)
    monkeypatch.setattr(groups, "fubini_builtins", lambda: (scaling,))
    assert cli.main(["verify", "fubini-quotients"]) == 1
    assert capsys.readouterr() == (
        "FAIL fubini axb-odd error lhs=NormalizationError rhs=the total "
        "density does not factor as base x subgroup density through the "
        "trivialization\n"
        "0/1 checks passed (seed 0)\n", "")


# -- check lines -------------------------------------------------------------


_scalars = st.builds(
    lambda parts: sum((Scalar(q, k) for q, k in parts), Scalar(0)),
    st.lists(st.tuples(st.fractions(min_value=-3, max_value=3,
                                    max_denominator=6),
                       st.integers(-2, 2)), max_size=3))


def _shape(m, n):
    return SuperDomainShape(m, (REALLINE,) * m, n)


@st.composite
def _equal_pairs(draw):
    """Two values that compare equal, built by different routes, and
    sometimes a third that does not."""
    c = draw(_scalars)
    k = draw(st.integers(-2, 2))
    counts = st.integers(0, 3)
    route = draw(st.sampled_from(("scalar", "grassmann", "polynomial",
                                  "superfunction", "monomial", "mixed")))
    if route == "scalar":
        # a power of s moved out of the value and back in
        pair = (c, c * Scalar(1, -k) * Scalar(1, k))
    elif route == "grassmann":
        pair = (GrassmannElement.scalar(draw(counts), c),
                GrassmannElement.scalar(draw(counts), c))
    elif route == "polynomial":
        pair = (Polynomial.constant(draw(counts), c),
                Polynomial.constant(draw(counts), c))
    elif route == "superfunction":
        pair = (SuperFunction.constant(_shape(draw(counts), draw(counts)), c),
                SuperFunction.constant(_shape(draw(counts), draw(counts)), c))
    elif route == "monomial":
        n = draw(st.integers(2, 4))
        gens = [GrassmannElement(n, {(j,): 1}) for j in range(n)]
        pair = (GrassmannElement(n, {(0, 1): c}) + gens[n - 1],
                gens[n - 1] + c * gens[0] * gens[1])
    else:
        pair = (GrassmannElement.scalar(draw(counts), c),
                Polynomial.constant(draw(counts), c))
    if draw(st.booleans()):
        pair = (pair[0], pair[1] + Scalar(Fraction(1, 7), k))
    return pair


@settings(max_examples=200, deadline=None)
@given(_equal_pairs())
def test_check_line_prints_what_each_side_prints(pair):
    lhs, rhs = pair
    line = CheckLine.equal("pair", lhs, rhs)
    assert line.passed == (lhs == rhs)
    assert line.lhs == str(lhs)
    assert line.rhs == str(rhs)


def test_check_line_prints_a_passing_value_once(monkeypatch):
    printed = []
    for cls in (Scalar, GrassmannElement, Polynomial):
        def counted(self, _str=cls.__str__):
            printed.append(self)
            return _str(self)
        monkeypatch.setattr(cls, "__str__", counted)
    cases = [((Scalar(2, 1), Scalar(2, 1)), 1),
             ((GrassmannElement.scalar(1, 3), GrassmannElement.scalar(3, 3)),
              1),
             ((Scalar(2), Scalar(3)), 2),
             ((GrassmannElement.scalar(2, 3), Polynomial.constant(1, 3)), 2)]
    for (lhs, rhs), calls in cases:
        printed.clear()
        line = CheckLine.equal("pair", lhs, rhs)
        assert len(printed) == calls, (lhs, rhs)
        assert (line.lhs, line.rhs) == (str(lhs), str(rhs))


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


def test_one_process_runs_match_separate_runs(tmp_path, capsys):
    # the parser is built once and shared: a usage error must not leave
    # state behind for the commands parsed after it
    path = write(tmp_path, "m.txt", DIAG_6_3)
    runs = [["ber"], ["ber", path], ["verify", "support"]]
    in_process = []
    for argv in runs:
        code = cli.main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in in_process] == [2, 0, 0]
    for argv, result in zip(runs, in_process):
        proc = subprocess.run([sys.executable, "-m", "superberezin", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == result
