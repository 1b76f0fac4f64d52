"""Acceptance checks: one test and one printed verdict line per criterion.

Every identity is checked with exact rational/Grassmann arithmetic — there
is no tolerance anywhere.  Run with `pytest tests/test_acceptance.py -s` to
see the verdict lines; each criterion must also finish well under a minute.
"""

import time

from superberezin.suites import (
    berezinian_multiplicativity_suite,
    change_of_variables_suite,
    fubini_quotient_suite,
    fubini_sign_grid_suite,
    homological_rank_suite,
    invariant_density_suite,
    module_rule_suite,
    product_formula_suite,
    support_containment_suite,
    unimodularity_suite,
)

TIME_BUDGET = 60.0


def _verdict(number: int, label: str, lines, elapsed: float):
    failures = [line for line in lines if not line.passed]
    status = "PASS" if not failures else "FAIL"
    print(f"{status} [{number}] {label}: "
          f"{len(lines) - len(failures)}/{len(lines)} exact checks "
          f"({elapsed:.1f}s)")
    assert not failures, "\n".join(line.render() for line in failures[:5])
    assert elapsed < TIME_BUDGET, f"criterion {number} took {elapsed:.1f}s"


def test_criterion_1_berezinian_multiplicativity():
    start = time.monotonic()
    lines = berezinian_multiplicativity_suite(seed=0)
    elapsed = time.monotonic() - start
    assert len(lines) == 200
    assert any("(1|1)" in line.name for line in lines)
    assert any("(2|1)" in line.name for line in lines)
    _verdict(1, "berezinian multiplicativity", lines, elapsed)


def test_criterion_2_berezinian_line_rank_and_parity():
    start = time.monotonic()
    lines = homological_rank_suite()
    elapsed = time.monotonic() - start
    assert len(lines) == 5
    _verdict(2, "homological berezinian rank/parity", lines, elapsed)


def test_criterion_3_change_of_variables():
    start = time.monotonic()
    lines = change_of_variables_suite(seed=0)
    elapsed = time.monotonic() - start
    assert len(lines) >= 50
    _verdict(3, "change of variables", lines, elapsed)


def test_criterion_4_fibre_integration_sign_grid():
    start = time.monotonic()
    lines = fubini_sign_grid_suite(seed=0)
    elapsed = time.monotonic() - start
    star = [line for line in lines if line.name.startswith("star-sign")]
    assert len(star) == 81
    _verdict(4, "product/fibre sign grid", lines, elapsed)


def test_criterion_5_module_rule_and_support():
    start = time.monotonic()
    rule = module_rule_suite(seed=0)
    support = support_containment_suite(seed=0)
    elapsed = time.monotonic() - start
    assert len(rule) >= 50
    _verdict(5, "module rule and support", rule + support, elapsed)


def test_criterion_6_fubini_over_quotients():
    start = time.monotonic()
    lines = fubini_quotient_suite(seed=0)
    elapsed = time.monotonic() - start
    text = " ".join(line.name for line in lines)
    for name in ("line-odd", "heisenberg-centre", "axb-odd"):
        assert name in text
    assert any("sign" in line.name for line in lines)
    _verdict(6, "staged integration over quotients", lines, elapsed)


def test_criterion_7_product_of_subgroups():
    start = time.monotonic()
    lines = product_formula_suite(seed=0)

    # independent confirmation of the frozen modular ratios: recompute the
    # conjugation Jacobian at the unit for the even factor of the
    # scaling-shift chart and compare with what the formula used
    from superberezin.groups import (
        axb_even_subgroup,
        axb_group,
        axb_odd_subgroup,
        product_builtins,
    )
    from superberezin.supergroup import modular_berezinian

    G = axb_group()
    ber_h, ber_u = modular_berezinian(G, axb_even_subgroup())
    oracle_even = ber_h * ber_u.inv_even()
    ber_h2, ber_u2 = modular_berezinian(G, axb_odd_subgroup())
    oracle_odd = ber_h2 * ber_u2.inv_even()
    names = {ex.name for ex in product_builtins()}
    assert names == {"axb-odd-even", "axb-even-odd"}
    from superberezin.suites import CheckLine
    lines = list(lines)
    lines.append(CheckLine.equal("conjugation-oracle ratio (even factor)",
                                 str(oracle_even), "x1"))
    lines.append(CheckLine.equal("conjugation-oracle ratio (odd factor)",
                                 str(oracle_odd), "1"))
    elapsed = time.monotonic() - start
    _verdict(7, "product-of-subgroups formula", lines, elapsed)


def test_criterion_8_unimodularity_verdicts():
    start = time.monotonic()
    lines = unimodularity_suite(seed=0)
    elapsed = time.monotonic() - start
    text = " ".join(line.name for line in lines)
    assert "gl11 h=0" in text and "gl11 borel" in text
    assert "abelian" in text
    assert sum("basis-change" in line.name for line in lines) >= 50
    _verdict(8, "unimodularity verdicts", lines, elapsed)


def test_criterion_9_invariant_density_uniqueness():
    start = time.monotonic()
    lines = invariant_density_suite()
    elapsed = time.monotonic() - start
    assert len(lines) == 4
    _verdict(9, "invariant density uniqueness", lines, elapsed)
