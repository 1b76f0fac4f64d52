"""A fault-injection kill matrix: no check may pass by construction.

A fault is one row of ``FAULTS``.  Most rows are an edit of the real
function, as a mutation operator makes one: ``edit`` names the function
and the exact source fragments it replaces, and ``edited`` rebuilds the
function from its own source with them replaced.  The rest bind a small
wrapper of a real function.  Each fault is bound with ``monkeypatch`` at
every place that binds the original.  Then the seeded ``verify`` suites
and the worked examples run in process through ``cli.main``, and the set
of check lines that FAIL is pinned per fault and run.  A run that ends in
an ``error:`` line instead (a library error ends the whole suite) is
pinned as ``"error"``.  The pinned sets may only grow: a fault that stops
failing a line is a check that lost its teeth.

The Lie superalgebra column: the odd sign of the quotient supertrace, the
Koszul sign of the mirror fill of structure constants, and one term of
the graded Jacobi identity.  The fibre-integration column: each of the
three signs (-1)^{np + pq + q|L|} of p_! left out in turn.  The Koszul and
basis signs are edited in ``berezin._pushforward``, which ``integrate``
shares, but onto the point (0|0) both are 1.  The convention sign pq is
undone after it in ``fibre_integrate_section`` only.  ``verify
fubini-signs`` catches all three, and ``verify module-rule`` the Koszul
sign: its two sides push forward (h f) ox omega and f ox omega, so the
basis and convention signs, which do not depend on L, cancel.  Every
quotient of ``fubini-quotients`` and of the two Fubini examples has n*p,
p*q and q*n even, so these three wait there on a quotient with an odd
base and an odd fibre (ROADMAP items 16 and 17).  The convention sign
left out of the shared ``_pushforward`` changes ``integrate`` too, and by
unlike signs on the two sides of a Fubini check: it fails the odd ax+b
and odd line quotients, the first p_! sign fault that a group identity
catches.  The basis sign of ``product_section`` fails the star-sign lines
of ``fubini-signs`` and the odd-even ax+b constant.  The box column, in
``Interval``, which owns its moments and containment test: the box moment
of x^e divided by e + 2 instead of e + 1.  Only ``verify
change-of-variables`` catches it, since only the true integral is
invariant under a change of variables; every other run integrates both
sides of its identity over the same box axes, so the wrong moments
cancel.  And the containment test strict at the upper end, which only
``verify change-of-variables`` catches (an error): its corner samples map
exactly onto the target's corners.  The Gaussian moment taken as
(e + 1)!! waits in ``WAITING``: no run integrates over a Gaussian axis
(item 29).  The pullback column: the puller's linear combination of the
last variable's powers without its highest power, where it holds more
than one.  ``verify change-of-variables`` catches it (38 of its 60
lines), and so do the Fubini and product cases whose integrands hold
such a prefix; no built-in chart's Haar densities, modular Berezinians or
group laws do.  The Berezinian column: the Haar density of the other
side, the Haar density not inverted, the modular ratio Ber(Ad on h) /
Ber(Ad on g) inverted, det(D) where the Berezinian takes det(D)^-1, on
the LU factorisation and the adjugate solve alike, the sign of the LU
update flipped, a row swap that keeps the permutation's sign, and the
trace of the Faddeev-LeVerrier fallback not divided by k.  Only ``verify
berezinian`` catches the update sign (169 of its 200 lines), as every
Schur complement A - B D^-1 C is one LU update.  No run's matrices need a
row swap, so that fault waits on the Liouville Berezinian suite (item
33).  No run reaches the fallback, as no suite's matrix has a column
without a pivot, so the trace fault waits on the chain-rule suite (item
12).  The Koszul column: d's hop sign dropped in ``koszul._d_terms``,
which only ``verify berezinian-line`` catches (an error).  The arithmetic
column: bit 0 of the ``_BYTE_SWAPS`` entry of mask 0b0110 flipped, so
xi2 xi3 times xi1 takes the wrong sign, and ``_reduced`` without its gcd
step, so equal values can be stored unalike.  Only ``verify berezinian``
catches the sign (74 of its 200 lines), and ``verify berezinian`` and
``verify change-of-variables`` the gcd (127 and 31 lines).  A fault in
the sign rule above bit 8 (a high byte not complemented) is caught by no
run: no suite has more than 8 odd generators.  The seeded (16|16) pair
over Lambda_16 catches it (Ber(XY) != Ber X Ber Y), so the Lambda_16
Berezinian rung of ROADMAP item 15 will.  The arithmetic column also
stops ``_series_inverse`` one step short, which only ``verify
berezinian`` catches (68 of its 200 lines), and keeps, in
``_anticommuting``, the one product loop, a pair of monomials that share
a generator, as if xi_i^2 = xi_i, under the key of their mask union.
``verify change-of-variables`` (22 of its 60 lines), ``verify
berezinian`` and ``verify invariant-density`` (errors) catch it.  And
``fused_sum``, the fused sum of products of every LU fold and of every
pullback, sums each product over the common denominator L without its
scale L // (a.den b.den): ``verify berezinian`` catches it (44 of its 200
lines, all (2|1), as the drawn entries are integral and a (1|1)
Berezinian folds one pair at a time), and ``verify change-of-variables``
(14 of its 60 lines).  The structure-constant column: the Koszul sign of
the swapped jet in ``group_lie_algebra`` set to 1, in ``supergroup``
alone, which only ``examples run unimod-gl11`` catches, as its
extraction's validation raises; and the jet terms with an odd letter in
each factor skipped, which no run catches.  It waits on the
quotient-unimodularity and super-divergence suites (items 2 and 26).  The
Fubini stage's base sign (-1)^(base.n H.m) dropped waits too, on items 2
and 16: every quotient of a run has base.n H.m even.  The linear-algebra
column: ``linalg._rref`` returning the echelon form without its
back-reduction.  44 of the 50 ``change_basis`` inverses of a seed-0
``verify unimodularity`` come out wrong, yet no line of any run changes:
the basis-change lines read only the verdict, and ``verify
invariant-density`` prints only the kernel dimension.  It waits on items
1 and 32.  Until a run catches a waiting fault, the tier-1 tests named
with it in ``WAITING`` fail under it.
"""

import __future__
import importlib
import inspect
import io
import re
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout

import pytest

from superberezin import (berezin, cli, grassmann, koszul, lie_super, linalg,
                          supergroup, supermatrix)
from superberezin.berezin import (BerezinSection, _pushforward,
                                  fibre_integrate_section, product_section)
from superberezin.errors import SuperBerezinError
from superberezin.grassmann import (_BYTE_SWAPS, _anticommuting, _reduced,
                                    _series_inverse, fused_sum)
from superberezin.superdomain import Interval, _puller, _WholeLine

RUNS = {
    "verify unimodularity": ["verify", "unimodularity", "--seed", "0"],
    "verify fubini-quotients": ["verify", "fubini-quotients", "--seed", "0"],
    "verify fubini-signs": ["verify", "fubini-signs", "--seed", "0"],
    "verify module-rule": ["verify", "module-rule", "--seed", "0"],
    "verify product-formula": ["verify", "product-formula", "--seed", "0"],
    "verify berezinian": ["verify", "berezinian", "--seed", "0"],
    "verify change-of-variables": ["verify", "change-of-variables",
                                   "--seed", "0"],
    "verify berezinian-line": ["verify", "berezinian-line"],
    "verify invariant-density": ["verify", "invariant-density"],
    "examples run unimod-gl11": ["examples", "run", "unimod-gl11"],
    "examples run unimod-borel": ["examples", "run", "unimod-borel"],
    "examples run fubini-ax+b": ["examples", "run", "fubini-ax+b"],
    "examples run product-ax+b": ["examples", "run", "product-ax+b"],
}


def failed_checks(argv):
    """The names of the check lines that FAIL, and "error" when the run
    ends in an error line; the exit code is 1 exactly when either shows."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    failed = {line[len("FAIL "):].partition(" lhs=")[0]
              for line in out.getvalue().splitlines()
              if line.startswith("FAIL ")}
    if err.getvalue().startswith("error:"):
        failed.add("error")
    assert code == (1 if failed else 0), (argv, code, err.getvalue())
    return frozenset(failed)


def patch_everywhere(monkeypatch, original, replacement):
    """Rebind every attribute of a package module that is ``original``: a
    name imported by value elsewhere would otherwise keep the good copy."""
    for name, module in list(sys.modules.items()):
        if name == "superberezin" or name.startswith("superberezin."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def edited(func, *edits):
    """``func`` rebuilt from its own source with each (fragment, text) of
    ``edits`` made; a fragment must occur exactly once, and each new line
    of a text takes the fragment's indentation.  The code keeps the file's
    name and line numbers and runs in the module's live globals, whose own
    binding of ``func`` is left as it is."""
    lines, first = inspect.getsourcelines(func)
    source = textwrap.dedent("".join(lines))
    for fragment, text in edits:
        if source.count(fragment) != 1:
            raise ValueError(f"{func.__qualname__}: {fragment!r} occurs "
                             f"{source.count(fragment)} times, not once")
        line = source[:source.index(fragment)].rpartition("\n")[2]
        indent = line[:len(line) - len(line.lstrip())]
        source = source.replace(fragment, text.replace("\n", "\n" + indent))
    code = compile("\n" * (first - 1) + source, func.__code__.co_filename,
                   "exec", __future__.annotations.compiler_flag,
                   dont_inherit=True)
    scope = {}
    exec(code, func.__globals__, scope)
    return scope[func.__name__]


def edit(func, *edits):
    """The fault that binds ``edited(func, *edits)`` in place of ``func``:
    on its class for a method, else wherever the package binds it."""
    def apply(monkeypatch):
        new = edited(func, *edits)
        owner, _, name = func.__qualname__.rpartition(".")
        if owner:
            monkeypatch.setattr(getattr(inspect.getmodule(func), owner),
                                name, new)
        else:
            patch_everywhere(monkeypatch, func, new)
    return apply


def replaced(original, replacement):
    """The fault that binds ``replacement`` wherever the package binds
    ``original``."""
    def apply(monkeypatch):
        patch_everywhere(monkeypatch, original, replacement)
    return apply


# -- the faults that wrap a real function ------------------------------------


def _byte_table_with_one_bit_flipped():
    # the fault: bit 0 of mask 0b0110's entry flipped, so xi2 xi3 * xi1
    # counts xi1 as passing an odd number of letters
    table = list(_BYTE_SWAPS)
    table[0b0110] ^= 1
    return tuple(table)


def _series_inverse_one_step_short(cls, count, den, head, c, soul, steps):
    # the fault: the series b^-1 sum_j (-b^-1 n)^j stops at j = steps - 1
    return _series_inverse(cls, count, den, head, c, soul, max(steps - 1, 0))


_jet_terms = supergroup._jet_terms


def _jet_terms_without_odd_pairs(comps, m, n):
    # the fault: a term with an odd letter in each factor is skipped; only
    # such a term reaches an (odd, odd) pair of directions
    return {(a, b): terms for (a, b), terms in _jet_terms(comps, m, n).items()
            if a < m or b < m}


_haar_density = supergroup.haar_density
_modular_berezinian = supergroup.modular_berezinian


def _haar_density_of_the_other_side(G, side="left"):
    # the fault: rho_R where rho_L belongs, and the other way round
    return _haar_density(G, "right" if side == "left" else "left")


def _haar_density_not_inverted(G, side="left"):
    # the fault: Ber(d(g.x)/dx at x = e) itself, not its inverse
    density = _haar_density(G, side)
    return BerezinSection(density.shape, density.density.inv_even())


def _modular_ratio_inverted(G, H):
    # the fault: Ber(Ad on g) / Ber(Ad on h) where the ratio is the inverse
    ber_h, ber_u = _modular_berezinian(G, H)
    return ber_u, ber_h


_lu = supermatrix._lu
_adjugate_solve = supermatrix._adjugate_solve


def _lu_with_pivots(rows, n):
    sign, minus_inverses = _lu(rows, n)
    # the fault: -pivot where -pivot^-1 belongs, so the Berezinian takes
    # det(D) for det(D)^-1 (a determinant reads only their count)
    return sign, [-rows[k][k] for k in range(len(minus_inverses))]


def _adjugate_solve_with_det_d(*args):
    det_d_inv, W = _adjugate_solve(*args)
    # the fault: det(D) where det(D)^-1 belongs
    return det_d_inv.inv_even(), W


def _lu_keeping_the_sign(rows, n):
    # the fault: a row swap leaves the sign of the permutation as it was
    return 1, _lu(rows, n)[1]


def _rref_without_back_reduction(rows, ncols):
    # the fault: the echelon form, each pivot column left nonzero above its
    # pivot row
    return linalg._echelon(rows, ncols)[0]


def swapped_jet_koszul_sign_dropped(monkeypatch):
    # supergroup's binding only: lie_super's Koszul signs stay
    monkeypatch.setattr(supergroup, "koszul_sign", lambda a, b: 1)


def odd_pair_jet_terms_skipped(monkeypatch):
    monkeypatch.setattr(supergroup, "_jet_terms", _jet_terms_without_odd_pairs)


def det_d_for_its_inverse(monkeypatch):
    patch_everywhere(monkeypatch, _lu, _lu_with_pivots)
    patch_everywhere(monkeypatch, _adjugate_solve, _adjugate_solve_with_det_d)


# -- the table ----------------------------------------------------------------

# a fault is one row: an edit of the real function (the exact fragments it
# replaces, and their replacements), or the binding of a wrapper
FAULTS = {
    "lie_super odd sign of the quotient supertrace": edit(
        lie_super._quotient_supertrace,
        ("trace += -c if g.parities[k] is ODD else c", "trace += c")),
    # [e_j, e_i] = +(-1)^{|i||j|} [e_i, e_j]
    "lie_super mirror fill Koszul sign": edit(
        lie_super.LieSuperAlgebra.__init__,
        ("tuple(-sign * c for c in vec)", "tuple(sign * c for c in vec)")),
    # [[e_i, e_j], e_k] added instead of subtracted
    "lie_super one Jacobi term's sign": edit(
        lie_super._jacobi_holds, ("((m, k), -a)", "((m, k), a)")),
    # (-1)^{np + pq + q|L|} with one exponent left out; the convention sign
    # pq is undone after the shared _pushforward, which integrate runs too
    "berezin p_! Koszul sign": edit(
        _pushforward, (" + q * mask.bit_count()", "")),
    "berezin p_! basis sign": edit(_pushforward, ("n * p + ", "")),
    "berezin p_! convention sign": edit(fibre_integrate_section, (
        "return BerezinSection(",
        "if fibre.m * fibre.n % 2:\n"
        "    nums = {key: -c for key, c in nums.items()}\n"
        "return BerezinSection(")),
    "berezin p_! convention sign in the shared pushforward": edit(
        _pushforward, ("p * q + ", "")),
    "berezin product_section basis sign dropped": edit(
        product_section, ("r1 = -r1", "pass")),
    "berezin box moment over e + 2": edit(Interval._lebesgue, (
        "(b * d) ** k * (e + 1)", "(b * d) ** k * (e + 2)")),
    # the moment of x^e against exp(-x^2/2) taken as (e + 1)!!, not (e - 1)!!
    "berezin Gaussian moment (e + 1)!!": edit(
        _WholeLine._gaussian, ("range(1, e, 2)", "range(1, e + 2, 2)")),
    "superdomain interval containment strict at hi": edit(
        Interval._inside, ("n * hi.denominator <=", "n * hi.denominator <")),
    # a prefix's linear combination of the last variable's powers leaves out
    # its highest power, where it holds more than one
    "superdomain pullback's last linear combination drops its top power":
        edit(_puller, (
            "combination = _linear_combination(",
            "top = max(e for e, _, _ in terms)\n"
            "terms = [term for term in terms if term[0] != top] or terms\n"
            "combination = _linear_combination(")),
    "grassmann byte table bit flipped": replaced(
        _BYTE_SWAPS, _byte_table_with_one_bit_flipped()),
    # masks that share a generator multiply as if xi_i^2 = xi_i, the pair
    # kept under the key of the mask union
    "grassmann product loop keeps overlapping masks": edit(
        _anticommuting, ("if ma & kb:", "if False:"),
        ("key = ka + kb", "key = ka + kb - (ma & kb)")),
    # numerators and den left over their common factor (an empty sum still
    # has den 1)
    "grassmann _reduced without its gcd": edit(
        _reduced, ("if g != 1:", "if g != 1 and not acc:")),
    "grassmann one step of _series_inverse dropped": replaced(
        _series_inverse, _series_inverse_one_step_short),
    # every product summed over the common denominator L unscaled, where it
    # takes L // (a.den b.den)
    "grassmann fused sum drops each pair's scale": edit(
        fused_sum, ("1 if common == 1 else common // (a.den * b.den)", "1")),
    "koszul hop sign of d dropped": edit(
        koszul._d_terms, ("-1 if hops & 1 else 1", "1")),
    "supergroup Koszul sign of the swapped jet dropped":
        swapped_jet_koszul_sign_dropped,
    "supergroup jet terms with an odd letter in each factor skipped":
        odd_pair_jet_terms_skipped,
    "supergroup Haar density of the other side": replaced(
        _haar_density, _haar_density_of_the_other_side),
    "supergroup Haar density not inverted": replaced(
        _haar_density, _haar_density_not_inverted),
    "supergroup modular ratio inverted": replaced(
        _modular_berezinian, _modular_ratio_inverted),
    # b read off at the unit keeps the basis sign (-1)^(base.n * H.m) of
    # product_section
    "supergroup Fubini stage base sign dropped": edit(
        supergroup._fubini_stage, ("-b if (base.n * Hsh.m) % 2 else b", "b")),
    "supermatrix det(D) for det(D)^-1": det_d_for_its_inverse,
    # -a b added, where the negated pivot rows make a b right
    "supermatrix LU update sign flipped": edit(
        supermatrix._fold, ("(row[t], rows[t][j])", "(-row[t], rows[t][j])")),
    "supermatrix LU row swap keeps its sign": replaced(
        _lu, _lu_keeping_the_sign),
    # c_k = -tr(M M_k), the trace of the Faddeev-LeVerrier step not divided
    # by k
    "supermatrix Faddeev-LeVerrier trace not divided by k": edit(
        supermatrix._faddeev_leverrier, ("* Fraction(-1, k)", "* -1")),
    "linalg back-reduction left out": replaced(
        linalg._rref, _rref_without_back_reduction),
}


# faults no run catches yet: the open ROADMAP items whose runs will, and
# the test module and the deterministic tier-1 tests that fail under them
WAITING = {
    # Heisenberg's [Q1, Q2] = 2Z becomes 0, and the Fubini sign line reads
    # only the dimensions of g and h
    "supergroup jet terms with an odd letter in each factor skipped": (
        "items 2 and 26", "test_supergroup", (
            "test_heisenberg_algebra_relations",
            "test_gl11_chart_matches_matrix_unit_constants")),
    # det(A) of a stalled A and det(D) of a stalled D come out scaled
    "supermatrix Faddeev-LeVerrier trace not divided by k": (
        "item 12", "test_supermatrix", (
            "test_berezinian_of_a_coupled_cubic_jacobian_has_its_closed_form",
            "test_berezinian_stalled_odd_block_solves_by_cramer")),
    # an odd number of row swaps negates a determinant; no seed-0 run's
    # matrices need a row swap
    "supermatrix LU row swap keeps its sign": (
        "item 33", "test_supermatrix", (
            "test_berezinian_matches_laplace_oracle",)),
    # the sign is (-1)^(base.n * H.m), and every quotient of a run has
    # base.n * H.m even; R^(1|1) over its even line has it odd
    "supergroup Fubini stage base sign dropped": (
        "items 2 and 16", "test_supergroup", (
            ("test_fubini_holds_on_every_coordinate_quotient", (1, 1, 1, ())),
        )),
    # the basis-change lines read only the verdict, and invariant-density
    # prints only the kernel dimension
    "linalg back-reduction left out": (
        "items 1 and 32", "test_linalg", (
            "test_inverse",
            "test_dense_int_rows_give_int_results_and_a_float_is_refused")),
    # no run integrates over a Gaussian axis: D(x, xi) xi x^2 gives -3 s
    # for -s, and the moment of x^4 15 s for 3 s
    "berezin Gaussian moment (e + 1)!!": (
        "item 29", "test_berezin", (
            "test_gaussian_one_one_with_sign",
            "test_gaussian_moments_table")),
}


def _numbered(check, cases):
    """The check lines "<check> <shape> #<k>" for each shape's numbers k."""
    return {f"{check} {shape} #{k}" for shape, ks in cases.items() for k in ks}


# what each fault FAILs, per run; a run left out catches nothing
PINNED = {
    "lie_super odd sign of the quotient supertrace": {
        "verify unimodularity": {"unimodularity borel witness"},
        "examples run unimod-borel": {"gl11 borel witness"},
    },
    "lie_super mirror fill Koszul sign": {
        # the suite validates its case algebras and raises
        "verify unimodularity": {"error"},
        # group_lie_algebra validates what it extracts and raises
        "verify fubini-quotients": {"fubini axb-odd error",
                                    "fubini heisenberg-centre error"},
        "examples run unimod-gl11": {"error"},
    },
    "lie_super one Jacobi term's sign": {
        "verify unimodularity": {"error"},
        "verify fubini-quotients": {"fubini axb-odd error"},
        "examples run unimod-gl11": {"error"},
    },
    "berezin p_! Koszul sign": {
        "verify fubini-signs": {f"fibre-identity {label}" for label in (
            "(0|1)x(0|1)", "(0|1)x(1|1)", "(0|1)x(2|1)", "(1|1)x(1|1)",
            "(1|1)x(2|1)", "(2|1)x(0|1)", "(2|1)x(1|1)")},
        "verify module-rule": {f"module-rule #{k}" for k in (
            0, 6, 15, 18, 24, 27, 33, 37, 42, 43, 46)},
    },
    "berezin p_! basis sign": {
        "verify fubini-signs": {f"fibre-identity ({m}|1)x(1|{q})"
                                for m in range(3) for q in range(3)},
    },
    "berezin p_! convention sign": {
        "verify fubini-signs": {f"fibre-identity ({m}|{n})x(1|1)"
                                for m in range(3) for n in range(3)},
    },
    # integrate runs the same _pushforward, so both sides of a Fubini check
    # change, and by unlike signs: the first p_! sign fault that a group
    # identity catches
    "berezin p_! convention sign in the shared pushforward": {
        "verify fubini-signs": {f"{check} {label}" for label in (
            "(0|1)x(1|0)", "(0|1)x(1|1)", "(0|1)x(1|2)", "(1|0)x(0|1)",
            "(1|0)x(1|1)", "(1|0)x(2|1)", "(1|1)x(1|0)", "(1|1)x(1|2)",
            "(1|1)x(2|1)", "(1|2)x(0|1)", "(1|2)x(1|1)", "(1|2)x(2|1)",
            "(2|1)x(1|0)", "(2|1)x(1|1)", "(2|1)x(1|2)")
            for check in ("fibre-identity", "star-sign")},
        "verify fubini-quotients": {f"fubini {quotient} case {k}"
                                    for quotient in ("axb-odd", "line-odd")
                                    for k in range(4)},
        "examples run fubini-ax+b": {"axb-odd staged integral"},
    },
    "berezin product_section basis sign dropped": {
        "verify fubini-signs": {f"star-sign ({m}|1)x(1|{q})"
                                for m in range(3) for q in range(3)},
        "verify product-formula": {"product axb-odd-even constant"},
    },
    # 36 of 60; every other run integrates both sides over the same axes
    "berezin box moment over e + 2": {
        "verify change-of-variables": _numbered("change-of-variables", {
            "(1|1)": (0, 4, 8, 12, 28, 32, 36, 40, 56),
            "(1|2)": (2, 6, 22, 26, 30, 34, 38, 42, 46, 50, 58),
            "(2|1)": (1, 17, 29, 33, 45, 53),
            "(2|2)": (3, 11, 15, 19, 23, 27, 35, 39, 51, 59)}),
    },
    # the walk ends at the first corner sample whose image is an interval's
    # upper end; every other run samples no image at an upper end
    "superdomain interval containment strict at hi": {
        "verify change-of-variables": {"error"},
    },
    # a prefix whose last variable takes more than one power loses the
    # highest: 38 of 60 changes of variables and the Fubini and product
    # cases whose integrands hold such a prefix.  The two ax+b examples'
    # a + a b holds none; no built-in chart's Haar densities, modular
    # Berezinians or group laws pull one back, so they come out unchanged;
    # and the unimodularity runs read Lie algebras only
    "superdomain pullback's last linear combination drops its top power": {
        "verify fubini-quotients": {
            *(f"fubini axb-odd case {k}" for k in range(4)),
            "fubini heisenberg-centre case 1",
            *(f"fubini line-odd case {k}" for k in (0, 1, 3))},
        "verify product-formula": {
            f"product axb-{order} case {k}"
            for order in ("even-odd", "odd-even") for k in range(5)},
        "verify change-of-variables": _numbered("change-of-variables", {
            "(1|1)": (0, 4, 8, 12, 28, 32, 36, 40, 48, 52, 56),
            "(1|2)": (2, 6, 18, 22, 26, 30, 34, 38, 46, 50, 58),
            "(2|1)": (1, 17, 29, 33, 37, 45, 53, 57),
            "(2|2)": (3, 11, 15, 23, 27, 35, 39, 59)}),
    },
    # 74 of 200
    "grassmann byte table bit flipped": {
        "verify berezinian": _numbered("ber-mult", {
            "(1|1)": (0, 2, 15, 19, 25, 31, 40, 42, 43, 48, 56, 70, 71, 73,
                      74, 76, 77, 83),
            "(2|1)": (1, 2, 3, 6, 7, 8, 10, 13, 15, 17, 18, 22, 23, 24, 25,
                      28, 30, 31, 32, 34, 35, 37, 39, 40, 45, 47, 51, 52, 54,
                      55, 58, 62, 63, 66, 67, 68, 69, 70, 71, 72, 76, 77, 78,
                      79, 80, 84, 86, 88, 89, 90, 91, 94, 96, 97, 98, 99)}),
    },
    # 22 of 60, all on two odd coordinates
    "grassmann product loop keeps overlapping masks": {
        # a Berezinian's odd part reaches inv_even, which raises
        "verify berezinian": {"error"},
        "verify change-of-variables": _numbered("change-of-variables", {
            "(1|2)": (6, 22, 26, 30, 34, 42, 46, 54, 58),
            "(2|2)": (7, 11, 15, 19, 23, 27, 35, 39, 43, 47, 51, 55, 59)}),
        # the ansatz solve finds no left-invariant density, and raises
        "verify invariant-density": {"error"},
    },
    # d reads nonzero homology at the truncation boundary, and the
    # suite's homological Berezinian raises
    "koszul hop sign of d dropped": {
        "verify berezinian-line": {"error"},
    },
    "grassmann _reduced without its gcd": {
        "verify berezinian": _numbered("ber-mult", {
            "(1|1)": (2, 3, 4, 5, 7, 9, 12, 13, 14, 15, 16, 17, 18, 22, 23,
                      24, 28, 29, 32, 39, 41, 42, 43, 44, 46, 47, 48, 49, 50,
                      51, 52, 54, 55, 57, 58, 59, 63, 64, 65, 67, 68, 69, 70,
                      73, 74, 75, 76, 77, 78, 79, 83, 84, 86, 87, 88, 91),
            "(2|1)": (0, 2, 4, 8, 10, 12, 13, 14, 15, 16, 18, 19, 20, 21, 22,
                      23, 24, 25, 27, 29, 32, 34, 36, 37, 38, 40, 41, 43, 44,
                      45, 46, 47, 49, 50, 52, 53, 54, 56, 57, 58, 59, 60, 61,
                      63, 64, 66, 67, 68, 69, 71, 72, 74, 76, 77, 78, 79, 80,
                      81, 82, 84, 85, 87, 88, 89, 90, 92, 94, 95, 97, 98, 99)}),
        "verify change-of-variables": _numbered("change-of-variables", {
            "(1|1)": (0, 4, 8, 12, 28, 32, 36, 48, 52, 56),
            "(1|2)": (2, 6, 18, 26, 38, 46, 50),
            "(2|1)": (1, 17, 29, 33, 37, 45, 53, 57),
            "(2|2)": (3, 11, 15, 27, 35, 39)}),
    },
    # 68 of 200: over Lambda_4 the dropped step is soul^2 / body^3
    "grassmann one step of _series_inverse dropped": {
        "verify berezinian": _numbered("ber-mult", {
            "(1|1)": (2, 5, 15, 17, 18, 23, 30, 31, 36, 40, 41, 44, 47, 57,
                      59, 65, 66, 68, 71, 73, 74, 77, 83, 86, 87, 88),
            "(2|1)": (2, 7, 8, 10, 13, 15, 16, 18, 20, 23, 24, 27, 28, 30,
                      32, 35, 38, 40, 41, 49, 57, 59, 60, 61, 64, 66, 71,
                      74, 76, 77, 78, 79, 80, 81, 85, 87, 88, 89, 92, 96,
                      98, 99)}),
    },
    # 44 of 200, all (2|1): the drawn entries are integral, and a (1|1)
    # Berezinian folds one pair at a time, whose scale is 1.  Each pullback
    # ends in one fused sum too, so 14 of 60 changes of variables, whose
    # prefix images and combinations sit over unlike denominators
    "grassmann fused sum drops each pair's scale": {
        "verify berezinian": _numbered("ber-mult", {
            "(2|1)": (1, 2, 8, 10, 15, 19, 20, 23, 25, 26, 27, 29, 30, 34,
                      37, 40, 43, 44, 47, 48, 52, 54, 56, 57, 58, 60, 66,
                      72, 76, 77, 78, 79, 80, 81, 83, 84, 85, 89, 90, 91,
                      93, 95, 98, 99)}),
        "verify change-of-variables": _numbered("change-of-variables", {
            "(1|2)": (46,),
            "(2|1)": (1, 17, 29, 33, 37, 45, 53),
            "(2|2)": (15, 19, 23, 27, 39, 59)}),
    },
    # odd-odd constants become jet(a, b) - jet(b, a): GL(1|1)'s fail the
    # Jacobi identity and the extraction raises, Heisenberg's become 0
    "supergroup Koszul sign of the swapped jet dropped": {
        "examples run unimod-gl11": {"error"},
    },
    # only the non-unimodular axb tells the sides apart
    "supergroup Haar density of the other side": {
        "verify fubini-quotients": {"fubini axb-odd error"},
        "verify product-formula": {"product axb-even-odd error",
                                   "product axb-odd-even error"},
        "examples run product-ax+b": {"error"},
    },
    "supergroup Haar density not inverted": {
        "verify product-formula": {"product axb-even-odd error",
                                   "product axb-odd-even error"},
        "examples run product-ax+b": {"error"},
    },
    "supergroup modular ratio inverted": {
        "verify product-formula": {"product axb-odd-even error"},
        "examples run product-ax+b": {"error"},
    },
    "supermatrix det(D) for det(D)^-1": {
        "verify fubini-quotients": {"fubini axb-odd error"},
        "verify product-formula": {"product axb-even-odd error",
                                   "product axb-odd-even error"},
        "verify berezinian": _numbered("ber-mult", {
            "(1|1)": (0, 4, 7, 10, 15, 16, 17, 18, 20, 22, 26, 27, 35, 40,
                      42, 44, 46, 47, 48, 50, 52, 56, 57, 58, 60, 61, 62,
                      63, 64, 65, 66, 68, 69, 73, 75, 77, 79, 80, 81, 84,
                      86, 87, 88, 89, 91, 94, 95),
            "(2|1)": (1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13, 16, 17, 18, 19,
                      20, 21, 22, 23, 25, 26, 27, 28, 30, 31, 32, 33, 34,
                      35, 36, 37, 38, 39, 42, 44, 45, 47, 48, 49, 50, 51,
                      52, 54, 55, 56, 57, 60, 62, 63, 64, 65, 66, 67, 68,
                      69, 70, 71, 73, 74, 76, 77, 78, 79, 80, 83, 84, 85,
                      86, 87, 88, 89, 90, 91, 92, 93, 94, 98, 99)}),
        "verify change-of-variables": _numbered("change-of-variables", {
            "(1|1)": (0, 8, 28, 32, 36, 52, 56),
            "(1|2)": (2, 6, 18, 26, 46, 50),
            "(2|1)": (29, 33, 53),
            "(2|2)": (3, 11, 15)}),
        "examples run fubini-ax+b": {"error"},
        "examples run product-ax+b": {"error"},
        # the ansatz solve finds no left-invariant density, and raises
        "verify invariant-density": {"error"},
    },
    # 169 of 200: each Schur complement A - B D^-1 C is one LU fold
    "supermatrix LU update sign flipped": {
        "verify berezinian": _numbered("ber-mult", {
            "(1|1)": set(range(100)) - {
                1, 2, 5, 6, 19, 21, 24, 28, 30, 33, 34, 36, 37, 38, 39, 41,
                45, 53, 54, 67, 72, 82, 85, 90, 92, 93, 97, 98},
            "(2|1)": set(range(100)) - {24, 41, 82}}),
    },
}


def kill_matrix(monkeypatch):
    matrix = {}
    for fault, apply in FAULTS.items():
        with monkeypatch.context() as patch:
            apply(patch)
            matrix[fault] = {run: failed_checks(argv)
                             for run, argv in RUNS.items()}
    return matrix


def render(matrix):
    lines = []
    for fault, row in matrix.items():
        lines.append(fault)
        lines.extend(f"    {run}: {sorted(failed)}"
                     for run, failed in row.items())
    return "\n".join(lines)


def test_nothing_fails_without_a_fault():
    for run, argv in RUNS.items():
        assert failed_checks(argv) == frozenset(), run


def test_every_fault_fails_its_pinned_checks(monkeypatch):
    matrix = kill_matrix(monkeypatch)
    shown = "kill matrix:\n" + render(matrix)
    for fault, row in PINNED.items():
        for run, pinned in row.items():
            assert pinned <= matrix[fault][run], shown
    # every fault is caught somewhere, or waits on an open item, and every
    # run catches some fault
    assert all(any(row.values()) for fault, row in matrix.items()
               if fault not in WAITING), shown
    assert all(any(matrix[fault][run] for fault in FAULTS)
               for run in RUNS), shown


def test_waiting_faults_fail_their_tier1_tests(monkeypatch):
    for fault, (_, module, tests) in WAITING.items():
        module = importlib.import_module(module)
        with monkeypatch.context() as patch:
            FAULTS[fault](patch)
            for test in tests:
                # a test's name, or its name and the parameters of one case;
                # it fails by an assertion or by an error of the package
                name, args = (test, ()) if isinstance(test, str) else test
                with pytest.raises((AssertionError, SuperBerezinError)):
                    getattr(module, name)(*args)


def test_an_edit_checks_its_fragments_and_leaves_the_module_as_it_was(
        monkeypatch):
    # a fragment absent, or present twice, is named with the function
    for fragment, count in (("if g == 1:", 0), ("acc.items()", 2)):
        with pytest.raises(ValueError, match=re.escape(
                f"_reduced: {fragment!r} occurs {count} times")):
            edited(_reduced, (fragment, ""))
    new = edited(_reduced, ("if g != 1:", "if g != 1 and not acc:"))
    assert (new.__code__.co_filename, new.__code__.co_firstlineno) == (
        _reduced.__code__.co_filename, _reduced.__code__.co_firstlineno)
    assert grassmann._reduced is _reduced

    def bound():
        return grassmann._reduced, berezin._reduced, vars(Interval)["_inside"]

    originals = bound()
    with monkeypatch.context() as patch:
        FAULTS["grassmann _reduced without its gcd"](patch)
        FAULTS["superdomain interval containment strict at hi"](patch)
        assert not any(a is b for a, b in zip(bound(), originals))
    assert all(a is b for a, b in zip(bound(), originals))
