"""A fault-injection kill matrix: no check may pass by construction.

Each named fault is patched into the program with ``monkeypatch`` at
every place that binds the patched object.  Then the seeded ``verify``
suites and the worked examples run in process through ``cli.main``, and
the set of check lines that FAIL is pinned per fault and run.  A run that
ends in an ``error:`` line instead (a library error ends the whole suite)
is pinned as ``"error"``.  The pinned sets may only grow: a fault that
stops failing a line is a check that lost its teeth.

So far the matrix holds five columns.  The Lie superalgebra column: the
odd sign of the quotient supertrace, the Koszul sign of the mirror fill of
structure constants, and one term of the graded Jacobi identity.  The
fibre-integration column: each of the three signs of
``berezin.fibre_integrate_section``, (-1)^{np + pq + q|L|}, dropped in turn
from a copy of it.  ``verify fubini-signs`` catches all three, and
``verify module-rule`` the Koszul sign (-1)^{q|L|}: its two sides push
forward (h f) ox omega and f ox omega, so the basis and convention signs,
which do not depend on L, cancel between them.  Every built-in quotient
of ``fubini-quotients`` and of the two Fubini examples has n*p, p*q and
q*n even, so the column there waits on a quotient with an odd base and an
odd fibre (ROADMAP items 16 and 17).  The moment column: the box moment
of x^e divided by e + 2 instead of e + 1, its -1 and pole errors kept.
Only ``verify change-of-variables`` catches it, since only the true
integral is invariant under a change of variables.  ``fubini-quotients``,
``product-formula`` and the two ax+b examples integrate both sides of
each identity over the same box axes, so the wrong moments enter both
sides alike and cancel.  The Berezinian column: the Haar density of the
other side, the Haar density not inverted, the modular ratio
Ber(Ad on h) / Ber(Ad on g) inverted, and det(D) where the Berezinian
takes det(D)^-1.  The arithmetic column: bit 0 of the ``_BYTE_SWAPS``
entry of mask 0b0110 flipped, so xi2 xi3 times xi1 takes the wrong sign,
and ``_reduced`` without its gcd step, so equal values can be stored
unalike.  Only ``verify berezinian`` catches the sign (74 of its 200
lines), and ``verify berezinian`` and ``verify change-of-variables`` the
gcd (127 and 31 lines).  A fault in the sign rule above bit 8 (a high
byte not complemented) is caught by no run: no suite has more than 8 odd
generators.  The seeded (16|16) pair over Lambda_16 catches it (Ber(XY)
!= Ber X Ber Y), so the Lambda_16 Berezinian rung of ROADMAP item 15 will.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from superberezin import berezin, cli, lie_super, supergroup, supermatrix
from superberezin.berezin import BerezinSection, _times_moments
from superberezin.errors import DimensionError, NonIntegrableError
from superberezin.grassmann import (_BYTE_SWAPS, _indices, _quotient, _reduced,
                                    _stored, koszul_sign)
from superberezin.superdomain import SuperFunction, shape_product

RUNS = {
    "verify unimodularity": ["verify", "unimodularity", "--seed", "0"],
    "verify fubini-quotients": ["verify", "fubini-quotients", "--seed", "0"],
    "verify fubini-signs": ["verify", "fubini-signs", "--seed", "0"],
    "verify module-rule": ["verify", "module-rule", "--seed", "0"],
    "verify product-formula": ["verify", "product-formula", "--seed", "0"],
    "verify berezinian": ["verify", "berezinian", "--seed", "0"],
    "verify change-of-variables": ["verify", "change-of-variables",
                                   "--seed", "0"],
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


# -- the faults -------------------------------------------------------------


def _trace_without_odd_sign(g, h, x):
    # the fault: sum of c_{x,k}^k over k outside h, with no (-1)^{|k|}
    return Fraction(sum(g.bracket_basis(x, k)[k] for k in h.complement))


def _jacobi_with_one_sign_flipped(g, i, j, k):
    nonzero = g._nonzero
    sign = koszul_sign(g.parities[i], g.parities[j])
    outer = [((i, m), a) for m, a in nonzero.get((j, k), ())]
    # the fault: [[e_i, e_j], e_k] added instead of subtracted
    outer += [((m, k), a) for m, a in nonzero.get((i, j), ())]
    outer += [((j, m), -sign * a) for m, a in nonzero.get((i, k), ())]
    defect = {}
    for pair, a in outer:
        for t, c in nonzero.get(pair, ()):
            defect[t] = defect.get(t, 0) + a * c
    return not any(defect.values())


def _mirror_fill_with_sign_flipped(original):
    def init(self, names, parities, structure_constants):
        constants = dict(structure_constants)
        for (i, j), vec in list(constants.items()):
            if (j, i) not in constants:
                # the fault: [e_j, e_i] = +(-1)^{|i||j|} [e_i, e_j]
                sign = koszul_sign(parities[i], parities[j])
                constants[(j, i)] = tuple(sign * c for c in vec)
        original(self, names, parities, constants)
    return init


def _fibre_integrate_dropping(dropped):
    """berezin.fibre_integrate_section with one of its three signs dropped:
    "koszul" (-1)^{q|L|}, "basis" (-1)^{np} or "convention" (-1)^{pq}."""
    def fibre_integrate_section(omega, base, fibre, backend):
        if omega.shape != shape_product(base, fibre):
            raise DimensionError("section does not live on the stated product")
        m, n, p, q = base.m, base.n, fibre.m, fibre.n
        full, low = (1 << q) - 1, (1 << n) - 1
        groups = {}
        for key, c in omega.density.nums.items():
            if key[0] >> n == full:
                groups.setdefault((key[1:m + 1], key[0] & low), []).append(
                    (key[m + 1:], c))
        den, nums = omega.density.den, {}
        if groups:
            tables_den, tables, shift = backend._moment_tables(
                fibre.box, [exps for terms in groups.values() for exps, _ in terms])
            den *= tables_den
            # the fault: one of the three exponents left out
            exponent = {"koszul": n * p + p * q, "basis": p * q,
                        "convention": n * p}[dropped]
            sign = -1 if exponent % 2 else 1
            for (exps, mask), terms in sorted(
                    groups.items(), key=lambda item: (item[0][0], _indices(item[0][1]))):
                head = (mask,) + exps
                odd = dropped != "koszul" and q * mask.bit_count() % 2
                t = -sign if odd else sign
                for fibre_key, c in terms:
                    c = _times_moments(t * c, fibre_key, tables)
                    if c:
                        key = head + (fibre_key[-1] + shift,)
                        nums[key] = nums.get(key, 0) + c
        return BerezinSection(base, _reduced(SuperFunction, base, den, nums),
                              omega.caveats)
    return fibre_integrate_section


def _box_monomial_over_e_plus_2(iv, e):
    if e == -1:
        raise NonIntegrableError("exponent -1 has no rational antiderivative")
    if e < 0 and iv.lo <= 0 <= iv.hi:
        raise NonIntegrableError(f"pole at 0 inside the box {iv}")
    # the fault: divided by e + 2 where the antiderivative divides by e + 1
    return _quotient(iv.hi ** (e + 1) - iv.lo ** (e + 1), e + 2)


def _byte_table_with_one_bit_flipped():
    # the fault: bit 0 of mask 0b0110's entry flipped, so xi2 xi3 * xi1
    # counts xi1 as passing an odd number of letters
    table = list(_BYTE_SWAPS)
    table[0b0110] ^= 1
    return tuple(table)


def _reduced_without_gcd(cls, count, den, acc):
    if 0 in acc.values():
        acc = {key: c for key, c in acc.items() if c}
    # the fault: numerators and den left over their common factor (an
    # empty sum still has den 1)
    return _stored(cls, count, den if acc else 1, acc)


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


def _det_d_not_inverted(solve):
    """A det(D)^-1 solver of the Berezinian giving det(D) instead."""
    def solve_with_det_d(*args):
        det_d_inv, Z = solve(*args)
        # the fault: det(D) where det(D)^-1 belongs
        return (det_d_inv if det_d_inv is None else det_d_inv.inv_even()), Z
    return solve_with_det_d


def odd_sign_dropped(monkeypatch):
    patch_everywhere(monkeypatch, lie_super._quotient_supertrace,
                     _trace_without_odd_sign)


def mirror_sign_flipped(monkeypatch):
    monkeypatch.setattr(
        lie_super.LieSuperAlgebra, "__init__",
        _mirror_fill_with_sign_flipped(lie_super.LieSuperAlgebra.__init__))


def jacobi_term_flipped(monkeypatch):
    patch_everywhere(monkeypatch, lie_super._jacobi_holds,
                     _jacobi_with_one_sign_flipped)


def fibre_sign_dropped(dropped):
    def apply(monkeypatch):
        patch_everywhere(monkeypatch, berezin.fibre_integrate_section,
                         _fibre_integrate_dropping(dropped))
    return apply


def box_moment_off_by_one(monkeypatch):
    patch_everywhere(monkeypatch, berezin._box_monomial,
                     _box_monomial_over_e_plus_2)


def byte_table_bit_flipped(monkeypatch):
    patch_everywhere(monkeypatch, _BYTE_SWAPS, _byte_table_with_one_bit_flipped())


def reduced_without_gcd(monkeypatch):
    patch_everywhere(monkeypatch, _reduced, _reduced_without_gcd)


def haar_side_swapped(monkeypatch):
    patch_everywhere(monkeypatch, _haar_density, _haar_density_of_the_other_side)


def haar_not_inverted(monkeypatch):
    patch_everywhere(monkeypatch, _haar_density, _haar_density_not_inverted)


def modular_ratio_inverted(monkeypatch):
    patch_everywhere(monkeypatch, _modular_berezinian, _modular_ratio_inverted)


def det_d_for_its_inverse(monkeypatch):
    for solve in (supermatrix._eliminate_solve, supermatrix._cramer):
        patch_everywhere(monkeypatch, solve, _det_d_not_inverted(solve))


FAULTS = {
    "lie_super odd sign of the quotient supertrace": odd_sign_dropped,
    "lie_super mirror fill Koszul sign": mirror_sign_flipped,
    "lie_super one Jacobi term's sign": jacobi_term_flipped,
    "berezin p_! Koszul sign": fibre_sign_dropped("koszul"),
    "berezin p_! basis sign": fibre_sign_dropped("basis"),
    "berezin p_! convention sign": fibre_sign_dropped("convention"),
    "berezin box moment over e + 2": box_moment_off_by_one,
    "grassmann byte table bit flipped": byte_table_bit_flipped,
    "grassmann _reduced without its gcd": reduced_without_gcd,
    "supergroup Haar density of the other side": haar_side_swapped,
    "supergroup Haar density not inverted": haar_not_inverted,
    "supergroup modular ratio inverted": modular_ratio_inverted,
    "supermatrix det(D) for det(D)^-1": det_d_for_its_inverse,
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
    # 36 of 60; every other run integrates both sides over the same axes
    "berezin box moment over e + 2": {
        "verify change-of-variables": _numbered("change-of-variables", {
            "(1|1)": (0, 4, 8, 12, 28, 32, 36, 40, 56),
            "(1|2)": (2, 6, 22, 26, 30, 34, 38, 42, 46, 50, 58),
            "(2|1)": (1, 17, 29, 33, 45, 53),
            "(2|2)": (3, 11, 15, 19, 23, 27, 35, 39, 51, 59)}),
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
    # every fault is caught somewhere, and every run catches some fault
    assert all(any(row.values()) for row in matrix.values()), shown
    assert all(any(matrix[fault][run] for fault in FAULTS)
               for run in RUNS), shown
