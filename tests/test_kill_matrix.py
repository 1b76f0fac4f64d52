"""A fault-injection kill matrix: no check may pass by construction.

Each named fault is patched into the program with ``monkeypatch`` at
every place that binds the patched object.  Then the seeded ``verify``
suites and the worked examples run in process through ``cli.main``, and
the set of check lines that FAIL is pinned per fault and run.  A run that
ends in an ``error:`` line instead (a library error ends the whole suite)
is pinned as ``"error"``.  The pinned sets may only grow: a fault that
stops failing a line is a check that lost its teeth.

So far the matrix holds two columns.  The Lie superalgebra column: the
odd sign of the quotient supertrace, the Koszul sign of the mirror fill of
structure constants, and one term of the graded Jacobi identity.  The
fibre-integration column: each of the three signs of
``berezin.fibre_integrate_section``, (-1)^{np + pq + q|L|}, dropped in turn
from a copy of it.  Only ``verify fubini-signs`` catches these: every
built-in quotient of ``fubini-quotients`` and of the two Fubini examples
has n*p, p*q and q*n even, so the column there waits on a quotient with an
odd base and an odd fibre (ROADMAP items 16 and 17).
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import lcm

from superberezin import berezin, cli, lie_super
from superberezin.berezin import BerezinSection
from superberezin.errors import DimensionError
from superberezin.grassmann import _indices, _reduced, koszul_sign
from superberezin.superdomain import Polynomial, SuperFunction, shape_product

RUNS = {
    "verify unimodularity": ["verify", "unimodularity", "--seed", "0"],
    "verify fubini-quotients": ["verify", "fubini-quotients", "--seed", "0"],
    "verify fubini-signs": ["verify", "fubini-signs", "--seed", "0"],
    "examples run unimod-gl11": ["examples", "run", "unimod-gl11"],
    "examples run unimod-borel": ["examples", "run", "unimod-borel"],
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
                groups.setdefault((key[1:m + 1], key[0] & low), {})[
                    key[m + 1:]] = c
        # the fault: one of the three exponents left out
        exponent = {"koszul": n * p + p * q, "basis": p * q,
                    "convention": n * p}[dropped]
        sign = -1 if exponent % 2 else 1
        terms = []
        for (exps, mask), nums in sorted(
                groups.items(), key=lambda item: (item[0][0], _indices(item[0][1]))):
            value = backend.integrate_polynomial(
                _reduced(Polynomial, p, omega.density.den, nums), fibre.box)
            odd = dropped != "koszul" and q * mask.bit_count() % 2
            terms.append(((mask,) + exps, -sign if odd else sign, value))
        den = lcm(*(value.den for _, _, value in terms))
        nums = {head + (k,): t * c * (den // value.den)
                for head, t, value in terms for k, c in value.nums.items()}
        return BerezinSection(base, _reduced(SuperFunction, base, den, nums),
                              omega.caveats)
    return fibre_integrate_section


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


FAULTS = {
    "lie_super odd sign of the quotient supertrace": odd_sign_dropped,
    "lie_super mirror fill Koszul sign": mirror_sign_flipped,
    "lie_super one Jacobi term's sign": jacobi_term_flipped,
    "berezin p_! Koszul sign": fibre_sign_dropped("koszul"),
    "berezin p_! basis sign": fibre_sign_dropped("basis"),
    "berezin p_! convention sign": fibre_sign_dropped("convention"),
}


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
    },
    "berezin p_! basis sign": {
        "verify fubini-signs": {f"fibre-identity ({m}|1)x(1|{q})"
                                for m in range(3) for q in range(3)},
    },
    "berezin p_! convention sign": {
        "verify fubini-signs": {f"fibre-identity ({m}|{n})x(1|1)"
                                for m in range(3) for n in range(3)},
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
