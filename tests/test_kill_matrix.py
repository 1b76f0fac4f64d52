"""A fault-injection kill matrix: no check may pass by construction.

Each named fault is patched into the program with ``monkeypatch`` at
every place that binds the patched object.  Then the seeded ``verify``
suites and the worked examples run in process through ``cli.main``, and
the set of check lines that FAIL is pinned per fault and run.  A run that
ends in an ``error:`` line instead (a library error ends the whole suite)
is pinned as ``"error"``.  The pinned sets may only grow: a fault that
stops failing a line is a check that lost its teeth.

So far the matrix holds seven columns.  The Lie superalgebra column: the
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
odd fibre (ROADMAP items 16 and 17).  The box column, both faults in
``Interval``, which owns its moment and containment test: the box moment
of x^e divided by e + 2 instead of e + 1, its -1 and pole errors kept.
Only ``verify change-of-variables`` catches it, since only the true
integral is invariant under a change of variables.  ``fubini-quotients``,
``product-formula`` and the two ax+b examples integrate both sides of
each identity over the same box axes, so the wrong moments enter both
sides alike and cancel.  And the containment test strict at the upper
end, which only ``verify change-of-variables`` catches (an error): its
corner samples map exactly onto the target's corners.  The pullback
column: the puller's linear combination of the last variable's powers
without its highest power, where it holds more than one.  ``verify
change-of-variables`` catches it (38 of its 60 lines), and so do the
Fubini and product cases whose integrands hold such a prefix; no built-in
chart's Haar densities, modular Berezinians or group laws do.  The
Berezinian column: the Haar density of the other side, the Haar density not
inverted, the modular ratio Ber(Ad on h) / Ber(Ad on g) inverted, det(D)
where the Berezinian takes det(D)^-1, on the LU factorisation and the
adjugate solve alike, the sign of the LU update flipped, a row swap
that keeps the permutation's sign, and the trace of the Faddeev-LeVerrier
fallback not divided by k.  Only ``verify berezinian`` catches the update
sign (169 of its 200 lines), as every Schur complement A - B D^-1 C is
one LU update.  No run's matrices need a row swap, so that fault waits
in ``WAITING`` on the Liouville Berezinian suite (ROADMAP item 33).  No
run reaches the fallback, as no suite's matrix has a column without a
pivot, so the trace fault waits on the chain-rule suite (item 12).  The
arithmetic column: bit 0 of the ``_BYTE_SWAPS`` entry of mask 0b0110
flipped, so xi2 xi3 times xi1 takes the wrong sign, and ``_reduced``
without its gcd step, so equal values can be stored unalike.  Only ``verify berezinian`` catches the sign (74 of its 200
lines), and ``verify berezinian`` and ``verify change-of-variables`` the
gcd (127 and 31 lines).  A fault in the sign rule above bit 8 (a high
byte not complemented) is caught by no run: no suite has more than 8 odd
generators.  The seeded (16|16) pair over Lambda_16 catches it (Ber(XY)
!= Ber X Ber Y), so the Lambda_16 Berezinian rung of ROADMAP item 15 will.
The arithmetic column also stops ``_series_inverse`` one step short, which
only ``verify berezinian`` catches (68 of its 200 lines), and keeps, in
``_anticommuting``, the one product loop, a pair of monomials that share a
generator, as if xi_i^2 = xi_i, under the key of their mask union.  Only
``verify change-of-variables`` (22 of its 60 lines) and ``verify
berezinian`` (an error: inv_even meets an odd term) catch it.  And
``fused_sum``, the fused sum of products of every LU fold and of every
pullback, patched where ``supermatrix`` and ``superdomain`` import it,
sums each product over the common denominator L without its scale
L // (a.den b.den): ``verify berezinian`` catches it (44 of its 200
lines, all (2|1), as the drawn entries are integral and a (1|1)
Berezinian folds one pair at a time), and ``verify change-of-variables``
(14 of its 60 lines).  The structure-constant column: the Koszul sign of the swapped jet in
``group_lie_algebra`` set to 1, in ``supergroup`` alone, which only
``examples run unimod-gl11`` catches, as its extraction's validation
raises; and the jet terms with an odd letter in each factor skipped, which
no run catches.  It waits in ``WAITING`` on the quotient-unimodularity and
super-divergence suites (ROADMAP items 2 and 26).  The Fubini stage's
base sign (-1)^(base.n H.m), dropped from a copy of ``_fubini_stage``,
waits in ``WAITING`` too, on items 2 and 16: every quotient of a run has
base.n H.m even.  Until a run catches a waiting fault, the tier-1 tests
named with it fail under it.
"""

import importlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import lcm

import pytest

from superberezin import berezin, cli, lie_super, supergroup, supermatrix
from superberezin.berezin import (BerezinSection, _times_moments,
                                  fibre_integrate_section,
                                  function_times_section, integrate,
                                  product_section, pullback_section)
from superberezin.errors import (DimensionError, NonIntegrableError,
                                 NormalizationError, SuperBerezinError)
from superberezin.grassmann import (_BYTE_SWAPS, _add_into, _anticommuting,
                                    _indices, _lane_error, _layout,
                                    _odd_swaps, _quotient, _reduced,
                                    _series_inverse, _stored, fused_sum,
                                    koszul_sign)
from superberezin.superdomain import (Interval, SuperFunction, SuperMorphism,
                                      _linear_combination, _puller, pair,
                                      pullback, shape_product)

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
        split = omega.density.shape._key_layout.split
        groups = {}
        for key, c in omega.density.nums.items():
            mask, exps, k = split(key)
            if mask >> n == full:
                groups.setdefault((exps[:m], mask & low), []).append(
                    (exps[m:], k, c))
        den, nums = omega.density.den, {}
        if groups:
            tables_den, tables, shift = backend._moment_tables(
                fibre.box, [exps for terms in groups.values() for exps, _, _ in terms])
            den *= tables_den
            # the fault: one of the three exponents left out
            exponent = {"koszul": n * p + p * q, "basis": p * q,
                        "convention": n * p}[dropped]
            sign = -1 if exponent % 2 else 1
            encode = _layout(n, m).key
            for (exps, mask), terms in sorted(
                    groups.items(), key=lambda item: (item[0][0], _indices(item[0][1]))):
                odd = dropped != "koszul" and q * mask.bit_count() % 2
                t = -sign if odd else sign
                for fibre_exps, k, c in terms:
                    c = _times_moments(t * c, fibre_exps, tables)
                    if c:
                        key = encode(mask, exps, k + shift)
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


def _interval_inside_strict_at_hi(iv, n, d):
    lo, hi = iv.lo, iv.hi
    # the fault: n/d < hi where the interval is closed at hi
    return (lo.numerator * d <= n * lo.denominator
            and n * hi.denominator < hi.numerator * d)


def _byte_table_with_one_bit_flipped():
    # the fault: bit 0 of mask 0b0110's entry flipped, so xi2 xi3 * xi1
    # counts xi1 as passing an odd number of letters
    table = list(_BYTE_SWAPS)
    table[0b0110] ^= 1
    return tuple(table)


def _anticommuting_with_idempotent_generators(acc, a, b, scale, layout):
    low, bias, guard = layout.low, layout.bias, layout.guard
    for ka, ca in a.items():
        ma = ka & low
        ca *= scale
        swaps = _odd_swaps(ma)
        ka -= bias
        for kb, cb in b.items():
            # the fault: masks that share a generator multiply as if
            # xi_i^2 = xi_i, the pair kept under the key of the mask union
            key = ka + kb - (ma & kb)
            if key & guard:
                raise _lane_error()
            sign = -1 if (swaps & kb).bit_count() & 1 else 1
            acc[key] = acc.get(key, 0) + sign * ca * cb
    return acc


def _reduced_without_gcd(cls, count, den, acc):
    if 0 in acc.values():
        acc = {key: c for key, c in acc.items() if c}
    # the fault: numerators and den left over their common factor (an
    # empty sum still has den 1)
    return _stored(cls, count, den if acc else 1, acc)


def _series_inverse_one_step_short(cls, count, den, head, c, soul, steps):
    # the fault: the series b^-1 sum_j (-b^-1 n)^j stops at j = steps - 1
    return _series_inverse(cls, count, den, head, c, soul, max(steps - 1, 0))


def _fused_sum_without_pair_scales(base, pairs):
    cls, count = type(base), base._count
    live = [(a, b) for a, b in pairs if a.nums and b.nums]
    common = 1
    for a, b in live:
        common = lcm(common, a.den * b.den)
    acc = {}
    layout = cls._layout(count)
    for a, b in live:
        # the fault: every product summed over the common denominator L
        # unscaled, where it takes L // (a.den b.den)
        _anticommuting(acc, a.nums, b.nums, 1, layout)
    if not acc:
        return base
    if base.nums:
        common, acc = _add_into(acc, common, base.nums, base.den)
    return _reduced(cls, count, common, acc)


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


def _fubini_stage_without_base_sign(G, H, section, backend):
    base, Hsh = section.source, H.subgroup.shape
    omega_G, rho_H = _haar_density(G), _haar_density(H.subgroup)
    tau = supergroup.trivialization(G, H, section)
    pull_tau = supergroup._puller(tau)
    pulled = pullback_section(tau, omega_G)
    at_unit = pair(SuperMorphism.identity(base),
                   SuperMorphism.constant_point(base, Hsh, H.subgroup.unit))
    # the fault: b read off at the unit keeps the basis sign
    # (-1)^(base.n * H.m) of product_section
    b = pullback(at_unit, pulled.density)
    factored = product_section(BerezinSection(base, b), rho_H)
    if pulled.density != factored.density:
        raise NormalizationError(
            "the total density does not factor as base x subgroup density "
            "through the trivialization",
            discrepancy=pulled.density - factored.density)
    fibre_density = product_section(BerezinSection.make(base, 1), rho_H)
    on_base = backend._on(slice(base.m))
    on_fibre = backend._on(slice(base.m, None))
    sign = -1 if (Hsh.n * (base.m + base.n)) % 2 else 1

    def check(f):
        lhs = integrate(function_times_section(f, omega_G), backend)
        f_H = fibre_integrate_section(
            function_times_section(pull_tau(f), fibre_density), base,
            Hsh, on_fibre)
        staged = integrate(function_times_section(b, f_H), on_base)
        return supergroup.FubiniReport(sign, lhs, sign * staged, f_H.density,
                                       pulled.caveats)
    return check


def _puller_dropping_the_top_power(phi):
    src, m, layout = phi.source, phi.target.m, phi.target._key_layout
    one, zero = SuperFunction.one(src), SuperFunction.zero(src)
    powers, prefixes = {}, {(0, ()): one}

    def power(k, e):
        step = 1 if e > 0 else -1
        if (k, step) not in powers:
            comp = phi.even_components[k]
            powers[(k, step)] = comp if e > 0 else comp.inv_even()
        low = e
        while (k, low) not in powers:
            low -= step
        acc, base = powers[(k, low)], powers[(k, step)]
        for p in range(low + step, e + step, step):
            acc = acc * base
            powers[(k, p)] = acc
        return acc

    def prefix(alpha, head):
        image = prefixes.get((alpha, head))
        if image is None:
            if head:
                image, e = prefix(alpha, head[:-1]), head[-1]
                factor = power(len(head) - 1, e) if e else one
            else:
                top = alpha.bit_length() - 1
                image = prefix(alpha ^ (1 << top), ())
                factor = phi.odd_components[top]
            if factor is not one:
                image = factor if image is one else image * factor
            prefixes[(alpha, head)] = image
        return image

    def pull(f):
        if f.shape != phi.target:
            raise DimensionError("function does not live on the morphism target")
        groups = {}
        for alpha, exps, k, c in layout.unpacked(f.nums):
            groups.setdefault((alpha, exps[:-1]), []).append(
                (exps[-1] if m else 0, k, c))
        base, pairs = zero, []
        for (alpha, head), terms in groups.items():
            if prefix(alpha, ()).is_zero():
                continue
            image = prefix(alpha, head)
            # the fault: the last variable's linear combination leaves out
            # its highest power, where it holds more than one
            top = max(e for e, _, _ in terms)
            terms = [term for term in terms if term[0] != top] or terms
            combination = _linear_combination(src, f.den, [
                (k, c, power(m - 1, e) if e else one) for e, k, c in terms])
            if image is one:
                base = combination
            else:
                pairs.append((image, combination))
        return fused_sum(base, pairs)

    return pull


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


def _fold_with_sign_flipped(rows, r, j, k):
    row = rows[r]
    # the fault: -a b added, where the negated pivot rows make a b right
    row[j] = fused_sum(row[j], [(-row[t], rows[t][j]) for t in range(k)])


def _lu_keeping_the_sign(rows, n):
    # the fault: a row swap leaves the sign of the permutation as it was
    return 1, _lu(rows, n)[1]


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
    monkeypatch.setattr(Interval, "_lebesgue", _box_monomial_over_e_plus_2)


def interval_containment_strict_at_hi(monkeypatch):
    monkeypatch.setattr(Interval, "_inside", _interval_inside_strict_at_hi)


def byte_table_bit_flipped(monkeypatch):
    patch_everywhere(monkeypatch, _BYTE_SWAPS, _byte_table_with_one_bit_flipped())


def product_loop_keeps_overlapping_masks(monkeypatch):
    patch_everywhere(monkeypatch, _anticommuting,
                     _anticommuting_with_idempotent_generators)


def reduced_without_gcd(monkeypatch):
    patch_everywhere(monkeypatch, _reduced, _reduced_without_gcd)


def series_inverse_step_dropped(monkeypatch):
    patch_everywhere(monkeypatch, _series_inverse,
                     _series_inverse_one_step_short)


def swapped_jet_koszul_sign_dropped(monkeypatch):
    # supergroup's binding only: lie_super's Koszul signs stay
    monkeypatch.setattr(supergroup, "koszul_sign", lambda a, b: 1)


def odd_pair_jet_terms_skipped(monkeypatch):
    monkeypatch.setattr(supergroup, "_jet_terms", _jet_terms_without_odd_pairs)


def haar_side_swapped(monkeypatch):
    patch_everywhere(monkeypatch, _haar_density, _haar_density_of_the_other_side)


def haar_not_inverted(monkeypatch):
    patch_everywhere(monkeypatch, _haar_density, _haar_density_not_inverted)


def modular_ratio_inverted(monkeypatch):
    patch_everywhere(monkeypatch, _modular_berezinian, _modular_ratio_inverted)


def det_d_for_its_inverse(monkeypatch):
    patch_everywhere(monkeypatch, _lu, _lu_with_pivots)
    patch_everywhere(monkeypatch, _adjugate_solve, _adjugate_solve_with_det_d)


def lu_update_sign_flipped(monkeypatch):
    patch_everywhere(monkeypatch, supermatrix._fold, _fold_with_sign_flipped)


def lu_row_swap_keeps_its_sign(monkeypatch):
    patch_everywhere(monkeypatch, _lu, _lu_keeping_the_sign)


def fused_pair_scales_dropped(monkeypatch):
    patch_everywhere(monkeypatch, fused_sum, _fused_sum_without_pair_scales)


def fubini_base_sign_dropped(monkeypatch):
    patch_everywhere(monkeypatch, supergroup._fubini_stage,
                     _fubini_stage_without_base_sign)


def pullback_top_power_dropped(monkeypatch):
    patch_everywhere(monkeypatch, _puller, _puller_dropping_the_top_power)


def trace_not_divided_by_k(monkeypatch):
    # supermatrix's binding only: the fault takes c_k = -tr(M M_k), the
    # trace of the Faddeev-LeVerrier step not divided by k
    monkeypatch.setattr(supermatrix, "Fraction", lambda num, den: num)


FAULTS = {
    "lie_super odd sign of the quotient supertrace": odd_sign_dropped,
    "lie_super mirror fill Koszul sign": mirror_sign_flipped,
    "lie_super one Jacobi term's sign": jacobi_term_flipped,
    "berezin p_! Koszul sign": fibre_sign_dropped("koszul"),
    "berezin p_! basis sign": fibre_sign_dropped("basis"),
    "berezin p_! convention sign": fibre_sign_dropped("convention"),
    "berezin box moment over e + 2": box_moment_off_by_one,
    "superdomain interval containment strict at hi":
        interval_containment_strict_at_hi,
    "superdomain pullback's last linear combination drops its top power":
        pullback_top_power_dropped,
    "grassmann byte table bit flipped": byte_table_bit_flipped,
    "grassmann product loop keeps overlapping masks":
        product_loop_keeps_overlapping_masks,
    "grassmann _reduced without its gcd": reduced_without_gcd,
    "grassmann one step of _series_inverse dropped":
        series_inverse_step_dropped,
    "grassmann fused sum drops each pair's scale": fused_pair_scales_dropped,
    "supergroup Koszul sign of the swapped jet dropped":
        swapped_jet_koszul_sign_dropped,
    "supergroup jet terms with an odd letter in each factor skipped":
        odd_pair_jet_terms_skipped,
    "supergroup Haar density of the other side": haar_side_swapped,
    "supergroup Haar density not inverted": haar_not_inverted,
    "supergroup modular ratio inverted": modular_ratio_inverted,
    "supergroup Fubini stage base sign dropped": fubini_base_sign_dropped,
    "supermatrix det(D) for det(D)^-1": det_d_for_its_inverse,
    "supermatrix LU update sign flipped": lu_update_sign_flipped,
    "supermatrix LU row swap keeps its sign": lu_row_swap_keeps_its_sign,
    "supermatrix Faddeev-LeVerrier trace not divided by k":
        trace_not_divided_by_k,
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
