"""Finite-dimensional Lie superalgebras over exact rationals.

An algebra is a named graded basis plus structure constants; elements are
coefficient vectors, each entry an int when integral and a Fraction
otherwise.  The basis must list even generators before odd ones
so that adjoint matrices fit the supermatrix block layout (entries live
in the rank-zero Grassmann algebra, i.e. are plain rationals with a
parity tag).

The unimodularity test implemented here is the infinitesimal one:
vanishing of str(ad x) on the quotient module g/h for every x in h.  For
a connected group this is equivalent to triviality of the Berezinian
line of the quotient as an H-module, since the Berezinian of a group
element near the identity is 1 + str + higher order; the verdict records
this connectedness proviso.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import DimensionError, ParityError, StructureError
from .grassmann import (EVEN, ODD, GrassmannElement, Parity, _canonical,
                        _rational, koszul_sign)
from .supermatrix import SuperMatrix

__all__ = [
    "LieSuperAlgebra",
    "SubalgebraSpec",
    "UnimodularityResult",
    "ValidationReport",
    "abelian_algebra",
    "ad",
    "change_basis",
    "gl11_algebra",
    "quotient_action",
    "unimodularity_check",
    "validate",
]

Vector = tuple[int | Fraction, ...]

_Z0 = GrassmannElement.zero(0)
_I0 = GrassmannElement.one(0)

CONNECTED_NOTE = "infinitesimal criterion - valid for connected groups"


def _as_vector(value, dim: int) -> Vector:
    vec = tuple(_rational(c) for c in value)
    if len(vec) != dim:
        raise DimensionError(f"expected a vector of length {dim}")
    return vec


class LieSuperAlgebra:
    """Graded basis with structure constants; evens listed first.

    structure_constants maps (i, j) to the coefficient vector of
    [e_i, e_j].  Missing pairs are completed by graded antisymmetry when
    the mirror pair is present, and default to zero otherwise; explicitly
    given pairs are never rewritten, so planted inconsistencies survive
    for validate() to find.
    """

    __slots__ = ("names", "parities", "brackets", "even_count")

    def __init__(self, names: Sequence[str], parities: Sequence[Parity],
                 structure_constants: Mapping[tuple[int, int], Sequence]):
        names = tuple(names)
        parities = tuple(parities)
        if len(names) != len(parities):
            raise DimensionError("one parity per generator name")
        if len(set(names)) != len(names):
            raise StructureError("generator names must be distinct")
        dim = len(names)
        seen_odd = False
        for par in parities:
            if par is ODD:
                seen_odd = True
            elif seen_odd:
                raise StructureError("even generators must precede odd ones")
        brackets: dict[tuple[int, int], Vector] = {}
        for (i, j), vec in structure_constants.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionError(f"bracket index ({i}, {j}) out of range")
            brackets[(i, j)] = _as_vector(vec, dim)
        for (i, j), vec in list(brackets.items()):
            if (j, i) not in brackets:
                sign = koszul_sign(parities[i], parities[j])
                # [e_j, e_i] = -(-1)^{|i||j|} [e_i, e_j]
                brackets[(j, i)] = tuple(-sign * c for c in vec)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "parities", parities)
        object.__setattr__(self, "brackets", brackets)
        object.__setattr__(self, "even_count",
                           sum(1 for par in parities if par is EVEN))

    def __setattr__(self, name, value):
        raise AttributeError("LieSuperAlgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def odd_count(self) -> int:
        return self.dim - self.even_count

    def zero_vector(self) -> Vector:
        return (0,) * self.dim

    def basis_vector(self, i: int) -> Vector:
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self.brackets.get((i, j), self.zero_vector())

    def bracket(self, x, y) -> Vector:
        x = _as_vector(x, self.dim)
        y = _as_vector(y, self.dim)
        out = [0] * self.dim
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if not b:
                    continue
                for k, c in enumerate(self.bracket_basis(i, j)):
                    out[k] += a * b * c
        return tuple(_canonical(c) for c in out)

    def vector_parity(self, x) -> Parity | None:
        x = _as_vector(x, self.dim)
        parities = {self.parities[i] for i, c in enumerate(x) if c}
        if len(parities) != 1:
            return None
        return parities.pop()

    def __repr__(self) -> str:
        sig = ", ".join(f"{n}:{p}" for n, p in zip(self.names, self.parities))
        return f"LieSuperAlgebra({sig})"


def abelian_algebra(names: Sequence[str],
                    parities: Sequence[Parity]) -> LieSuperAlgebra:
    return LieSuperAlgebra(names, parities, {})


def gl11_algebra() -> LieSuperAlgebra:
    """Matrix units of gl(1|1): E11, E22 even; E12, E21 odd."""
    return LieSuperAlgebra(
        ("E11", "E22", "E12", "E21"),
        (EVEN, EVEN, ODD, ODD),
        {
            (0, 2): (0, 0, 1, 0),    # [E11, E12] = E12
            (0, 3): (0, 0, 0, -1),   # [E11, E21] = -E21
            (1, 2): (0, 0, -1, 0),   # [E22, E12] = -E12
            (1, 3): (0, 0, 0, 1),    # [E22, E21] = E21
            (2, 3): (1, 1, 0, 0),    # [E12, E21] = E11 + E22
            (0, 1): (0, 0, 0, 0),
            (2, 2): (0, 0, 0, 0),
            (3, 3): (0, 0, 0, 0),
        })


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.ok:
            return "valid Lie superalgebra"
        return "invalid: " + "; ".join(self.failures)


def validate(g: LieSuperAlgebra) -> ValidationReport:
    """Check parity-additivity, graded antisymmetry and graded Jacobi."""
    failures = []
    dim = g.dim
    for i in range(dim):
        for j in range(dim):
            vec = g.bracket_basis(i, j)
            want = (g.parities[i].value + g.parities[j].value) % 2
            for k, c in enumerate(vec):
                if c and g.parities[k].value != want:
                    failures.append(
                        f"parity: [{g.names[i]}, {g.names[j]}] has a "
                        f"component on {g.names[k]}")
                    break
    for i in range(dim):
        for j in range(i, dim):
            sign = koszul_sign(g.parities[i], g.parities[j])
            lhs = g.bracket_basis(i, j)
            rhs = tuple(-sign * c for c in g.bracket_basis(j, i))
            if lhs != rhs:
                failures.append(
                    f"antisymmetry: [{g.names[i]}, {g.names[j]}] vs "
                    f"[{g.names[j]}, {g.names[i]}]")
    def sub(u: Vector, v: Vector) -> Vector:
        return tuple(a - b for a, b in zip(u, v))

    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                # graded Leibniz: [ei,[ej,ek]] = [[ei,ej],ek]
                #                  + (-1)^{|i||j|} [ej,[ei,ek]]
                sign = koszul_sign(g.parities[i], g.parities[j])
                lhs = g.bracket(g.basis_vector(i), g.bracket_basis(j, k))
                term1 = g.bracket(g.bracket_basis(i, j), g.basis_vector(k))
                term2 = g.bracket(g.basis_vector(j), g.bracket_basis(i, k))
                rhs = tuple(a + sign * b for a, b in zip(term1, term2))
                if sub(lhs, rhs) != g.zero_vector():
                    failures.append(
                        f"jacobi: triple ({g.names[i]}, {g.names[j]}, "
                        f"{g.names[k]})")
    return ValidationReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# adjoint and quotient matrices


def _matrix_on_span(g: LieSuperAlgebra, x: Vector,
                    span: Sequence[int]) -> SuperMatrix:
    """Matrix of y -> [x, y] compressed to the given basis indices."""
    parity = g.vector_parity(x)
    if parity is None:
        if any(x):
            raise ParityError("ad needs a homogeneous element")
        parity = EVEN  # the zero element acts by the zero (even) matrix
    positions = {idx: r for r, idx in enumerate(span)}
    size = len(span)
    entries = [[_Z0] * size for _ in range(size)]
    for c, idx in enumerate(span):
        image = g.bracket(x, g.basis_vector(idx))
        for k, coeff in enumerate(image):
            if coeff and k in positions:
                entries[positions[k]][c] = GrassmannElement.scalar(0, coeff)
    p = sum(1 for idx in span if g.parities[idx] is EVEN)
    return SuperMatrix(p, size - p, entries, parity, zero=_Z0, one=_I0)


def ad(g: LieSuperAlgebra, x) -> SuperMatrix:
    """Adjoint matrix of a homogeneous element (index or vector)."""
    if isinstance(x, int):
        x = g.basis_vector(x)
    return _matrix_on_span(g, _as_vector(x, g.dim), range(g.dim))


@dataclass(frozen=True)
class SubalgebraSpec:
    """A subalgebra spanned by a subset of the parent's basis."""

    parent: LieSuperAlgebra
    span: frozenset[int]

    def __post_init__(self):
        for idx in self.span:
            if not 0 <= idx < self.parent.dim:
                raise DimensionError(f"span index {idx} out of range")
        for i in self.span:
            for j in self.span:
                vec = self.parent.bracket_basis(i, j)
                for k, c in enumerate(vec):
                    if c and k not in self.span:
                        raise StructureError(
                            f"[{self.parent.names[i]}, {self.parent.names[j]}]"
                            f" leaves the span at {self.parent.names[k]}")

    @property
    def complement(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.parent.dim) if k not in self.span)


def quotient_action(g: LieSuperAlgebra, h: SubalgebraSpec, x) -> SuperMatrix:
    """Matrix of ad(x) on g/h in the adapted complement basis."""
    if h.parent is not g:
        raise StructureError("subalgebra belongs to a different algebra")
    if isinstance(x, int):
        x = g.basis_vector(x)
    return _matrix_on_span(g, _as_vector(x, g.dim), h.complement)


# ---------------------------------------------------------------------------
# unimodularity


@dataclass(frozen=True)
class UnimodularityResult:
    verdict: str  # "UNIMODULAR" | "NOT_UNIMODULAR"
    witness_name: str | None
    witness_supertrace: Fraction | None
    note: str = CONNECTED_NOTE

    def __str__(self) -> str:
        if self.verdict == "UNIMODULAR":
            return f"UNIMODULAR ({self.note})"
        return (f"NOT_UNIMODULAR: str(ad_{{g/h}} {self.witness_name}) = "
                f"{self.witness_supertrace} ({self.note})")


def unimodularity_check(g: LieSuperAlgebra,
                        h: SubalgebraSpec) -> UnimodularityResult:
    """Vanishing of str on the quotient action of every h-basis element."""
    for idx in sorted(h.span):
        trace = quotient_action(g, h, idx).supertrace().body().rational
        if trace:
            return UnimodularityResult("NOT_UNIMODULAR", g.names[idx], trace)
    return UnimodularityResult("UNIMODULAR", None, None)


# ---------------------------------------------------------------------------
# basis changes


def change_basis(g: LieSuperAlgebra, matrix) -> LieSuperAlgebra:
    """Rewrite the algebra in the basis f_c = sum_r matrix[r][c] e_r.

    The new generators are named f1, f2, ...  The matrix must be invertible and parity-preserving (no mixing of even
    and odd directions).
    """
    dim = g.dim
    P = [[_rational(e) for e in row] for row in matrix]
    if len(P) != dim or any(len(row) != dim for row in P):
        raise DimensionError("basis-change matrix has the wrong size")
    for r in range(dim):
        for c in range(dim):
            if P[r][c] and g.parities[r] is not g.parities[c]:
                raise ParityError("basis change must preserve parity")
    P_inv = linalg.inverse(P)
    constants = {}
    for a in range(dim):
        for b in range(dim):
            image = [0] * dim
            for r in range(dim):
                if not P[r][a]:
                    continue
                for s in range(dim):
                    if not P[s][b]:
                        continue
                    for k, c in enumerate(g.bracket_basis(r, s)):
                        image[k] += P[r][a] * P[s][b] * c
            nonzero = [(k, c) for k, c in enumerate(image) if c]
            constants[(a, b)] = tuple(
                sum(P_inv[t][k] * c for k, c in nonzero) for t in range(dim))
    names = tuple(f"f{i + 1}" for i in range(dim))
    return LieSuperAlgebra(names, g.parities, constants)
