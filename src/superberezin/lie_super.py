"""Finite-dimensional Lie superalgebras over exact rationals.

An algebra is a named graded basis plus structure constants; elements are
coefficient vectors, each entry an int when integral and a Fraction
otherwise.  The basis must list even generators before odd ones.  Every
loop reads only the nonzero structure constants: the graded Jacobi
identity is checked on the triples where some inner bracket is nonzero,
and a basis change expands only the nonzero constants.

The unimodularity test implemented here is the infinitesimal one:
vanishing of str(ad x) on the quotient module g/h for every x in h, read
straight off the constants as the sum over k outside h of
(-1)^{|k|} c_{x,k}^k.  For a connected group this is equivalent to
triviality of the Berezinian line of the quotient as an H-module, since
the Berezinian of a group element near the identity is 1 + str + higher
order; the verdict records this connectedness proviso.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import DimensionError, ParityError, StructureError
from .grassmann import EVEN, ODD, Parity, _Immutable, _rational, koszul_sign

__all__ = [
    "LieSuperAlgebra",
    "SubalgebraSpec",
    "UnimodularityResult",
    "ValidationReport",
    "abelian_algebra",
    "change_basis",
    "gl11_algebra",
    "unimodularity_check",
    "validate",
]

Vector = tuple[int | Fraction, ...]

CONNECTED_NOTE = "infinitesimal criterion - valid for connected groups"


def _as_vector(value, dim: int) -> Vector:
    vec = tuple(_rational(c) for c in value)
    if len(vec) != dim:
        raise DimensionError(f"expected a vector of length {dim}")
    return vec


class LieSuperAlgebra(_Immutable):
    """Graded basis with structure constants; evens listed first.

    structure_constants maps (i, j) to the coefficient vector of
    [e_i, e_j].  Missing pairs are completed by graded antisymmetry when
    the mirror pair is present, and default to zero otherwise; explicitly
    given pairs are never rewritten, so planted inconsistencies survive
    for validate() to find.  ``brackets`` holds every given and completed
    pair as a dense vector.  ``_nonzero`` holds, for each pair whose
    bracket is nonzero, its (k, c) with c nonzero; every loop of this
    module reads that.
    """

    __slots__ = ("names", "parities", "brackets", "even_count", "_nonzero")

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
        nonzero = {}
        for pair, vec in brackets.items():
            terms = tuple((k, c) for k, c in enumerate(vec) if c)
            if terms:
                nonzero[pair] = terms
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "parities", parities)
        object.__setattr__(self, "brackets", brackets)
        object.__setattr__(self, "even_count",
                           sum(1 for par in parities if par is EVEN))
        object.__setattr__(self, "_nonzero", nonzero)

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def odd_count(self) -> int:
        return self.dim - self.even_count

    def zero_vector(self) -> Vector:
        return (0,) * self.dim

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self.brackets.get((i, j), self.zero_vector())

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


class ValidationReport(_Immutable):
    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: tuple[str, ...] = ()):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "failures", failures)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.ok == other.ok and self.failures == other.failures

    def __str__(self) -> str:
        if self.ok:
            return "valid Lie superalgebra"
        return "invalid: " + "; ".join(self.failures)


def _jacobi_holds(g: LieSuperAlgebra, i: int, j: int, k: int) -> bool:
    """Graded Leibniz on basis elements, over the nonzero constants:
    [e_i, [e_j, e_k]] = [[e_i, e_j], e_k] + (-1)^{|i||j|} [e_j, [e_i, e_k]].
    Each component m of an inner bracket brings in the constants of the
    outer pair (i, m), (m, k) or (j, m)."""
    nonzero = g._nonzero
    sign = koszul_sign(g.parities[i], g.parities[j])
    outer = [((i, m), a) for m, a in nonzero.get((j, k), ())]
    outer += [((m, k), -a) for m, a in nonzero.get((i, j), ())]
    outer += [((j, m), -sign * a) for m, a in nonzero.get((i, k), ())]
    defect = {}
    for pair, a in outer:
        for t, c in nonzero.get(pair, ()):
            defect[t] = defect.get(t, 0) + a * c
    return not any(defect.values())


def validate(g: LieSuperAlgebra) -> ValidationReport:
    """Check parity-additivity, graded antisymmetry and graded Jacobi.

    Only pairs with a nonzero bracket (or mirror) are read, and Jacobi
    only on the triples (i, j, k) where [e_j, e_k], [e_i, e_j] or
    [e_i, e_k] is nonzero: on any other triple every term vanishes.  The
    failures come in the order of a sweep over all pairs and triples.
    """
    failures = []
    names, parities = g.names, g.parities
    for i, j in sorted(g._nonzero):
        want = (parities[i].value + parities[j].value) % 2
        for k, _ in g._nonzero[(i, j)]:
            if parities[k].value != want:
                failures.append(f"parity: [{names[i]}, {names[j]}] has a "
                                f"component on {names[k]}")
                break
    for i, j in sorted({(min(pair), max(pair)) for pair in g._nonzero}):
        sign = koszul_sign(parities[i], parities[j])
        if g.bracket_basis(i, j) != tuple(-sign * c
                                          for c in g.bracket_basis(j, i)):
            failures.append(f"antisymmetry: [{names[i]}, {names[j]}] vs "
                            f"[{names[j]}, {names[i]}]")
    triples = set()
    for a, b in g._nonzero:
        for m in range(g.dim):
            triples.update(((m, a, b), (a, b, m), (a, m, b)))
    for i, j, k in sorted(triples):
        if not _jacobi_holds(g, i, j, k):
            failures.append(f"jacobi: triple ({names[i]}, {names[j]}, "
                            f"{names[k]})")
    return ValidationReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# subalgebras and unimodularity


class SubalgebraSpec(_Immutable):
    """A subalgebra spanned by a subset of the parent's basis."""

    __slots__ = ("parent", "span")

    def __init__(self, parent: LieSuperAlgebra, span: frozenset[int]):
        for idx in span:
            if not 0 <= idx < parent.dim:
                raise DimensionError(f"span index {idx} out of range")
        nonzero = parent._nonzero
        for i in span:
            for j in span:
                for k, _ in nonzero.get((i, j), ()):
                    if k not in span:
                        raise StructureError(
                            f"[{parent.names[i]}, {parent.names[j]}]"
                            f" leaves the span at {parent.names[k]}")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "span", span)

    @property
    def complement(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.parent.dim) if k not in self.span)


class UnimodularityResult(_Immutable):
    __slots__ = ("verdict", "witness_name", "witness_supertrace", "note")

    def __init__(self, verdict: str, witness_name: str | None,
                 witness_supertrace: Fraction | None,
                 note: str = CONNECTED_NOTE):
        # "UNIMODULAR" | "NOT_UNIMODULAR"
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness_name", witness_name)
        object.__setattr__(self, "witness_supertrace", witness_supertrace)
        object.__setattr__(self, "note", note)

    def __str__(self) -> str:
        if self.verdict == "UNIMODULAR":
            return f"UNIMODULAR ({self.note})"
        return (f"NOT_UNIMODULAR: str(ad_{{g/h}} {self.witness_name}) = "
                f"{self.witness_supertrace} ({self.note})")


def _quotient_supertrace(g: LieSuperAlgebra, h: SubalgebraSpec,
                         x: int) -> Fraction:
    """str(ad_{g/h} e_x) = sum over k outside h of (-1)^{|k|} c_{x,k}^k,
    the diagonal of ad e_x in the complement basis."""
    trace = Fraction(0)
    for k in h.complement:
        c = g.bracket_basis(x, k)[k]
        trace += -c if g.parities[k] is ODD else c
    return trace


def unimodularity_check(g: LieSuperAlgebra,
                        h: SubalgebraSpec) -> UnimodularityResult:
    """Vanishing of str on the quotient action of every h-basis element."""
    if h.parent is not g:
        raise StructureError("subalgebra belongs to a different algebra")
    for idx in sorted(h.span):
        trace = _quotient_supertrace(g, h, idx)
        if trace:
            return UnimodularityResult("NOT_UNIMODULAR", g.names[idx], trace)
    return UnimodularityResult("UNIMODULAR", None, None)


# ---------------------------------------------------------------------------
# basis changes


def change_basis(g: LieSuperAlgebra, matrix) -> LieSuperAlgebra:
    """Rewrite the algebra in the basis f_c = sum_r matrix[r][c] e_r.

    The new generators are named f1, f2, ...  The matrix must be
    invertible and parity-preserving (no mixing of even and odd
    directions).  [f_a, f_b] sums matrix[r][a] matrix[s][b] c_rs over the
    nonzero constants and the nonzero matrix entries, and is written back
    in the f basis through the inverse matrix.
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
    # the f_a that draw on e_r, with their weights
    weights = [[(a, w) for a, w in enumerate(row) if w] for row in P]
    images = {}
    for (r, s), terms in g._nonzero.items():
        for a, wa in weights[r]:
            for b, wb in weights[s]:
                image = images.setdefault((a, b), {})
                for k, c in terms:
                    image[k] = image.get(k, 0) + wa * wb * c
    constants = {}
    for a in range(dim):
        for b in range(dim):
            image = images.get((a, b), {})
            constants[(a, b)] = tuple(
                sum(P_inv[t][k] * c for k, c in image.items())
                for t in range(dim))
    names = tuple(f"f{i + 1}" for i in range(dim))
    return LieSuperAlgebra(names, g.parities, constants)
