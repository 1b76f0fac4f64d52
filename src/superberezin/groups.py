"""Built-in supergroup charts and worked quotient/product examples.

The small zoo used throughout the test suite and the command line:

* translation charts R^{m|n} under addition;
* the odd Heisenberg chart (z, t1, t2) with the symmetric cocycle
  z'' = z + z' + t1 t2' + t2 t1', so [Q1, Q2] = 2Z;
* the scaling-shift chart on (0, oo) x R^{0|1} with
  (a, b)(a', b') = (aa', b + ab'), the standard non-unimodular example:
  ``haar_density`` computes its left density 1 and right density a^-1;
* a GL(1|1) chart with coordinates (a, d | beta, gamma), the entries of
  [[a, beta], [gamma, d]] multiplied as supermatrices.

Each example bundle freezes a quotient section, a test integrand and
backends, so checks can be re-run verbatim from the command line.  It
fixes no density: every Haar, subgroup and quotient density is derived
from the charts by the checks themselves.
"""

from __future__ import annotations

from fractions import Fraction

from .berezin import GAUSSIAN, IntegrationBackend, box_backend
from .grassmann import Scalar, _Immutable
from .superdomain import (
    POSITIVE,
    REALLINE,
    SuperDomainShape,
    SuperFunction,
    SuperMorphism,
    shape_product,
)
from .supergroup import SubgroupSpec, SuperGroupChart


def translation_group(m: int, n: int,
                      name: str | None = None) -> SuperGroupChart:
    shape = SuperDomainShape(m, tuple(REALLINE for _ in range(m)), n)
    prod = shape_product(shape, shape)
    x = [SuperFunction.coordinate(prod, i) for i in range(2 * m)]
    xi = [SuperFunction.odd_gen(prod, j) for j in range(2 * n)]
    mul = SuperMorphism(prod, shape,
                        [x[i] + x[m + i] for i in range(m)],
                        [xi[j] + xi[n + j] for j in range(n)])
    inv = SuperMorphism(
        shape, shape,
        [-SuperFunction.coordinate(shape, i) for i in range(m)],
        [-SuperFunction.odd_gen(shape, j) for j in range(n)])
    return SuperGroupChart(name or f"translations of R^({m}|{n})",
                           shape, mul, (Fraction(0),) * m, inv)


def heisenberg_group() -> SuperGroupChart:
    shape = SuperDomainShape(1, (REALLINE,), 2)
    prod = shape_product(shape, shape)
    # p marks the second factor's odd coordinates
    z, z2 = (SuperFunction.coordinate(prod, i) for i in range(2))
    t1, t2, t1p, t2p = (SuperFunction.odd_gen(prod, j) for j in range(4))
    mul = SuperMorphism(prod, shape, [z + z2 + t1 * t2p + t2 * t1p],
                        [t1 + t1p, t2 + t2p])
    inv = SuperMorphism(shape, shape, [-SuperFunction.coordinate(shape, 0)],
                        [-SuperFunction.odd_gen(shape, 0),
                         -SuperFunction.odd_gen(shape, 1)])
    return SuperGroupChart("odd Heisenberg chart", shape, mul,
                           (Fraction(0),), inv)


def multiplicative_line() -> SuperGroupChart:
    shape = SuperDomainShape(1, (POSITIVE,), 0)
    prod = shape_product(shape, shape)
    a, a2 = (SuperFunction.coordinate(prod, i) for i in range(2))
    mul = SuperMorphism(prod, shape, [a * a2], [])
    inv = SuperMorphism(shape, shape,
                        [SuperFunction.coordinate(shape, 0, -1)], [])
    return SuperGroupChart("scaling line", shape, mul, (Fraction(1),), inv)


def axb_group() -> SuperGroupChart:
    shape = SuperDomainShape(1, (POSITIVE,), 1)
    prod = shape_product(shape, shape)
    a, a2 = (SuperFunction.coordinate(prod, i) for i in range(2))
    b, b2 = (SuperFunction.odd_gen(prod, j) for j in range(2))
    mul = SuperMorphism(prod, shape, [a * a2], [b + a * b2])
    a_inv = SuperFunction.coordinate(shape, 0, -1)
    inv = SuperMorphism(shape, shape, [a_inv],
                        [-(a_inv * SuperFunction.odd_gen(shape, 0))])
    return SuperGroupChart("scaling-shift chart", shape, mul,
                           (Fraction(1),), inv)


def gl11_group() -> SuperGroupChart:
    shape = SuperDomainShape(2, (POSITIVE, POSITIVE), 2)
    prod = shape_product(shape, shape)
    # block entries of [[a, beta], [gamma, d]]; primes are the second factor
    a, d, a2, d2 = (SuperFunction.coordinate(prod, i) for i in range(4))
    beta, gamma, beta2, gamma2 = (SuperFunction.odd_gen(prod, j)
                                  for j in range(4))
    mul = SuperMorphism(
        prod, shape,
        [a * a2 + beta * gamma2, d * d2 + gamma * beta2],
        [a * beta2 + beta * d2, gamma * a2 + d * gamma2])
    sbeta, sgamma = (SuperFunction.odd_gen(shape, j) for j in range(2))
    ia = SuperFunction.coordinate(shape, 0, -1)
    id_ = SuperFunction.coordinate(shape, 1, -1)
    soul = sbeta * sgamma
    inv = SuperMorphism(
        shape, shape,
        [ia + ia * ia * id_ * soul, id_ - ia * id_ * id_ * soul],
        [-(ia * id_ * sbeta), -(ia * id_ * sgamma)])
    return SuperGroupChart("GL(1|1) chart", shape, mul,
                           (Fraction(1), Fraction(1)), inv)


# ---------------------------------------------------------------------------
# subgroups


def axb_even_subgroup() -> SubgroupSpec:
    G = axb_group()
    H = multiplicative_line()
    emb = SuperMorphism(H.shape, G.shape,
                        [SuperFunction.coordinate(H.shape, 0)],
                        [SuperFunction.zero(H.shape)])
    return SubgroupSpec(G, H, emb, name="scaling subgroup")


def axb_odd_subgroup() -> SubgroupSpec:
    G = axb_group()
    H = translation_group(0, 1, name="odd shifts")
    emb = SuperMorphism(H.shape, G.shape,
                        [SuperFunction.constant(H.shape, Fraction(1))],
                        [SuperFunction.odd_gen(H.shape, 0)])
    return SubgroupSpec(G, H, emb, name="odd shift subgroup")


def heisenberg_center() -> SubgroupSpec:
    G = heisenberg_group()
    H = translation_group(1, 0, name="centre line")
    emb = SuperMorphism(H.shape, G.shape,
                        [SuperFunction.coordinate(H.shape, 0)],
                        [SuperFunction.zero(H.shape),
                         SuperFunction.zero(H.shape)])
    return SubgroupSpec(G, H, emb, name="centre")


def line_odd_subgroup() -> SubgroupSpec:
    G = translation_group(1, 1)
    H = translation_group(0, 1, name="odd shifts")
    emb = SuperMorphism(H.shape, G.shape,
                        [SuperFunction.constant(H.shape, Fraction(0))],
                        [SuperFunction.odd_gen(H.shape, 0)])
    return SubgroupSpec(G, H, emb, name="odd shift subgroup")


# ---------------------------------------------------------------------------
# worked quotient examples


class FubiniExample(_Immutable):
    __slots__ = ("name", "group", "subgroup", "section", "test_function",
                 "staging_sign", "backend")

    def __init__(self, name: str, group: SuperGroupChart,
                 subgroup: SubgroupSpec, section: SuperMorphism,
                 test_function: SuperFunction, staging_sign: int,
                 backend: IntegrationBackend):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "subgroup", subgroup)
        # base -> group, a section of G -> G/H
        object.__setattr__(self, "section", section)
        object.__setattr__(self, "test_function", test_function)
        # frozen sign of the staged integral
        object.__setattr__(self, "staging_sign", staging_sign)
        object.__setattr__(self, "backend", backend)


def line_fubini_example() -> FubiniExample:
    spec = line_odd_subgroup()
    G = spec.parent
    base = SuperDomainShape(1, (REALLINE,), 0)
    section = SuperMorphism(base, G.shape, [SuperFunction.coordinate(base, 0)],
                            [SuperFunction.zero(base)])
    x = SuperFunction.coordinate(G.shape, 0)
    xi = SuperFunction.odd_gen(G.shape, 0)
    return FubiniExample(
        name="line-odd",
        group=G, subgroup=spec, section=section,
        test_function=x * x * x * x + x * x * xi,
        staging_sign=-1,
        backend=GAUSSIAN)


def heisenberg_fubini_example() -> FubiniExample:
    spec = heisenberg_center()
    G = spec.parent
    base = SuperDomainShape(0, (), 2)
    section = SuperMorphism(base, G.shape, [SuperFunction.zero(base)],
                            [SuperFunction.odd_gen(base, 0),
                             SuperFunction.odd_gen(base, 1)])
    z = SuperFunction.coordinate(G.shape, 0)
    top = SuperFunction.odd_gen(G.shape, 0) * SuperFunction.odd_gen(G.shape, 1)
    return FubiniExample(
        name="heisenberg-centre",
        group=G, subgroup=spec, section=section,
        test_function=z * z + z * z * top,
        staging_sign=1,
        backend=GAUSSIAN)


def axb_fubini_example() -> FubiniExample:
    spec = axb_odd_subgroup()
    G = spec.parent
    base = SuperDomainShape(1, (POSITIVE,), 0)
    section = SuperMorphism(base, G.shape, [SuperFunction.coordinate(base, 0)],
                            [SuperFunction.zero(base)])
    a = SuperFunction.coordinate(G.shape, 0)
    b = SuperFunction.odd_gen(G.shape, 0)
    return FubiniExample(
        name="axb-odd",
        group=G, subgroup=spec, section=section,
        test_function=a + a * b,
        staging_sign=-1,
        backend=box_backend((Fraction(1, 2), Fraction(2))))


def fubini_builtins() -> tuple[FubiniExample, ...]:
    return (line_fubini_example(), heisenberg_fubini_example(),
            axb_fubini_example())


# ---------------------------------------------------------------------------
# product-of-subgroups examples


class ProductExample(_Immutable):
    __slots__ = ("name", "group", "left", "right", "test_function",
                 "modular_ratio", "ratio_label", "modular_constant", "backend")

    def __init__(self, name: str, group: SuperGroupChart, left: SubgroupSpec,
                 right: SubgroupSpec, test_function: SuperFunction,
                 modular_ratio: SuperFunction, ratio_label: str,
                 modular_constant: Scalar, backend: IntegrationBackend):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "test_function", test_function)
        # frozen conjugation data: the modular ratio on the right factor,
        # the chart's name for it, and the constant
        object.__setattr__(self, "modular_ratio", modular_ratio)
        object.__setattr__(self, "ratio_label", ratio_label)
        object.__setattr__(self, "modular_constant", modular_constant)
        object.__setattr__(self, "backend", backend)


def axb_product_example(order: str = "odd-even") -> ProductExample:
    G = axb_group()
    a = SuperFunction.coordinate(G.shape, 0)
    b = SuperFunction.odd_gen(G.shape, 0)
    box = box_backend((Fraction(1, 2), Fraction(2)))
    if order == "odd-even":
        left, right = axb_odd_subgroup(), axb_even_subgroup()
        ratio = SuperFunction.coordinate(right.subgroup.shape, 0)
        label, constant = "a", Scalar(-1)
    elif order == "even-odd":
        left, right = axb_even_subgroup(), axb_odd_subgroup()
        ratio = SuperFunction.one(right.subgroup.shape)
        label, constant = "1", Scalar(1)
    else:
        raise ValueError("order must be 'odd-even' or 'even-odd'")
    return ProductExample(
        name=f"axb-{order}",
        group=G, left=left, right=right,
        test_function=a + a * b,
        modular_ratio=ratio, ratio_label=label, modular_constant=constant,
        backend=box)


def product_builtins() -> tuple[ProductExample, ...]:
    return (axb_product_example("odd-even"), axb_product_example("even-odd"))


def builtin_groups() -> tuple[SuperGroupChart, ...]:
    return (translation_group(1, 1), heisenberg_group(), axb_group(),
            gl11_group())
