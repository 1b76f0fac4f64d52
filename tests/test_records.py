"""The package's record classes, and what a fresh import of it loads.

Each record is a plain class with ``__slots__``, built by position or by
keyword with its defaults and checks, immutable except ``CheckLine``, and
compared or hashed by value only where the program or the tests compare
or hash it.  No record is a dataclass, so importing the package execs no
generated code and loads neither ``dataclasses`` nor ``inspect``.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superberezin import groups
from superberezin.berezin import BerezinSection, IntegrationBackend
from superberezin.errors import DimensionError, DomainBoxError, StructureError
from superberezin.grassmann import Scalar
from superberezin.lie_super import (CONNECTED_NOTE, SubalgebraSpec,
                                    UnimodularityResult, ValidationReport,
                                    gl11_algebra)
from superberezin.suites import CheckLine
from superberezin.superdomain import (REALLINE, Interval, SuperDomainShape,
                                      SuperFunction, SuperMorphism)
from superberezin.supergroup import (FubiniReport, InvariantDensityResult,
                                     ProductFormulaReport, SubgroupSpec,
                                     SuperGroupChart)

SRC = Path(__file__).resolve().parent.parent / "src"

SHAPE = SuperDomainShape(1, (REALLINE,), 1)
X = SuperFunction.coordinate(SHAPE, 0)
AXB = groups.axb_group()
FUBINI = groups.axb_fubini_example()
PRODUCT = groups.axb_product_example()
GL11 = gl11_algebra()


def _read(record, fields):
    return tuple(getattr(record, name) for name in fields)


def _fields_of(record, *fields):
    """(fields, values) of a record the program built."""
    return fields, _read(record, fields)


# class: (constructor fields in order, values, defaults of the trailing
# fields, compared by value, hashed by value)
RECORDS = {
    Interval: (("lo", "hi"), (Fraction(1, 2), 2), {}, True, True),
    SuperDomainShape: (("m", "box", "n"), (1, (REALLINE,), 1), {},
                       True, True),
    IntegrationBackend: (("box",), ((Interval(0, 1),),), {"box": None},
                         True, False),
    BerezinSection: (("shape", "density", "caveats"), (SHAPE, X, ("note",)),
                     {"caveats": ()}, False, False),
    groups.FubiniExample: (
        *_fields_of(FUBINI, "name", "group", "subgroup", "section",
                    "test_function", "staging_sign", "backend"),
        {}, False, False),
    groups.ProductExample: (
        *_fields_of(PRODUCT, "name", "group", "left", "right",
                    "test_function", "modular_ratio", "ratio_label",
                    "modular_constant", "backend"),
        {}, False, False),
    ValidationReport: (("ok", "failures"), (False, ("jacobi",)),
                       {"failures": ()}, True, False),
    SubalgebraSpec: (("parent", "span"), (GL11, frozenset({0, 1})), {},
                     False, False),
    UnimodularityResult: (
        ("verdict", "witness_name", "witness_supertrace", "note"),
        ("NOT_UNIMODULAR", "E11", Fraction(1), "a note"),
        {"note": CONNECTED_NOTE}, False, False),
    CheckLine: (("name", "passed", "lhs", "rhs"), ("line", True, "1", "1"),
                {}, False, False),
    SuperGroupChart: (*_fields_of(AXB, "name", "shape", "mul", "unit", "inv"),
                      {}, False, False),
    SubgroupSpec: (*_fields_of(groups.axb_odd_subgroup(), "parent",
                               "subgroup", "embedding", "name"),
                   {"name": ""}, False, False),
    InvariantDensityResult: (
        ("side", "dimension", "sections", "max_degree"),
        ("left", 1, (BerezinSection(SHAPE, X),), 4), {}, False, False),
    FubiniReport: (("sign", "lhs", "rhs", "fibre_function", "caveats"),
                   (-1, Scalar(2), Scalar(2), X, ("note",)),
                   {"caveats": ()}, False, False),
    ProductFormulaReport: (("constant", "ratio", "lhs", "rhs", "caveats"),
                           (Scalar(-1), X, Scalar(3), Scalar(3), ("note",)),
                           {"caveats": ()}, False, False),
}

by_record = pytest.mark.parametrize("cls", list(RECORDS),
                                    ids=lambda cls: cls.__name__)


@by_record
def test_records_build_by_position_and_keyword_with_defaults(cls):
    fields, values, defaults, _, _ = RECORDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert _read(by_position, fields) == _read(by_keyword, fields) == values
    assert not hasattr(by_position, "__dict__")
    required = values[:len(values) - len(defaults)]
    assert _read(cls(*required), fields) == required + tuple(defaults.values())


@by_record
def test_records_compare_and_hash_by_value_only_where_kept(cls):
    fields, values, _, compares, hashes = RECORDS[cls]
    a, b = cls(*values), cls(*values)
    assert a == a
    assert (a == b) is compares and (a != b) is not compares
    if hashes:
        assert hash(a) == hash(b)


@by_record
def test_records_refuse_assignment_and_deletion(cls):
    fields, values, _, _, _ = RECORDS[cls]
    record = cls(*values)
    with pytest.raises(AttributeError):
        record.extra = 1
    for name, value in zip(fields, values):
        if cls is CheckLine:  # a report line stays mutable
            setattr(record, name, value)
            continue
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _read(record, fields) == values


def _other_chart():
    return groups.translation_group(1, 1)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Interval(1, 0), DomainBoxError, "empty interval [1, 0]"),
    (lambda: IntegrationBackend(((0, 1), (2, 2))), DomainBoxError,
     "empty interval [2, 2]"),
    (lambda: SuperDomainShape(-1, ("R",), 0), DimensionError,
     "dimensions must be nonnegative"),
    (lambda: SuperDomainShape(1, (), -1), DimensionError,
     "dimensions must be nonnegative"),
    (lambda: SuperDomainShape(2, (REALLINE,), 0), DimensionError,
     "box must give one axis per even coordinate"),
    (lambda: SuperDomainShape(1, ("R",), 0), DomainBoxError, "bad axis 'R'"),
    (lambda: BerezinSection(SuperDomainShape(1, (REALLINE,), 0), X),
     DimensionError, "density lives on the wrong shape"),
    (lambda: SubalgebraSpec(GL11, frozenset({4})), DimensionError,
     "span index 4 out of range"),
    (lambda: SubalgebraSpec(GL11, frozenset({2, 3})), StructureError,
     "[E12, E21] leaves the span at E11"),
    (lambda: SuperGroupChart("axb", AXB.shape, _other_chart().mul, (), AXB.inv),
     DimensionError, "unit point has wrong length"),
    (lambda: SuperGroupChart("axb", AXB.shape, _other_chart().mul, AXB.unit,
                             AXB.inv),
     DimensionError, "multiplication has the wrong shape"),
    (lambda: SuperGroupChart("axb", AXB.shape, AXB.mul, AXB.unit,
                             SuperMorphism.identity(SHAPE)),
     DimensionError, "inversion has the wrong shape"),
    (lambda: SubgroupSpec(AXB, _other_chart(),
                          groups.axb_odd_subgroup().embedding),
     DimensionError, "embedding has the wrong shape"),
])
def test_record_checks_raise_their_errors_in_order(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_a_cold_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, superberezin, superberezin.cli, superberezin.suites; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
