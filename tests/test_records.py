"""The package's immutable records keep the behaviour they had as frozen
dataclasses: field names and order, keyword construction and defaults,
equality only within one class, the hash of the field tuple, the repr, and
refusal to assign or delete.  The repr literals were captured from the
dataclass versions.
"""
import copy
import pickle
import types
from fractions import Fraction

import pytest

from bicomplex.census import Census, LocusFactors, RootPartition
from bicomplex.element import ONE, BicomplexElement
from bicomplex.minpoly import MinPolyResult, QuarticCoefficients
from bicomplex.polys import IntPoly, Poly
from bicomplex.radix import DigitString, GaussBase, HypGaussBase, HypSplitBase
from bicomplex.rings import (
    QH,
    BicomplexFactorization,
    ExtensionDescriptor,
    PrimeElementCheck,
    PrimeProfile,
    QuadraticField,
    RationalField,
    UnitGroupInfo,
)
from bicomplex.scalars import GaussianRational
from bicomplex.zeta import BicomplexIdeal, CoefficientTable, ComponentIdeal

F = Fraction
G = GaussianRational
X_MINUS_1 = Poly((-1, 1))
FACTORS = BicomplexFactorization(BicomplexElement(1, 1), ((BicomplexElement(3, 1), 1),
                                                          (BicomplexElement(1, 3), 1)))

# (class, field names, field values, repr)
CASES = [
    (BicomplexElement, ("c1", "c2"), (F(1), G(0, 2)),
     "BicomplexElement(Fraction(1, 1), GaussianRational(Fraction(0, 1), Fraction(2, 1)))"),
    (Poly, ("num", "den"), ((-1, 0, 1), 1), "Poly('X^2 - 1')"),
    (IntPoly, ("coeffs",), ((-8, 4, -2, 1),), "IntPoly('X^3 - 2*X^2 + 4*X - 8')"),
    (Census, ("degree", "real_roots"), (3, 1), "Census(degree=3, real_roots=1)"),
    (RootPartition, ("real", "plane_i", "plane_j", "plane_k", "generic"),
     ((ONE,), (), (), (), ()),
     "RootPartition(real=(BicomplexElement(Fraction(1, 1), Fraction(1, 1)),), plane_i=(), "
     "plane_j=(), plane_k=(), generic=())"),
    (LocusFactors, ("real", "plane_i", "plane_j", "plane_k", "generic"),
     (X_MINUS_1, Poly.one(), Poly.one(), Poly.one(), Poly.one()),
     "LocusFactors(real=Poly('X - 1'), plane_i=Poly('1'), plane_j=Poly('1'), "
     "plane_k=Poly('1'), generic=Poly('1'))"),
    (MinPolyResult, ("poly", "kind", "component_polys"),
     (IntPoly.of(-1, 1), "common", (IntPoly.of(-1, 1), IntPoly.of(-1, 1))),
     "MinPolyResult(poly=IntPoly('X - 1'), kind='common', "
     "component_polys=(IntPoly('X - 1'), IntPoly('X - 1')))"),
    (QuarticCoefficients, ("four_re", "pair_sum", "triple_sum", "norm"),
     (F(4), F(6), F(4), F(1, 2)),
     "QuarticCoefficients(four_re=Fraction(4, 1), pair_sum=Fraction(6, 1), "
     "triple_sum=Fraction(4, 1), norm=Fraction(1, 2))"),
    (RationalField, (), (), "RationalField()"),
    (QuadraticField, ("D",), (5,), "QuadraticField(D=5)"),
    (ExtensionDescriptor, ("K1", "K2"), (RationalField(), QuadraticField(-1)),
     "ExtensionDescriptor(K1=RationalField(), K2=QuadraticField(D=-1))"),
    (UnitGroupInfo, ("finite", "order", "unit_class", "structure", "infinite_witness"),
     (True, 16, "C3", "Z/4 x Z/4", None),
     "UnitGroupInfo(finite=True, order=16, unit_class='C3', structure='Z/4 x Z/4', "
     "infinite_witness=None)"),
    (PrimeElementCheck, ("is_prime", "form", "irreducible"), (True, "e1", False),
     "PrimeElementCheck(is_prime=True, form='e1', irreducible=False)"),
    (BicomplexFactorization, ("unit", "factors"), (FACTORS.unit, FACTORS.factors),
     "BicomplexFactorization(unit=BicomplexElement(Fraction(1, 1), Fraction(1, 1)), "
     "factors=((BicomplexElement(Fraction(3, 1), Fraction(1, 1)), 1), "
     "(BicomplexElement(Fraction(1, 1), Fraction(3, 1)), 1)))"),
    (PrimeProfile, ("factor_count", "semiprime", "factorization"), (2, True, FACTORS),
     "PrimeProfile(factor_count=2, semiprime=True, "
     "factorization=BicomplexFactorization(unit=BicomplexElement(Fraction(1, 1), "
     "Fraction(1, 1)), factors=((BicomplexElement(Fraction(3, 1), Fraction(1, 1)), 1), "
     "(BicomplexElement(Fraction(1, 1), Fraction(3, 1)), 1))))"),
    (HypSplitBase, ("a",), (-2,), "HypSplitBase(a=-2)"),
    (HypGaussBase, ("a",), (-2,), "HypGaussBase(a=-2)"),
    (GaussBase, ("a", "sign"), (-1, 1), "GaussBase(a=-1, sign=1)"),
    (DigitString, ("digits", "base"), ((1, 4, 3, 0, 3, 5), HypSplitBase(-2)),
     "DigitString(digits=(1, 4, 3, 0, 3, 5), base=HypSplitBase(a=-2))"),
    (ComponentIdeal, ("kind", "generator"), ("principal", G(1, 1)),
     "ComponentIdeal(kind='principal', generator=GaussianRational(Fraction(1, 1), "
     "Fraction(1, 1)))"),
    (BicomplexIdeal, ("a1", "a2", "L"), (ComponentIdeal.full(), ComponentIdeal.zero(), QH),
     "BicomplexIdeal(a1=ComponentIdeal(kind='full', generator=None), "
     "a2=ComponentIdeal(kind='zero', generator=None), "
     "L=ExtensionDescriptor(K1=RationalField(), K2=RationalField()))"),
    (CoefficientTable, ("values",), ((1, 2, 2, 3),), "CoefficientTable(values=(1, 2, 2, 3))"),
]


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_record(cls, names, values, text):
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert repr(record) == text
    # equality: by keyword too, and never with another class holding equal fields
    same = cls(**dict(zip(names, values)))
    assert record == same and not record != same
    assert hash(record) == hash(same) == hash(values)
    assert record != values
    assert record != types.SimpleNamespace(**dict(zip(names, values)))
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    if cls is not BicomplexElement:  # bench/selftest.py corrupts records through vars()
        assert vars(record) == dict(zip(names, values))
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values


def test_records_of_equal_fields_but_different_classes_differ():
    assert Poly((1, 2, 1)) != IntPoly((1, 2, 1))
    assert HypSplitBase(-2) != HypGaussBase(-2)
    assert BicomplexElement(1, 1) != Poly((1,))


def test_defaults_and_bad_arguments():
    assert UnitGroupInfo(True, 4, "C1", "Z/2 x Z/2").infinite_witness is None
    assert ComponentIdeal("full") == ComponentIdeal.full()
    with pytest.raises(TypeError):
        Census(3)
    with pytest.raises(TypeError):
        Census(3, 1, 0)
    with pytest.raises(TypeError):
        Census(3, degree=3)
    with pytest.raises(TypeError):
        Census(3, real=1)


def test_post_init_checks_still_run():
    with pytest.raises(ValueError):
        Census(3, 2)
    with pytest.raises(ValueError):
        Census(degree=3, real_roots=4)
    with pytest.raises(ValueError):
        QuadraticField(4)
    with pytest.raises(ValueError):
        CoefficientTable((2, 1))
    with pytest.raises(ValueError):
        DigitString((0, 0), HypSplitBase(-2))
    with pytest.raises(ValueError):
        GaussBase(-1, 2)
    with pytest.raises(ValueError):
        IntPoly((2, 4))
