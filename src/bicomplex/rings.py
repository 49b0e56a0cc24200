"""Rings of integers of bicomplex extensions K1*e1 + K2*e2.

The component fields are the rationals or quadratic fields Q(sqrt(D)); the
ring of integers, its discriminant and its unit group all decompose
componentwise.  Unique factorization into prime elements is implemented for
the two principal component rings exercised here, the plain integers and
the Gaussian integers.  :func:`component_ring` is the one map from a field
to its component ring's operations (canonical associate, primality,
factorization); associates, prime elements, factorization and the ideals of
:mod:`bicomplex.zeta` all go through it.  Prime elements are, up to units,
e1, e2 and the two nondegenerate shapes pi*e1 + e2 and e1 + pi*e2 with pi
prime in its component ring.

Elements of an extension are representable as BicomplexElement values
whenever at most one radicand occurs among the two component fields (always
true when at most one component is a proper quadratic field, or when both
are the same one).  Extensions pairing two different quadratic fields still
support the purely numeric operations (discriminant, unit group order).
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .element import BicomplexElement, NullConeError
from .gaussian import canonical_gaussian_associate, factor_gaussian, is_gaussian_prime
from .numtheory import DomainError, factorint, is_prime
from .scalars import QuadRational, as_fraction, as_gaussian, is_squarefree_int


class UnsupportedRingError(ValueError):
    """The operation is not available over this extension's components."""


class UnitInputError(DomainError, ValueError):
    """Factorization input is a unit."""


@dataclass(frozen=True)
class RationalField:
    @property
    def degree(self) -> int:
        return 1

    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class QuadraticField:
    D: int

    def __post_init__(self):
        if self.D in (0, 1) or not is_squarefree_int(self.D):
            raise ValueError(f"field radicand must be squarefree and not 0 or 1: {self.D}")

    @property
    def degree(self) -> int:
        return 2

    def __str__(self) -> str:
        return "Q(i)" if self.D == -1 else f"Q(sqrt:{self.D})"


Field = RationalField | QuadraticField
Q_FIELD = RationalField()
GAUSSIAN_FIELD = QuadraticField(-1)


@dataclass(frozen=True)
class ExtensionDescriptor:
    K1: Field
    K2: Field

    @property
    def degree(self) -> int:
        return self.K1.degree + self.K2.degree

    def __str__(self) -> str:
        if self == QH:
            return "Qh"
        if self == QB:
            return "QB"
        return f"{self.K1}*e1+{self.K2}*e2"


QH = ExtensionDescriptor(Q_FIELD, Q_FIELD)
QB = ExtensionDescriptor(GAUSSIAN_FIELD, GAUSSIAN_FIELD)


# -- scalars against component fields ---------------------------------------

def quad_parts(scalar, field: Field) -> tuple[Fraction, Fraction]:
    """Write a scalar as a + b*sqrt(D) inside the given field.

    For the rational field b must vanish.  Raises ValueError when the value
    does not lie in the field.
    """
    if isinstance(field, QuadraticField) and isinstance(scalar, QuadRational) and scalar.b:
        if scalar.D != field.D:
            raise ValueError(f"{scalar!r} does not lie in {field}")
        return scalar.a, scalar.b
    return as_fraction(scalar), Fraction(0)


def scalar_in_field(scalar, field: Field) -> bool:
    try:
        quad_parts(scalar, field)
        return True
    except ValueError:
        return False


def scalar_is_integral(scalar, field: Field) -> bool:
    """Integrality in O_K: an integer for Q, integral trace and norm for
    quadratic fields (covers the half-integer basis when D = 1 mod 4)."""
    a, b = quad_parts(scalar, field)
    if isinstance(field, RationalField):
        return a.denominator == 1
    norm = a * a - field.D * b * b
    return (2 * a).denominator == 1 and norm.denominator == 1


def scalar_field_trace(scalar, field: Field) -> Fraction:
    a, _ = quad_parts(scalar, field)
    return a if isinstance(field, RationalField) else 2 * a


def scalar_field_norm(scalar, field: Field) -> Fraction:
    a, b = quad_parts(scalar, field)
    return a if isinstance(field, RationalField) else a * a - field.D * b * b


def scalar_is_ring_unit(scalar, field: Field) -> bool:
    return scalar_is_integral(scalar, field) and abs(scalar_field_norm(scalar, field)) == 1


def _has_element_type(L: ExtensionDescriptor) -> bool:
    """Whether elements of L are BicomplexElement values: two different
    quadratic component fields share no scalar type."""
    return len({K.D for K in (L.K1, L.K2) if isinstance(K, QuadraticField)}) < 2


# -- ring of integers --------------------------------------------------------

def is_integral(element: BicomplexElement, L: ExtensionDescriptor) -> bool:
    """Whether both components are algebraic integers of their fields."""
    if not (scalar_in_field(element.c1, L.K1) and scalar_in_field(element.c2, L.K2)):
        raise ValueError(f"{element} does not lie in {L}")
    return (scalar_is_integral(element.c1, L.K1)
            and scalar_is_integral(element.c2, L.K2))


def _integral_basis_scalars(field: Field) -> list:
    if isinstance(field, RationalField):
        return [Fraction(1)]
    if field.D % 4 == 1:
        return [Fraction(1), QuadRational(field.D, Fraction(1, 2), Fraction(1, 2))]
    return [Fraction(1), QuadRational(field.D, 0, 1)]


def integral_basis(L: ExtensionDescriptor) -> list[BicomplexElement]:
    """A Z-basis of the ring of integers: e1 times a basis of O_K1 followed
    by e2 times a basis of O_K2.  Quadratic components use {1, sqrt(D)} or,
    when D = 1 (mod 4), {1, (1 + sqrt(D))/2}."""
    if not _has_element_type(L):
        raise UnsupportedRingError(f"components of {L} have two different radicands")
    basis = [BicomplexElement(b, 0) for b in _integral_basis_scalars(L.K1)]
    basis += [BicomplexElement(0, b) for b in _integral_basis_scalars(L.K2)]
    return basis


def field_discriminant(field: Field) -> int:
    if isinstance(field, RationalField):
        return 1
    return field.D if field.D % 4 == 1 else 4 * field.D


def discriminant(L: ExtensionDescriptor) -> int:
    """Product of the two component field discriminants."""
    return field_discriminant(L.K1) * field_discriminant(L.K2)


def trace_to_q(element: BicomplexElement, L: ExtensionDescriptor) -> Fraction:
    """Trace of multiplication by the element on L as a Q-vector space."""
    return (scalar_field_trace(element.c1, L.K1)
            + scalar_field_trace(element.c2, L.K2))


def _det_fraction(matrix: list[list[Fraction]]) -> Fraction:
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def discriminant_by_trace_matrix(L: ExtensionDescriptor) -> int:
    """The determinant of (Tr(b_i * b_j)) over the integral basis.

    An independent route to the discriminant; must agree with
    :func:`discriminant` exactly.
    """
    basis = integral_basis(L)
    matrix = [[trace_to_q(bi * bj, L) for bj in basis] for bi in basis]
    det = _det_fraction(matrix)
    assert det.denominator == 1
    return det.numerator


# -- units --------------------------------------------------------------------

@dataclass(frozen=True)
class UnitGroupInfo:
    finite: bool
    order: int | None
    unit_class: str
    structure: str
    infinite_witness: BicomplexElement | None = None


def _component_unit_order(field: Field) -> int | None:
    if isinstance(field, RationalField):
        return 2
    if field.D > 0:
        return None
    return {-1: 4, -3: 6}.get(field.D, 2)


def pell_fundamental_unit(D: int) -> tuple[int, int]:
    """Smallest (x, y), y > 0, with x^2 - D*y^2 = +-1, via the continued
    fraction of sqrt(D)."""
    if D <= 1:
        raise ValueError("needs D > 1")
    a0 = math.isqrt(D)
    if a0 * a0 == D:
        raise ValueError("D must not be a square")
    m, d, a = 0, 1, a0
    num_prev, num = 1, a0
    den_prev, den = 0, 1
    while num * num - D * den * den not in (1, -1):
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        num_prev, num = num, a * num + num_prev
        den_prev, den = den, a * den + den_prev
    return num, den


def unit_group(L: ExtensionDescriptor) -> UnitGroupInfo:
    """Unit group of O_L: the componentwise product of the field unit groups.

    Finite exactly when both components are Q or imaginary quadratic: class
    C1 (both rational), C2 (one rational, one imaginary quadratic) or C3
    (both imaginary quadratic).  A real quadratic component yields an
    infinite group; a fundamental solution of the Pell equation witnesses a
    unit of infinite order.
    """
    orders = (_component_unit_order(L.K1), _component_unit_order(L.K2))
    if None in orders:
        witness = None
        if _has_element_type(L):
            slots = [QuadRational(K.D, *pell_fundamental_unit(K.D))
                     if isinstance(K, QuadraticField) and K.D > 0 else 1
                     for K in (L.K1, L.K2)]
            witness = BicomplexElement(*slots)
        return UnitGroupInfo(False, None, "infinite",
                             "infinite (contains a unit of infinite order)", witness)
    rational_count = sum(isinstance(K, RationalField) for K in (L.K1, L.K2))
    unit_class = {2: "C1", 1: "C2", 0: "C3"}[rational_count]
    return UnitGroupInfo(True, orders[0] * orders[1], unit_class,
                         f"Z/{orders[0]} x Z/{orders[1]}")


def is_unit(element: BicomplexElement, L: ExtensionDescriptor) -> bool:
    return (scalar_is_ring_unit(element.c1, L.K1)
            and scalar_is_ring_unit(element.c2, L.K2))


# -- component rings ----------------------------------------------------------

@dataclass(frozen=True)
class ComponentRing:
    """The operations of Z or Z[i] on scalars of the component field:
    ``associate`` splits a nonzero integral scalar as unit * canonical,
    ``is_prime`` decides primality of an integral scalar, and ``factor``
    returns the unit and canonical (prime, exponent) pairs."""

    associate: Callable
    is_prime: Callable
    factor: Callable


def _z_associate(scalar):
    value = as_fraction(scalar)
    return (Fraction(1), value) if value > 0 else (Fraction(-1), -value)


def _z_factor(scalar):
    n = as_fraction(scalar).numerator
    return Fraction(-1 if n < 0 else 1), [(Fraction(p), e) for p, e in sorted(factorint(n).items())]


_INTEGERS = ComponentRing(_z_associate, lambda x: is_prime(abs(as_fraction(x).numerator)),
                          _z_factor)
_GAUSSIAN_INTEGERS = ComponentRing(lambda x: canonical_gaussian_associate(as_gaussian(x)),
                                   lambda x: is_gaussian_prime(as_gaussian(x)),
                                   lambda x: factor_gaussian(as_gaussian(x)))


def component_ring(field: Field) -> ComponentRing:
    """Z for Q and Z[i] for Q(i), the component rings with element
    factorization; any other field raises UnsupportedRingError."""
    if isinstance(field, RationalField):
        return _INTEGERS
    if field.D == -1:
        return _GAUSSIAN_INTEGERS
    raise UnsupportedRingError(f"no element factorization over {field}")


def component_class(scalar, field: Field) -> str:
    """'zero', 'unit', 'prime' or 'other' in the component ring of field."""
    ring = component_ring(field)
    if not scalar:
        return "zero"
    if not scalar_is_integral(scalar, field):
        return "other"
    if abs(scalar_field_norm(scalar, field)) == 1:
        return "unit"
    return "prime" if ring.is_prime(scalar) else "other"


# -- canonical associates and prime elements ----------------------------------

def canonical_associate(element: BicomplexElement, L: ExtensionDescriptor
                        ) -> tuple[BicomplexElement, BicomplexElement]:
    """Split an invertible integral element as unit * normalized.

    Rational components become positive; Gaussian components are rotated
    into the first quadrant.  The unit is then unique.
    """
    if element.in_null_cone:
        raise NullConeError("null-cone elements have no canonical associate")
    u1, n1 = component_ring(L.K1).associate(element.c1)
    u2, n2 = component_ring(L.K2).associate(element.c2)
    return BicomplexElement(u1, u2), BicomplexElement(n1, n2)


@dataclass(frozen=True)
class PrimeElementCheck:
    is_prime: bool
    form: str | None  # 'e1', 'e2', 'prime_e1', 'prime_e2'
    irreducible: bool


def is_prime_element(element: BicomplexElement, L: ExtensionDescriptor) -> PrimeElementCheck:
    """Classify prime elements: up to a unit they are e1, e2, pi*e1 + e2 or
    e1 + pi*e2.  The idempotents are prime but not irreducible; the two
    nondegenerate shapes are irreducible."""
    class1 = component_class(element.c1, L.K1)
    class2 = component_class(element.c2, L.K2)
    table = {
        ("unit", "zero"): ("e1", False),
        ("zero", "unit"): ("e2", False),
        ("prime", "unit"): ("prime_e1", True),
        ("unit", "prime"): ("prime_e2", True),
    }
    if (class1, class2) in table:
        form, irreducible = table[(class1, class2)]
        return PrimeElementCheck(True, form, irreducible)
    return PrimeElementCheck(False, None, False)


# -- unique factorization ------------------------------------------------------

@dataclass(frozen=True)
class BicomplexFactorization:
    unit: BicomplexElement
    factors: tuple[tuple[BicomplexElement, int], ...]

    def recompose(self) -> BicomplexElement:
        result = self.unit
        for prime, exponent in self.factors:
            result = result * prime ** exponent
        return result


def _prime_sort_key(entry):
    element, _, form = entry
    g = as_gaussian(element.c1 if form == "prime_e1" else element.c2)
    return (0 if form == "prime_e1" else 1, g.norm_sq(), g.re, g.im)


def factor(element: BicomplexElement, L: ExtensionDescriptor) -> BicomplexFactorization:
    """Unique factorization into canonical primes of the two nondegenerate
    shapes, valid over extensions whose component rings are Z or Z[i].

    Raises NullConeError for elements of zero norm and UnitInputError for
    units; the recomposition unit * prod(prime^exp) is exact.
    """
    ring1, ring2 = component_ring(L.K1), component_ring(L.K2)
    if not is_integral(element, L):
        raise ValueError(f"{element} is not integral in {L}")
    if element.in_null_cone:
        raise NullConeError("cannot factor an element of zero norm")
    if is_unit(element, L):
        raise UnitInputError(f"{element} is a unit of {L}")

    unit1, pairs1 = ring1.factor(element.c1)
    unit2, pairs2 = ring2.factor(element.c2)
    entries = [(BicomplexElement(p, 1), e, "prime_e1") for p, e in pairs1]
    entries += [(BicomplexElement(1, p), e, "prime_e2") for p, e in pairs2]
    entries.sort(key=_prime_sort_key)
    return BicomplexFactorization(
        unit=BicomplexElement(unit1, unit2),
        factors=tuple([(el, e) for el, e, _ in entries]),
    )


@dataclass(frozen=True)
class PrimeProfile:
    factor_count: int  # prime factors counted with multiplicity
    semiprime: bool
    factorization: BicomplexFactorization


def rational_prime_profile(p: int, L: ExtensionDescriptor) -> PrimeProfile:
    """How a rational prime factors in O_L.

    Over the hyperbolic integers every prime is semiprime; over the
    Gaussian-component ring p = 3 (mod 4) stays semiprime while p = 1
    (mod 4) and p = 2 contribute four prime factors with multiplicity.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    decomposition = factor(BicomplexElement(p, p), L)
    count = sum(e for _, e in decomposition.factors)
    return PrimeProfile(count, count == 2, decomposition)
