"""Rings of integers of bicomplex extensions K1*e1 + K2*e2.

The component fields are the rationals or quadratic fields Q(sqrt(D)).  The
ring of integers, its discriminant and its unit group decompose
componentwise, and :class:`RationalField` and :class:`QuadraticField` own
the arithmetic of their component: trace, norm, integrality, integral basis,
discriminant and unit order, and for the two principal component rings
exercised here, Z and Z[i], the canonical associate, primality and
factorization (other fields raise UnsupportedRingError).  Prime elements
are, up to units, e1, e2 and the two nondegenerate shapes pi*e1 + e2 and
e1 + pi*e2 with pi prime in its component ring.

Elements of an extension are representable as BicomplexElement values
whenever at most one radicand occurs among the two component fields (always
true when at most one component is a proper quadratic field, or when both
are the same one).  Extensions pairing two different quadratic fields still
support the purely numeric operations (discriminant, unit group order).
"""
from __future__ import annotations

import math
from fractions import Fraction

from .element import BicomplexElement, NullConeError
from .gaussian import canonical_gaussian_associate, factor_gaussian, is_gaussian_prime
from .numtheory import DomainError, WorkBudgetError, _Record, factorint
from .numtheory import is_prime as is_rational_prime
from .scalars import QuadRational, as_fraction, as_gaussian, is_squarefree_int

# A fundamental unit this long has at most 4215 decimal digits, so every
# witness prints under CPython's 4300-digit int-to-str limit; the continued
# fraction passes it within about 20 ms when the unit is larger.
PELL_BIT_LIMIT = 14000


class UnsupportedRingError(ValueError):
    """The operation is not available over this extension's components."""


class UnitInputError(DomainError, ValueError):
    """Factorization input is a unit."""


class RationalField(_Record):
    """Q: scalars are rational values and the ring of integers is Z, whose
    canonical associates are positive."""

    degree = 1
    discriminant = 1
    unit_order = 2

    def __str__(self) -> str:
        return "Q"

    def trace(self, x) -> Fraction:
        """x itself, as is the norm: Q is the base field."""
        return as_fraction(x)

    norm = trace

    def is_integral(self, x) -> bool:
        return as_fraction(x).denominator == 1

    def integral_basis(self) -> list:
        return [Fraction(1)]

    def _require_factorization(self):
        """Z has unique factorization: nothing to refuse."""

    def associate(self, x) -> tuple[Fraction, Fraction]:
        """(unit, canonical) with x = unit * canonical for nonzero integral x."""
        x = as_fraction(x)
        return (Fraction(1), x) if x > 0 else (Fraction(-1), -x)

    def is_prime(self, x) -> bool:
        return is_rational_prime(abs(as_fraction(x).numerator))

    def factor(self, x) -> tuple[Fraction, list[tuple[Fraction, int]]]:
        """The unit and the canonical (prime, exponent) pairs of x."""
        n = as_fraction(x).numerator
        pairs = [(Fraction(p), e) for p, e in sorted(factorint(n).items())]
        return Fraction(-1 if n < 0 else 1), pairs


class QuadraticField(_Record):
    """Q(sqrt(D)): scalars are rationals and quadratic rationals of radicand
    D.  Only Q(i), whose ring of integers Z[i] has canonical associates in
    the first quadrant, supports associates, primality and factorization."""

    D: int
    degree = 2

    def __post_init__(self):
        if self.D in (0, 1) or not is_squarefree_int(self.D):
            raise ValueError(f"field radicand must be squarefree and not 0 or 1: {self.D}")

    def __str__(self) -> str:
        return "Q(i)" if self.D == -1 else f"Q(sqrt:{self.D})"

    def _parts(self, x) -> tuple[Fraction, Fraction]:
        """x as a + b*sqrt(D); ValueError when x does not lie in the field."""
        if isinstance(x, QuadRational) and x.b:
            if x.D != self.D:
                raise ValueError(f"{x!r} does not lie in {self}")
            return x.a, x.b
        return as_fraction(x), Fraction(0)

    def trace(self, x) -> Fraction:
        return 2 * self._parts(x)[0]

    def norm(self, x) -> Fraction:
        a, b = self._parts(x)
        return a * a - self.D * b * b

    def is_integral(self, x) -> bool:
        """Integral trace and norm (covers the half-integer basis when
        D = 1 mod 4)."""
        a, b = self._parts(x)
        return (2 * a).denominator == 1 and (a * a - self.D * b * b).denominator == 1

    def integral_basis(self) -> list:
        """{1, sqrt(D)} or, when D = 1 (mod 4), {1, (1 + sqrt(D))/2}."""
        if self.D % 4 == 1:
            return [Fraction(1), QuadRational(self.D, Fraction(1, 2), Fraction(1, 2))]
        return [Fraction(1), QuadRational(self.D, 0, 1)]

    @property
    def discriminant(self) -> int:
        return self.D if self.D % 4 == 1 else 4 * self.D

    @property
    def unit_order(self) -> int | None:
        """The order of the unit group of O_K; None (infinite) when D > 0."""
        return None if self.D > 0 else {-1: 4, -3: 6}.get(self.D, 2)

    def _require_factorization(self):
        if self.D != -1:
            raise UnsupportedRingError(f"no element factorization over {self}")

    def associate(self, x) -> tuple[QuadRational, QuadRational]:
        self._require_factorization()
        return canonical_gaussian_associate(as_gaussian(x))

    def is_prime(self, x) -> bool:
        self._require_factorization()
        return is_gaussian_prime(as_gaussian(x))

    def factor(self, x) -> tuple[QuadRational, list[tuple[QuadRational, int]]]:
        self._require_factorization()
        return factor_gaussian(as_gaussian(x))


Field = RationalField | QuadraticField
Q_FIELD = RationalField()
GAUSSIAN_FIELD = QuadraticField(-1)


class ExtensionDescriptor(_Record):
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


def _has_element_type(L: ExtensionDescriptor) -> bool:
    """Whether elements of L are BicomplexElement values: two different
    quadratic component fields share no scalar type."""
    return L.K1 == L.K2 or 1 in (L.K1.degree, L.K2.degree)


# -- ring of integers --------------------------------------------------------

def is_integral(element: BicomplexElement, L: ExtensionDescriptor) -> bool:
    """Whether both components are algebraic integers of their fields;
    ValueError when either lies outside its field, whatever the other is."""
    try:
        integral = L.K1.is_integral(element.c1), L.K2.is_integral(element.c2)
    except ValueError:
        raise ValueError(f"{element} does not lie in {L}") from None
    return all(integral)


def integral_basis(L: ExtensionDescriptor) -> list[BicomplexElement]:
    """A Z-basis of the ring of integers: e1 times a basis of O_K1 followed
    by e2 times a basis of O_K2."""
    if not _has_element_type(L):
        raise UnsupportedRingError(f"components of {L} have two different radicands")
    basis = [BicomplexElement(b, 0) for b in L.K1.integral_basis()]
    basis += [BicomplexElement(0, b) for b in L.K2.integral_basis()]
    return basis


def discriminant(L: ExtensionDescriptor) -> int:
    """Product of the two component field discriminants."""
    return L.K1.discriminant * L.K2.discriminant


def trace_to_q(element: BicomplexElement, L: ExtensionDescriptor) -> Fraction:
    """Trace of multiplication by the element on L as a Q-vector space."""
    return L.K1.trace(element.c1) + L.K2.trace(element.c2)


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

class UnitGroupInfo(_Record):
    finite: bool
    order: int | None
    unit_class: str
    structure: str
    infinite_witness: BicomplexElement | None = None


def pell_fundamental_unit(D: int) -> tuple[int, int]:
    """Smallest (x, y), y > 0, with x^2 - D*y^2 = +-1.

    It is the convergent of sqrt(D) just before the end of the first period
    of the continued fraction, where the partial quotient is 2*a0.  Raises
    WorkBudgetError once a convergent passes ``PELL_BIT_LIMIT`` bits.
    """
    if D <= 1:
        raise ValueError("needs D > 1")
    a0 = math.isqrt(D)
    if a0 * a0 == D:
        raise ValueError("D must not be a square")
    m, d, a = 0, 1, a0
    num_prev, num = 1, a0
    den_prev, den = 0, 1
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        if a == 2 * a0:
            return num, den
        num_prev, num = num, a * num + num_prev
        den_prev, den = den, a * den + den_prev
        if num.bit_length() > PELL_BIT_LIMIT:
            raise WorkBudgetError(f"the fundamental unit of Q(sqrt:{D}) needs more than "
                                  f"{PELL_BIT_LIMIT} bits")


def unit_group(L: ExtensionDescriptor) -> UnitGroupInfo:
    """Unit group of O_L: the componentwise product of the field unit groups.

    Finite exactly when both components are Q or imaginary quadratic: class
    C1 (both rational), C2 (one rational, one imaginary quadratic) or C3
    (both imaginary quadratic).  A real quadratic component yields an
    infinite group; a fundamental solution of the Pell equation witnesses a
    unit of infinite order.
    """
    orders = (L.K1.unit_order, L.K2.unit_order)
    if None in orders:
        witness = None
        if _has_element_type(L):
            witness = BicomplexElement(*[
                1 if order else QuadRational(K.D, *pell_fundamental_unit(K.D))
                for K, order in zip((L.K1, L.K2), orders)])
        return UnitGroupInfo(False, None, "infinite",
                             "infinite (contains a unit of infinite order)", witness)
    unit_class = {2: "C1", 3: "C2", 4: "C3"}[L.degree]
    return UnitGroupInfo(True, orders[0] * orders[1], unit_class,
                         f"Z/{orders[0]} x Z/{orders[1]}")


def is_unit(element: BicomplexElement, L: ExtensionDescriptor) -> bool:
    K1, K2, c1, c2 = L.K1, L.K2, element.c1, element.c2
    return (K1.is_integral(c1) and abs(K1.norm(c1)) == 1
            and K2.is_integral(c2) and abs(K2.norm(c2)) == 1)


def component_class(scalar, field: Field) -> str:
    """'zero', 'unit', 'prime' or 'other' in the component ring of field;
    UnsupportedRingError first when that ring has no element factorization."""
    field._require_factorization()
    if not scalar:
        return "zero"
    if not field.is_integral(scalar):
        return "other"
    if abs(field.norm(scalar)) == 1:
        return "unit"
    return "prime" if field.is_prime(scalar) else "other"


# -- canonical associates and prime elements ----------------------------------

def canonical_associate(element: BicomplexElement, L: ExtensionDescriptor
                        ) -> tuple[BicomplexElement, BicomplexElement]:
    """Split an invertible integral element as unit * normalized.

    Rational components become positive; Gaussian components are rotated
    into the first quadrant.  The unit is then unique.
    """
    if element.in_null_cone:
        raise NullConeError("null-cone elements have no canonical associate")
    u1, n1 = L.K1.associate(element.c1)
    u2, n2 = L.K2.associate(element.c2)
    return BicomplexElement(u1, u2), BicomplexElement(n1, n2)


class PrimeElementCheck(_Record):
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

def factor(element: BicomplexElement, L: ExtensionDescriptor) -> BicomplexFactorization:
    """Unique factorization into canonical primes of the two nondegenerate
    shapes, valid over extensions whose component rings are Z or Z[i].

    Raises NullConeError for elements of zero norm and UnitInputError for
    units; the recomposition unit * prod(prime^exp) is exact.
    """
    from .factorization import BicomplexFactorization

    L.K1._require_factorization()
    L.K2._require_factorization()
    if not is_integral(element, L):
        raise ValueError(f"{element} is not integral in {L}")
    if element.in_null_cone:
        raise NullConeError("cannot factor an element of zero norm")
    if is_unit(element, L):
        raise UnitInputError(f"{element} is a unit of {L}")

    # each component's primes come in ascending order (of norm, then re, im)
    unit1, pairs1 = L.K1.factor(element.c1)
    unit2, pairs2 = L.K2.factor(element.c2)
    factors = [(BicomplexElement(p, 1), e) for p, e in pairs1]
    factors += [(BicomplexElement(1, p), e) for p, e in pairs2]
    return BicomplexFactorization(unit=BicomplexElement(unit1, unit2), factors=tuple(factors))


class PrimeProfile(_Record):
    factor_count: int  # prime factors counted with multiplicity
    semiprime: bool
    factorization: BicomplexFactorization


def rational_prime_profile(p: int, L: ExtensionDescriptor) -> PrimeProfile:
    """How a rational prime factors in O_L.

    Over the hyperbolic integers every prime is semiprime; over the
    Gaussian-component ring p = 3 (mod 4) stays semiprime while p = 1
    (mod 4) and p = 2 contribute four prime factors with multiplicity.
    """
    if not is_rational_prime(p):
        raise ValueError(f"{p} is not prime")
    decomposition = factor(BicomplexElement(p, p), L)
    count = sum(e for _, e in decomposition.factors)
    return PrimeProfile(count, count == 2, decomposition)
