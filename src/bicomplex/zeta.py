"""Ideals, ideal counting and truncated zeta sums for bicomplex extensions.

Ideals decompose componentwise; here they are represented by principal
component generators (the component rings exercised, Z and Z[i], are
principal), normalized and classified by the component ring operations of
:func:`bicomplex.rings.component_ring`.  The two degenerate ideals
generated by the idempotents are prime but carry no norm and are excluded
from the zeta index set.

Ideal counts: the rationals have one ideal per norm; the Gaussian integers
have r(n)/4 ideals of norm n with r the sum-of-two-squares count given by
Jacobi's divisor formula.  The table of any extension whose components are
Q or Q(i) is the Dirichlet convolution of its two component tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .element import BicomplexElement
from .gaussian import canonical_gaussian_associate
from .numtheory import divisors
from .rings import (
    ExtensionDescriptor,
    Field,
    GAUSSIAN_FIELD,
    QuadraticField,
    RationalField,
    UnsupportedRingError,
    component_class,
    component_ring,
    scalar_field_norm,
    scalar_is_integral,
)


class DegenerateIdealError(ValueError):
    """Norm (or zeta membership) requested for a zero or degenerate ideal."""


@dataclass(frozen=True)
class ComponentIdeal:
    """An ideal of a component ring: zero, the full ring, or principal."""

    kind: str
    generator: object = None

    ZERO_KIND = "zero"
    FULL_KIND = "full"
    PRINCIPAL_KIND = "principal"

    @staticmethod
    def zero() -> ComponentIdeal:
        return ComponentIdeal(ComponentIdeal.ZERO_KIND)

    @staticmethod
    def full() -> ComponentIdeal:
        return ComponentIdeal(ComponentIdeal.FULL_KIND)

    @staticmethod
    def principal(generator, field: Field) -> ComponentIdeal:
        """The ideal generated by an integral element, normalized: zero and
        unit generators collapse to the zero and full ideals, others are
        replaced by their canonical associate."""
        kind = component_class(generator, field)
        if kind == "zero":
            return ComponentIdeal.zero()
        if kind == "unit":
            return ComponentIdeal.full()
        if not scalar_is_integral(generator, field):
            raise ValueError(f"{generator} is not integral")
        return ComponentIdeal(ComponentIdeal.PRINCIPAL_KIND,
                              component_ring(field).associate(generator)[1])

    def norm(self, field: Field) -> int:
        if self.kind == self.ZERO_KIND:
            raise DegenerateIdealError("the zero component ideal has no finite norm")
        if self.kind == self.FULL_KIND:
            return 1
        return int(scalar_field_norm(self.generator, field))

    def is_prime(self, field: Field) -> bool:
        """Prime as a component ideal; the zero ideal is prime (the
        component rings are domains), the full ring is not."""
        if self.kind == self.ZERO_KIND:
            return True
        if self.kind == self.FULL_KIND:
            return False
        return component_class(self.generator, field) == "prime"


@dataclass(frozen=True)
class BicomplexIdeal:
    a1: ComponentIdeal
    a2: ComponentIdeal
    L: ExtensionDescriptor


def principal_ideal(element: BicomplexElement, L: ExtensionDescriptor) -> BicomplexIdeal:
    return BicomplexIdeal(ComponentIdeal.principal(element.c1, L.K1),
                          ComponentIdeal.principal(element.c2, L.K2), L)


def ideal_norm(ideal: BicomplexIdeal) -> int:
    """Product of the component ideal norms.

    Undefined (error) when either component is the zero ideal, which covers
    the two degenerate ideals.
    """
    if (ideal.a1.kind == ComponentIdeal.ZERO_KIND
            or ideal.a2.kind == ComponentIdeal.ZERO_KIND):
        raise DegenerateIdealError("zero and degenerate ideals have no norm")
    return ideal.a1.norm(ideal.L.K1) * ideal.a2.norm(ideal.L.K2)


def is_prime_ideal(ideal: BicomplexIdeal) -> bool:
    """Prime iff exactly one component is the full ring and the other is a
    prime component ideal (the zero ideal counts, giving the degenerate
    prime ideals)."""
    full = ComponentIdeal.FULL_KIND
    if ideal.a1.kind == full and ideal.a2.kind != full:
        return ideal.a2.is_prime(ideal.L.K2)
    if ideal.a2.kind == full and ideal.a1.kind != full:
        return ideal.a1.is_prime(ideal.L.K1)
    return False


# -- counting ------------------------------------------------------------------

def jacobi_r(n: int) -> int:
    """Number of Gaussian integers of norm n: four times the difference
    between the divisor counts in classes 1 and 3 mod 4."""
    if n < 1:
        raise ValueError("jacobi_r needs n >= 1")
    residues = [d % 4 for d in divisors(n)]
    return 4 * (residues.count(1) - residues.count(3))


@dataclass(frozen=True)
class CoefficientTable:
    """Exact counts a(1..N) of ideals by norm, 1-indexed via :meth:`a`."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise ValueError("a(1) must be 1")
        if any(v < 0 for v in self.values):
            raise ValueError("counts must be nonnegative")

    @property
    def N(self) -> int:
        return len(self.values)

    def a(self, n: int) -> int:
        if not 1 <= n <= self.N:
            raise IndexError(f"n={n} outside 1..{self.N}")
        return self.values[n - 1]


def dirichlet_convolve(f: CoefficientTable, g: CoefficientTable) -> CoefficientTable:
    """(f*g)(n) = sum over divisors d of n of f(d) g(n/d), exactly."""
    if f.N != g.N:
        raise ValueError(f"length mismatch: {f.N} != {g.N}")
    n_max, gv = f.N, g.values
    out = [0] * (n_max + 1)
    for d, fd in enumerate(f.values, start=1):
        if fd == 0:
            continue
        for q in range(1, n_max // d + 1):
            out[d * q] += fd * gv[q - 1]
    return CoefficientTable(tuple(out[1:]))


def _r_table(n_max: int) -> tuple[int, ...]:
    """r(n)/4 for n = 1..n_max: the number of divisors of n that are 1 mod 4
    minus the number that are 3 mod 4."""
    acc = [0] * (n_max + 1)
    for d in range(1, n_max + 1, 2):
        chi = 1 if d % 4 == 1 else -1
        for m in range(d, n_max + 1, d):
            acc[m] += chi
    return tuple(acc[1:])


def coefficient_table(field_or_extension, n_max: int) -> CoefficientTable:
    """Ideal counts a(1..N) for Q, Q(i) and any extension whose components
    are among them: the Dirichlet convolution of the component tables."""
    if n_max < 1:
        raise ValueError("table length must be >= 1")
    k = field_or_extension
    if isinstance(k, ExtensionDescriptor):
        table1 = coefficient_table(k.K1, n_max)
        table2 = table1 if k.K2 == k.K1 else coefficient_table(k.K2, n_max)
        return dirichlet_convolve(table1, table2)
    if isinstance(k, RationalField):
        return CoefficientTable((1,) * n_max)
    if k == GAUSSIAN_FIELD:
        return CoefficientTable(_r_table(n_max))
    raise UnsupportedRingError(f"no coefficient table for {k}")


def zeta_partial(field_or_extension, s, n_max: int) -> float:
    """The truncated Dirichlet sum of a(n)/n^s for s > 1, in floating point.

    Coefficient identities are exact and tested separately; this is only a
    guarded numeric evaluation of the partial sum.  The terms are added left
    to right by plain float addition, so the value does not depend on the
    Python version (``sum`` compensates float sums from 3.12 on).
    """
    s = float(s)
    if not s > 1:
        raise ValueError("zeta partial sums need s > 1")
    table = coefficient_table(field_or_extension, n_max)
    total = 0
    for n, a in enumerate(table.values, start=1):
        if a:
            total += a / n ** s
    return total


def brute_force_ideal_count(field: Field, n: int) -> int:
    """Ideals of norm n counted by enumerating canonical generators.

    Supports Q (always exactly one) and Q(i) (lattice points of norm n up
    to unit associates); an independent oracle for the divisor formulas.
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    if isinstance(field, RationalField):
        return 1
    if isinstance(field, QuadraticField) and field.D == -1:
        from .gaussian import gaussian_int
        found = set()
        for a in range(-math.isqrt(n), math.isqrt(n) + 1):
            rest = n - a * a
            b = math.isqrt(rest)
            if b * b != rest:
                continue
            for bb in {b, -b}:
                _, canonical = canonical_gaussian_associate(gaussian_int(a, bb))
                found.add((canonical.re, canonical.im))
        return len(found)
    raise UnsupportedRingError(f"brute-force counting not supported for {field}")
