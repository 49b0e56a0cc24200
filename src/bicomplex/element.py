"""Bicomplex numbers over exact scalars.

A bicomplex number is written on the idempotent basis e1 = (1+j)/2,
e2 = (1-j)/2 as ``c1*e1 + c2*e2``; every ring operation acts componentwise.
The projection onto e1 is fixed here as the ring homomorphism sending
i -> i, j -> +1 (hence k -> i), and the projection onto e2 sends j -> -1
(hence k -> -i).  On Cartesian coordinates x + y*i + z*j + t*k this gives

    c1 = (x+z) + (y+t)*i,      c2 = (x-z) + (y-t)*i.

The three conjugations act on components as: axis i swaps them; axis j
complex-conjugates both; axis k does both at once.
"""
from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .base import DomainError
from .scalars import (
    GaussianRational,
    MixedScalarError,
    QuadRational,
    abs_sq,
    as_gaussian,
    format_scalar,
    format_terms,
    power,
)

class NullConeError(DomainError, ZeroDivisionError):
    """Raised when inverting (or otherwise requiring invertibility of) a
    bicomplex number with a zero idempotent component."""


class BicomplexElement:
    """A bicomplex number given by its two idempotent components.

    Immutable, as ``QuadRational`` is: ``c1`` and ``c2`` are read-only
    properties over private slots that only ``__init__`` sets, so they can
    be neither assigned nor deleted, and pickle and ``copy`` restore the
    slots directly."""

    __slots__ = ("_c1", "_c2")

    def __init__(self, c1, c2):
        if isinstance(c1, int):
            c1 = Fraction(c1)
        if isinstance(c2, int):
            c2 = Fraction(c2)
        if isinstance(c1, QuadRational) and isinstance(c2, QuadRational) and c1.D != c2.D:
            raise MixedScalarError(
                f"idempotent components must share a radicand: {c1!r}, {c2!r}")
        self._c1, self._c2 = c1, c2

    c1 = property(attrgetter("_c1"))
    c2 = property(attrgetter("_c2"))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_cartesian(x, y, z, t) -> BicomplexElement:
        """The element x + y*i + z*j + t*k (rational coordinates)."""
        x, y, z, t = Fraction(x), Fraction(y), Fraction(z), Fraction(t)
        return BicomplexElement(GaussianRational(x + z, y + t),
                                GaussianRational(x - z, y - t))

    @staticmethod
    def from_rational(q) -> BicomplexElement:
        q = Fraction(q)
        return BicomplexElement(q, q)

    # -- views -------------------------------------------------------------

    def to_cartesian(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Exact inverse of :meth:`from_cartesian`.

        Defined when both components lie in Q(i); quadratic components with
        a radicand other than -1 have no rational Cartesian view.
        """
        if not self.has_cartesian_view:
            raise ValueError(f"{self!r} has no Cartesian view")
        g1, g2 = as_gaussian(self._c1), as_gaussian(self._c2)
        two = Fraction(2)
        return ((g1.re + g2.re) / two, (g1.im + g2.im) / two,
                (g1.re - g2.re) / two, (g1.im - g2.im) / two)

    @property
    def has_cartesian_view(self) -> bool:
        """Whether both components lie in Q(i)."""
        return all(not isinstance(c, QuadRational) or c.D == -1 or not c.b
                   for c in (self._c1, self._c2))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: BicomplexElement) -> BicomplexElement:
        if not isinstance(other, BicomplexElement):
            return NotImplemented
        return BicomplexElement(self._c1 + other._c1, self._c2 + other._c2)

    def __sub__(self, other: BicomplexElement) -> BicomplexElement:
        if not isinstance(other, BicomplexElement):
            return NotImplemented
        return BicomplexElement(self._c1 - other._c1, self._c2 - other._c2)

    def __neg__(self) -> BicomplexElement:
        return BicomplexElement(-self._c1, -self._c2)

    def __mul__(self, other: BicomplexElement) -> BicomplexElement:
        if not isinstance(other, BicomplexElement):
            return NotImplemented
        return BicomplexElement(self._c1 * other._c1, self._c2 * other._c2)

    def __pow__(self, n: int) -> BicomplexElement:
        if n < 0:
            return self.invert() ** (-n)
        return power(self, n, ONE)

    def scale(self, q) -> BicomplexElement:
        """Multiply by a plain rational."""
        return BicomplexElement(q * self._c1, q * self._c2)

    def invert(self) -> BicomplexElement:
        """Componentwise inverse; the null cone is exactly where it fails."""
        if self.in_null_cone:
            raise NullConeError(f"{self} has a zero idempotent component")
        return BicomplexElement(1 / self._c1, 1 / self._c2)

    @property
    def is_zero(self) -> bool:
        return not (self._c1 or self._c2)

    @property
    def in_null_cone(self) -> bool:
        return not (self._c1 and self._c2)

    # -- conjugations and norm ----------------------------------------------

    def conjugate(self, axis: str) -> BicomplexElement:
        """The involution for the given axis in {'i', 'j', 'k'}."""
        if axis == "i":
            return BicomplexElement(self._c2, self._c1)
        if axis == "j":
            return BicomplexElement(self._c1.conjugate(), self._c2.conjugate())
        if axis == "k":
            return BicomplexElement(self._c2.conjugate(), self._c1.conjugate())
        raise ValueError(f"conjugation axis must be one of i, j, k, not {axis!r}")

    def norm(self):
        """The product of the element with its three conjugates.

        Equals |c1*c2|^2: a nonnegative rational for rational, Gaussian and
        imaginary quadratic components, zero exactly on the null cone.  For
        real quadratic components the exact (generally irrational) value is
        returned as a QuadRational.
        """
        return abs_sq(self._c1 * self._c2)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BicomplexElement):
            return NotImplemented
        return (self._c1, self._c2) == (other._c1, other._c2)

    def __hash__(self):
        return hash((self._c1, self._c2))

    def __str__(self) -> str:
        if self.has_cartesian_view:
            return format_cartesian(self.to_cartesian())
        return idempotent_literal(self)

    def __repr__(self) -> str:
        return f"BicomplexElement({self._c1!r}, {self._c2!r})"


def _element(c1, c2) -> BicomplexElement:
    """Result constructor: c1 and c2 are scalars known to share a radicand,
    as for ``scalars._quad``; outside input goes through ``__init__``."""
    el = object.__new__(BicomplexElement)
    el._c1, el._c2 = c1, c2
    return el


def format_cartesian(coords) -> str:
    """Canonical Cartesian literal 'x+y*i+z*j+t*k' omitting zero terms."""
    return format_terms(zip(coords, ("", "i", "j", "k")), "")


def idempotent_literal(el: BicomplexElement) -> str:
    """The idempotent literal '[c1, c2]' of an element."""
    return f"[{format_scalar(el.c1)}, {format_scalar(el.c2)}]"


ZERO = BicomplexElement.from_rational(0)
ONE = BicomplexElement.from_rational(1)
E1 = BicomplexElement(Fraction(1), Fraction(0))
E2 = BicomplexElement(Fraction(0), Fraction(1))
I_UNIT = BicomplexElement.from_cartesian(0, 1, 0, 0)
J_UNIT = BicomplexElement.from_cartesian(0, 0, 1, 0)
K_UNIT = BicomplexElement.from_cartesian(0, 0, 0, 1)
