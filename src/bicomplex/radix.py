"""Positional digit codecs for hyperbolic and Gaussian integers.

Three base families, each with the digit set {0, ..., |N(q)|-1} forming a
complete residue system modulo the base q:

* split bases q = a*e1 + (a-1)*e2 (a <= -2) acting on all hyperbolic
  integers m*e1 + n*e2;
* hyperbolic Gaussian bases q = a + j (a <= -2) acting on the subring
  Z[j] = {u + v*j}, whose index-2 lattice the expansions cannot leave;
* Gaussian bases q = a + i or a - i (a <= -1) acting on the Gaussian
  integers u + v*i.

Each base is a 2x2 integer matrix M with determinant |N(q)|: multiplying by
q maps the integer coordinates (u, v) of its ring to M*(u, v), and a digit d
adds d times the base's digit vector.  A base's ``lattice`` is the triple
(M row by row, digit vector, digit form).  Encoding repeatedly strips the
unique digit d with q dividing x - d, which is the digit form applied to
(u, v) modulo det M, and replaces x by (x - d)/q = adj(M)*(x - d)/det M.
The digit at each step is forced, so expansions are unique; inputs whose
orbit never reaches zero exist for some bases and are reported via
NonTerminationError, never silently truncated.  The orbit is deterministic,
so a cycle is found in constant memory by comparing each state with one saved
state, refreshed at digits 1, 2, 4, 8, ... (Brent, BIT 20, 1980); an orbit
that neither cycles nor ends within 10^4 digits hits the iteration cap.  The
cost is that a cycle entered after t digits is reported at the first
checkpoint inside it, between t and about 2t digits, where a set of every
state visited would report it at once: for the base -2+j below, a 220-bit
input names its two-cycle after about 258 digits instead of 141.

The Gaussian bases a +- i are canonical number systems (Katai and Szabo,
1975): every Gaussian integer has a finite expansion.  The base -2+j is far
from one.  In idempotent coordinates it is (-1)*e1 + (-3)*e2, and u + v*j is
m*e1 + n*e2 with m = u+v, n = u-v.  The e1 component -1 is a unit, so the
digit is forced by n mod 3 alone: the digits are those of the base -3
expansion of n, and the e1 coordinate of their value is their alternating
sum.  So u + v*j has a finite expansion iff m equals the alternating digit
sum of the base -3 expansion of n; for each n exactly one m qualifies.  Every
other input of Z[j] reaches the state n = 0 with m != 0, which then cycles
m <-> -m.
"""
from __future__ import annotations

from fractions import Fraction

from .base import DomainError, _Record
from .element import BicomplexElement
from .scalars import as_fraction, as_gaussian

ITERATION_CAP = 10_000


class NonTerminationError(DomainError, ArithmeticError):
    """The digit expansion does not terminate for this input."""


class HypSplitBase(_Record):
    """q = a*e1 + (a-1)*e2 with a <= -2; digit set size a^2 - a = |N(q)|."""

    a: int

    def __post_init__(self):
        if self.a > -2:
            raise ValueError("split bases need a <= -2")

    @property
    def size(self) -> int:
        return self.a * self.a - self.a

    @property
    def lattice(self) -> tuple:
        # d = m mod |a| and d = n mod |a-1|
        return (self.a, 0, 0, self.a - 1), (1, 1), (1 - self.a, self.a)

    def __str__(self) -> str:
        return f"{self.a}*e1{self.a - 1:+}*e2"


class HypGaussBase(_Record):
    """q = a + j with a <= -2; digit set size a^2 - 1 = |N(q)|.

    For a = -2, q = (-1)*e1 + (-3)*e2 has a unit e1 component, and u + v*j
    has a finite expansion iff u+v equals the alternating digit sum of the
    base -3 expansion of u-v; every other input raises NonTerminationError.
    """

    a: int

    def __post_init__(self):
        if self.a > -2:
            raise ValueError("hyperbolic Gaussian bases need a <= -2")

    @property
    def size(self) -> int:
        return self.a * self.a - 1

    @property
    def lattice(self) -> tuple:
        # (u + v*j)*(a + j) = (a*u + v) + (u + a*v)*j; a is self-inverse mod a^2-1
        return (self.a, 1, 1, self.a), (1, 0), (1, -self.a)

    def __str__(self) -> str:
        return f"{self.a}+j"


class GaussBase(_Record):
    """q = a + sign*i with a <= -1; digit set size a^2 + 1 = N(q)."""

    a: int
    sign: int

    def __post_init__(self):
        if self.a > -1:
            raise ValueError("Gaussian bases need a <= -1")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def size(self) -> int:
        return self.a * self.a + 1

    @property
    def lattice(self) -> tuple:
        # (u + v*i)*(a + s*i) = (a*u - s*v) + (s*u + a*v)*i
        a, s = self.a, self.sign
        return (a, -s, s, a), (1, 0), (1, -a * s)

    def __str__(self) -> str:
        return f"{self.a}{'+' if self.sign > 0 else '-'}i"


RadixBase = HypSplitBase | HypGaussBase | GaussBase


def digit_set(base: RadixBase) -> range:
    return range(base.size)


class DigitString(_Record):
    """Digits least significant first; '0' is the single digit 0."""

    digits: tuple[int, ...]
    base: RadixBase

    def __post_init__(self):
        if not self.digits:
            raise ValueError("a digit string has at least one digit")
        digits = digit_set(self.base)
        if any(d not in digits for d in self.digits):
            raise ValueError("digit outside the base's digit set")
        if len(self.digits) > 1 and self.digits[-1] == 0:
            raise ValueError("no leading zero digits")

    def __str__(self) -> str:
        return " ".join(str(d) for d in reversed(self.digits))


def _to_state(x: BicomplexElement, base: RadixBase) -> tuple[int, int]:
    """Coordinates of x in the base's matching ring, validating membership."""
    if isinstance(base, GaussBase):
        g1, g2 = as_gaussian(x.c1), as_gaussian(x.c2)
        if g1 != g2:
            raise ValueError(f"{x} is not a complex number of the i-plane")
        if g1.re.denominator != 1 or g1.im.denominator != 1:
            raise ValueError(f"{x} is not a Gaussian integer")
        return g1.re.numerator, g1.im.numerator
    m, n = as_fraction(x.c1), as_fraction(x.c2)
    if m.denominator != 1 or n.denominator != 1:
        raise ValueError(f"{x} is not a hyperbolic integer")
    m, n = m.numerator, n.numerator
    if isinstance(base, HypSplitBase):
        return m, n
    if (m - n) % 2:
        raise ValueError(f"{x} lies outside Z[j], the ring of the base {base}")
    return (m + n) // 2, (m - n) // 2  # coordinates of u + v*j


def _from_state(state: tuple[int, int], base: RadixBase) -> BicomplexElement:
    u, v = state
    if isinstance(base, GaussBase):
        return BicomplexElement.from_cartesian(u, v, 0, 0)
    if isinstance(base, HypSplitBase):
        return BicomplexElement(Fraction(u), Fraction(v))
    return BicomplexElement.from_cartesian(u, 0, v, 0)


def encode(x: BicomplexElement, base: RadixBase) -> DigitString:
    """The unique finite expansion of x in the base, as digits lsd-first.

    Raises NonTerminationError when the forced-digit orbit of x revisits its
    saved state (so it cycles) or exceeds the iteration cap without reaching
    zero.
    """
    u, v = _to_state(x, base)
    if not (u or v):
        return DigitString._make((0,), base)
    (m11, m12, m21, m22), (w1, w2), (f1, f2) = base.lattice
    size = base.size
    digits: list[int] = []
    append = digits.append
    # Brent's cycle test: one saved state, refreshed at digits 1, 2, 4, 8, ...
    saved_u, saved_v, count, refresh = u, v, 0, 1
    while count < ITERATION_CAP:
        for _ in range(min(refresh, ITERATION_CAP) - count):
            d = (f1 * u + f2 * v) % size
            u, v = u - d * w1, v - d * w2
            u, v = (m22 * u - m12 * v) // size, (m11 * v - m21 * u) // size
            append(d)
            if not (u or v):  # digits are taken mod size; a last 0 would mean a zero state before
                return DigitString._make(tuple(digits), base)
            if u == saved_u and v == saved_v:
                raise NonTerminationError(
                    f"expansion of {x} in base {base} cycles (state {(u, v)} revisited)")
        count, saved_u, saved_v, refresh = refresh, u, v, 2 * refresh
    raise NonTerminationError(
        f"expansion of {x} in base {base} exceeded {ITERATION_CAP} digits")


def decode(s: DigitString) -> BicomplexElement:
    """Exact Horner evaluation of the digit string at its base."""
    (m11, m12, m21, m22), (w1, w2), _ = s.base.lattice
    u = v = 0
    for d in reversed(s.digits):
        u, v = m11 * u + m12 * v + d * w1, m21 * u + m22 * v + d * w2
    return _from_state((u, v), s.base)
