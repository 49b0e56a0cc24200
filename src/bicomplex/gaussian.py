"""Exact arithmetic and unique factorization in the Gaussian integers.

Gaussian integers are Gaussian rationals (:class:`QuadRational` at D = -1)
with integer parts.  Canonical associates sit in the first quadrant (re > 0,
im >= 0), so every nonzero element is unit * canonical with a unique unit
among 1, i, -1, -i.

Factoring follows the norm: an ordinary prime p contributes 1+i (for p = 2),
stays prime (p = 3 mod 4), or splits into the two conjugate primes gcd(p,
t+i) for a square root t of -1 mod p (p = 1 mod 4).
"""
from __future__ import annotations

from fractions import Fraction

from .numtheory import factorint, is_prime, sqrt_minus_one_mod
from .scalars import GaussianRational, QuadRational

_UNITS = (GaussianRational(1, 0), GaussianRational(0, 1),
          GaussianRational(-1, 0), GaussianRational(0, -1))


def gaussian_int(re: int, im: int = 0) -> QuadRational:
    return GaussianRational(Fraction(re), Fraction(im))


def is_gaussian_integer(g: QuadRational) -> bool:
    return g.re.denominator == 1 and g.im.denominator == 1


def _require_integer(g: QuadRational) -> tuple[int, int]:
    if not is_gaussian_integer(g):
        raise ValueError(f"{g} is not a Gaussian integer")
    return g.re.numerator, g.im.numerator


def gaussian_norm(g: QuadRational) -> int:
    a, b = _require_integer(g)
    return a * a + b * b


def is_gaussian_unit(g: QuadRational) -> bool:
    return is_gaussian_integer(g) and gaussian_norm(g) == 1


def canonical_gaussian_associate(g: QuadRational) -> tuple[QuadRational, QuadRational]:
    """Split g = unit * normalized with the normalized part in the first
    quadrant (re > 0, im >= 0)."""
    _require_integer(g)
    if g.is_zero:
        raise ValueError("zero has no canonical associate")
    current = g
    for unit in _UNITS:
        if current.re > 0 and current.im >= 0:
            return unit, current
        current = current * GaussianRational(0, -1)
        # after rotating current by -i, g = (previous units * i) * current
    raise AssertionError("unreachable: one rotation must land in the first quadrant")


def exact_gaussian_div(g: QuadRational, h: QuadRational) -> QuadRational | None:
    """g / h when h exactly divides g in Z[i], otherwise None."""
    _require_integer(g)
    if gaussian_norm(h) == 0:
        raise ZeroDivisionError("division by zero Gaussian integer")
    q = g / h
    return q if is_gaussian_integer(q) else None


def gaussian_divmod(g: QuadRational, h: QuadRational) -> tuple[QuadRational, QuadRational]:
    """Nearest-lattice-point division: g = q*h + r with N(r) <= N(h)/2."""
    _require_integer(g)
    _require_integer(h)
    exact = g / h
    q = gaussian_int(round(exact.re), round(exact.im))
    return q, g - q * h


def gaussian_gcd(g: QuadRational, h: QuadRational) -> QuadRational:
    """A greatest common divisor, returned as its canonical associate."""
    a, b = g, h
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        _, r = gaussian_divmod(a, b)
        a, b = b, r
    return canonical_gaussian_associate(a)[1]


def is_gaussian_prime(g: QuadRational) -> bool:
    """Prime in Z[i]: prime norm, or an associate of an inert rational prime."""
    if not is_gaussian_integer(g):
        return False
    n = gaussian_norm(g)
    if is_prime(n):
        return True
    root = canonical_gaussian_associate(g)[1] if n > 0 else g
    if n > 0 and root.im == 0:
        p = root.re.numerator
        return p % 4 == 3 and is_prime(p)
    return False


def _split_prime(p: int) -> QuadRational:
    """A Gaussian prime above a rational prime p = 1 (mod 4)."""
    t = sqrt_minus_one_mod(p)
    return gaussian_gcd(gaussian_int(p), gaussian_int(t, 1))


def factor_gaussian(g: QuadRational) -> tuple[QuadRational, tuple[tuple[QuadRational, int], ...]]:
    """Unit and canonical prime powers with unit * prod(prime^e) = g.

    Primes are canonical associates, listed by (norm, re, im).
    """
    _require_integer(g)
    if g.is_zero:
        raise ValueError("cannot factor zero")
    remaining = g
    candidates: list[QuadRational] = []
    for p in sorted(factorint(gaussian_norm(g))):
        if p == 2:
            candidates.append(gaussian_int(1, 1))
        elif p % 4 == 3:
            candidates.append(gaussian_int(p))
        else:
            prime = _split_prime(p)
            candidates.append(prime)
            candidates.append(canonical_gaussian_associate(prime.conjugate())[1])

    factors: list[tuple[QuadRational, int]] = []
    for prime in candidates:
        exponent = 0
        while True:
            quotient = exact_gaussian_div(remaining, prime)
            if quotient is None:
                break
            remaining = quotient
            exponent += 1
        if exponent:
            factors.append((prime, exponent))
    if not is_gaussian_unit(remaining):
        raise AssertionError(f"factorization of {g} left non-unit {remaining}")
    factors.sort(key=lambda fe: (gaussian_norm(fe[0]), fe[0].re, fe[0].im))
    return remaining, tuple(factors)
