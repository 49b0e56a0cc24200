"""Exact arithmetic and unique factorization in the Gaussian integers.

Gaussian integers are Gaussian rationals (:class:`QuadRational` at D = -1)
with integer parts.  Each public function converts its input to ``(re, im)``
integer pairs once, runs the private integer kernels (canonical rotation,
exact division, Euclid with nearest-lattice-point quotients, factoring) and
converts the result back once.  Canonical associates sit in the first
quadrant (re > 0, im >= 0), so every nonzero element is unit * canonical
with a unique unit among 1, i, -1, -i.

Factoring follows the rational primes of the content and of the norm of the
primitive part: an ordinary prime p contributes 1+i (for p = 2), stays prime
(p = 3 mod 4), or splits into the two conjugate primes gcd(p, t+i) for a
square root t of -1 mod p (p = 1 mod 4).
"""
from __future__ import annotations

import math

from .numtheory import factorint, is_prime, sqrt_minus_one_mod
from .scalars import GaussianRational, QuadRational

Pair = tuple[int, int]
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def is_gaussian_integer(g: QuadRational) -> bool:
    return g.re.denominator == 1 and g.im.denominator == 1


def _pair(g: QuadRational) -> Pair:
    if not is_gaussian_integer(g):
        raise ValueError(f"{g} is not a Gaussian integer")
    return g.re.numerator, g.im.numerator


def _canonical(z: Pair) -> tuple[int, Pair]:
    """(k, w) with z = i^k * w and w in the first quadrant."""
    a, b = z
    for k in range(4):
        if a > 0 and b >= 0:
            return k, (a, b)
        a, b = b, -a  # multiply by -i
    raise ValueError("zero has no canonical associate")


def _exact_div(z: Pair, w: Pair) -> Pair | None:
    """z / w when w divides z in Z[i], otherwise None; w is nonzero."""
    (a, b), (c, d) = z, w
    n = c * c + d * d
    re, re_rest = divmod(a * c + b * d, n)
    im, im_rest = divmod(b * c - a * d, n)
    return None if re_rest or im_rest else (re, im)


def _gcd(z: Pair, w: Pair) -> Pair:
    """Euclid with the nearest-lattice-point quotient, so N(r) <= N(w)/2."""
    while w != (0, 0):
        (a, b), (c, d) = z, w
        n = c * c + d * d
        q_re = (2 * (a * c + b * d) + n) // (2 * n)
        q_im = (2 * (b * c - a * d) + n) // (2 * n)
        z, w = w, (a - q_re * c + q_im * d, b - q_re * d - q_im * c)
    return z


def canonical_gaussian_associate(g: QuadRational) -> tuple[QuadRational, QuadRational]:
    """Split g = unit * normalized with the normalized part in the first
    quadrant (re > 0, im >= 0)."""
    k, w = _canonical(_pair(g))
    return GaussianRational(*_I_POWERS[k]), GaussianRational(*w)


def is_gaussian_prime(g: QuadRational) -> bool:
    """Prime in Z[i]: prime norm, or an associate of an inert rational prime."""
    if not is_gaussian_integer(g):
        return False
    a, b = _pair(g)
    if is_prime(a * a + b * b):
        return True
    if a and b:
        return False
    p = abs(a + b)
    return p % 4 == 3 and is_prime(p)


def factor_gaussian(g: QuadRational) -> tuple[QuadRational, tuple[tuple[QuadRational, int], ...]]:
    """Unit and canonical prime powers with unit * prod(prime^e) = g.

    Primes are canonical associates, listed by (norm, re, im).
    """
    z = _pair(g)
    if z == (0, 0):
        raise ValueError("cannot factor zero")
    # The content c = gcd(re, im) and the norm of the primitive part z/c are
    # factored apart: for z = p a rational prime the norm p^2 would leave
    # rho to split a square, while factoring c = p is a primality test.
    c = math.gcd(*z)
    candidates: list[Pair] = []
    for p in sorted(factorint(c).keys() | factorint((z[0] // c) ** 2 + (z[1] // c) ** 2).keys()):
        if p == 2:
            candidates.append((1, 1))
        elif p % 4 == 3:
            candidates.append((p, 0))
        else:
            a, b = _canonical(_gcd((p, 0), (sqrt_minus_one_mod(p), 1)))[1]
            candidates += [(a, b), _canonical((a, -b))[1]]

    factors: list[tuple[Pair, int]] = []
    for prime in candidates:
        exponent = 0
        while (quotient := _exact_div(z, prime)) is not None:
            z, exponent = quotient, exponent + 1
        if exponent:
            factors.append((prime, exponent))
    if z not in _I_POWERS:
        raise AssertionError(f"factorization of {g} left non-unit {z}")
    factors.sort(key=lambda fe: (fe[0][0] ** 2 + fe[0][1] ** 2, fe[0]))
    return GaussianRational(*z), tuple([(GaussianRational(*p), e) for p, e in factors])
