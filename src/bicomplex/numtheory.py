"""Rational integer primality and factorization at desk scale.

Trial division up to a small bound, then Brent's cycle variant of Pollard's
rho with deterministic Miller-Rabin primality checks (the chosen witness set
is exact for every 64-bit and somewhat larger input, far beyond what the
rest of the package asks for).
"""
from __future__ import annotations

import math

_TRIAL_BOUND = 10 ** 6
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = math.gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as ``{prime: exponent}``; 0 and +-1 give {}."""
    n = abs(n)
    if n <= 1:
        return {}
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    w = 0
    while f * f <= n and f < _TRIAL_BOUND:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[w]
        w = (w + 1) % len(wheel)
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _brent_rho(m)
            stack.extend((d, m // d))
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    if n < 1:
        raise ValueError("divisors defined for n >= 1")
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def sqrt_minus_one_mod(p: int) -> int:
    """A square root of -1 modulo a prime p = 1 (mod 4).

    Finds the smallest quadratic nonresidue n by direct search (it is tiny
    for every prime) and returns n^((p-1)/4) mod p.
    """
    if p % 4 != 1:
        raise ValueError("p must be 1 mod 4")
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            root = pow(n, (p - 1) // 4, p)
            assert root * root % p == p - 1
            return root
    raise ArithmeticError(f"no nonresidue found below {p}")
