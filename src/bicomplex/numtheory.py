"""Rational integer primality and factorization at desk scale.

Trial division by the primes below 1000 that one gcd shows to divide n, then
``is_prime``, then Brent's cycle variant of Pollard's rho within
``RHO_STEP_LIMIT`` steps, a step on a number of 256 bits or more charged as
several.
``is_prime`` is a proof below psi_12 = 318665857834031151167461, the least
strong pseudoprime to the bases 2..37 (Sorenson & Webster, Math. Comp. 2017);
from psi_12 on it is the Baillie-PSW "probable prime" test (Baillie &
Wagstaff, Math. Comp. 1980), which no known composite passes.

The error bases ``DomainError`` and ``WorkBudgetError`` and the record base
``_Record`` live in ``bicomplex.base`` and are re-exported here.  The other
modules import them from there and import this one only to factor, so of the
command lines only those that reach ``rings`` (``factor``, ``primes-profile``,
``units``, ``disc``, ``ideal-count`` and ``zeta``) or a cyclotomic polynomial
load it; the checked ``QuadRational`` constructor loads it to test its radicand.

>>> factorint(4999)
{4999: 1}
>>> is_prime(318665857834031151167461)
False
>>> sorted(factorint(318665857834031151167461))
[399165290221, 798330580441]
"""
from __future__ import annotations

import math

from .base import DomainError, WorkBudgetError, _Record  # noqa: F401 (re-exported)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461
# Rho splits psi_13 in 1.8e6 steps; 2^128 + 1, whose least prime factor is
# near 6e16, would need about 2.4e8.  A step on an n of b bits is charged
# max(1, b // 128) steps, so every n below 2^255 is charged one per step and
# a larger n, whose steps cost more, runs fewer of them.
RHO_STEP_LIMIT = 3 << 20


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """Strong test of odd n to base a, where n - 1 = d * 2^s with d odd."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            sign = -sign if n % 8 in (3, 5) else sign
        sign = -sign if a % 4 == 3 and n % 4 == 3 else sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test, with Selfridge's P and Q, of an odd non-square n >= psi_12."""
    D = 5  # the first of 5, -7, 9, -11, ... with (D/n) = -1; P = 1
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = 2 - D if D < 0 else -D - 2
    Q, d, s, half = (1 - D) // 4, n + 1, 0, (n + 1) // 2
    while d % 2 == 0:
        d, s = d // 2, s + 1
    U, V, Qk = 1, 1, Q % n  # U_k, V_k, Q^k at k = 1, doubling to k = d
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):  # V at d * 2^r for r < s
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def is_prime(n: int) -> bool:
    """Whether n is prime: proven below psi_12, Baillie-PSW "probable" from psi_12 on."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    if n < _PSI_12:
        return all(_strong_probable_prime(n, a, d, s) for a in _MR_WITNESSES)
    return (_strong_probable_prime(n, 2, d, s) and math.isqrt(n) ** 2 != n
            and _strong_lucas_probable_prime(n))


def _brent_rho(n: int) -> int:
    """A proper divisor of the odd composite n, within ``RHO_STEP_LIMIT`` steps
    charged by the size of n."""
    steps, charge = 0, max(1, n.bit_length() // 128)

    def check_budget():
        if steps > RHO_STEP_LIMIT:
            raise WorkBudgetError(f"factoring {n} needs more than {RHO_STEP_LIMIT} rho steps")

    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            steps += r * charge
            check_budget()  # before the r steps, which are not checked one batch at a time
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                check_budget()
                ys = y
                batch = min(m, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                steps += batch * charge
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


# The primes from 7 to 997, and their product for the gcd that picks those of n.
_TRIAL_PRIMES = (
    7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101,
    103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
    307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409,
    419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521,
    523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641,
    643, 647, 653, 659, 661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757,
    761, 769, 773, 787, 797, 809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881,
    883, 887, 907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997,
)
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


def _valuation(n: int, p: int) -> tuple[int, int]:
    """(e, n / p^e) with p^e the largest power of p dividing n."""
    e = 0
    while n % p == 0:
        e, n = e + 1, n // p
    return e, n


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as ``{prime: exponent}``; 0 and +-1 give {}.

    Raises ``WorkBudgetError`` when rho runs out of steps on a composite.
    """
    n = abs(n)
    if n <= 1:
        return {}
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # one gcd finds which odd primes below 1000 divide n; only those divide it
    g = math.gcd(n, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            out[p], n = _valuation(n, p)
    if g > 1:  # g is squarefree with no prime up to its square root: a prime
        out[g], n = _valuation(n, g)
    if n < 1_000_000:  # every prime left is above 1000, so n is 1 or a prime
        if n > 1:
            out[n] = 1
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.extend((d, m // d))
    return out


def totient(n: int) -> int:
    """Euler's phi of n >= 1, from the prime factorization."""
    primes = factorint(n)
    return n // math.prod(primes) * math.prod(p - 1 for p in primes)


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
