"""Rational integer primality and factorization at desk scale.

Trial division by the odd numbers below 1000, then ``is_prime``, then
Brent's cycle variant of Pollard's rho within ``RHO_STEP_LIMIT`` steps, a
step on a number of 256 bits or more charged as several.
``is_prime`` is a proof below psi_12 = 318665857834031151167461, the least
strong pseudoprime to the bases 2..37 (Sorenson & Webster, Math. Comp. 2017);
from psi_12 on it is the Baillie-PSW "probable prime" test (Baillie &
Wagstaff, Math. Comp. 1980), which no known composite passes.

The module also holds what every other module shares: ``DomainError``, the
marker base of the errors that mean "outside the domain", and ``_Record``,
the base of the package's immutable result records (``Census``,
``UnitGroupInfo``, ``Poly`` and the rest), which stands in for frozen
dataclasses so that only factoring loads ``dataclasses``.  Records are checked
in ``__post_init__``; ``_Record._make`` is for values that pass by construction.

>>> factorint(4999)
{4999: 1}
>>> is_prime(318665857834031151167461)
False
>>> sorted(factorint(318665857834031151167461))
[399165290221, 798330580441]
"""
from __future__ import annotations

import math

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461
# Rho splits psi_13 in 1.8e6 steps; 2^128 + 1, whose least prime factor is
# near 6e16, would need about 2.4e8.  A step on an n of b bits is charged
# max(1, b // 128) steps, so every n below 2^255 is charged one per step and
# a larger n, whose steps cost more, runs fewer of them.
RHO_STEP_LIMIT = 3 << 20


class DomainError(Exception):
    """Marker base of the errors that mean the input lies outside the domain
    of an operation rather than being malformed; each also keeps a builtin
    base, so ``except ZeroDivisionError`` and the like still catch it."""


class WorkBudgetError(DomainError, ArithmeticError):
    """An operation needs more than its work budget: ``RHO_STEP_LIMIT`` rho
    steps to factor an integer, ``polys.ISOLATION_WORK_LIMIT`` to count real
    roots, ``rings.PELL_BIT_LIMIT`` bits for a fundamental unit,
    ``zeta.TABLE_LENGTH_LIMIT`` entries for an ideal-count table, or
    ``polys.DEGREE_LIMIT`` for the degree of a polynomial literal or a
    cyclotomic polynomial."""


class _Record:
    """An immutable record whose fields are the annotated names of its class,
    in order; a value given in the class body is that field's default.

    As with a frozen dataclass: ``__init__`` takes the fields by position or
    name and then runs the class's ``__post_init__`` checks, the fields live
    in the instance ``__dict__`` and cannot be assigned or deleted, records
    are equal when they are of one class with equal fields, the hash is that
    of the field tuple, and the repr is ``Name(field=value, ...)``.  A subclass
    checks its fields in ``__post_init__`` and defines no ``__init__``;
    ``_make`` skips the checks, so it is only for values that hold them by
    construction (a product of primitive polynomials is primitive, by Gauss's
    lemma), while outside input goes through ``__init__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} has {len(cls._fields)} fields, not {len(args)}")
        values = dict(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls.__dict__:
                values[name] = cls.__dict__[name]
            else:
                raise TypeError(f"{cls.__name__} needs a value for {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} has no field {next(iter(kwargs))!r}, "
                            f"or it was given twice")
        for name, value in values.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _make(cls, *values):
        """The record of its field values, given in order, without ``__post_init__``;
        set one by one, as in ``__init__``, they keep CPython's compact instance dict."""
        record = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(record, name, value)
        return record

    def __post_init__(self):
        """Checks of the fields, run by ``__init__``; none unless overridden."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


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
    f = 7
    while f < 1000 and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if f * f > n:  # no factor up to sqrt(n) is left, so n is 1 or a prime
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
