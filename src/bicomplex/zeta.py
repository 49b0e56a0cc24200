"""Ideals, ideal counting and truncated zeta sums for bicomplex extensions.

Ideals decompose componentwise; here they are represented by principal
component generators (the component rings exercised, Z and Z[i], are
principal), normalized and classified by the methods of their component
field (:class:`bicomplex.rings.RationalField` or ``QuadraticField``).  The
two degenerate ideals generated by the idempotents are prime but carry no
norm and are excluded from the zeta index set.

Ideal counts are multiplicative: the rationals have one ideal per norm, and
the Gaussian integers have r(n)/4 ideals of norm n, with r the
sum-of-two-squares count, whose factor at a prime p depends on how p splits
in Z[i], that is on p mod 4.  The table of any extension whose components
are Q or Q(i) is the Dirichlet convolution of its two component tables, so
its local factors are the Cauchy products of theirs.

:func:`coefficient_table` sieves with the local factors on a byte array, in
two passes.  The primes above isqrt(N), which divide each n <= N at most
once, are marked all together by one strided byte copy per cofactor, and
one translation turns every mark into a(p), or into 1 where n has no such
prime.  Then every power p^k of a prime up to isqrt(N) multiplies its slice
by a(p^k) in one translation that saturates at 255; the few counts left at
255 are recomputed as ints in ascending order from a(n) = a(p^k) a(n/p^k)
and kept in a dict beside the bytes.  The table tuple is read from the byte
slices between those fixed counts, and :func:`zeta_partial` sums the same
bytes and fixes without building any N-long sequence of ints;
:func:`dirichlet_convolve` is the independent oracle.  Tables longer than
``TABLE_LENGTH_LIMIT`` are refused before anything is allocated.
"""
from __future__ import annotations

import math
from collections import deque
from itertools import accumulate, chain, compress, repeat
from operator import truediv

from .base import DomainError, WorkBudgetError, _Record
from .element import BicomplexElement
from .numtheory import factorint
from .rings import (ExtensionDescriptor, Field, GAUSSIAN_FIELD, Q_FIELD, UnsupportedRingError,
                    component_class)
from .scalars import GaussianRational

# The longest table built: a QB table of this length takes about 0.55 s and
# 119 MiB at peak, most of it the tuple of the counts (76 MiB of pointers),
# and its zeta sum about 1.3 s and 53 MiB (Python 3.11, 2-core container);
# ten times more would need gigabytes.
TABLE_LENGTH_LIMIT = 10 ** 7


class DegenerateIdealError(DomainError, ValueError):
    """Norm (or zeta membership) requested for a zero or degenerate ideal."""


class ComponentIdeal(_Record):
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
        if not field.is_integral(generator):
            raise ValueError(f"{generator} is not integral")
        return ComponentIdeal(ComponentIdeal.PRINCIPAL_KIND, field.associate(generator)[1])

    def norm(self, field: Field) -> int:
        if self.kind == self.ZERO_KIND:
            raise DegenerateIdealError("the zero component ideal has no finite norm")
        if self.kind == self.FULL_KIND:
            return 1
        return int(field.norm(self.generator))

    def is_prime(self, field: Field) -> bool:
        """Prime as a component ideal; the zero ideal is prime (the
        component rings are domains), the full ring is not."""
        if self.kind == self.ZERO_KIND:
            return True
        if self.kind == self.FULL_KIND:
            return False
        return component_class(self.generator, field) == "prime"


class BicomplexIdeal(_Record):
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

def _gaussian_local_factor(r: int, e: int) -> list[int]:
    """Ideals of Z[i] of norm 1, p, ..., p^e for a prime p with p % 4 == r:
    one each when 2 ramifies, k+1 of norm p^k when p = 1 (mod 4) splits, and
    one of each even exponent when p = 3 (mod 4) stays inert."""
    if r == 2:
        return [1] * (e + 1)
    if r == 1:
        return list(range(1, e + 2))
    return [(k + 1) % 2 for k in range(e + 1)]


def _local_factor(field_or_extension):
    """The function (r, e) -> [a(1), a(p), ..., a(p^e)] of the ideal counts
    at a prime p with p % 4 == r.

    For Q, Q(i) and their extensions the counts at p depend on p only
    through p mod 4 (how p splits in Z[i]).  An ideal of an extension is a
    pair of component ideals, so its local factor is the Cauchy product of
    the component factors.
    """
    k = field_or_extension
    if isinstance(k, ExtensionDescriptor):
        local1, local2 = _local_factor(k.K1), _local_factor(k.K2)

        def local(r: int, e: int) -> list[int]:
            f1, f2 = local1(r, e), local2(r, e)
            return [sum(f1[j] * f2[i - j] for j in range(i + 1)) for i in range(e + 1)]

        return local
    if k == Q_FIELD:
        return lambda r, e: [1] * (e + 1)
    if k == GAUSSIAN_FIELD:
        return _gaussian_local_factor
    raise UnsupportedRingError(f"no coefficient table for {k}")


def jacobi_r(n: int) -> int:
    """Number of Gaussian integers of norm n: four times the number of
    ideals of Z[i] of norm n, a product of local factors over n's primes."""
    if n < 1:
        raise ValueError("jacobi_r needs n >= 1")
    return 4 * math.prod(_gaussian_local_factor(p % 4, e)[e] for p, e in factorint(n).items())


class CoefficientTable(_Record):
    """Exact counts a(1..N) of ideals by norm, 1-indexed via :meth:`a`."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise ValueError("a(1) must be 1")
        if min(self.values) < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def N(self) -> int:
        return len(self.values)

    def a(self, n: int) -> int:
        if not 1 <= n <= self.N:
            raise IndexError(f"n={n} outside 1..{self.N}")
        return self.values[n - 1]


def dirichlet_convolve(f: CoefficientTable, g: CoefficientTable) -> CoefficientTable:
    """(f*g)(n) = sum over divisors d of n of f(d) g(n/d), exactly.

    The ideal-count table of an extension is the convolution of its
    component tables; the tests use this as the oracle for
    :func:`coefficient_table`.
    """
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


def _prime_codes(n_max: int) -> bytearray:
    """codes[n] = 1 + n % 4 for a prime n <= n_max and 0 otherwise
    (Eratosthenes), so a code is true exactly on the primes."""
    codes = bytearray(b"\1\2\3\4") * (n_max // 4 + 1)
    del codes[n_max + 1:]
    codes[:2] = b"\0\0"
    for p in range(2, math.isqrt(n_max) + 1):
        if codes[p]:
            codes[p * p::p] = bytes(len(range(p * p, n_max + 1, p)))
    return codes


def _ideal_counts(field_or_extension, n_max: int) -> tuple[bytearray, dict[int, int]]:
    """The counts of :func:`coefficient_table` as bytes indexed by n, with
    a placeholder at 0, and a dict of the exact counts of the n whose byte
    saturated at 255."""
    if n_max < 1:
        raise ValueError("table length must be >= 1")
    local, e_max = _local_factor(field_or_extension), n_max.bit_length()
    if n_max > TABLE_LENGTH_LIMIT:
        raise WorkBudgetError(f"a table of {n_max} ideal counts is longer than the limit of "
                              f"{TABLE_LENGTH_LIMIT}")
    # 2^e_max > n_max bounds every exponent; classes whose local factor is 1
    # leave the table as it is
    by_class = {r: a for r in (1, 2, 3) if (a := local(r, e_max)) != [1] * (e_max + 1)}
    if not by_class:
        return bytearray(b"\1") * (n_max + 1), {}
    codes, root = _prime_codes(n_max), math.isqrt(n_max)
    # Primes above the root: n <= n_max has at most one, p, to the first
    # power, and n = m*p with m <= n_max // low.  For ascending m the copy
    # writes codes[j] to counts[m*j] for every j in [low, n_max // m].  The
    # last write to an n comes from its least divisor j from low on: when n
    # has a large prime p that is p itself, since every such divisor
    # contains p (a composite j = p*t writes first and the larger cofactor
    # m*t overwrites it later); when n has none, j is composite and writes
    # 0; an n < low is never written.  One translate then turns the code of
    # n's large prime into a(p), and code 0 (no large prime) into 1; code 1
    # (0 mod 4) never marks a prime.  bytes() raises rather than wraps past
    # 255 (tests/test_zeta.py checks that every a(p) is a byte).
    counts, low = bytearray(n_max + 1), root + 1
    for m in range(1, n_max // low + 1):
        counts[m * low::m] = codes[low:n_max // m + 1]
    large = bytes([1, 1, *(local(r, 1)[1] for r in (1, 2, 3))])
    counts = counts.translate(large.ljust(256, b"\0"))
    # Every prime up to the root folds in its factors as bytes, one
    # saturating translation x -> min(x a(p^k), 255) per power p^k.  Every
    # power's slice is read before any is written, so the last write to n,
    # from the exact power p^k dividing it, multiplies n's value before p by
    # a(p^k).  Saturation is monotone (255 a stays 255 for a >= 1, and a = 0
    # gives an exact 0), so every byte below 255 is the exact count.
    smalls = [p for p in compress(range(root + 1), codes[:root + 1]) if p % 4 in by_class]
    for p in smalls:
        a, q, reads = by_class[p % 4], p, []
        while q <= n_max:
            reads.append((q, counts[q::q]))
            q *= p
        for k, (q, read) in enumerate(reads, start=1):
            table = bytes(range(0, 255, a[k])).ljust(256, b"\xff") if a[k] else bytes(256)
            counts[q::q] = read.translate(table)
    # Fix up the 255s in ascending n: a(n) = a(p^k) a(n / p^k) for the least
    # folded prime p and the power p^k exactly dividing n, and a(n / p^k) is
    # either its byte or fixed earlier in this walk.  An n that no folded
    # prime divides keeps its translated byte, which is exact.
    fixes = {}
    n = counts.find(255)
    while n > 0:
        for p in smalls:
            if n % p == 0:
                m, k = n // p, 1
                while m % p == 0:
                    m, k = m // p, k + 1
                fixes[n] = by_class[p % 4][k] * fixes.get(m, counts[m])
                break
        n = counts.find(255, n + 1)
    return counts, fixes


def _count_values(counts: bytearray, fixes: dict[int, int]):
    """a(1), ..., a(N) from :func:`_ideal_counts`: the bytes, with the fixed
    counts (keyed in ascending n) in place of their 255s."""
    if not fixes:
        return counts[1:]

    def segments():
        start = 1
        for n, a in fixes.items():
            yield counts[start:n]
            yield (a,)
            start = n + 1
        yield counts[start:]

    return chain.from_iterable(segments())


def coefficient_table(field_or_extension, n_max: int) -> CoefficientTable:
    """Ideal counts a(1..N) for Q, Q(i) and any extension whose components
    are among them, sieved from the local factors as the module docstring
    describes.  Raises ``WorkBudgetError`` when N is above
    ``TABLE_LENGTH_LIMIT``.
    """
    # no O(N) checks: a(1) = 1, and each count is a byte or a product of nonnegative ones
    return CoefficientTable._make(tuple(_count_values(*_ideal_counts(field_or_extension, n_max))))


def zeta_partial(field_or_extension, s, n_max: int) -> float:
    """The truncated Dirichlet sum of a(n)/n^s for s > 1, in floating point.

    Coefficient identities are exact and tested separately; this is only a
    guarded numeric evaluation of the partial sum.  The terms are added left
    to right by plain float addition, so the value does not depend on the
    Python version (``sum`` compensates float sums from 3.12 on).  When some
    a(n) is 0, only the terms with a(n) != 0 are computed and added: a zero
    term adds 0.0 to a positive sum, which leaves it unchanged.  Each n is
    the float n, exact below 2^53, so n^s is the power an int n gives.

    A term whose n^s is 1e300 or more is below half an ulp of a sum that is
    at least a(1) = 1, so the sum stops before it and stays bit-identical;
    this keeps n^s inside the float range.  An ``s`` too large for a float
    is infinite and leaves only a(1).  The length left after this cut is
    held to ``TABLE_LENGTH_LIMIT``.
    """
    if not s > 1:  # on the exact value: 1 + 10^-20 rounds to the float 1.0
        raise ValueError("zeta partial sums need s > 1")
    try:
        s = float(s)
    except OverflowError:
        s = math.inf
    n_max = min(n_max, int(10 ** (300 / s)))
    counts, fixes = _ideal_counts(field_or_extension, n_max)
    values, ns = _count_values(counts, fixes), accumulate(repeat(1.0, n_max))
    if counts.find(0, 1) >= 0:  # the bytes select the nonzero counts: a fixed one reads 255
        nonzero = memoryview(counts)[1:]
        values, ns = compress(values, nonzero), compress(ns, nonzero)
    terms = map(truediv, values, map(pow, ns, repeat(s)))
    return deque(accumulate(terms), maxlen=1)[0]  # the last running sum


def brute_force_ideal_count(field: Field, n: int) -> int:
    """Ideals of norm n counted by enumerating canonical generators.

    Supports Q (always exactly one) and Q(i) (lattice points of norm n up
    to unit associates); an independent oracle for the divisor formulas.
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    if field == Q_FIELD:
        return 1
    if field == GAUSSIAN_FIELD:
        found = set()
        for a in range(-math.isqrt(n), math.isqrt(n) + 1):
            rest = n - a * a
            b = math.isqrt(rest)
            if b * b != rest:
                continue
            found.update(field.associate(GaussianRational(a, bb))[1] for bb in (b, -b))
        return len(found)
    raise UnsupportedRingError(f"brute-force counting not supported for {field}")
