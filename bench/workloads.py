"""The four benchmark workloads: seeded inputs, operations and output checks.

Each workload is a closed loop driven by one caller: the next operation
starts when the previous one has returned and been checked.  Inputs come in
rounds with a fixed mix of operation kinds; round ``r`` of seed ``s`` is
generated from its own random stream, so the same seed always gives the
same inputs, and a run always measures whole rounds, so every run has the
stated mix.  Generation and checking happen outside the timed operation.

Every check uses facts the benchmark knows independently of the code under
test: how the input was built (its factors or roots), closed forms, or
golden outputs.  An operation fails when it raises anything other than its
expected outcome, or when its check fails; failures are counted, never
dropped.

Why each workload exists:

* ``elements``: scalars, element and minpoly do most of the work; polys
  only at degree <= 4.  The other side of ``census``: a polys change that
  helps high degrees but slows tiny ones shows up here.
* ``census``: polys and census do most of the work.  Degree and
  coefficient size vary, so Sturm-chain or gcd growth shows in the p90.
  The numeric root oracle is not a timed operation: on product polynomials
  from degree about 20 up it returns wrong counts or raises (ROADMAP item
  4), and no timed operation may fail.  The traced run calls it on every
  product polynomial and reports its agreement with the exact count as
  ``census.numeric_agree_frac``.
* ``ntheory``: numtheory, gaussian, zeta, radix and rings; polys is not used.
  Without it zeta would go unmeasured.
* ``cli``: interpreter start, import, and the CLI's parsing and formatting.
  A change that moves cost into import shows here and in every setup time.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from typing import Callable, NamedTuple

import bicomplex.cli as cli_module
from bicomplex import (
    GAUSSIAN_FIELD,
    ONE,
    QB,
    QH,
    Q_FIELD,
    BicomplexElement,
    GaussBase,
    GaussianRational,
    HypGaussBase,
    HypSplitBase,
    IntPoly,
    NonTerminationError,
    QuadRational,
    QuadraticField,
    brute_force_ideal_count,
    canonical_associate,
    census,
    census_cyclotomic,
    coefficient_table,
    decode,
    encode,
    enumerate_bicomplex_roots,
    eval_at_bicomplex,
    factor,
    is_prime_element,
    is_unit,
    locus_factors,
    minpoly_bicomplex,
    quartic_charpoly,
    rational_prime_profile,
    unit_group,
    zeta_partial,
)
from bicomplex.census import numeric_real_count
from bicomplex.rings import ExtensionDescriptor
from cli_cases import ENTRY as CLI_ENTRY, golden_cases


class Op(NamedTuple):
    """One timed call and the check of its outcome.

    ``check(result, exc)`` gets the return value, or the exception raised
    (with ``result`` None), and says whether that outcome is correct.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], bool]
    meta: object = None


def _returned(check):
    """A check for operations whose only correct outcome is a return."""
    return lambda result, exc: exc is None and check(result)


def _rng(name: str, seed: int, part) -> random.Random:
    return random.Random(f"{name}:{seed}:{part}")


# -- number theory the benchmark does itself --------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases; exact below 3.1e23."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
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


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if is_prime(n):
            return n


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _census_counts(degree: int, real: int) -> tuple[int, ...]:
    """Locus sizes (degree, r, s, i-plane, j-plane, k-plane, off-plane)."""
    s = (degree - real) // 2
    return (degree, real, s, 2 * s, real * (real - 1), 2 * s, 4 * s * (s + real - 1))


def _census_fields(c) -> tuple[int, ...]:
    return (c.degree, c.real_roots, c.complex_pairs, c.i_plane, c.j_plane,
            c.k_plane, c.off_plane)


class Workload:
    """Seeded rounds of operations; subclasses define ``round`` and ``warmup``."""

    name = ""
    trace_rounds = 1          # fixed work of a traced run
    rss_of_children = False   # peak memory is that of child processes
    reference = "cpu"         # reference slice for the machine speed (worker.py)

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, part) -> random.Random:
        return _rng(self.name, self.seed, part)

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def trace_extra(self, op: Op, tracer) -> None:
        """Extra traced work after an operation (``census`` and ``cli`` have some)."""


# -- elements ---------------------------------------------------------------------

# Per round: 16 elements with Gaussian components over QB, 4 with rational
# components over Qh (each half with integer components, which are also
# factored), and 4 with a+b*sqrt(D) components over custom:Q(sqrt:D),Q(sqrt:D).
# The cheaper Qh and sqrt(D) elements are a third of the round, so the median
# time falls inside the QB elements rather than between two kinds.
ELEMENT_MIX = ("qb_int",) * 8 + ("qb",) * 8 + ("qh_int",) * 2 + ("qh",) * 2 + ("quad",) * 4
QUAD_RADICANDS = (-11, -7, -5, -3, -2, 2, 3, 5, 6, 7, 10, 13)


def _height(rng) -> int:
    """Component heights spread log-uniformly over 1..1000."""
    return int(10 ** rng.uniform(0, 3))


def _rational(rng, integral: bool) -> Fraction:
    h = _height(rng)
    return Fraction(rng.randint(-h, h), 1 if integral else rng.randint(1, _height(rng)))


def _nonzero_rational(rng, integral: bool) -> Fraction:
    while True:
        q = _rational(rng, integral)
        if q:
            return q


def _element(rng, kind: str) -> BicomplexElement:
    integral = kind.endswith("_int")
    while True:
        if kind.startswith("qb"):
            c1, c2 = (GaussianRational(_rational(rng, integral), _rational(rng, integral))
                      for _ in range(2))
            if c1.is_zero or c2.is_zero:
                continue
            units = (c1.norm_sq() == 1) + (c2.norm_sq() == 1)
        elif kind.startswith("qh"):
            c1, c2 = _nonzero_rational(rng, integral), _nonzero_rational(rng, integral)
            units = (abs(c1) == 1) + (abs(c2) == 1)
        else:
            D = rng.choice(QUAD_RADICANDS)
            c1, c2 = (QuadRational(D, _rational(rng, False), _nonzero_rational(rng, False))
                      for _ in range(2))
            units = 0
        if not (integral and units == 2):
            return BicomplexElement(c1, c2)


def _element_op(a: BicomplexElement, L) -> dict:
    out = {
        "unit": a * a.invert(),
        "conj2": [a.conjugate(axis).conjugate(axis) for axis in "ijk"],
        "norm": a.norm(),
        "prod": a * a.conjugate("i") * a.conjugate("j") * a.conjugate("k"),
    }
    mp = minpoly_bicomplex(a)
    out["minpoly_degree"] = mp.poly.degree
    out["minpoly_at"] = eval_at_bicomplex(mp.poly.to_poly(), a)
    if a.has_cartesian_view:
        charpoly, _ = quartic_charpoly(a)
        out["charpoly_at"] = eval_at_bicomplex(charpoly, a)
    if L is not None:
        out["recomposed"] = factor(a, L).recompose()
    return out


def _element_check(a: BicomplexElement, kind: str, factored: bool):
    cartesian = not kind.startswith("quad")

    def check(out) -> bool:
        return (out["unit"] == ONE
                and all(c == a for c in out["conj2"])
                and out["prod"].c1 == out["norm"] and out["prod"].c2 == out["norm"]
                and 1 <= out["minpoly_degree"] <= 4
                and out["minpoly_at"].is_zero
                and ("charpoly_at" in out) == cartesian
                and (not cartesian or out["charpoly_at"].is_zero)
                and ("recomposed" in out) == factored
                and (not factored or out["recomposed"] == a))

    return _returned(check)


class Elements(Workload):
    name = "elements"
    trace_rounds = 80

    def _ops(self, rng, kinds) -> list[Op]:
        ops = []
        for kind in kinds:
            a = _element(rng, kind)
            L = {"qb_int": QB, "qh_int": QH}.get(kind)
            ops.append(Op(kind, lambda a=a, L=L: _element_op(a, L),
                          _element_check(a, kind, L is not None)))
        return ops

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        kinds = list(ELEMENT_MIX)
        rng.shuffle(kinds)
        return self._ops(rng, kinds)

    def warmup(self) -> list[Op]:
        return self._ops(self.rng("warmup"), sorted(set(ELEMENT_MIX)))


# -- census -----------------------------------------------------------------------

# Product polynomials: one per degree per round, with factor coefficients of
# the given bit size, so product coefficients span about 70 to 200 bits.
# Degrees 40, 44 and 48 cost about the same, and the 90th percentile of a
# round's times falls inside that group rather than at its lower edge.
PRODUCT_ROOT_BITS = {8: 32, 12: 18, 16: 12, 20: 8, 24: 5, 28: 4, 32: 3, 40: 3, 44: 2, 48: 2, 64: 2}
# Cyclotomic indices are {2,3,5,7,11,13}-smooth, so they share divisors; per
# round one index is drawn from each of these degree ranges.
CYCLOTOMIC_BINS = ((8, 16), (17, 32), (33, 48), (49, 64), (65, 96), (97, 128),
                   (129, 160), (161, 200))
CYCLOTOMIC_MAX_INDEX = 600
# Ten Gaussian-split polynomials of degree 10: these similar operations sit
# at the median of the round's times, which keeps it steady.  Degree 9 takes
# about half as long, so a mix of degrees would put the median in the gap.
GAUSS_SPLIT_DEGREES = (10,) * 10
# Warm-up uses prime indices, which no timed index is divisible by.
WARMUP_CYCLOTOMIC = (17, 19)


def _smooth(n: int) -> bool:
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            n //= p
    return n == 1


def _half_real(real: int, degree: int) -> int:
    """Real-root count near the given one with the parity of the degree, so
    each position of a round has the same shape on every seed."""
    if (degree - real) % 2 == 0:
        return real
    return real - 1 if real > 0 else real + 1


def _product_poly(rng, degree: int, bits: int) -> tuple[IntPoly, int]:
    """A squarefree product of distinct linear and irreducible quadratic
    factors, with its number of real roots.  Every factor coefficient has
    magnitude in [2^(bits-1), 2^bits] (the middle one of a quadratic at most
    2^bits), so the coefficient size of the product, and with it the cost of
    its census, varies little by seed."""
    real = _half_real(min(degree // 2, _distinct_roots(bits)), degree)

    def size():
        return rng.randint(1 << (bits - 1), 1 << bits)

    roots, quadratics = set(), set()
    while len(roots) < real:
        roots.add(Fraction(rng.choice((1, -1)) * size(), size()))
    while len(quadratics) < (degree - real) // 2:
        c, q, p = size(), size(), rng.randint(-(1 << bits), 1 << bits)
        if p * p < 4 * c * q and math.gcd(c, p, q) == 1:
            quadratics.add((c, p, q))
    coeffs = [1]
    for root in sorted(roots):
        coeffs = _poly_mul(coeffs, [-root.numerator, root.denominator])
    for c, p, q in sorted(quadratics):
        coeffs = _poly_mul(coeffs, [q, p, c])
    return IntPoly(tuple(coeffs)), real


def _distinct_roots(bits: int) -> int:
    """How many distinct rational roots factors of this size allow; from
    four bits on there are more than 64."""
    if bits >= 4:
        return 64
    sizes = range(1 << (bits - 1), (1 << bits) + 1)
    return 2 * len({Fraction(n, d) for n in sizes for d in sizes})


def _gauss_split_roots(rng, degree: int) -> tuple[list[GaussianRational], int]:
    """A conjugation-closed set of Gaussian rational roots and its number of
    real roots."""
    real = _half_real(degree // 2, degree)
    roots: list[GaussianRational] = []
    while len(roots) < real:
        root = GaussianRational(Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
        if root not in roots:
            roots.append(root)
    while len(roots) < degree:
        root = GaussianRational(Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
                                Fraction(rng.randint(1, 20), rng.randint(1, 6)))
        if root not in roots:
            roots += [root, root.conjugate()]
    return roots, real


def _monic_at(roots, x: Fraction) -> Fraction:
    value = Fraction(1)
    for root in roots:
        if root.im == 0:
            value *= x - root.re
        elif root.im > 0:
            value *= (x - root.re) ** 2 + root.im ** 2
    return value


def _gauss_split_op(roots, lead: int):
    partition = enumerate_bicomplex_roots(roots)
    return partition.sizes(), locus_factors(roots, lead).product()


def _gauss_split_check(roots, real: int, points):
    n = len(roots)
    expected_sizes = _census_counts(n, real)
    sizes = (expected_sizes[1],) + expected_sizes[3:]

    def check(out) -> bool:
        got_sizes, product = out
        return (tuple(got_sizes) == sizes
                and len(product.coeffs) == n * n + 1 and product.coeffs[-1] == 1
                and all(_horner(product.coeffs, x) == _monic_at(roots, x) ** n for x in points))

    return _returned(check)


class Census(Workload):
    name = "census"
    trace_rounds = 1
    # Gcds and Sturm chains over Q with coefficients of thousands of bits.
    reference = "bigint"

    def __init__(self, seed: int):
        super().__init__(seed)
        # Product polynomials given to the numeric oracle in a traced run,
        # and how many of its counts equal the exact one.
        self.numeric_calls = 0
        self.numeric_agree = 0
        rng = self.rng("cyclotomic")
        self.cyclotomic_pools = []
        for lo, hi in CYCLOTOMIC_BINS:
            pool = [n for n in range(3, CYCLOTOMIC_MAX_INDEX + 1)
                    if _smooth(n) and lo <= totient(n) <= hi]
            rng.shuffle(pool)
            self.cyclotomic_pools.append(pool)

    def _cyclotomic_indices(self, r: int) -> list[int]:
        """Distinct indices across rounds until a bin's pool runs out."""
        return [pool[r % len(pool)] for pool in self.cyclotomic_pools]

    @staticmethod
    def _cyclotomic_op(n: int) -> Op:
        expected = _census_counts(totient(n), 0)
        return Op("cyclotomic", lambda: census_cyclotomic(n),
                  _returned(lambda c: _census_fields(c) == expected))

    @staticmethod
    def _product_op(rng, degree: int) -> Op:
        p, real = _product_poly(rng, degree, PRODUCT_ROOT_BITS[degree])
        expected = _census_counts(degree, real)
        return Op("product_census", lambda: census(p),
                  _returned(lambda c: _census_fields(c) == expected), (p, real))

    @staticmethod
    def _gauss_split_op(rng, degree: int) -> Op:
        roots, real = _gauss_split_roots(rng, degree)
        lead = rng.randint(1, 5)
        points = [Fraction(rng.randint(-10 ** 9, 10 ** 9)) for _ in range(2)]
        return Op("gauss_split", lambda: _gauss_split_op(roots, lead),
                  _gauss_split_check(roots, real, points))

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = [self._cyclotomic_op(n) for n in self._cyclotomic_indices(r)]
        ops += [self._product_op(rng, degree) for degree in PRODUCT_ROOT_BITS]
        ops += [self._gauss_split_op(rng, degree) for degree in GAUSS_SPLIT_DEGREES]
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        rng = self.rng("warmup")
        ops = [self._cyclotomic_op(n) for n in WARMUP_CYCLOTOMIC]
        ops += [self._product_op(rng, 8), self._gauss_split_op(rng, 4)]
        return ops

    def trace_extra(self, op: Op, tracer) -> None:
        """Run the numeric oracle, traced, on each product polynomial."""
        if op.kind != "product_census":
            return
        p, real = op.meta
        tracer.active = True
        try:
            count = numeric_real_count(p)
        except Exception:  # RootConvergenceError or any other raise: no count
            count = None
        finally:
            tracer.active = False
        tracer.fold()
        self.numeric_calls += 1
        self.numeric_agree += count == real


# -- ntheory --------------------------------------------------------------------

# Component classes per factor operation, the same for QB and Qh: norms up
# to about 1e12 that are smooth, semiprime (two primes in [8e5, 1e6]) or
# prime (in [8e11, 1e12]), so trial division costs about the same on every
# seed.
FACTOR_PATTERN = (("smooth", "prime"), ("semiprime", "smooth"),
                  ("prime", "semiprime"), ("smooth", "smooth"))
PRIME_RANGE = (8 * 10 ** 11, 10 ** 12)
SEMIPRIME_RANGE = (800_000, 10 ** 6)
PROFILE_PRIME_RANGES = (((2, 100), QB), ((1_000, 10_000), QH), ((250_000, 300_000), QB))
UNIT_SHAPES = ("pell_q", "pell_pell", "q_pell")
ZETA_KEYS = (GAUSSIAN_FIELD, QH, QB)
ZETA_N = (95_000, 105_000)
ZETA_SAMPLES = 4
# The eight bases of acceptance criterion 11, each with the input size in
# bits at which one round trip costs about the same in every base, so that
# the median operation time does not depend on which bases sit next to it.
RADIX_BITS = {HypSplitBase(-2): 128, HypSplitBase(-3): 190, HypGaussBase(-2): 220,
              HypGaussBase(-3): 120, GaussBase(-1, 1): 64, GaussBase(-1, -1): 64,
              GaussBase(-2, 1): 135, GaussBase(-2, -1): 135}
RADIX_PER_BASE = 3
# The zeta function of Q and Q(i) at s = 2, 3: zeta(s) and Dirichlet beta(s).
ZETA_VALUES = {2: math.pi ** 2 / 6, 3: 1.2020569031595942854}
BETA_VALUES = {2: 0.91596559417721901505, 3: math.pi ** 3 / 32}
SMALL_GAUSSIAN_PRIMES = [(1, 1), (3, 0), (7, 0), (11, 0), (19, 0), (23, 0)] + [
    (a, b) for a in range(1, 32) for b in range(1, 32)
    if a * a + b * b < 1000 and is_prime(a * a + b * b) and a * a + b * b > 2]


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _random_gaussian_prime(rng, lo: int, hi: int) -> tuple[int, int]:
    """a + b*i with prime norm in [lo, hi)."""
    side = math.isqrt(hi)
    while True:
        a, b = rng.randint(1, side), rng.randint(0, side)
        if lo <= a * a + b * b < hi and is_prime(a * a + b * b):
            return a, b


def _int_component(rng, cls: str) -> tuple[int, int]:
    """A rational integer of the class and its number of prime factors."""
    sign = rng.choice((1, -1))
    if cls == "prime":
        return sign * random_prime(rng, *PRIME_RANGE), 1
    if cls == "semiprime":
        return sign * random_prime(rng, *SEMIPRIME_RANGE) * random_prime(rng, *SEMIPRIME_RANGE), 2
    n, count = 1, 0
    while n < 10 ** 9:
        n *= random_prime(rng, 2, 1000)
        count += 1
    return sign * n, count


def _gaussian_component(rng, cls: str) -> tuple[tuple[int, int], int]:
    """A Gaussian integer whose norm has the class, and its prime count."""
    unit = rng.choice(((1, 0), (0, 1), (-1, 0), (0, -1)))
    if cls == "prime":
        return _gmul(unit, _random_gaussian_prime(rng, *PRIME_RANGE)), 1
    if cls == "semiprime":
        g = _gmul(_random_gaussian_prime(rng, *SEMIPRIME_RANGE),
                  _random_gaussian_prime(rng, *SEMIPRIME_RANGE))
        return _gmul(unit, g), 2
    g, count = unit, 0
    while g[0] ** 2 + g[1] ** 2 < 10 ** 9:
        a, b = rng.choice(SMALL_GAUSSIAN_PRIMES)
        g = _gmul(g, (a, b) if rng.random() < 0.5 else (b, a))
        count += 1
    return g, count


def _factor_check(el: BicomplexElement, L, count: int):
    def check(f) -> bool:
        primes = [p for p, _ in f.factors]
        return (f.recompose() == el
                and is_unit(f.unit, L)
                and sum(e for _, e in f.factors) == count
                and all(e >= 1 for _, e in f.factors)
                and len(set(primes)) == len(primes)
                and all(is_prime_element(p, L).is_prime and canonical_associate(p, L)[1] == p
                        for p in primes))

    return _returned(check)


def _profile_check(p: int, L):
    count = 2 if L == QH or p % 4 == 3 else 4
    element = BicomplexElement(GaussianRational(p), GaussianRational(p)) if L == QB \
        else BicomplexElement(Fraction(p), Fraction(p))

    def check(profile) -> bool:
        return (profile.factor_count == count and profile.semiprime == (count == 2)
                and profile.factorization.recompose() == element)

    return _returned(check)


def _unit_check(D: int, shape: str):
    pell_slots = {"pell_q": (True, False), "pell_pell": (True, True), "q_pell": (False, True)}[shape]

    def pell_ok(c) -> bool:
        return (isinstance(c, QuadRational) and c.D == D and c.b > 0
                and c.a.denominator == 1 and c.b.denominator == 1
                and c.a * c.a - D * c.b * c.b in (1, -1))

    def check(info) -> bool:
        w = info.infinite_witness
        return (not info.finite and info.order is None and w is not None
                and all(pell_ok(c) if pell else c == 1
                        for c, pell in zip((w.c1, w.c2), pell_slots)))

    return _returned(check)


def _squarefree(n: int) -> bool:
    return all(n % (f * f) for f in range(2, math.isqrt(n) + 1))


def _zeta_limit(key, s: int) -> float:
    z, b = ZETA_VALUES[s], BETA_VALUES[s]
    return {GAUSSIAN_FIELD: z * b, QH: z * z, QB: (z * b) ** 2}[key]


def _ideal_count(key, n: int) -> int:
    """a(n) by the benchmark: divisor count for Qh, brute force for Q(i) and
    its Dirichlet square for QB."""
    if key == QH:
        return len(divisors(n))
    if key == GAUSSIAN_FIELD:
        return brute_force_ideal_count(GAUSSIAN_FIELD, n)
    return sum(brute_force_ideal_count(GAUSSIAN_FIELD, d)
               * brute_force_ideal_count(GAUSSIAN_FIELD, n // d) for d in divisors(n))


def _zeta_op(key, s: int, N: int):
    return coefficient_table(key, N), zeta_partial(key, s, N)


def _zeta_check(key, s: int, N: int, samples: list[int]):
    limit = _zeta_limit(key, s)
    tail_bound = 4 * (math.log(N) + 1) / N ** (s - 1)

    def check(out) -> bool:
        table, value = out
        partial = math.fsum(a / n ** s for n, a in enumerate(table.values, start=1))
        return (table.N == N and table.a(1) == 1
                and all(table.a(n) == _ideal_count(key, n) for n in samples)
                and abs(value - partial) <= 1e-12 * partial
                and 0 < limit - value <= tail_bound)

    return _returned(check)


def _radix_op(x: BicomplexElement, base):
    digits = encode(x, base)
    return digits, decode(digits)


def _radix_check(x: BicomplexElement, base):
    """Round trip; for -2+j a reported cycle is the certified outcome, while
    running into the digit cap is a failure."""
    def check(out, exc) -> bool:
        if exc is not None:
            return (isinstance(exc, NonTerminationError) and base == HypGaussBase(-2)
                    and "revisited" in str(exc))
        digits, back = out
        return back == x and all(0 <= d < base.size for d in digits.digits)

    return check


class NTheory(Workload):
    name = "ntheory"
    trace_rounds = 8
    # Measured to track its speed better than "cpu": factoring and ideal
    # tables are integer arithmetic more than interpreter dispatch.
    reference = "bigint"

    def _factor_ops(self, rng) -> list[Op]:
        ops = []
        for L in (QB, QH):
            for classes in FACTOR_PATTERN:
                if L == QB:
                    parts = [_gaussian_component(rng, cls) for cls in classes]
                    el = BicomplexElement(*(GaussianRational(*g) for g, _ in parts))
                else:
                    parts = [_int_component(rng, cls) for cls in classes]
                    el = BicomplexElement(*(Fraction(n) for n, _ in parts))
                count = sum(c for _, c in parts)
                ops.append(Op("factor", lambda el=el, L=L: factor(el, L),
                              _factor_check(el, L, count)))
        return ops

    def _profile_unit_ops(self, rng) -> list[Op]:
        ops = []
        for (lo, hi), L in PROFILE_PRIME_RANGES:
            p = random_prime(rng, lo, hi)
            ops.append(Op("profile", lambda p=p, L=L: rational_prime_profile(p, L),
                          _profile_check(p, L)))
        for shape in UNIT_SHAPES:
            D = rng.randint(2, 5000)
            while not _squarefree(D):
                D = rng.randint(2, 5000)
            K = QuadraticField(D)
            L = {"pell_q": ExtensionDescriptor(K, Q_FIELD), "pell_pell": ExtensionDescriptor(K, K),
                 "q_pell": ExtensionDescriptor(Q_FIELD, K)}[shape]
            ops.append(Op("units", lambda L=L: unit_group(L), _unit_check(D, shape)))
        return ops

    def _zeta_ops(self, rng, key) -> list[Op]:
        N = rng.randint(*ZETA_N)
        s = rng.choice((2, 3))
        samples = [N] + [rng.randint(2, N) for _ in range(ZETA_SAMPLES - 1)]
        return [Op("zeta", lambda: _zeta_op(key, s, N), _zeta_check(key, s, N, samples))]

    def _radix_ops(self, rng, shrink: int = 1) -> list[Op]:
        ops = []
        for base, bits in RADIX_BITS.items():
            bits //= shrink
            for _ in range(RADIX_PER_BASE):
                u, v = (rng.randint(-(1 << bits), 1 << bits) for _ in range(2))
                if isinstance(base, HypSplitBase):
                    x = BicomplexElement(Fraction(u), Fraction(v))
                elif isinstance(base, HypGaussBase):
                    x = BicomplexElement.from_cartesian(u, 0, v, 0)
                else:
                    x = BicomplexElement.from_cartesian(u, v, 0, 0)
                ops.append(Op("radix", lambda x=x, base=base: _radix_op(x, base),
                              _radix_check(x, base)))
        return ops

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = (self._factor_ops(rng) + self._profile_unit_ops(rng)
               + self._zeta_ops(rng, ZETA_KEYS[(self.seed + r) % len(ZETA_KEYS)])
               + self._radix_ops(rng))
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        rng = self.rng("warmup")
        el = BicomplexElement(GaussianRational(12, 5), GaussianRational(6, 35))
        return [Op("factor", lambda: factor(el, QB), _factor_check(el, QB, 4)),
                Op("zeta", lambda: _zeta_op(QB, 2, 2_000),
                   _zeta_check(QB, 2, 2_000, [2_000, 360]))] + self._radix_ops(rng, shrink=8)


# -- cli ----------------------------------------------------------------------------

# Per round: README lines, seeded variants and usage or domain errors (15%).
# Each group's cases are taken evenly spaced through its pool, so every
# round has the same spread of subcommands, and so of costs.
CLI_MIX = (("readme", 4), ("variant", 13), ("error", 3))
CLI_TIMEOUT_S = 60


class Cli(Workload):
    name = "cli"
    trace_rounds = 2
    rss_of_children = True
    reference = "spawn"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cases = golden_cases()
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli_module.__file__)))
        self.env = dict(os.environ, PYTHONPATH=src)
        self.workdir = os.path.join(os.getcwd(), ".bench_work", "cli")
        os.makedirs(self.workdir, exist_ok=True)
        self.main_s: list[float] = []
        self.exit_mismatch = 0

    def _op(self, case) -> Op:
        argv = case["argv"]

        def run():
            proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], cwd=self.workdir,
                                  env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
            return proc.returncode, proc.stdout

        expected = (case["exit"], case["stdout"].encode())
        return Op(f"cli_{case['group']}", run, _returned(lambda out: tuple(out) == expected), case)

    def round(self, r: int) -> list[Op]:
        ops = []
        for group, count in CLI_MIX:
            pool = self.cases[group]
            step = len(pool) / count
            ops += [self._op(pool[(self.seed + r + int(k * step)) % len(pool)])
                    for k in range(count)]
        self.rng(r).shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return [self._op(self.cases["readme"][0])]

    def trace_extra(self, op: Op, tracer) -> None:
        """Run the same argv through ``cli.main`` in this process: once
        untraced for ``cli.main_s``, once traced for the layer spans."""
        case = op.meta
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            for traced in (False, True):
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    tracer.active = traced
                    start = perf_counter()
                    try:
                        code = cli_module.main(list(case["argv"]))
                    finally:
                        elapsed = perf_counter() - start
                        tracer.active = False
                tracer.fold()
                if not traced:
                    self.main_s.append(elapsed)
                    self.exit_mismatch += code != case["exit"]
        finally:
            os.chdir(cwd)


WORKLOADS = {w.name: w for w in (Elements, Census, NTheory, Cli)}
