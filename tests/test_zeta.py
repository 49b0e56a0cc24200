import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bicomplex import zeta
from bicomplex.element import BicomplexElement
from bicomplex.gaussian import exact_gaussian_div, gaussian_int, gaussian_norm
from bicomplex.numtheory import WorkBudgetError, factorint
from bicomplex.rings import (
    ExtensionDescriptor,
    GAUSSIAN_FIELD,
    QB,
    QH,
    Q_FIELD,
    QuadraticField,
    RationalField,
    UnsupportedRingError,
    factor,
)
from bicomplex.scalars import GaussianRational
from bicomplex.zeta import (
    TABLE_LENGTH_LIMIT,
    BicomplexIdeal,
    CoefficientTable,
    ComponentIdeal,
    DegenerateIdealError,
    brute_force_ideal_count,
    coefficient_table,
    dirichlet_convolve,
    ideal_norm,
    is_prime_ideal,
    jacobi_r,
    principal_ideal,
    zeta_partial,
)

L_C2 = ExtensionDescriptor(Q_FIELD, GAUSSIAN_FIELD)


def test_ideal_norm_examples():
    ideal = BicomplexIdeal(ComponentIdeal.principal(2, Q_FIELD),
                           ComponentIdeal.principal(3, Q_FIELD), QH)
    assert ideal_norm(ideal) == 6
    ideal = BicomplexIdeal(ComponentIdeal.principal(gaussian_int(1, 1), GAUSSIAN_FIELD),
                           ComponentIdeal.full(), QB)
    assert ideal_norm(ideal) == 2
    for a1, a2 in (((ComponentIdeal.full()), ComponentIdeal.zero()),
                   (ComponentIdeal.zero(), ComponentIdeal.full()),
                   (ComponentIdeal.zero(), ComponentIdeal.zero()),
                   (ComponentIdeal.zero(), ComponentIdeal.principal(3, Q_FIELD))):
        with pytest.raises(DegenerateIdealError):
            ideal_norm(BicomplexIdeal(a1, a2, QH))


def test_component_ideal_normalization():
    assert ComponentIdeal.principal(-6, Q_FIELD).generator == 6
    assert ComponentIdeal.principal(0, Q_FIELD).kind == ComponentIdeal.ZERO_KIND
    assert ComponentIdeal.principal(-1, Q_FIELD).kind == ComponentIdeal.FULL_KIND
    canon = ComponentIdeal.principal(gaussian_int(0, 3), GAUSSIAN_FIELD)
    assert canon.generator == gaussian_int(3)
    with pytest.raises(UnsupportedRingError):
        ComponentIdeal.principal(1, QuadraticField(-3))


def test_is_prime_ideal():
    full = ComponentIdeal.full()
    assert is_prime_ideal(BicomplexIdeal(full, ComponentIdeal.principal(3, Q_FIELD), QH))
    assert is_prime_ideal(BicomplexIdeal(full, ComponentIdeal.zero(), QH))  # degenerate
    assert is_prime_ideal(BicomplexIdeal(ComponentIdeal.zero(), full, QH))
    assert not is_prime_ideal(BicomplexIdeal(ComponentIdeal.principal(2, Q_FIELD),
                                             ComponentIdeal.principal(3, Q_FIELD), QH))
    assert not is_prime_ideal(BicomplexIdeal(full, full, QH))
    assert not is_prime_ideal(BicomplexIdeal(full, ComponentIdeal.principal(4, Q_FIELD), QH))
    assert is_prime_ideal(BicomplexIdeal(
        ComponentIdeal.principal(gaussian_int(1, 1), GAUSSIAN_FIELD), full, QB))


def test_jacobi_examples():
    assert jacobi_r(1) == 4
    assert jacobi_r(5) == 8
    assert jacobi_r(3) == 0
    assert jacobi_r(2) == 4
    with pytest.raises(ValueError):
        jacobi_r(0)


def test_jacobi_against_lattice_enumeration():
    limit = 500
    counts = [0] * (limit + 1)
    bound = math.isqrt(limit)
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            n = a * a + b * b
            if 1 <= n <= limit:
                counts[n] += 1
    for n in range(1, limit + 1):
        assert jacobi_r(n) == counts[n]


def test_coefficient_table_rational_and_hyperbolic():
    assert coefficient_table(Q_FIELD, 5).values == (1, 1, 1, 1, 1)
    table = coefficient_table(QH, 200)
    for n in range(1, 201):
        assert table.a(n) == sum(1 for d in range(1, n + 1) if n % d == 0)
    assert table.a(6) == 4


def test_gaussian_counts_three_routes_to_ten_thousand():
    """a(n), r(n)/4 and the canonical-generator enumeration agree on 1..10^4."""
    limit = 10 ** 4
    table_i = coefficient_table(GAUSSIAN_FIELD, limit)
    for n in range(1, limit + 1):
        r = jacobi_r(n)
        assert r % 4 == 0
        assert table_i.a(n) == r // 4 == brute_force_ideal_count(GAUSSIAN_FIELD, n)


def test_coefficient_table_gaussian_and_quartic():
    table_i = coefficient_table(GAUSSIAN_FIELD, 300)
    for n in range(1, 301):
        assert table_i.a(n) == jacobi_r(n) // 4
        assert jacobi_r(n) % 4 == 0
    table_b = coefficient_table(QB, 100)
    assert table_b.values[:5] == (1, 2, 0, 3, 4)
    assert table_b.a(2) == 2
    # brute-force pair enumeration over component ideals
    for n in range(1, 101):
        expected = sum(brute_force_ideal_count(GAUSSIAN_FIELD, d)
                       * brute_force_ideal_count(GAUSSIAN_FIELD, n // d)
                       for d in range(1, n + 1) if n % d == 0)
        assert table_b.a(n) == expected


def test_coefficient_table_of_c2_extension():
    """Q*e1 + Q(i)*e2 (unit class C2): a(n) counts pairs of component ideals,
    one ideal of Z for each divisor d of n and the ideals of Z[i] of norm d."""
    table = coefficient_table(L_C2, 200)
    for n in range(1, 201):
        assert table.a(n) == sum(brute_force_ideal_count(GAUSSIAN_FIELD, d)
                                 for d in range(1, n + 1) if n % d == 0)
    assert coefficient_table(ExtensionDescriptor(GAUSSIAN_FIELD, Q_FIELD), 200) == table


# -- the sieve against the Dirichlet convolution ---------------------------------

SIEVE_KEYS = (Q_FIELD, GAUSSIAN_FIELD, QH, QB, L_C2, ExtensionDescriptor(GAUSSIAN_FIELD, Q_FIELD))
# Lengths on both sides of a square, where isqrt(N) and so the split between
# the primes folded in one by one and those copied per cofactor moves: at
# 3/4, 8/9 and 24/25/26, 2, 3 and 5 move from the copy to the fold.
SIEVE_LENGTHS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 24, 25, 26, 35, 36, 37, 48, 49, 50, 121,
                 168, 169, 170, 215, 216, 217, 960, 961, 962, 1000, 4096, 9408, 9409, 9410, 10007)


def _oracle_table(key, n_max):
    """Q: all ones; Q(i): divisors 1 mod 4 minus divisors 3 mod 4, by a
    double loop; an extension: the convolution of its component oracles."""
    if isinstance(key, ExtensionDescriptor):
        return dirichlet_convolve(_oracle_table(key.K1, n_max), _oracle_table(key.K2, n_max))
    if key == Q_FIELD:
        return CoefficientTable((1,) * n_max)
    acc = [0] * (n_max + 1)
    for d in range(1, n_max + 1, 2):
        for m in range(d, n_max + 1, d):
            acc[m] += 1 if d % 4 == 1 else -1
    return CoefficientTable(tuple(acc[1:]))


@pytest.mark.parametrize("key", SIEVE_KEYS, ids=str)
def test_coefficient_table_equals_the_convolution_oracle(key):
    for n_max in SIEVE_LENGTHS:
        assert coefficient_table(key, n_max) == _oracle_table(key, n_max), n_max


@pytest.mark.parametrize("key", SIEVE_KEYS, ids=str)
def test_large_prime_factors_fit_in_a_byte(key):
    # The one byte table that does not saturate: the translation of the mark
    # of n's prime above isqrt(N) into a(p).  bytes() raises past 255, so
    # a(p) must be a byte in every class of p mod 4.
    local = zeta._local_factor(key)
    assert all(local(r, 1)[1] <= 255 for r in (1, 2, 3))


@pytest.mark.parametrize("key", (QH, QB), ids=str)
def test_coefficient_table_equals_the_convolution_at_thirty_thousand(key):
    n_max = 30011  # a prime, so a(N) itself comes from the copied codes
    assert coefficient_table(key, n_max) == _oracle_table(key, n_max)


def test_counts_past_a_byte_are_fixed_up_exactly():
    # The primes up to isqrt(N) multiply bytes that saturate at 255, and
    # those counts are recomputed afterwards; QB first reaches 255 at
    # 8840 = 2^3 5 13 17, where a = 256, and has 30 such counts up to 30011
    # (the test above compares this table with the convolution oracle).
    table = coefficient_table(QB, 30011)
    assert table.a(8840) == 256 and max(table.values) > 255


def test_hyperbolic_counts_past_a_byte_are_divisor_counts():
    # Qh first reaches 255 at 1081080 = 2^3 3^3 5 7 11 13, with 256 divisors.
    n_max = 1081080
    table = coefficient_table(QH, n_max)
    rng = random.Random(85)
    samples = [n for n, a in enumerate(table.values, start=1) if a >= 200]
    samples += [rng.randint(1, n_max) for _ in range(500)]
    assert table.a(n_max) == 256 and n_max in samples
    for n in samples:
        assert table.a(n) == math.prod(e + 1 for e in factorint(n).values()), n


@pytest.mark.parametrize("key", SIEVE_KEYS, ids=str)
def test_coefficient_table_is_multiplicative(key):
    limit = 10 ** 4
    table = coefficient_table(key, limit)
    rng = random.Random(84)
    pairs = 0
    while pairs < 300:
        m = rng.randint(1, 200)
        n = rng.randint(1, limit // m)
        if math.gcd(m, n) == 1:
            assert table.a(m * n) == table.a(m) * table.a(n), (m, n)
            pairs += 1


@pytest.mark.parametrize("key", SIEVE_KEYS, ids=str)
def test_zeta_partial_is_the_plain_left_to_right_sum(key):
    # zeta_partial skips the terms with a(n) = 0; at 20000 most Q(i) and QB
    # counts are 0, and adding 0.0 must leave every bit of the sum as it is.
    # The table and the sum are read from the sieve's bytes and the fixed
    # counts past a byte, so both are checked against the oracle's prefix:
    # QB's first count past a byte is a(8840) = 256, so 8839, 8840 and 8841
    # end them before, at and after the first fixed count.
    oracle = _oracle_table(key, 20000).values
    for n_max in (3000, 8839, 8840, 8841, 20000):
        values = oracle[:n_max]
        assert coefficient_table(key, n_max).values == values
        for s in (2, 3, Fraction(5, 2)):
            total = 0.0
            for n, a in enumerate(values, start=1):
                total += a / n ** float(s)
            assert zeta_partial(key, s, n_max).hex() == total.hex()


@pytest.mark.parametrize("key", SIEVE_KEYS, ids=str)
def test_zeta_partial_past_the_float_range(key):
    # From n = 114 on, n^150 is beyond the float range; the sum stops before
    # n^s reaches 1e300 and is still the exact partial sum rounded to a float.
    values = coefficient_table(key, 200).values
    exact = sum(Fraction(a, n ** 150) for n, a in enumerate(values, start=1))
    assert zeta_partial(key, 150, 200) == float(exact) == 1.0
    # An exponent too large for a float leaves only a(1) = 1.
    assert zeta_partial(key, Fraction(10) ** 400, 200) == 1.0
    with pytest.raises(ValueError):
        zeta_partial(key, -Fraction(10) ** 400, 200)


def test_table_length_limit(monkeypatch):
    for call in (lambda n: coefficient_table(QB, n), lambda n: zeta_partial(QH, 2, n)):
        with pytest.raises(WorkBudgetError, match=str(TABLE_LENGTH_LIMIT)):
            call(10 ** 8)  # refused before anything is allocated
    monkeypatch.setattr(zeta, "TABLE_LENGTH_LIMIT", 50)
    assert coefficient_table(QB, 50) == _oracle_table(QB, 50)
    assert zeta_partial(QH, 2, 50) > 1
    for call in (lambda n: coefficient_table(QB, n), lambda n: zeta_partial(QH, 2, n),
                 lambda n: coefficient_table(Q_FIELD, n)):
        with pytest.raises(WorkBudgetError, match="limit of 50"):
            call(51)
    # the sum keeps n <= 10^(300/s), 10 for s = 300, before the length is checked
    assert zeta_partial(QH, 300, 10 ** 8) == 1.0


# One child per job: the peak after its first call, then the table's SHA-256
# (little-endian 4-byte words) or the sum's float.hex() for QB and Qh.  The
# peak is the child's VmHWM: its ru_maxrss would start from the test
# process's own peak, which Linux carries through the exec.
_AT_THE_LIMIT = """
import hashlib, sys
from array import array
from bicomplex.rings import QB, QH
from bicomplex.zeta import coefficient_table, zeta_partial

def peak_mib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM")) // 1024

def table_digest(key):
    words = array("I", coefficient_table(key, 10 ** 7).values)
    if sys.byteorder == "big":
        words.byteswap()
    return hashlib.sha256(words.tobytes()).hexdigest()

if sys.argv[1] == "table":
    values = coefficient_table(QB, 10 ** 7).values
    peak = peak_mib()
    del values
    print(peak, table_digest(QB), table_digest(QH))
else:
    qb = zeta_partial(QB, 2, 10 ** 7)
    print(peak_mib(), qb.hex(), zeta_partial(QH, 2, 10 ** 7).hex())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_tables_and_sums_at_the_length_limit():
    # Only the sieve's bytes and the tuple (or the running sum) are alive:
    # the table peaks near 119 MiB and the sum near 52 MiB, where an N-long
    # list of the counts beside them took 183 and 126 MiB.  The digests and
    # sums are those of the list-based builder they replaced.
    env = {**os.environ, "PYTHONPATH": str(Path(zeta.__file__).resolve().parents[1])}
    children = {job: subprocess.Popen([sys.executable, "-c", _AT_THE_LIMIT, job],
                                      stdout=subprocess.PIPE, text=True, env=env)
                for job in ("table", "sum")}
    out = {job: child.communicate(timeout=120)[0].split() for job, child in children.items()}
    assert all(child.returncode == 0 for child in children.values()), out
    peak, qb, qh = out["table"]
    assert int(peak) <= 140, out
    assert qb == "338fc8ecb0e08b67e80af2fc4051f9636dc359111da0e4293355fedf6781e39c"
    assert qh == "f04af9f22418573cdd192db5aaf16d0a2e674a963fe04a8bdf663ee7e4010dbb"
    peak, qb, qh = out["sum"]
    assert int(peak) <= 100, out
    assert (qb, qh) == ("0x1.22945df6323eep+1", "0x1.5a57dc039eb64p+1")


def test_coefficient_table_errors():
    with pytest.raises(UnsupportedRingError):
        coefficient_table(QuadraticField(-3), 10)
    for L in (ExtensionDescriptor(QuadraticField(-3), Q_FIELD),
              ExtensionDescriptor(GAUSSIAN_FIELD, QuadraticField(-3))):
        with pytest.raises(UnsupportedRingError):
            coefficient_table(L, 10)
    for n_max in (1, 2):  # below the first prime power that needs a local factor
        with pytest.raises(UnsupportedRingError):
            coefficient_table(QuadraticField(-3), n_max)
    with pytest.raises(ValueError):
        coefficient_table(Q_FIELD, 0)


def test_dirichlet_convolve():
    ones = coefficient_table(Q_FIELD, 12)
    assert dirichlet_convolve(ones, ones).a(12) == 6
    table_i = coefficient_table(GAUSSIAN_FIELD, 200)
    assert dirichlet_convolve(table_i, table_i).values == coefficient_table(QB, 200).values
    rng = random.Random(81)
    for _ in range(20):
        f = CoefficientTable(tuple([1] + [rng.randrange(0, 9) for _ in range(15)]))
        g = CoefficientTable(tuple([1] + [rng.randrange(0, 9) for _ in range(15)]))
        assert dirichlet_convolve(f, g) == dirichlet_convolve(g, f)
    with pytest.raises(ValueError):
        dirichlet_convolve(ones, coefficient_table(Q_FIELD, 5))


def test_coefficient_table_validation():
    with pytest.raises(ValueError):
        CoefficientTable((2, 1))
    with pytest.raises(ValueError):
        CoefficientTable((1, -1))


def test_zeta_partial():
    value = zeta_partial(Q_FIELD, 2, 10 ** 4)
    assert abs(value - math.pi ** 2 / 6) < 1e-3
    hyp = zeta_partial(QH, 2, 10 ** 4)
    assert abs(hyp - (math.pi ** 2 / 6) ** 2) < 2e-3
    assert zeta_partial(Q_FIELD, Fraction(3, 2), 100) > 0
    with pytest.raises(ValueError):
        zeta_partial(Q_FIELD, 1, 100)


def test_zeta_partial_checks_s_before_rounding_it():
    # 1 + 10^-20 > 1, though it rounds to the float 1.0: the harmonic sum H_10.
    harmonic = 0.0
    for n in range(1, 11):
        harmonic += 1 / n
    assert zeta_partial(Q_FIELD, 1 + Fraction(1, 10 ** 20), 10) == harmonic
    for s in (1, Fraction(1), 1.0, 1 - Fraction(1, 10 ** 20), float("nan")):
        with pytest.raises(ValueError):
            zeta_partial(Q_FIELD, s, 10)


def test_brute_force_ideal_count():
    assert brute_force_ideal_count(GAUSSIAN_FIELD, 5) == 2
    assert brute_force_ideal_count(GAUSSIAN_FIELD, 3) == 0
    assert brute_force_ideal_count(GAUSSIAN_FIELD, 25) == 3  # (2+i)^2, (2-i)^2, (5)
    for n in (1, 2, 17, 100):
        assert brute_force_ideal_count(Q_FIELD, n) == 1
    with pytest.raises(UnsupportedRingError):
        brute_force_ideal_count(QuadraticField(2), 5)


def test_c2_ideals_agree_with_factor():
    rng = random.Random(83)
    checked = 0
    for _ in range(60):
        el = BicomplexElement(rng.randrange(-60, 61),
                              GaussianRational(rng.randrange(-40, 41), rng.randrange(-40, 41)))
        if el.in_null_cone or (abs(el.c1) == 1 and gaussian_norm(el.c2) == 1):
            continue
        ideal = principal_ideal(el, L_C2)
        assert ideal.a1 == ComponentIdeal.principal(abs(el.c1), Q_FIELD)
        if ideal.a2.kind == ComponentIdeal.PRINCIPAL_KIND:  # an associate of el.c2
            assert exact_gaussian_div(el.c2, ideal.a2.generator) is not None
            assert exact_gaussian_div(ideal.a2.generator, el.c2) is not None
        else:
            assert ideal.a2.kind == ComponentIdeal.FULL_KIND and gaussian_norm(el.c2) == 1
        decomposition = factor(el, L_C2)
        product = 1
        for prime, exponent in decomposition.factors:
            prime_ideal = principal_ideal(prime, L_C2)
            assert is_prime_ideal(prime_ideal)
            product *= ideal_norm(prime_ideal) ** exponent
        assert product == ideal_norm(ideal) == abs(el.c1) * gaussian_norm(el.c2)
        assert principal_ideal(decomposition.unit * el, L_C2) == ideal
        checked += 1
    assert checked > 40


def test_factorization_ideal_norm_product():
    rng = random.Random(82)
    for _ in range(40):
        el = BicomplexElement(GaussianRational(rng.randrange(-40, 41), rng.randrange(-40, 41)),
                              GaussianRational(rng.randrange(-40, 41), rng.randrange(-40, 41)))
        if el.in_null_cone or gaussian_norm(el.c1) == 1 or gaussian_norm(el.c2) == 1:
            continue
        decomposition = factor(el, QB)
        total = ideal_norm(principal_ideal(el, QB))
        product = 1
        for prime, exponent in decomposition.factors:
            product *= ideal_norm(principal_ideal(prime, QB)) ** exponent
        assert product == total


# -- brute-force quotient rings for the prime-ideal criterion -------------------

def _rational_residues(m):
    return [Fraction(k) for k in range(m)]


def _gaussian_residues(g):
    norm = gaussian_norm(g)
    reps = []
    for a in range(norm):
        for b in range(norm):
            z = gaussian_int(a, b)
            if any(exact_gaussian_div(z - r, g) is not None for r in reps):
                continue
            reps.append(z)
        if len(reps) == norm:
            break
    assert len(reps) == norm
    return reps


def _residues(component, field):
    if component.kind == ComponentIdeal.FULL_KIND:
        return [Fraction(0)] if isinstance(field, RationalField) else [gaussian_int(0)]
    if isinstance(field, RationalField):
        return _rational_residues(component.norm(field))
    return _gaussian_residues(component.generator)


def _is_zero_in(component, field, value):
    if component.kind == ComponentIdeal.FULL_KIND:
        return True
    if isinstance(field, RationalField):
        return value % component.generator == 0
    return exact_gaussian_div(value, component.generator) is not None


def test_prime_ideal_matches_quotient_domain_property():
    """O_L modulo the ideal is a product of component quotients; primality
    must agree with the product having no zero divisors."""
    candidates = []
    for m in (2, 3, 4, 5, 6):
        candidates.append(BicomplexIdeal(ComponentIdeal.full(),
                                         ComponentIdeal.principal(m, Q_FIELD), QH))
        candidates.append(BicomplexIdeal(ComponentIdeal.principal(m, Q_FIELD),
                                         ComponentIdeal.principal(2, Q_FIELD), QH))
    for gen in (gaussian_int(1, 1), gaussian_int(2, 1), gaussian_int(3), gaussian_int(2, 2),
                gaussian_int(5), gaussian_int(3, 1)):
        candidates.append(BicomplexIdeal(ComponentIdeal.full(),
                                         ComponentIdeal.principal(gen, GAUSSIAN_FIELD), QB))
    for ideal in candidates:
        if ideal_norm(ideal) > 30:
            continue
        fields = (ideal.L.K1, ideal.L.K2)
        reps = [(r1, r2)
                for r1 in _residues(ideal.a1, fields[0])
                for r2 in _residues(ideal.a2, fields[1])]
        assert len(reps) == ideal_norm(ideal)

        def is_zero(pair):
            return (_is_zero_in(ideal.a1, fields[0], pair[0])
                    and _is_zero_in(ideal.a2, fields[1], pair[1]))

        nonzero = [p for p in reps if not is_zero(p)]
        has_zero_divisor = any(is_zero((p[0] * q[0], p[1] * q[1]))
                               for p in nonzero for q in nonzero)
        is_domain = len(nonzero) > 0 and not has_zero_divisor
        assert is_prime_ideal(ideal) == is_domain
