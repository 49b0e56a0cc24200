import random
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from bicomplex.gaussian import (
    _canonical,
    _exact_div,
    _gcd,
    _pair,
    canonical_gaussian_associate,
    factor_gaussian,
    is_gaussian_prime,
)
from bicomplex import numtheory
from bicomplex.numtheory import factorint, is_prime, sqrt_minus_one_mod
from bicomplex.scalars import GaussianRational


# Oracles on the module's integer kernels, which factor_gaussian runs.
gaussian_int = GaussianRational


def gaussian_norm(g):
    a, b = _pair(g)
    return a * a + b * b


def exact_gaussian_div(g, h):
    """g / h when the nonzero h exactly divides g in Z[i], otherwise None."""
    q = _exact_div(_pair(g), _pair(h))
    return None if q is None else GaussianRational(*q)


def gaussian_gcd(g, h):
    """A greatest common divisor of g and h, not both zero, as its canonical associate."""
    return GaussianRational(*_canonical(_gcd(_pair(g), _pair(h)))[1])


def recompose(unit, factors):
    result = unit
    for prime, exponent in factors:
        result = result * prime ** exponent
    return result


def test_factor_five_splits():
    unit, factors = factor_gaussian(gaussian_int(5))
    assert recompose(unit, factors) == gaussian_int(5)
    assert [(p, e) for p, e in factors] == [(gaussian_int(1, 2), 1), (gaussian_int(2, 1), 1)]
    # norm enumeration oracle: both primes have norm 5, the full solution set
    # of a^2 + b^2 = 5 up to associates
    assert all(gaussian_norm(p) == 5 for p, _ in factors)


def test_factor_two_ramifies():
    unit, factors = factor_gaussian(gaussian_int(2))
    assert factors == ((gaussian_int(1, 1), 2),)
    assert unit == gaussian_int(0, -1)
    assert gaussian_int(1, 1) ** 2 == gaussian_int(0, 2)  # (1+i)^2 = 2i
    assert recompose(unit, factors) == gaussian_int(2)


def test_factor_inert_prime():
    unit, factors = factor_gaussian(gaussian_int(7))
    assert unit == gaussian_int(1)
    assert factors == ((gaussian_int(7), 1),)


def test_factor_units_and_zero():
    unit, factors = factor_gaussian(gaussian_int(0, -1))
    assert factors == ()
    assert unit == gaussian_int(0, -1)
    with pytest.raises(ValueError):
        factor_gaussian(gaussian_int(0))
    with pytest.raises(ValueError):
        factor_gaussian(GaussianRational(1, 2) / GaussianRational(2, 0))


def test_factor_large_rational_primes_by_content():
    """The content p is factored, not the norm p^2, which rho would split
    in about sqrt(p) steps."""
    inert, split = 10000000000000000051, 10000000000000000097  # 3 and 1 mod 4
    assert factor_gaussian(gaussian_int(inert)) == (gaussian_int(1), ((gaussian_int(inert), 1),))
    unit, factors = factor_gaussian(gaussian_int(0, -2 * split))
    assert recompose(unit, factors) == gaussian_int(0, -2 * split)
    assert [gaussian_norm(p) for p, _ in factors] == [2, split, split]
    assert [e for _, e in factors] == [2, 1, 1]


def test_factor_random_recomposition():
    rng = random.Random(61)
    for _ in range(300):
        g = gaussian_int(rng.randrange(-1000, 1001), rng.randrange(-1000, 1001))
        if g.is_zero:
            continue
        unit, factors = factor_gaussian(g)
        assert gaussian_norm(unit) == 1
        assert recompose(unit, factors) == g
        for prime, exponent in factors:
            assert exponent >= 1
            assert is_gaussian_prime(prime)
            assert canonical_gaussian_associate(prime)[1] == prime


def test_is_gaussian_prime():
    assert is_gaussian_prime(gaussian_int(1, 1))
    assert is_gaussian_prime(gaussian_int(7))
    assert is_gaussian_prime(gaussian_int(-7))  # associate of an inert prime
    assert is_gaussian_prime(gaussian_int(2, 1))
    assert not is_gaussian_prime(gaussian_int(5))
    assert not is_gaussian_prime(gaussian_int(1))
    assert not is_gaussian_prime(gaussian_int(0))
    assert not is_gaussian_prime(gaussian_int(9))
    assert not is_gaussian_prime(gaussian_int(2, 2))


def test_canonical_associate():
    unit, normalized = canonical_gaussian_associate(gaussian_int(-1, -1))
    assert (unit, normalized) == (gaussian_int(-1), gaussian_int(1, 1))
    assert unit * normalized == gaussian_int(-1, -1)
    rng = random.Random(62)
    for _ in range(200):
        g = gaussian_int(rng.randrange(-50, 51), rng.randrange(-50, 51))
        if g.is_zero:
            continue
        unit, normalized = canonical_gaussian_associate(g)
        assert unit * normalized == g
        assert gaussian_norm(unit) == 1
        assert normalized.re > 0 and normalized.im >= 0
        assert canonical_gaussian_associate(normalized) == (gaussian_int(1), normalized)


def test_gaussian_gcd():
    g = gaussian_int(2, 1)
    assert gaussian_gcd(g * gaussian_int(3, 7), g * gaussian_int(-2, 9)) in (
        g, canonical_gaussian_associate(g)[1])
    assert gaussian_gcd(gaussian_int(5), gaussian_int(0)) == gaussian_int(5)
    a, b = gaussian_int(12, 34), gaussian_int(56, -78)
    d = gaussian_gcd(a, b)
    assert exact_gaussian_div(a, d) is not None
    assert exact_gaussian_div(b, d) is not None


def test_exact_division():
    assert exact_gaussian_div(gaussian_int(5), gaussian_int(2, 1)) == gaussian_int(2, -1)
    assert exact_gaussian_div(gaussian_int(3), gaussian_int(2, 1)) is None


def test_integer_primality_helpers():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(10 ** 9 + 7)
    assert not is_prime(561)  # Carmichael
    assert factorint(2 ** 6 * 3 ** 4 * 1009) == {2: 6, 3: 4, 1009: 1}
    assert factorint(1) == {}
    big = 1000003 * 1000033  # both factors above trial division's 1000, so rho splits it
    assert factorint(big) == {1000003: 1, 1000033: 1}
    for p in (5, 13, 10 ** 6 + 33):
        t = sqrt_minus_one_mod(p)
        assert (t * t + 1) % p == 0
    with pytest.raises(ValueError):
        sqrt_minus_one_mod(7)



def _trial_division(n):
    """Plain trial division by every d from 2 up: the primes in ascending order."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_trial_primes_are_the_primes_from_7_to_997():
    """The literal table against a sieve of Eratosthenes."""
    sieve = bytearray([1]) * 1000
    sieve[:2] = b"\0\0"
    for p in range(2, 32):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, 1000, p)))
    assert numtheory._TRIAL_PRIMES == tuple(p for p in range(7, 1000) if sieve[p])
    assert numtheory._TRIAL_PRODUCT == prod(numtheory._TRIAL_PRIMES)


def test_factorint_matches_trial_division_and_its_key_order():
    """The primes below 1000 come first, ascending, so with at most one prime
    above 1000 the dict lists its keys as trial division does."""
    rng = random.Random(26)
    small = [p for p in range(2, 1000) if is_prime(p)]
    cofactors = [1, 1009, 999983, 1009 * 1013, 1013 ** 2, 1009 ** 3, 2999 * 99991]
    inputs = list(range(2, 20000)) + [10 ** 6, 1002001, 1018081, 997 ** 2 * 1009]
    for _ in range(3000):
        n = prod(rng.choice(small) ** rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
        inputs.append(n * rng.choice(cofactors + [rng.randint(1001, 10 ** 7)]))
    for n in inputs:
        got, want = factorint(n), _trial_division(n)
        assert got == want, n
        below = [p for p in want if p < 1000]
        assert list(got)[:len(below)] == below, n
        if len(want) - len(below) <= 1:
            assert list(got.items()) == list(want.items()), n

PSI_12 = 318665857834031151167461  # least strong pseudoprime to the bases 2..37
PSI_13 = 3317044064679887385961981  # least strong pseudoprime to the bases 2..41


def test_is_prime_matches_sympy_on_40_to_90_bit_odd_numbers():
    isprime = pytest.importorskip("sympy").isprime
    rng = random.Random(71)
    for bits in range(40, 91):
        for _ in range(40):
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            assert is_prime(n) == isprime(n), n


def test_pseudoprimes_are_composite():
    carmichael = (561, 41041, 825265, 321197185)
    # least strong pseudoprimes to the first k prime bases, for k = 1..11
    strong = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051)
    for n in carmichael + strong + (PSI_12, PSI_13):
        assert not is_prime(n), n


def test_factorint_splits_psi_12_and_psi_13():
    assert factorint(PSI_12) == {399165290221: 1, 798330580441: 1}
    assert factorint(PSI_13) == {1287836182261: 1, 2575672364521: 1}
    assert all(is_prime(p) for p in (399165290221, 798330580441, 1287836182261, 2575672364521))


def test_factorint_prime_powers_go_through_rho(monkeypatch):
    calls, brent_rho = [], numtheory._brent_rho

    def spy(n):
        calls.append(n)
        return brent_rho(n)

    monkeypatch.setattr(numtheory, "_brent_rho", spy)
    p = 1000003
    assert factorint(p ** 2) == {p: 2}
    assert factorint(p ** 3) == {p: 3}
    assert factorint(7 * p ** 3) == {7: 1, p: 3}
    assert calls[0] == p ** 2 and p ** 3 in calls


def test_factorint_stops_at_the_rho_step_limit(monkeypatch):
    monkeypatch.setattr(numtheory, "RHO_STEP_LIMIT", 10000)  # psi_12 needs about 450000
    with pytest.raises(numtheory.WorkBudgetError) as err:
        factorint(PSI_12)
    assert isinstance(err.value, ArithmeticError)
    assert "10000" in str(err.value) and str(PSI_12) in str(err.value)


# -- the integer kernels on drawn Gaussian integers -----------------------------

kernels = settings(derandomize=True, max_examples=60, deadline=None)


def gaussians(bits):
    """Gaussian integers whose parts have at most ``bits`` bits."""
    part = st.integers(min_value=-(1 << bits), max_value=1 << bits)
    return st.builds(gaussian_int, part, part)


# Inputs to factor: a product of small factors (repeated primes, exponents
# above 1) or one element with parts up to 20 bits, whose norm has at most 41
# bits.
factorable = st.one_of(
    st.lists(gaussians(6).filter(bool), min_size=1, max_size=5).map(prod),
    gaussians(20).filter(bool))


@pytest.fixture(scope="module")
def zz_i():
    return pytest.importorskip("sympy.polys.domains").ZZ_I


@kernels
@given(gaussians(40), gaussians(40))
def test_gcd_is_a_canonical_common_divisor(zz_i, g, h):
    assume(g or h)
    d = gaussian_gcd(g, h)
    assert canonical_gaussian_associate(d) == (gaussian_int(1), d)
    assert exact_gaussian_div(g, d) is not None
    assert exact_gaussian_div(h, d) is not None
    expected = zz_i.gcd(zz_i(int(g.re), int(g.im)), zz_i(int(h.re), int(h.im)))
    assert canonical_gaussian_associate(gaussian_int(expected.x, expected.y))[1] == d


@kernels
@given(gaussians(40), gaussians(40).filter(bool), gaussians(40).filter(bool))
def test_exact_division_of_drawn_products(g, h, s):
    assert exact_gaussian_div(g * h, h) == g
    # h cannot divide a nonzero s of smaller norm, so not g*h + s either
    assume(gaussian_norm(s) < gaussian_norm(h))
    assert exact_gaussian_div(g * h + s, h) is None


@kernels
@given(factorable)
def test_factor_recomposes_into_canonical_primes(g):
    unit, factors = factor_gaussian(g)
    assert gaussian_norm(unit) == 1
    assert recompose(unit, factors) == g
    for prime, exponent in factors:
        assert exponent >= 1
        assert is_gaussian_prime(prime)
        assert canonical_gaussian_associate(prime) == (gaussian_int(1), prime)
    assert len({p for p, _ in factors}) == len(factors)
