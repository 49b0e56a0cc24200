import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from bicomplex import polys, scalars
from bicomplex.numtheory import WorkBudgetError, totient
from bicomplex.polys import (
    IntPoly,
    Poly,
    content_primitive,
    cyclotomic,
    format_poly,
    is_squarefree,
    poly_gcd,
    poly_product,
    sturm_real_root_count,
)
from bicomplex.scalars import GaussianRational, QuadRational


def test_poly_add_mul():
    assert Poly.of(1, 1) * Poly.of(-1, 1) == Poly.of(-1, 0, 1)
    assert Poly.of(1, 2) + Poly.of(1, -2) == Poly.of(2)
    assert Poly.of(1, 1) - Poly.of(1, 1) == Poly.zero()
    assert Poly.of(0, 1) ** 3 == Poly.of(0, 0, 0, 1)


# -- Fraction-tuple oracles: coefficients lowest degree first, no trailing zeros

def _trimmed(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _fraction_product(a, b) -> tuple:
    """Fraction-by-Fraction product of two coefficient tuples."""
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(out)


def _schoolbook(a, b) -> Poly:
    return Poly.of(*_fraction_product(a, b))


def _fraction_sum(a, b) -> tuple:
    return _trimmed(x + y for x, y in itertools.zip_longest(a, b, fillvalue=Fraction(0)))


def _fraction_divmod(a, b) -> tuple[tuple, tuple]:
    """Long division with a Fraction quotient at each step."""
    rem, d = list(a), len(b) - 1
    quot = [Fraction(0)] * max(len(a) - d, 1)
    for k in range(len(a) - 1 - d, -1, -1):
        quot[k] = c = rem[k + d] / b[-1]
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return _trimmed(quot), _trimmed(rem)


def _fraction_at(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _fraction_monic(a) -> tuple:
    return tuple([c / a[-1] for c in a])


def _fraction_gcd(a, b) -> tuple:
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    return _fraction_monic(a)


def _fraction_content(a) -> Fraction:
    """The scale s with a / s integral, primitive and of positive lead."""
    den = math.lcm(*[c.denominator for c in a])
    g = math.gcd(*[int(c * den) for c in a])
    return Fraction(g if a[-1] > 0 else -g, den)


def _checked(p: Poly) -> Poly:
    """A kernel result, which must pass the checked constructor unchanged."""
    again = Poly(p.num, p.den)
    assert again == p and hash(again) == hash(p)
    return p


def test_kernels_match_fraction_oracles():
    rng = random.Random(41)

    def random_coeffs():
        top = rng.choice((1, 6, 60, 2 ** 40))
        return [Fraction(rng.randrange(-top, top + 1), rng.choice((1, rng.randrange(1, top + 1))))
                for _ in range(rng.randrange(8))]

    points = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)) for _ in range(3)]
    points += [GaussianRational(Fraction(1, 3), Fraction(-2, 5)),
               QuadRational(5, Fraction(1, 2), 3)]
    for _ in range(400):
        a, b = _trimmed(random_coeffs()), _trimmed(random_coeffs())
        p, q = _checked(Poly.of(*a)), _checked(Poly.of(*b))
        assert (p.coeffs, q.coeffs) == (a, b)
        assert _checked(p + q).coeffs == _fraction_sum(a, b)
        assert _checked(p - q).coeffs == _fraction_sum(a, [-c for c in b])
        assert _checked(-p).coeffs == tuple([-c for c in a])
        assert _checked(p + -p) == _checked(p - p) == Poly.zero()
        assert _checked(p * q).coeffs == _fraction_product(a, b)
        assert (_checked(poly_product([p, q, p])).coeffs
                == _fraction_product(_fraction_product(a, b), a))
        k = rng.choice((0, rng.randrange(-9, 10),
                        Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))))
        assert _checked(p * k).coeffs == _trimmed(c * k for c in a)
        n, power = rng.randrange(5), (Fraction(1),)
        for _ in range(n):
            power = _fraction_product(power, a)
        assert _checked(p ** n).coeffs == power
        for x in points:
            assert p(x) == _fraction_at(a, x)
        assert type(p(points[0])) is Fraction
        if q.is_zero:
            continue
        quot, rem = divmod(p, q)
        assert (_checked(quot).coeffs, _checked(rem).coeffs) == _fraction_divmod(a, b)
        assert _checked(q.monic()).coeffs == _fraction_monic(b)
        assert _checked(poly_gcd(p, q)).coeffs == _fraction_gcd(a, b)
        scale, prim = content_primitive(q)
        assert scale == _fraction_content(b) and IntPoly(prim.coeffs) == prim
        assert prim.coeffs == tuple([int(c / scale) for c in b])
        ints = tuple(map(Fraction, prim.coeffs))
        assert _checked(prim.to_poly()).coeffs == ints
        assert _checked(prim.to_poly(k)).coeffs == _trimmed(c * k for c in ints)
        assert _checked(prim.monic()).coeffs == _fraction_monic(ints)
        assert prim(points[-1]) == _fraction_at(ints, points[-1])


def test_poly_checked_constructor():
    assert Poly((1, 2), 3).coeffs == (Fraction(1, 3), Fraction(2, 3))
    assert Poly((-1, 0, 1)) == Poly.of(-1, 0, 1) and Poly(()) == Poly.zero()
    for num, den in [((Fraction(1, 2), 1), 1), ((1, 2), Fraction(3)), ((1.0,), 1)]:
        with pytest.raises(TypeError):
            Poly(num, den)
    for num, den in [((1, 2), 0), ((1, 2), -3), ((1, 0), 1), ((0,), 1), ((2, 4), 2), ((), 2),
                     ((3, 6), 9)]:
        with pytest.raises(ValueError):
            Poly(num, den)


def test_products_match_fraction_schoolbook():
    rng = random.Random(29)

    def random_poly():
        return Poly.of(*(Fraction(rng.randrange(-60, 61), rng.randrange(1, 40))
                         for _ in range(rng.randrange(10))))

    for _ in range(300):
        p, q = random_poly(), random_poly()
        product = p * q
        assert product == _schoolbook(p.coeffs, q.coeffs)
        assert all(type(c) is Fraction for c in product.coeffs)
        assert p * Poly.zero() == Poly.zero() * p == Poly.zero()
        k = rng.choice([rng.randrange(-9, 10), Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))])
        assert p * k == k * p == _schoolbook(p.coeffs, (Fraction(k),))
        n, power = rng.randrange(4), Poly.one()
        for _ in range(n):
            power = _schoolbook(power.coeffs, p.coeffs)
        assert p ** n == power
    # content_primitive puts the sign in the scale: negative leads included
    edge = [Poly.zero(), Poly.one(), Poly.of(Fraction(-7, 3)), Poly.of(0, -1),
            Poly.of(Fraction(1, 2), 0, Fraction(-5, 6)), Poly.of(*range(8, 0, -1), -4)]
    for p in edge + [random_poly() for _ in range(30)]:
        power = Poly.one()
        for n in range(13):
            assert p ** n == power
            assert all(type(c) is Fraction for c in (p ** n).coeffs)
            power = _schoolbook(power.coeffs, p.coeffs)


def test_power_law():
    rng = random.Random(23)
    for _ in range(30):
        p = Poly.of(*(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                      for _ in range(rng.randrange(1, 4))))
        m, n = rng.randrange(5), rng.randrange(5)
        assert p ** m * p ** n == p ** (m + n)
        assert p ** m == math.prod([p] * m, start=Poly.one())
    with pytest.raises(ValueError):
        Poly.of(1, 1) ** -1


def test_divmod_perfect_square():
    q, r = divmod(Poly.of(1, -2, 1), Poly.of(-1, 1))
    assert q == Poly.of(-1, 1)
    assert r.is_zero


def test_divmod_cubic_example():
    q, r = divmod(Poly.of(-8, 4, -2, 1), Poly.of(-2, 1))
    assert q == Poly.of(4, 0, 1)
    assert r.is_zero


def test_divmod_with_remainder():
    n, d = Poly.of(1, 0, 0, 1), Poly.of(1, 1)
    q, r = divmod(n, d)
    assert q * d + r == n
    assert r.degree < d.degree


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.of(1), Poly.zero())


def test_content_primitive_examples():
    assert content_primitive(Poly.of(-2, 0, 2)) == (Fraction(2), IntPoly.of(-1, 0, 1))
    assert content_primitive(Poly.of(Fraction(1, 2), Fraction(1, 2))) == (Fraction(1, 2), IntPoly.of(1, 1))
    # negative leading coefficient: the sign moves into the scale
    scale, prim = content_primitive(Poly.of(0, -3))
    assert (scale, prim) == (Fraction(-3), IntPoly.of(0, 1))
    assert prim.lead > 0


def test_content_primitive_round_trip():
    rng = random.Random(2001)
    for _ in range(1000):
        deg = rng.randrange(0, 7)
        coeffs = [Fraction(rng.randrange(-40, 41), rng.randrange(1, 13)) for _ in range(deg)]
        coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randrange(1, 41), rng.randrange(1, 13)))
        p = Poly.of(*coeffs)
        scale, prim = content_primitive(p)
        assert prim.to_poly() * scale == p
        assert math.gcd(*prim.coeffs) == 1
        assert prim.lead > 0


def test_content_primitive_zero_rejected():
    with pytest.raises(ValueError):
        content_primitive(Poly.zero())


def test_poly_gcd_examples():
    assert poly_gcd(Poly.of(-1, 0, 1), Poly.of(-1, 1)) == Poly.of(-1, 1)
    assert poly_gcd(Poly.of(1, 0, 1), Poly.of(2, -2, 1)) == Poly.one()
    p = Poly.of(2, 4, 6)
    assert poly_gcd(p, p) == p.monic()
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(), Poly.zero())


def test_poly_gcd_divides_both():
    rng = random.Random(2002)
    for _ in range(50):
        common = Poly.of(rng.randrange(-5, 6), 1)
        a = common * Poly.of(*[rng.randrange(-5, 6) for _ in range(3)], 1)
        b = common * Poly.of(*[rng.randrange(-5, 6) for _ in range(2)], 1)
        g = poly_gcd(a, b)
        assert divmod(a, g)[1].is_zero
        assert divmod(b, g)[1].is_zero
        assert divmod(g, common.monic())[1].is_zero


def test_is_squarefree():
    assert is_squarefree(IntPoly.of(-1, 0, 1))
    assert not is_squarefree(IntPoly.of(1, -2, 1))
    assert is_squarefree(IntPoly.of(-8, 4, -2, 1))
    with pytest.raises(ValueError):
        is_squarefree(IntPoly.of(5))


def _spy_fallback(monkeypatch) -> list:
    calls, remainder_gcd = [], polys._remainder_gcd

    def spy(a, b):
        calls.append((a, b))
        return remainder_gcd(a, b)

    monkeypatch.setattr(polys, "_remainder_gcd", spy)
    return calls


def test_squarefree_mod_q_when_q_divides_a_coefficient_of_the_derivative(monkeypatch):
    q, calls = polys._MODULUS, _spy_fallback(monkeypatch)
    # p' = 3X^2 + q is 3X^2 mod q, and gcd(X^3 + 1, 3X^2) = 1 there.
    assert is_squarefree(IntPoly.of(1, q, 0, 1))
    assert calls == []  # proven by the modular gcd alone
    # (X + q)^2 (X - 1): the modular gcd is X^2 mod q, so the fallback decides.
    assert not is_squarefree(IntPoly.of(q, 1) * IntPoly.of(q, 1) * IntPoly.of(-1, 1))
    assert len(calls) == 1


def test_squarefree_falls_back_to_the_integer_gcd(monkeypatch):
    q, calls = polys._MODULUS, _spy_fallback(monkeypatch)
    # X(X - q) is squarefree, but X^2 mod q is not: q divides the discriminant.
    assert is_squarefree(IntPoly.of(0, -q, 1))
    # q X^2 - 1: q divides the leading coefficient, so the modular gcd is skipped.
    assert is_squarefree(IntPoly.of(-1, 0, q))
    assert not is_squarefree(IntPoly.of(1, 2 * q, q * q))  # (qX + 1)^2
    assert len(calls) == 3


def _long_division_mod_q(a, b, q):
    """The remainder of a by b mod q, one quotient digit at a time, and the
    number of nonzero digits."""
    rem, inverse, digits = list(a), pow(b[-1], -1, q), 0
    while len(rem) >= len(b):
        top = rem.pop() * inverse % q
        digits += top != 0
        for i, d in enumerate(b[:-1], len(rem) - len(b) + 1):
            rem[i] = (rem[i] - top * d) % q
    while rem and not rem[-1]:
        rem.pop()
    return tuple(rem), digits


def test_rem_mod_matches_long_division_mod_q():
    q, rng = polys._MODULUS, random.Random(3001)

    def residue():
        return rng.choice((0, 1, q - 1, rng.randrange(q)))

    for _ in range(3000):
        n = rng.randrange(8)  # divisor degree; 0 is a constant divisor
        b = tuple([residue() for _ in range(n)] + [rng.randrange(1, q)])
        a = [residue() for _ in range(n + rng.randrange(4) + 1)]  # quotient degree 0-3
        a[-1] = rng.choice((0, rng.randrange(1, q)))  # zero and nonzero tops
        expected, digits = _long_division_mod_q(a, b, q)
        if len(a) == n + 2 and n:  # a degree-one quotient: one pass over b's length
            charge = n + 1
        else:  # digit by digit: the n terms below each nonzero digit
            charge = n * digits
        assert polys._rem_mod(a, b, charge) == (expected, 0), (a, b)
        if charge:
            with pytest.raises(WorkBudgetError):
                polys._rem_mod(a, b, charge - 1)


def _distinct_factors(rng, degree):
    """Distinct primitive irreducible factors of total degree ``degree``:
    linear ones, and quadratics with no real root."""
    factors = set()
    while (left := degree - sum(len(f) - 1 for f in factors)) > 0:
        if left == 1 or rng.random() < 0.5:
            c0, c1 = rng.randint(-40, 40), rng.randint(1, 12)
            if math.gcd(c0, c1) == 1:
                factors.add((c0, c1))
        else:
            c0, c1, c2 = rng.randint(1, 30), rng.randint(-20, 20), rng.randint(1, 8)
            if c1 * c1 < 4 * c0 * c2 and math.gcd(c0, c1, c2) == 1:
                factors.add((c0, c1, c2))
    return [IntPoly.of(*f) for f in sorted(factors)]


def test_is_squarefree_on_products_known_by_construction():
    # distinct irreducible factors multiply to a squarefree polynomial; one
    # factor taken twice makes it not squarefree
    rng = random.Random(3002)
    for degree in [*range(1, 33), 40, 48, 64]:
        factors = _distinct_factors(rng, degree)
        p = math.prod(factors, start=IntPoly.of(1))
        assert is_squarefree(p)
        assert not is_squarefree(p * rng.choice(factors))


def test_squarefree_test_stops_at_its_work_limit(monkeypatch):
    rng = random.Random(3003)
    dense = IntPoly.of(*[rng.randint(-99, 99) for _ in range(200)], 1)
    assert is_squarefree(dense)  # its Euclid mod q charges about 200^2 / 2
    monkeypatch.setattr(polys, "SQUAREFREE_WORK_LIMIT", 10_000)
    with pytest.raises(WorkBudgetError, match="more than 10000 coefficient updates"):
        is_squarefree(dense)
    # a sparse input is charged about twice its degree: one pass over p', then
    # a digit of one term for each power of X in p' over a linear remainder
    monkeypatch.setattr(polys, "SQUAREFREE_WORK_LIMIT", 100_000)
    assert is_squarefree(IntPoly.of(1, -3, *[0] * 49_998, 1))


def test_sturm_examples():
    assert sturm_real_root_count(IntPoly.of(1, 0, 1)) == 0
    assert sturm_real_root_count(IntPoly.of(-2, 0, 1)) == 2
    assert sturm_real_root_count(IntPoly.of(-8, 4, -2, 1)) == 1
    with pytest.raises(ValueError):
        sturm_real_root_count(IntPoly.of(1, -2, 1))


def _random_known_root_poly(rng):
    """A squarefree polynomial with a known real-root count, built by
    multiplying distinct rational linear factors and negative-discriminant
    quadratics."""
    roots = rng.sample([Fraction(p, q) for p in range(-6, 7) for q in (1, 2, 3, 4)],
                       rng.randrange(0, 5))
    poly = Poly.one()
    for root in roots:
        poly = poly * Poly.of(-root, 1)
    for _ in range(rng.randrange(0, 3)):
        b = rng.randrange(-6, 7)
        c = rng.randrange(b * b // 4 + 1, b * b // 4 + 12)  # forces b^2 - 4c < 0
        poly = poly * Poly.of(c, b, 1)
    if poly.degree < 1:
        poly = poly * Poly.of(rng.randrange(1, 7), 0, 1)
        return poly, 0
    return poly, len(roots)


def _grid_sign_changes(prim: IntPoly) -> int:
    """Sign changes of the polynomial on a fine grid across the Cauchy root
    bound; valid as a root count because the constructed roots are simple
    and separated by more than the grid step."""
    cauchy = 1 + max(abs(Fraction(c, prim.lead)) for c in prim.coeffs)
    # the sampled roots lie in [-6, 6], so tightening the bracket to 7 keeps
    # it valid while bounding the walk
    bound = min(cauchy, Fraction(7))
    step = Fraction(1, 24)
    changes, prev = 0, 0
    x = -bound
    while x <= bound:
        value = prim(x)
        sign = (value > 0) - (value < 0)
        if sign and prev and sign != prev:
            changes += 1
        if sign:
            prev = sign
        x += step
    return changes


def test_sturm_against_constructed_roots_and_grid():
    rng = random.Random(2003)
    seen = 0
    while seen < 200:
        poly, real_count = _random_known_root_poly(rng)
        if poly.degree > 8:
            continue
        prim = content_primitive(poly)[1]
        if not is_squarefree(prim):
            continue  # sampled coincident factors
        seen += 1
        assert sturm_real_root_count(prim) == real_count
        assert _grid_sign_changes(prim) == real_count


def _known_real_roots_product(rng) -> tuple[IntPoly, set[Fraction]]:
    """A squarefree product and its distinct real roots, drawn from the cases
    root counting must get right: a root at 0, at +-1 (where each
    continued-fraction node splits), at +-2^k (the edge of a lower-bound
    step), at the dyadic midpoints +-1/2, +-1/4, +-3/4, roots beyond 2^40,
    close root pairs, and complex pairs close to the real axis."""
    dyadic = [Fraction(s * m, 4) for s in (1, -1) for m in (1, 2, 3, 4)]
    roots = set(rng.sample([Fraction(0), *dyadic], rng.randrange(0, 8)))
    roots.update(rng.sample([Fraction(s << k) for s in (1, -1) for k in range(41)], rng.randrange(0, 3)))
    for _ in range(rng.randrange(0, 3)):
        roots.add(Fraction(rng.choice((1, -1)) * rng.randrange(1 << 42, 1 << 48), rng.randrange(1, 4)))
    for _ in range(rng.randrange(0, 3)):
        r = Fraction(rng.randrange(-40, 41), rng.randrange(1, 8))
        roots |= {r, r + Fraction(rng.choice((1, -1)), rng.randrange(1 << 20, 1 << 40))}
    if not roots:
        roots.add(Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)))
    poly = Poly.one()
    for r in roots:
        poly = poly * Poly.of(-r, 1)
    quadratics = set()
    for _ in range(rng.randrange(0, 3)):
        t, eps = Fraction(rng.randrange(-8, 9), 4), Fraction(1, rng.randrange(2, 1 << 30))
        quadratics.add((t * t + eps * eps, -2 * t))  # roots t +- eps*i
    for c, b in quadratics:
        poly = poly * Poly.of(c, b, 1)
    return content_primitive(poly)[1], roots


def test_descartes_count_on_midpoint_large_and_close_roots():
    rng = random.Random(2026)
    for _ in range(150):
        p, roots = _known_real_roots_product(rng)
        assert is_squarefree(p)
        assert sturm_real_root_count(p) == len(roots)


def test_root_count_at_the_split_point():
    # A root at 1 is the constant term of both children of a node: count it once.
    for roots in ((1, Fraction(1, 2), 3), (-1, Fraction(-1, 2), -3), (0, 1, 2), (1, 2, 4, 8)):
        poly = Poly.one()
        for r in roots:
            poly = poly * Poly.of(-r, 1)
        assert sturm_real_root_count(content_primitive(poly)[1]) == len(roots)


def test_root_floor_log2_is_below_every_positive_root():
    # The bound is rounded so that 2^k stays strictly below the least positive
    # root, also when that root is a power of two; otherwise the shifted
    # polynomial a(2^k (x + 1)) could have a root at 0.
    rng = random.Random(2013)
    for _ in range(300):
        p, roots = _known_real_roots_product(rng)
        if positive := [r for r in roots if r > 0]:
            a = p.coeffs[1:] if 0 in roots else p.coeffs
            assert Fraction(2) ** polys._root_floor_log2(a) < min(positive)


@pytest.mark.parametrize("n, m", [(n, m) for n in (20, 40, 60) for m in (10, 20)])
def test_root_count_separates_mignottes_cluster(n, m):
    # x^n - 2(10^m x - 1)^2 has four real roots, two of them about
    # 10^(-m(n/2 + 1)) apart: one bisection level per bit would not reach them.
    a = 10 ** m
    assert sturm_real_root_count(IntPoly.of(-2, 4 * a, -2 * a * a, *[0] * (n - 3), 1)) == 4


def test_root_count_of_cyclotomic_polynomials():
    # The roots of Phi_n lie on the unit circle and crowd +-1; only 1 and -1 are real.
    assert [sturm_real_root_count(cyclotomic(n)) for n in range(1, 201)] == [1, 1] + [0] * 198


def test_descartes_count_of_a_degree_25_product_of_100_bit_factors():
    p, factors = _oracle_product(random.Random(25), 25, 100)
    assert p.degree == 25 and max(abs(c) for c in p.coeffs).bit_length() > 1000
    assert sturm_real_root_count(p) == sum(len(f) == 2 for f in factors)


def test_root_count_stops_at_the_work_limit(monkeypatch):
    monkeypatch.setattr(polys, "ISOLATION_WORK_LIMIT", 10000)
    p, _ = _oracle_product(random.Random(25), 25, 100)
    with pytest.raises(WorkBudgetError) as err:
        sturm_real_root_count(p)
    assert isinstance(err.value, ArithmeticError)
    assert "10000" in str(err.value) and "word additions" in str(err.value)


def test_cyclotomic_examples():
    assert cyclotomic(1) == IntPoly.of(-1, 1)
    assert cyclotomic(2) == IntPoly.of(1, 1)
    # divide X^4 - 1 by (X - 1)(X + 1) directly
    q, r = divmod(Poly.of(-1, 0, 0, 0, 1), Poly.of(-1, 1) * Poly.of(1, 1))
    assert r.is_zero
    assert cyclotomic(4).to_poly() == q
    assert cyclotomic(12) == IntPoly.of(1, 0, -1, 0, 1)
    with pytest.raises(ValueError):
        cyclotomic(0)


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_cyclotomic_refuses_a_degree_past_the_limit(monkeypatch):
    # checked on the totient before anything is allocated: Phi of the
    # Mersenne prime 2^61 - 1 would have 2^61 - 2 coefficients
    with pytest.raises(WorkBudgetError, match=str(polys.DEGREE_LIMIT)):
        cyclotomic((1 << 61) - 1)
    monkeypatch.setattr(polys, "DEGREE_LIMIT", 4)
    assert cyclotomic(5).degree == cyclotomic(12).degree == 4
    with pytest.raises(WorkBudgetError, match="degree 6, above the limit of 4"):
        cyclotomic(7)


def test_cyclotomic_degree_is_totient():
    for n in range(1, 101):
        assert cyclotomic(n).degree == totient(n) == _totient(n)


def _cyclotomic_by_divisors(n: int) -> tuple:
    """Phi_n as the power series of the product of (1 - X^d)^mu(n/d) over the
    divisors d of n, cut at degree phi(n): one pass per squarefree divisor."""
    if n == 1:
        return (-1, 1)
    top, primes = totient(n), [p for p in range(2, n + 1)
                               if n % p == 0 and all(p % q for q in range(2, math.isqrt(p) + 1))]
    c = [1] + [0] * top
    for size in range(len(primes) + 1):
        for subset in itertools.combinations(primes, size):
            d = n // math.prod(subset)
            if size % 2:  # divide by 1 - X^d
                for i in range(d, top + 1):
                    c[i] += c[i - d]
            else:  # multiply by 1 - X^d
                for i in range(top, d - 1, -1):
                    c[i] -= c[i - d]
    return tuple(c)


def test_cyclotomic_equals_the_divisor_product():
    # the radical, Phi_2m(X) = Phi_m(-X) and X -> X^(n/r) against every
    # divisor pass, up to the seven-prime case 2*3*5*7*11*19*23
    for n in [*range(1, 2001), 1009470]:
        assert cyclotomic(n).coeffs == _cyclotomic_by_divisors(n), n


def test_cyclotomic_product_recovers_x_n_minus_1():
    for n in (6, 10, 12, 30):
        product = Poly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d).to_poly()
        assert product == Poly.of(*([-1] + [0] * (n - 1) + [1]))


def test_format_poly():
    assert format_poly(Poly.of(-8, 4, -2, 1)) == "X^3 - 2*X^2 + 4*X - 8"
    assert format_poly(Poly.zero()) == "0"
    assert format_poly(Poly.of(Fraction(1, 2), 1)) == "X + 1/2"
    assert format_poly(Poly.of(0, -1)) == "-X"


def test_int_poly_invariants():
    with pytest.raises(ValueError):
        IntPoly.of(2, 4)  # not primitive
    with pytest.raises(ValueError):
        IntPoly.of(1, -1)  # negative lead
    with pytest.raises(ValueError):
        IntPoly.of()  # zero polynomial


def _random_primitive(rng) -> IntPoly:
    """A primitive integer polynomial of degree 0..8 with coefficients of up
    to 40 bits, through the checked constructor."""
    coeffs = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(rng.randrange(9))]
    coeffs.append(rng.randrange(1, 1 << 40))
    g = math.gcd(*coeffs)
    return IntPoly(tuple([c // g for c in coeffs]))


def test_trusted_kernel_results_pass_the_checked_constructor():
    # products, powers, primitive parts and cyclotomics are built by
    # _Record._make, without IntPoly's checks: each must still pass them
    rng = random.Random(37)
    for _ in range(200):
        p, q = _random_primitive(rng), _random_primitive(rng)
        for result in [p * q] + [p ** n for n in range(7)]:
            assert IntPoly(result.coeffs) == result
        rational = Poly.of(*(Fraction(rng.randrange(-99, 100), rng.randrange(1, 50))
                             for _ in range(rng.randrange(8))), rng.choice((-1, 1)))
        prim = content_primitive(rational)[1]
        assert IntPoly(prim.coeffs) == prim
    for phi in map(cyclotomic, range(1, 201)):
        assert IntPoly(phi.coeffs) == phi


def test_int_poly_power_matches_square_and_multiply():
    # IntPoly.__pow__ runs Miller's recurrence on p = X^e * g, g(0) != 0;
    # scalars.power, the square-and-multiply loop, is the oracle
    rng = random.Random(41)
    one = IntPoly.of(1)
    shifted = 0
    for _ in range(150):
        p = _random_primitive(rng)
        if rng.random() < 0.3:
            p = IntPoly.of(*[0] * rng.randrange(1, 4), *p.coeffs)
        shifted += p.coeffs[0] == 0
        for k in range(13):
            assert p ** k == scalars.power(p, k, one)
    assert shifted > 30
    assert IntPoly.of(0, 1) ** 5 == IntPoly.of(0, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        IntPoly.of(1, 1) ** -1


def test_make_takes_no_more_memory_than_init():
    # setting the fields one by one keeps CPython's compact instance dict;
    # record.__dict__.update would build a full dict (about 150 B more each)
    coeffs = [(i, 1) for i in range(2000)]

    def traced(build):
        tracemalloc.start()
        try:
            records = [build(c) for c in coeffs]
            return tracemalloc.get_traced_memory()[0] // len(records)
        finally:
            tracemalloc.stop()

    made, checked = (min(traced(build) for _ in range(2)) for build in (IntPoly._make, IntPoly))
    assert made <= checked


# -- sympy as an independent oracle ---------------------------------------------

def _sympy_poly(coeffs):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("X"))


def _oracle_product(rng, degree, bits):
    """A squarefree primitive product of distinct linear factors and
    irreducible quadratics whose factor coefficients have about ``bits``
    bits, so that the product's coefficients have 100 bits or more."""
    def size():
        return rng.randint(1 << (bits - 1), 1 << bits)

    factors = set()
    while (left := degree - sum(len(f) - 1 for f in factors)) > 0:
        if left == 1 or rng.random() < 0.5:
            num, den = rng.choice((1, -1)) * size(), size()
            g = math.gcd(num, den)
            factors.add((-num // g, den // g))
        else:
            c, b, a = size(), rng.randint(-(1 << bits), 1 << bits), size()
            if b * b < 4 * a * c and math.gcd(a, b, c) == 1:
                factors.add((c, b, a))
    product = IntPoly.of(1)
    for f in sorted(factors):
        product = product * IntPoly.of(*f)
    return product, sorted(factors)


def test_descartes_count_matches_sympy_on_large_products():
    rng = random.Random(2004)
    for degree, bits in ((8, 24), (12, 16), (16, 12), (24, 8), (32, 6), (48, 4), (64, 3)):
        p, factors = _oracle_product(rng, degree, bits)
        assert p.degree == degree
        assert max(abs(c) for c in p.coeffs).bit_length() >= 100
        sp = _sympy_poly(p.coeffs)
        # sympy's Sturm-based count_roots takes seconds from degree 32 on, so
        # the larger cases use its continued-fraction root isolation instead.
        expected = sp.count_roots() if degree <= 16 else len(sp.intervals())
        assert is_squarefree(p)
        assert sturm_real_root_count(p) == expected
        repeated = p * IntPoly.of(*factors[rng.randrange(len(factors))])
        assert not is_squarefree(repeated)
        with pytest.raises(ValueError):
            sturm_real_root_count(repeated)


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in [*range(1, 601), 1155, 2310]:
        expected = sympy.cyclotomic_poly(n, sympy.Symbol("X"), polys=True).all_coeffs()
        assert cyclotomic(n).coeffs == tuple(int(c) for c in reversed(expected))


def test_poly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2005)
    for _ in range(40):
        common = Poly.of(*[rng.randrange(-2**40, 2**40) for _ in range(rng.randrange(1, 4))],
                         rng.randrange(1, 2**40))
        a = common * Poly.of(*[Fraction(rng.randrange(-99, 100), rng.randrange(1, 9))
                               for _ in range(rng.randrange(1, 7))], 1)
        b = common * Poly.of(*[rng.randrange(-2**30, 2**30) for _ in range(rng.randrange(1, 7))], 3)
        g = sympy.gcd(_sympy_poly(a.coeffs), _sympy_poly(b.coeffs)).monic()
        assert poly_gcd(a, b) == Poly.of(*reversed(g.all_coeffs()))
