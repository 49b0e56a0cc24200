import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bicomplex.element import BicomplexElement, J_UNIT, NullConeError, ONE
from bicomplex.minpoly import conjugate_pair_poly, minpoly_component
from bicomplex.numtheory import WorkBudgetError
from bicomplex.rings import (
    PELL_BIT_LIMIT,
    ExtensionDescriptor,
    GAUSSIAN_FIELD,
    QB,
    QH,
    Q_FIELD,
    QuadraticField,
    RationalField,
    UnitInputError,
    UnsupportedRingError,
    canonical_associate,
    component_class,
    discriminant,
    discriminant_by_trace_matrix,
    factor,
    integral_basis,
    is_integral,
    is_prime_element,
    is_unit,
    pell_fundamental_unit,
    rational_prime_profile,
    unit_group,
)
from bicomplex.scalars import GaussianRational, QuadRational, as_gaussian, is_squarefree_int


def G(re, im=0):
    return GaussianRational(re, im)


def gaussian_element(c1, c2):
    return BicomplexElement(G(*c1) if isinstance(c1, tuple) else G(c1),
                            G(*c2) if isinstance(c2, tuple) else G(c2))


L_EISENSTEIN = ExtensionDescriptor(QuadraticField(-3), RationalField())


def test_is_integral():
    assert is_integral(BicomplexElement(Fraction(3), Fraction(5)), QH)
    assert not is_integral(BicomplexElement(Fraction(1, 2), Fraction(1)), QH)
    omega = BicomplexElement(QuadRational(-3, Fraction(1, 2), Fraction(1, 2)),
                             QuadRational(-3, 1, 0))
    assert is_integral(omega, L_EISENSTEIN)  # trace 1 and norm 1 are integers
    half = BicomplexElement(QuadRational(-3, Fraction(1, 2), 0), QuadRational(-3, 1, 0))
    assert not is_integral(half, L_EISENSTEIN)
    with pytest.raises(ValueError):
        is_integral(BicomplexElement(QuadRational(5, 0, 1), QuadRational(5, 1, 0)), QH)
    # a component outside its field is an error even when the other one
    # already decides that the element is not integral
    with pytest.raises(ValueError):
        is_integral(BicomplexElement(Fraction(1, 2), QuadRational(5, 0, 1)), QH)


SQUAREFREE_FIELDS = [QuadraticField(d) for d in range(-50, 51)
                     if d not in (0, 1) and is_squarefree_int(d)]


def test_field_methods_against_minimal_polynomials():
    """Trace, norm and integrality of seeded a + b*sqrt(D) (and of rationals
    in Q) agree with the coefficients of the characteristic polynomial from
    :mod:`bicomplex.minpoly`: X^2 - trace*X + norm, or X - x over Q."""
    rng = random.Random(14)

    def small():
        return Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 2, 3)))

    seen = set()
    for K in [Q_FIELD] + SQUAREFREE_FIELDS:
        for _ in range(24):
            a = small()
            if K == Q_FIELD:
                x = a
                c0, c1 = minpoly_component(x).coeffs
                trace = norm = Fraction(-c0, c1)
            else:
                b = small() or Fraction(1, 2)
                x = QuadRational(K.D, a, b)
                norm, minus_trace, _ = conjugate_pair_poly(x).coeffs
                trace = -minus_trace
            assert (K.trace(x), K.norm(x)) == (trace, norm), (K, x)
            integral = minpoly_component(x).lead == 1
            assert K.is_integral(x) == integral, (K, x)
            seen.add((K.degree, integral))
    assert seen == {(1, True), (1, False), (2, True), (2, False)}


def test_component_rings_only_for_q_and_gaussian_fields():
    for K in (QuadraticField(2), QuadraticField(-3), QuadraticField(-5)):
        x = QuadRational(K.D, 2, 1)
        for method in (K.associate, K.is_prime, K.factor):
            with pytest.raises(UnsupportedRingError):
                method(x)
        # refused before the zero check
        with pytest.raises(UnsupportedRingError):
            component_class(0, K)
    assert Q_FIELD.associate(Fraction(-6)) == (-1, 6)
    assert Q_FIELD.factor(Fraction(-12)) == (-1, [(2, 2), (3, 1)])
    assert GAUSSIAN_FIELD.associate(G(0, -2)) == (G(0, -1), G(2))
    assert [component_class(x, GAUSSIAN_FIELD) for x in (0, G(0, 1), G(1, 1), G(3), G(5))] == [
        "zero", "unit", "prime", "prime", "other"]


def test_integral_basis():
    assert integral_basis(QH) == [BicomplexElement(Fraction(1), Fraction(0)),
                                  BicomplexElement(Fraction(0), Fraction(1))]
    assert integral_basis(QB) == [gaussian_element(1, 0), gaussian_element((0, 1), 0),
                                  gaussian_element(0, 1), gaussian_element(0, (0, 1))]
    basis = integral_basis(L_EISENSTEIN)
    assert len(basis) == 3
    assert basis[1].c1 == QuadRational(-3, Fraction(1, 2), Fraction(1, 2))
    assert all(is_integral(b, L_EISENSTEIN) for b in basis)


def test_discriminant_named_extensions():
    assert discriminant(QH) == 1 == discriminant_by_trace_matrix(QH)
    assert discriminant(QB) == 16 == discriminant_by_trace_matrix(QB)
    assert discriminant(L_EISENSTEIN) == -3 == discriminant_by_trace_matrix(L_EISENSTEIN)


def test_discriminant_trace_matrix_sweep():
    """The discriminant of K1*e1 + K2*e2 is the product of the component
    discriminants (D, or 4D unless D = 1 mod 4, for Q(sqrt(D)); 1 for Q): the
    trace-matrix determinant over the integral basis equals this closed form."""
    squarefree = [d for d in range(-50, 51)
                  if d not in (0, 1) and is_squarefree_int(d)]
    squarefree += [-1000003, -999997, -999994, 999995, 1000001, 1000002]
    for d in squarefree:
        assert is_squarefree_int(d)
        K = QuadraticField(d)
        for k, L in ((1, ExtensionDescriptor(K, Q_FIELD)), (1, ExtensionDescriptor(Q_FIELD, K)),
                     (2, ExtensionDescriptor(K, K))):
            closed_form = (d if d % 4 == 1 else 4 * d) ** k
            assert discriminant(L) == closed_form == discriminant_by_trace_matrix(L)


def test_unit_group_finite_classes():
    info = unit_group(QH)
    assert (info.finite, info.order, info.unit_class) == (True, 4, "C1")
    assert info.structure == "Z/2 x Z/2"
    info = unit_group(QB)
    assert (info.finite, info.order, info.unit_class) == (True, 16, "C3")
    assert info.structure == "Z/4 x Z/4"
    info = unit_group(ExtensionDescriptor(QuadraticField(-5), Q_FIELD))
    assert (info.finite, info.order, info.unit_class) == (True, 4, "C2")
    info = unit_group(ExtensionDescriptor(QuadraticField(-3), QuadraticField(-3)))
    assert (info.finite, info.order, info.unit_class) == (True, 36, "C3")


def test_unit_group_infinite_with_witness():
    info = unit_group(ExtensionDescriptor(QuadraticField(2), Q_FIELD))
    assert not info.finite and info.unit_class == "infinite"
    w = info.infinite_witness
    assert w is not None and is_unit(w, ExtensionDescriptor(QuadraticField(2), Q_FIELD))
    assert w.c1 == QuadRational(2, 1, 1)
    # powers stay units and never repeat: infinite order
    powers = {w, w * w, w * w * w}
    assert len(powers) == 3
    assert all(is_unit(p, ExtensionDescriptor(QuadraticField(2), Q_FIELD)) for p in powers)


def test_exhaustive_unit_search_hyperbolic():
    found = {(m, n) for m in range(-10, 11) for n in range(-10, 11)
             if is_unit(BicomplexElement(Fraction(m), Fraction(n)), QH)}
    assert found == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    elements = {BicomplexElement(Fraction(m), Fraction(n)) for m, n in found}
    assert elements == {ONE, -ONE, J_UNIT, -J_UNIT}


def test_exhaustive_unit_search_gaussian_components():
    component_units = [G(a, b) for a in range(-3, 4) for b in range(-3, 4)
                       if a * a + b * b == 1]
    count = 0
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    el = gaussian_element((a, b), (c, d))
                    if a * a + b * b <= 10 and c * c + d * d <= 10 and is_unit(el, QB):
                        count += 1
    assert count == 16 == len(component_units) ** 2


def test_is_unit_examples():
    assert is_unit(J_UNIT, QH)
    assert is_unit(gaussian_element((0, 1), -1), QB)
    assert not is_unit(BicomplexElement(Fraction(2), Fraction(1)), QH)


def _quadratic_integers_with_norm_up_to(D, bound):
    """All integral a + b*sqrt(D) with |a^2 - D*b^2| <= bound (half-integer
    coordinates included when D = 1 mod 4)."""
    step = Fraction(1, 2) if D % 4 == 1 else Fraction(1)
    limit = 64
    out = []
    k = -limit
    while k <= limit:
        m = -limit
        while m <= limit:
            a, b = k * step, m * step
            value = QuadRational(D, a, b)
            norm = a * a - D * b * b
            if abs(norm) <= bound and (2 * a).denominator == 1 and norm.denominator == 1:
                if (a.denominator == 1) == (b.denominator == 1):
                    out.append(value)
            m += 1
        k += 1
    return out


def test_unit_group_order_matches_exhaustive_component_search():
    """Finite classes: the search up to component norm 10^3 finds exactly
    the advertised number of units.  Infinite classes: it finds a unit of
    norm +-1 beyond +-1, which has infinite order."""
    expected = {-1: 4, -2: 2, -3: 6, -5: 2, -7: 2, -11: 2}
    for D, order in expected.items():
        units = [u for u in _quadratic_integers_with_norm_up_to(D, 1000)
                 if abs(u.field_norm()) == 1]
        assert len(units) == order, D
        L = ExtensionDescriptor(QuadraticField(D), QuadraticField(D))
        assert unit_group(L).order == order * order
    for D in (2, 3, 5):
        units = [u for u in _quadratic_integers_with_norm_up_to(D, 1000)
                 if abs(u.field_norm()) == 1 and u.b != 0]
        assert units, D
        witness = units[0]
        powers = {witness, witness * witness, witness * witness * witness}
        assert len(powers) == 3
        assert all(abs(p.field_norm()) == 1 for p in powers)


def test_canonical_associate_hyperbolic():
    unit, normalized = canonical_associate(BicomplexElement(Fraction(-3), Fraction(5)), QH)
    assert unit == BicomplexElement(Fraction(-1), Fraction(1))
    assert normalized == BicomplexElement(Fraction(3), Fraction(5))
    assert unit * normalized == BicomplexElement(Fraction(-3), Fraction(5))
    # canonical elements are fixed points
    assert canonical_associate(normalized, QH)[1] == normalized


def test_canonical_associate_gaussian():
    el = gaussian_element((-1, -1), (0, 3))
    unit, normalized = canonical_associate(el, QB)
    assert unit * normalized == el
    assert normalized == gaussian_element((1, 1), 3)
    with pytest.raises(NullConeError):
        canonical_associate(gaussian_element(0, 1), QB)


def test_is_prime_element():
    check = is_prime_element(BicomplexElement(Fraction(2), Fraction(1)), QH)
    assert (check.is_prime, check.form, check.irreducible) == (True, "prime_e1", True)
    check = is_prime_element(BicomplexElement(Fraction(1), Fraction(0)), QH)
    assert (check.is_prime, check.form, check.irreducible) == (True, "e1", False)
    check = is_prime_element(gaussian_element((1, 1), 1), QB)
    assert (check.is_prime, check.form) == (True, "prime_e1")
    check = is_prime_element(gaussian_element(1, (2, -1)), QB)
    assert (check.is_prime, check.form) == (True, "prime_e2")
    for bad in (BicomplexElement(Fraction(2), Fraction(3)),
                BicomplexElement(Fraction(4), Fraction(1)),
                BicomplexElement(Fraction(1), Fraction(1)),
                BicomplexElement(Fraction(0), Fraction(5))):
        assert not is_prime_element(bad, QH).is_prime


def test_factor_hyperbolic_example():
    f = factor(BicomplexElement(Fraction(6), Fraction(35)), QH)
    assert f.unit == ONE
    assert [(p.c1, p.c2, e) for p, e in f.factors] == [
        (2, 1, 1), (3, 1, 1), (1, 5, 1), (1, 7, 1)]
    assert f.recompose() == BicomplexElement(Fraction(6), Fraction(35))


def test_factor_five_in_gaussian_extension():
    five = gaussian_element(5, 5)
    f = factor(five, QB)
    assert f.recompose() == five
    assert len(f.factors) == 4
    forms = [is_prime_element(p, QB).form for p, _ in f.factors]
    assert forms == ["prime_e1", "prime_e1", "prime_e2", "prime_e2"]
    assert {p.c1 for p, _ in f.factors[:2]} == {G(2, 1), G(1, 2)}


def test_factor_three_is_semiprime_in_gaussian_extension():
    f = factor(gaussian_element(3, 3), QB)
    assert [(p.c1, p.c2, e) for p, e in f.factors] == [(G(3), G(1), 1), (G(1), G(3), 1)]


def test_factor_errors():
    with pytest.raises(NullConeError):
        factor(BicomplexElement(Fraction(0), Fraction(5)), QH)
    with pytest.raises(UnitInputError):
        factor(J_UNIT, QH)
    with pytest.raises(UnsupportedRingError):
        factor(BicomplexElement(QuadRational(2, 2, 0), QuadRational(2, 3, 0)),
               ExtensionDescriptor(QuadraticField(2), Q_FIELD))
    with pytest.raises(UnsupportedRingError):
        factor(BicomplexElement(QuadRational(-3, 2, 0), QuadRational(-3, 3, 0)),
               L_EISENSTEIN)
    with pytest.raises(ValueError):
        factor(BicomplexElement(Fraction(1, 2), Fraction(3)), QH)
    # an unsupported component ring is refused before the integrality,
    # null-cone and unit checks
    for element in (BicomplexElement(QuadRational(-3, Fraction(1, 2), 0), 0),
                    BicomplexElement(QuadRational(-3, 0, 0), 1),
                    BicomplexElement(QuadRational(-3, 1, 0), 1)):
        with pytest.raises(UnsupportedRingError):
            factor(element, L_EISENSTEIN)


def _pell_by_norm_check(D):
    """The first convergent of sqrt(D) whose norm is +-1."""
    a0 = math.isqrt(D)
    m, d, a = 0, 1, a0
    num_prev, num = 1, a0
    den_prev, den = 0, 1
    while num * num - D * den * den not in (1, -1):
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        num_prev, num = num, a * num + num_prev
        den_prev, den = den, a * den + den_prev
    return num, den


def _random_hyperbolic(rng):
    def component():
        value = rng.randrange(2, 10 ** 6) * rng.choice((1, -1))
        return Fraction(value)
    return BicomplexElement(component(), component())


def _random_gaussian_integral(rng):
    def component():
        while True:
            a, b = rng.randrange(-1000, 1001), rng.randrange(-1000, 1001)
            if a * a + b * b > 1:
                return G(a, b)
    return BicomplexElement(component(), component())


def test_factor_round_trip_random():
    rng = random.Random(71)
    for _ in range(60):
        el = _random_hyperbolic(rng)
        f = factor(el, QH)
        assert f.recompose() == el
        assert all(is_prime_element(p, QH).is_prime for p, _ in f.factors)
    for _ in range(60):
        el = _random_gaussian_integral(rng)
        f = factor(el, QB)
        assert f.recompose() == el
        assert all(is_prime_element(p, QB).is_prime for p, _ in f.factors)
        assert all(canonical_associate(p, QB)[1] == p for p, _ in f.factors)


def _prime_order_key(prime, L):
    """The order factor lists its primes in: the pi*e1 + e2 primes before the
    e1 + pi*e2 ones, each by the norm, then the real and imaginary part of pi."""
    e1 = is_prime_element(prime, L).form == "prime_e1"
    g = as_gaussian(prime.c1 if e1 else prime.c2)
    return (not e1, g.norm_sq(), g.re, g.im)


@pytest.mark.parametrize("L", [QH, QB, ExtensionDescriptor(Q_FIELD, GAUSSIAN_FIELD),
                               ExtensionDescriptor(GAUSSIAN_FIELD, Q_FIELD)])
def test_factor_lists_primes_in_order(L):
    rng = random.Random(73)

    def component(K):
        while True:
            a = rng.randrange(-1000, 1001)
            b = rng.randrange(-1000, 1001) if K == GAUSSIAN_FIELD else 0
            if a * a + b * b > 1:
                return G(a, b) if K == GAUSSIAN_FIELD else Fraction(a)

    for _ in range(100):
        primes = [p for p, _ in factor(BicomplexElement(component(L.K1), component(L.K2)), L).factors]
        assert primes == sorted(primes, key=lambda p: _prime_order_key(p, L))


rational_integers = st.integers(-10 ** 6, 10 ** 6).filter(bool).map(Fraction)
gaussian_integers = st.builds(G, st.integers(-1000, 1000), st.integers(-1000, 1000)).filter(bool)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(st.tuples(st.builds(BicomplexElement, rational_integers, rational_integers),
                           st.just(QH)),
                 st.tuples(st.builds(BicomplexElement, gaussian_integers, gaussian_integers),
                           st.just(QB))))
def test_factor_recomposes(x_and_L):
    x, L = x_and_L
    assume(not is_unit(x, L))
    assert factor(x, L).recompose() == x


def test_factor_unit_invariance():
    rng = random.Random(72)
    hyperbolic_units = [BicomplexElement(Fraction(a), Fraction(b))
                        for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    for _ in range(30):
        el = _random_hyperbolic(rng)
        reference = factor(el, QH).factors
        for u in hyperbolic_units:
            assert factor(u * el, QH).factors == reference
    gaussian_units = [gaussian_element((a, b), (c, d))
                      for (a, b), (c, d) in itertools.product(
                          [(1, 0), (0, 1), (-1, 0), (0, -1)], repeat=2)]
    for _ in range(10):
        el = _random_gaussian_integral(rng)
        reference = factor(el, QB).factors
        for u in gaussian_units:
            assert factor(u * el, QB).factors == reference


def test_rational_prime_profiles():
    profile = rational_prime_profile(7, QH)
    assert (profile.factor_count, profile.semiprime) == (2, True)
    assert (rational_prime_profile(5, QB).factor_count,
            rational_prime_profile(5, QB).semiprime) == (4, False)
    assert rational_prime_profile(3, QB).semiprime
    two = rational_prime_profile(2, QB)
    assert (two.factor_count, two.semiprime) == (4, False)
    assert sorted(e for _, e in two.factorization.factors) == [2, 2]
    with pytest.raises(ValueError):
        rational_prime_profile(6, QB)


def test_prime_profile_mod_four_split():
    for p in (5, 13, 17, 29, 997):
        assert rational_prime_profile(p, QB).factor_count == 4
    for p in (3, 7, 11, 19, 991):
        assert rational_prime_profile(p, QB).factor_count == 2


def test_pell_fundamental_unit():
    assert pell_fundamental_unit(2) == (1, 1)
    assert pell_fundamental_unit(46) == (24335, 3588)
    x, y = pell_fundamental_unit(61)
    assert x * x - 61 * y * y in (1, -1) and y > 0
    for D in range(2, 2001):
        if math.isqrt(D) ** 2 != D:
            assert pell_fundamental_unit(D) == _pell_by_norm_check(D), D
    with pytest.raises(ValueError):
        pell_fundamental_unit(4)


def test_pell_fundamental_unit_stops_at_the_bit_limit():
    x, y = pell_fundamental_unit(100000007)  # 11071 bits, inside the limit
    assert x * x - 100000007 * y * y in (1, -1) and len(str(x)) == 3333
    for D in (1000000007, 10000000019):
        with pytest.raises(WorkBudgetError) as err:
            pell_fundamental_unit(D)
        assert str(PELL_BIT_LIMIT) in str(err.value)
    # a unit just inside the limit still prints in decimal
    assert len(str(2 ** PELL_BIT_LIMIT)) < 4300


def test_radicand_squarefreeness_by_factoring():
    """A 31-digit radicand is checked by factoring it, not by trial division
    up to its square root."""
    K = QuadraticField(10 ** 30 + 1)
    assert discriminant(ExtensionDescriptor(K, Q_FIELD)) == 10 ** 30 + 1
    with pytest.raises(ValueError):
        QuadRational(5 * 1000003 ** 2, 1, 1)
    with pytest.raises(ValueError):
        QuadraticField(-7 * 4)
    for d in range(-2000, 2001):
        n = abs(d)
        assert is_squarefree_int(d) == all(n % (f * f) for f in range(2, math.isqrt(n) + 1))


def test_mixed_quadratic_extension_numeric_ops_only():
    L = ExtensionDescriptor(QuadraticField(2), QuadraticField(3))
    assert discriminant(L) == 8 * 12
    info = unit_group(L)
    assert not info.finite
    with pytest.raises(UnsupportedRingError):
        integral_basis(L)
