import cmath
import itertools
import random
from fractions import Fraction

import pytest

from bicomplex.census import (
    LOCUS_NAMES,
    Census,
    RootConvergenceError,
    RootPartition,
    _checked_roots,
    census,
    census_cyclotomic,
    classify_pair,
    enumerate_bicomplex_roots,
    locus_factors,
    low_degree_gaussian_roots,
    numeric_real_count,
    numeric_roots,
    sqrt_rational,
)
from bicomplex.element import BicomplexElement
from bicomplex.polys import IntPoly, Poly, content_primitive, cyclotomic, is_squarefree
from bicomplex.scalars import GaussianRational, QuadRational
from test_polys import _schoolbook


def all_roots(part):
    """The n^2 roots of a RootPartition, locus by locus."""
    return part.real + part.plane_i + part.plane_j + part.plane_k + part.generic


def G(re, im=0):
    return GaussianRational(re, im)


def test_census_cubic_example():
    c = census(IntPoly.of(-8, 4, -2, 1))
    assert (c.real_roots, c.i_plane, c.j_plane, c.k_plane, c.off_plane) == (1, 2, 0, 2, 4)
    assert c.real_roots + c.i_plane + c.j_plane + c.k_plane + c.off_plane == 9 == c.total


def test_census_quadratics():
    c = census(IntPoly.of(1, 0, 1))
    assert (c.real_roots, c.i_plane, c.j_plane, c.k_plane, c.off_plane) == (0, 2, 0, 2, 0)
    c = census(IntPoly.of(-2, 0, 1))
    assert (c.real_roots, c.i_plane, c.j_plane, c.k_plane, c.off_plane) == (2, 0, 2, 0, 0)


def test_census_rejects_bad_input():
    with pytest.raises(ValueError):
        census(IntPoly.of(1, -2, 1))
    with pytest.raises(ValueError, match="census is defined for squarefree polynomials only"):
        census(IntPoly.of(-1, 1) * IntPoly.of(-1, 1) * IntPoly.of(1, 0, 1))
    with pytest.raises(ValueError):
        census(IntPoly.of(7))


def test_census_cyclotomic():
    assert census_cyclotomic(4).total == 4
    c2 = census_cyclotomic(2)
    assert c2.total == 1 and c2.real_roots == 1
    c5 = census_cyclotomic(5)
    assert (c5.real_roots, c5.complex_pairs, c5.off_plane, c5.total) == (0, 2, 8, 16)
    for n in range(3, 20):
        assert census_cyclotomic(n).real_roots == 0
    for n in range(1, 201):  # the closed form against the exact real-root count
        assert census_cyclotomic(n) == census(cyclotomic(n))
    assert census_cyclotomic(1) == Census(1, 1)
    with pytest.raises(ValueError):
        census_cyclotomic(0)


def test_census_invariants_random():
    rng = random.Random(51)
    seen = 0
    while seen < 100:
        coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(2, 9))] + [rng.randrange(1, 9)]
        try:
            p = content_primitive(Poly.of(*coeffs))[1]
        except ValueError:
            continue
        if p.degree < 1 or not is_squarefree(p):
            continue
        seen += 1
        c = census(p)
        n, r, s = c.degree, c.real_roots, c.complex_pairs
        assert n == r + 2 * s
        assert c.j_plane == r * (r - 1)
        assert c.i_plane == c.k_plane == 2 * s
        assert c.off_plane == 4 * s * (s + r - 1)
        assert n * n == r + c.i_plane + c.j_plane + c.k_plane + c.off_plane


def test_census_validation():
    with pytest.raises(ValueError):
        Census(3, 2)  # one non-real root has no conjugate partner
    with pytest.raises(ValueError):
        Census(3, 4)  # more real roots than the degree


def test_enumerate_cubic_example():
    part = enumerate_bicomplex_roots([G(2), G(0, 2), G(0, -2)])
    assert part.sizes() == (1, 2, 0, 2, 4)
    assert len(set(all_roots(part))) == 9


def test_enumerate_single_root():
    part = enumerate_bicomplex_roots([G(1)])
    assert part.sizes() == (1, 0, 0, 0, 0)
    assert part.real[0] == BicomplexElement.from_rational(1)


def test_enumerate_conjugate_pair():
    part = enumerate_bicomplex_roots([G(0, 1), G(0, -1)])
    assert part.sizes() == (0, 2, 0, 2, 0)
    i_as_element = BicomplexElement(G(0, 1), G(0, 1))
    k_as_element = BicomplexElement(G(0, 1), G(0, -1))
    assert set(part.plane_i) == {i_as_element, -i_as_element}
    assert set(part.plane_k) == {k_as_element, -k_as_element}


def test_enumerate_rejects_bad_sets():
    with pytest.raises(ValueError):
        enumerate_bicomplex_roots([G(1), G(1)])
    with pytest.raises(ValueError):
        enumerate_bicomplex_roots([G(0, 1)])
    # the real roots 1 +- sqrt(2) of X^2 - 2X - 1 are not Gaussian rationals
    for build in (enumerate_bicomplex_roots, locus_factors):
        with pytest.raises(ValueError, match="Q\\(i\\)"):
            build([QuadRational(2, 1, 1), QuadRational(2, 1, -1)])


def test_root_check_keys_roots_by_value():
    # the check keys each root by the integers of its reduced parts: one value
    # in four types is one key, and a real root is its own conjugate
    one = [1, Fraction(2, 2), G(1), QuadRational(3, 1, 0)]
    for build in (enumerate_bicomplex_roots, locus_factors):
        for a, b in itertools.combinations(one, 2):
            with pytest.raises(ValueError, match="^duplicate roots in root set$"):
                build([a, G(0, 1), b, G(0, -1)])
        for root in one + [Fraction(-5, 3), 0]:
            build([root])
    roots, conj = _checked_roots([Fraction(1, 2), G(2, 3), 0, G(2, -3), QuadRational(7, 4)])
    assert conj == [0, 3, 2, 1, 4]
    assert roots == (G(Fraction(1, 2)), G(2, 3), G(0), G(2, -3), G(4))
    assert all(root.D == -1 for root in roots)


def test_root_check_messages():
    cases = [
        ([G(1, 2)], "root set is not closed under conjugation: 1+2*i unpaired"),
        ([G(1, Fraction(1, 2)), G(1, Fraction(-1, 3))],
         "root set is not closed under conjugation: 1+1/2*i unpaired"),
        ([G(-1, 2), G(1, -2)], "root set is not closed under conjugation: -1+2*i unpaired"),
        ([QuadRational(-3, 0, 1)],
         "QuadRational(-3, Fraction(0, 1), Fraction(1, 1)) does not lie in Q(i)"),
    ]
    for build in (enumerate_bicomplex_roots, locus_factors):
        for roots, message in cases:
            with pytest.raises(ValueError) as caught:
                build(roots)
            assert str(caught.value) == message


def test_rational_roots_are_gaussian_roots():
    assert enumerate_bicomplex_roots([1, 2]) == enumerate_bicomplex_roots([G(1), G(2)])
    assert enumerate_bicomplex_roots([1, 2]).sizes() == (2, 0, 2, 0, 0)
    assert locus_factors([Fraction(1), Fraction(2)]) == locus_factors([G(1), G(2)])
    assert locus_factors([QuadRational(3, 5)]).real == Poly.of(-5, 1)


def _root_set(rng, n: int, s: int, zero: bool = False) -> list:
    """A shuffled conjugation-closed set of n Gaussian rational roots with s
    conjugate pairs, r = n - 2s real; with ``zero``, 0 is one of the real ones."""
    roots: set = {G(0)} if zero else set()
    while len(roots) < n - 2 * s:
        roots.add(G(Fraction(rng.randint(-20, 20), rng.randint(1, 6))))
    while len(roots) < n:
        root = G(Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
                 Fraction(rng.randint(1, 20), rng.randint(1, 6)))
        roots |= {root, root.conjugate()}
    roots = sorted(roots, key=lambda z: (z.re, z.im))
    rng.shuffle(roots)
    return roots


def _root_sets(seed: int):
    """A root set for each degree n <= 10 and each number s of conjugate pairs."""
    rng = random.Random(seed)
    for n in range(1, 11):
        for s in range(n // 2 + 1):
            yield _root_set(rng, n, s)


def test_enumeration_buckets_every_pair_by_classify_pair():
    for roots in _root_sets(71):
        buckets = {name: [] for name in LOCUS_NAMES}
        for alpha in roots:
            for beta in roots:
                buckets[classify_pair(alpha, beta)].append(BicomplexElement(alpha, beta))
        expected = RootPartition(**{name: tuple(vals) for name, vals in buckets.items()})
        assert enumerate_bicomplex_roots(roots) == expected


def test_enumeration_of_mixed_types_matches_classify_pair():
    # real roots given as Gaussian rationals, Fractions, ints and QuadRationals
    # of another radicand: one key each, so each set enumerates as its Gaussian form
    rng = random.Random(74)
    for roots in _root_sets(75):
        given = [root if root.im else rng.choice(
                     (root, root.re, QuadRational(2, root.re),
                      int(root.re) if root.re.denominator == 1 else root.re))
                 for root in roots]
        expected = {name: [] for name in LOCUS_NAMES}
        for alpha in roots:
            for beta in roots:
                expected[classify_pair(alpha, beta)].append(BicomplexElement(alpha, beta))
        assert enumerate_bicomplex_roots(given) == RootPartition(
            **{name: tuple(vals) for name, vals in expected.items()})


def test_locus_product_matches_fraction_schoolbook():
    # up to n = 20, where the powers of R and P have degree up to 360, and
    # with 0 among the roots, so that R(0) = 0 and R = X^e * g in the powers
    rng = random.Random(73)
    large = [_root_set(rng, n, s, zero=True) for n, s in ((11, 2), (14, 0), (16, 7), (20, 3))]
    large += [_root_set(rng, 20, 10), _root_set(rng, 3, 1, zero=True)]
    for roots in itertools.chain(_root_sets(72), large):
        factors = locus_factors(roots, lead=3)
        expected = Poly.one()
        for name in LOCUS_NAMES:
            expected = _schoolbook(expected.coeffs, getattr(factors, name).coeffs)
        product = factors.product()
        assert product == expected and product.degree == len(roots) ** 2
        monic = (factors.real * factors.plane_i).coeffs
        assert _gaussian_linear_product(roots) == [G(c) for c in monic]
        assert all(type(c) is Fraction for c in product.coeffs)


def test_locus_is_fixed_point_signature():
    """Each bicomplex root's locus matches which conjugations fix it."""
    roots = [G(1), G(-2), G(0, 1), G(0, -1), G(1, 1), G(1, -1)]
    part = enumerate_bicomplex_roots(roots)
    for name, members in (("real", part.real), ("plane_i", part.plane_i),
                          ("plane_j", part.plane_j), ("plane_k", part.plane_k),
                          ("generic", part.generic)):
        for psi in members:
            fixed = {axis for axis in "ijk" if psi.conjugate(axis) == psi}
            if name == "real":
                assert fixed == {"i", "j", "k"}
            elif name == "generic":
                assert fixed == set()
            else:
                assert fixed == {name[-1]}


def test_locus_factor_example_pool():
    factors = locus_factors([G(1), G(2), G(0, 1), G(0, -1)])
    lin = Poly.of(-1, 1) * Poly.of(-2, 1)
    quad = Poly.of(1, 0, 1)
    assert factors.real == lin
    assert factors.plane_i == quad
    assert factors.plane_j == lin
    assert factors.plane_k == quad
    assert factors.generic == lin ** 2 * quad ** 2
    assert factors.product() == (lin * quad) ** 4


def test_locus_factor_r1_gives_trivial_j_factor():
    factors = locus_factors([G(2), G(0, 2), G(0, -2)])
    assert factors.plane_j == Poly.one()
    assert factors.product() == Poly.of(-8, 4, -2, 1) ** 3


def test_locus_factor_single_root():
    factors = locus_factors([G(5)])
    assert factors.real == Poly.of(-5, 1)
    for poly in (factors.plane_i, factors.plane_j, factors.plane_k, factors.generic):
        assert poly == Poly.one()
    assert factors.product() == Poly.of(-5, 1)


def _gaussian_linear_product(values):
    """prod (X - v) with exact Gaussian coefficients, low degree first."""
    coeffs = [GaussianRational(1, 0)]
    for v in values:
        shifted = [GaussianRational(0, 0)] + coeffs
        scaled = [c * -v for c in coeffs] + [GaussianRational(0, 0)]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return coeffs


def test_locus_factors_match_componentwise_enumeration():
    """Independent route: multiply X - psi over each enumerated locus using
    the componentwise product, and compare with the closed forms."""
    pools = (
        [G(1), G(2), G(0, 1), G(0, -1)],
        [G(2), G(0, 2), G(0, -2)],
        [G(1), G(-1), G(3)],
        [G(1, 1), G(1, -1), G(0, 5), G(0, -5), G(7)],
    )
    for roots in pools:
        part = enumerate_bicomplex_roots(roots)
        factors = locus_factors(roots)
        for members, closed in ((part.real, factors.real),
                                (part.plane_i, factors.plane_i),
                                (part.plane_j, factors.plane_j),
                                (part.plane_k, factors.plane_k),
                                (part.generic, factors.generic)):
            for component in ("c1", "c2"):
                product = _gaussian_linear_product([getattr(m, component) for m in members])
                expected = [GaussianRational(c, 0) for c in closed.coeffs]
                assert product == expected


def test_full_product_identity():
    """prod over all n^2 bicomplex roots of (X - psi) equals the monic n-th
    power, both through the locus factors and componentwise."""
    for roots in ([G(2), G(0, 2), G(0, -2)], [G(1), G(2), G(0, 1), G(0, -1)]):
        n = len(roots)
        factors = locus_factors(roots)
        base = factors.real * factors.plane_i  # the monic polynomial itself
        assert base.degree == n
        assert factors.product() == base ** n
        part = enumerate_bicomplex_roots(roots)
        expected = [GaussianRational(c, 0) for c in (base ** n).coeffs]
        for component in ("c1", "c2"):
            product = _gaussian_linear_product(
                [getattr(m, component) for m in all_roots(part)])
            assert product == expected


def test_sqrt_rational():
    assert sqrt_rational(Fraction(49, 4)) == Fraction(7, 2)
    assert sqrt_rational(Fraction(2)) is None
    with pytest.raises(ValueError):
        sqrt_rational(Fraction(-1))


def test_low_degree_gaussian_roots():
    assert low_degree_gaussian_roots(IntPoly.of(-2, 1)) == [G(2)]
    assert low_degree_gaussian_roots(IntPoly.of(4, 0, 1)) == [G(0, 2), G(0, -2)]
    assert low_degree_gaussian_roots(IntPoly.of(2, -2, 1)) == [G(1, 1), G(1, -1)]
    assert low_degree_gaussian_roots(IntPoly.of(-2, 0, 1)) is None  # sqrt(2) irrational
    assert low_degree_gaussian_roots(IntPoly.of(1, 1, 1)) is None  # needs sqrt(-3)
    with pytest.raises(ValueError):
        low_degree_gaussian_roots(IntPoly.of(1, 0, 0, 1))


def test_numeric_roots_examples():
    roots = numeric_roots(IntPoly.of(1, 0, 1))
    assert sorted(round(z.imag, 6) for z in roots) == [-1.0, 1.0]
    roots = numeric_roots(IntPoly.of(-8, 4, -2, 1))
    expected = {complex(2, 0), complex(0, 2), complex(0, -2)}
    for z in roots:
        assert min(abs(z - w) for w in expected) < 1e-8

    # bisection oracle for sqrt(2)
    lo, hi = 1.0, 2.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if mid * mid < 2:
            lo = mid
        else:
            hi = mid
    roots = numeric_roots(IntPoly.of(-2, 0, 1))
    assert sorted(round(z.real, 8) for z in roots) == [-round(lo, 8), round(lo, 8)]


def test_numeric_roots_refuses_constants_and_repeated_roots():
    with pytest.raises(ValueError, match="^roots needs degree >= 1$"):
        numeric_roots(IntPoly.of(1))
    with pytest.raises(ValueError, match="^roots is defined for squarefree polynomials only$"):
        numeric_roots(IntPoly.of(1, -2, 1))


def test_numeric_roots_never_returns_non_finite_values():
    """X^n - 2 overflows the iteration for large n; that must raise, not
    return NaN roots as if they had converged."""
    for n in (20, 40):
        roots = numeric_roots(IntPoly.of(-2, *[0] * (n - 1), 1))
        assert len(roots) == n and all(cmath.isfinite(z) for z in roots)
    for n in (60, 120):
        with pytest.raises(RootConvergenceError):
            numeric_roots(IntPoly.of(-2, *[0] * (n - 1), 1))


def test_numeric_real_count_matches_sturm():
    from bicomplex.polys import sturm_real_root_count
    rng = random.Random(52)
    seen = 0
    while seen < 40:
        coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(2, 9))] + [rng.randrange(1, 9)]
        try:
            p = content_primitive(Poly.of(*coeffs))[1]
        except ValueError:
            continue
        if p.degree < 1 or not is_squarefree(p):
            continue
        seen += 1
        assert numeric_real_count(p) == sturm_real_root_count(p)


def test_classify_pair():
    assert classify_pair(G(1), G(1)) == "real"
    assert classify_pair(G(0, 1), G(0, 1)) == "plane_i"
    assert classify_pair(G(1), G(2)) == "plane_j"
    assert classify_pair(G(0, 1), G(0, -1)) == "plane_k"
    assert classify_pair(G(1), G(0, 1)) == "generic"
