"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute.  Each criterion asserts at exactly its stated tolerance;
all checks are exact unless a tolerance is called out.
"""
import itertools
import math
import random
from fractions import Fraction

from bicomplex.census import (
    census,
    enumerate_bicomplex_roots,
    locus_factors,
    numeric_roots,
)
from bicomplex.element import BicomplexElement, J_UNIT, ONE
from bicomplex.minpoly import eval_at_bicomplex, minpoly_bicomplex, quartic_charpoly
from bicomplex.polys import IntPoly, Poly, content_primitive, is_squarefree
from bicomplex.radix import (
    DigitString,
    GaussBase,
    HypGaussBase,
    HypSplitBase,
    NonTerminationError,
    decode,
    digit_set,
    encode,
)
from bicomplex.rings import (
    QB,
    QH,
    discriminant,
    discriminant_by_trace_matrix,
    factor,
    is_prime_element,
    is_unit,
    rational_prime_profile,
    unit_group,
)
from bicomplex.scalars import GaussianRational
from bicomplex.zeta import (
    brute_force_ideal_count,
    coefficient_table,
    dirichlet_convolve,
    jacobi_r,
)
from bicomplex.rings import GAUSSIAN_FIELD, Q_FIELD
from test_census import all_roots
from test_element import coordinate_recovery_check


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} [{status}] {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def G(re, im=0):
    return GaussianRational(re, im)


def test_criterion_01_minimal_polynomial_of_flagship_element():
    w = BicomplexElement.from_cartesian(1, 1, 1, -1)
    result = minpoly_bicomplex(w)
    ok = (result.poly == IntPoly.of(-8, 4, -2, 1)
          and w.c1 == G(2) and w.c2 == G(0, 2)
          and eval_at_bicomplex(result.poly.to_poly(), w).is_zero)
    report(1, "minimal polynomial of 1+i+j-k with components {2, 2i}", ok)


def test_criterion_02_census_and_random_invariants():
    c = census(IntPoly.of(-8, 4, -2, 1))
    counts = (c.real_roots, c.i_plane, c.j_plane, c.k_plane, c.off_plane)
    ok = counts == (1, 2, 0, 2, 4) and sum(counts) == 9 == c.total
    rng = random.Random(10_02)
    checked = 0
    while ok and checked < 200:
        coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(2, 9))]
        coeffs.append(rng.randrange(1, 9))
        try:
            p = content_primitive(Poly.of(*coeffs))[1]
        except ValueError:
            continue
        if p.degree < 1 or not is_squarefree(p):
            continue
        checked += 1
        cc = census(p)
        n, r, s = cc.degree, cc.real_roots, cc.complex_pairs
        ok = (n == r + 2 * s
              and cc.j_plane == r * (r - 1)
              and cc.i_plane == cc.k_plane == 2 * s
              and cc.off_plane == 4 * s * (s + r - 1)
              and n * n == r + cc.i_plane + cc.j_plane + cc.k_plane + cc.off_plane)
        numeric_r = sum(1 for z in numeric_roots(p) if abs(z.imag) < 1e-8)
        ok = ok and numeric_r == r
    report(2, "root census of the cubic and invariants on 200 random polynomials", ok,
           f"{checked} random squarefree polynomials, realness tolerance 1e-8")


def _conjugation_closed_pool_subsets(max_size: int):
    reals = [G(1), G(2), G(-3)]
    pairs = [(G(0, 1), G(0, -1)), (G(0, 2), G(0, -2)), (G(1, 1), G(1, -1))]
    for real_subset in itertools.chain.from_iterable(
            itertools.combinations(reals, k) for k in range(len(reals) + 1)):
        for pair_subset in itertools.chain.from_iterable(
                itertools.combinations(pairs, k) for k in range(len(pairs) + 1)):
            roots = list(real_subset) + [z for pair in pair_subset for z in pair]
            if 0 < len(roots) <= max_size:
                yield roots


def _enumerated_root_product(elements) -> Poly:
    """prod (X - psi) over bicomplex roots, via the componentwise product;
    both components must agree and be rational."""
    coeff_lists = []
    for component in ("c1", "c2"):
        coeffs = [G(1)]
        for member in elements:
            value = getattr(member, component)
            shifted = [G(0)] + coeffs
            scaled = [c * -value for c in coeffs] + [G(0)]
            coeffs = [a + b for a, b in zip(shifted, scaled)]
        coeff_lists.append(coeffs)
    assert coeff_lists[0] == coeff_lists[1]
    assert all(c.im == 0 for c in coeff_lists[0])
    return Poly.of(*[c.re for c in coeff_lists[0]])


def test_criterion_03_locus_factor_identity():
    ok = True
    count = 0
    seen_required = {"example_a": False, "example_b": False}
    lead = 3
    for roots in _conjugation_closed_pool_subsets(6):
        count += 1
        n = len(roots)
        factors = locus_factors(roots, lead)
        monic = factors.real * factors.plane_i
        # independent route: expand (X - psi) over all n^2 enumerated roots
        part = enumerate_bicomplex_roots(roots)
        enumerated = _enumerated_root_product(all_roots(part))
        p = Fraction(lead) * monic
        ok = (len(all_roots(part)) == n * n
              and factors.product() == monic ** n
              and Fraction(lead) ** n * enumerated == p ** n)
        if not ok:
            break
        if set(roots) == {G(1), G(2), G(0, 1), G(0, -1)}:
            seen_required["example_a"] = True
        if set(roots) == {G(2), G(0, 2), G(0, -2)}:
            seen_required["example_b"] = True
    ok = ok and all(seen_required.values())
    report(3, "locus factor product identity over the conjugation-closed pool", ok,
           f"{count} root sets of size <= 6, leading coefficient {lead}")


def test_criterion_04_discriminants():
    ok = (discriminant(QH) == 1 == discriminant_by_trace_matrix(QH)
          and discriminant(QB) == 16 == discriminant_by_trace_matrix(QB))
    report(4, "discriminants 1 and 16, reproduced by the trace matrix", ok)


def test_criterion_05_unit_groups():
    info_h, info_b = unit_group(QH), unit_group(QB)
    hyper_units = {(m, n) for m in range(-10, 11) for n in range(-10, 11)
                   if is_unit(BicomplexElement(Fraction(m), Fraction(n)), QH)}
    expected_h = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    elements_h = {BicomplexElement(Fraction(m), Fraction(n)) for m, n in hyper_units}
    gauss_components = [G(a, b) for a in range(-3, 4) for b in range(-3, 4)
                        if 0 < a * a + b * b <= 10]
    gauss_units = sum(1 for c1 in gauss_components for c2 in gauss_components
                      if is_unit(BicomplexElement(c1, c2), QB))
    ok = (info_h.order == 4 and hyper_units == expected_h
          and elements_h == {ONE, -ONE, J_UNIT, -J_UNIT}
          and info_b.order == 16 and gauss_units == 16)
    report(5, "unit groups of orders 4 (= {1,-1,j,-j}) and 16 by exhaustive search", ok)


def _random_hyperbolic(rng):
    def component():
        return Fraction(rng.randrange(2, 10 ** 6) * rng.choice((1, -1)))
    return BicomplexElement(component(), component())


def _random_gaussian_integer_element(rng):
    def component():
        while True:
            a, b = rng.randrange(-1000, 1001), rng.randrange(-1000, 1001)
            if 1 < a * a + b * b <= 10 ** 6:
                return G(a, b)
    return BicomplexElement(component(), component())


def test_criterion_06_factorization():
    rng = random.Random(10_06)
    ok = True
    hyper_units = [BicomplexElement(Fraction(a), Fraction(b))
                   for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    gauss_unit_scalars = [G(1), G(0, 1), G(-1), G(0, -1)]
    for _ in range(500):
        el = _random_hyperbolic(rng)
        f = factor(el, QH)
        ok = ok and f.recompose() == el
        ok = ok and all(is_prime_element(p, QH).is_prime and e >= 1 for p, e in f.factors)
        ok = ok and factor(rng.choice(hyper_units) * el, QH).factors == f.factors
        if not ok:
            break
    for _ in range(500 if ok else 0):
        el = _random_gaussian_integer_element(rng)
        f = factor(el, QB)
        ok = ok and f.recompose() == el
        ok = ok and all(is_prime_element(p, QB).is_prime and e >= 1 for p, e in f.factors)
        unit = BicomplexElement(rng.choice(gauss_unit_scalars), rng.choice(gauss_unit_scalars))
        ok = ok and factor(unit * el, QB).factors == f.factors
        if not ok:
            break
    primes_checked = 0
    if ok:
        for p in range(2, 10 ** 4 + 1):
            try:
                profile = rational_prime_profile(p, QB)
            except ValueError:  # p is not prime
                continue
            primes_checked += 1
            # over Qh a prime is p*e1 times p*e2 up to units; over QB it stays
            # prime in Z[i] exactly when p = 3 (mod 4), and splits (or ramifies) otherwise
            hyperbolic = rational_prime_profile(p, QH)
            ok = ok and hyperbolic.factor_count == 2 and hyperbolic.semiprime
            if p % 4 == 3:
                ok = ok and profile.factor_count == 2 and profile.semiprime
            else:
                ok = ok and profile.factor_count == 4 and not profile.semiprime
            if not ok:
                break
        ok = ok and primes_checked == 1229  # pi(10^4)
    report(6, "500+500 random factorizations recompose; prime profiles over Qh and QB "
              "for p <= 10^4", ok, f"{primes_checked} primes checked")


def test_criterion_07_jacobi_formula():
    limit = 10 ** 4
    counts = [0] * (limit + 1)
    bound = math.isqrt(limit)
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            n = a * a + b * b
            if 1 <= n <= limit:
                counts[n] += 1
    ok = all(jacobi_r(n) == counts[n] for n in range(1, limit + 1))
    report(7, "Jacobi r(n) equals lattice enumeration for n <= 10^4", ok)


def test_criterion_08_coefficient_tables():
    limit = 10 ** 4
    table_h = coefficient_table(QH, limit)
    ok = True
    for n in range(1, limit + 1):
        divisor_count = 0
        d = 1
        while d * d <= n:
            if n % d == 0:
                divisor_count += 1 if d * d == n else 2
            d += 1
        if table_h.a(n) != divisor_count:
            ok = False
            break
    table_b = coefficient_table(QB, 200)
    if ok:
        for n in range(1, 201):
            expected = sum(brute_force_ideal_count(GAUSSIAN_FIELD, d)
                           * brute_force_ideal_count(GAUSSIAN_FIELD, n // d)
                           for d in range(1, n + 1) if n % d == 0)
            if table_b.a(n) != expected:
                ok = False
                break
    if ok:
        ones = coefficient_table(Q_FIELD, limit)
        ok = dirichlet_convolve(ones, ones).values == table_h.values
        table_i = coefficient_table(GAUSSIAN_FIELD, limit)
        ok = ok and dirichlet_convolve(table_i, table_i).values == \
            coefficient_table(QB, limit).values
    report(8, "coefficient tables: divisor counts, pair enumeration, convolution", ok,
           "N = 10^4 for the exact convolution identity")


def test_criterion_09_zeta_partial_square():
    limit = 10 ** 4
    table_h = coefficient_table(QH, limit)
    lhs = sum(a / n ** 2 for n, a in enumerate(table_h.values, start=1))
    base = sum(1 / n ** 2 for n in range(1, limit + 1))
    ok = abs(lhs - base * base) < 2e-3
    report(9, "partial zeta sum of the hyperbolic extension is zeta^2", ok,
           f"|{lhs:.6f} - {base * base:.6f}| < 2e-3")


def test_criterion_10_quartic_characteristic_polynomial():
    rng = random.Random(10_10)
    ok = True
    for _ in range(500):
        el = BicomplexElement(G(rng.randrange(-50, 51), rng.randrange(-50, 51)),
                              G(rng.randrange(-50, 51), rng.randrange(-50, 51)))
        poly, _ = quartic_charpoly(el)
        ok = ok and eval_at_bicomplex(poly, el).is_zero
        mp = minpoly_bicomplex(el).poly.to_poly()
        ok = ok and divmod(poly, mp)[1].is_zero
        if not ok:
            break
    if ok:
        for m in range(-7, 8):
            for n in range(-7, 8):
                poly, _ = quartic_charpoly(BicomplexElement(Fraction(m), Fraction(n)))
                ok = ok and poly == Poly.of(m * n, -(m + n), 1) ** 2
        for a in range(-7, 8):
            for b in range(-7, 8):
                poly, _ = quartic_charpoly(BicomplexElement(G(a, b), G(a, b)))
                ok = ok and poly == Poly.of(a * a + b * b, -2 * a, 1) ** 2
    report(10, "quartic characteristic polynomial: annihilation, divisibility, squares", ok)


def _base_minus_three_digits(n: int) -> list[int]:
    """Digits of n in base -3 with digit set {0, 1, 2}, least significant first."""
    digits = []
    while n:
        d = n % 3
        digits.append(d)
        n = (n - d) // -3
    return digits


def test_criterion_11_radix_round_trips():
    """In seven bases every point of the grid round-trips.

    Base -2+j = (-1)*e1 + (-3)*e2 cannot do that: in the idempotent coordinates
    m = u+v, n = u-v of u + v*j, the unit e1 component leaves the digit
    forced by n mod 3 alone, so the digits are the base -3 digits of n and
    a finite expansion exists iff m equals their alternating sum.  For this
    base the criterion checks that encode succeeds exactly on those points,
    round-tripping them, and raises NonTerminationError on every other.
    """
    cases = []
    for base in (HypSplitBase(-2), HypSplitBase(-3)):
        points = [BicomplexElement(Fraction(m), Fraction(n))
                  for m in range(-50, 51) for n in range(-50, 51)]
        cases.append((base, points))
    for base in (HypGaussBase(-3),):
        points = [BicomplexElement.from_cartesian(u, 0, v, 0)
                  for u in range(-50, 51) for v in range(-50, 51)]
        cases.append((base, points))
    for base in (GaussBase(-1, 1), GaussBase(-1, -1), GaussBase(-2, 1), GaussBase(-2, -1)):
        points = [BicomplexElement.from_cartesian(u, v, 0, 0)
                  for u in range(-50, 51) for v in range(-50, 51)]
        cases.append((base, points))
    failures = {}
    for base, points in cases:
        bad = 0
        for x in points:
            try:
                digits = encode(x, base)
                if decode(digits) != x or any(d not in digit_set(base) for d in digits.digits):
                    bad += 1
            except NonTerminationError:
                bad += 1
        failures[str(base)] = bad
        print(f"  radix base {base}: {len(points) - bad}/{len(points)} round trips")

    base = HypGaussBase(-2)
    grid = range(-50, 51)
    size = len(grid) ** 2
    points = {(u, v): BicomplexElement.from_cartesian(u, 0, v, 0) for u in grid for v in grid}
    # expected set, route 1: the closed-form rule in integer arithmetic
    by_rule = set()
    longest = 0
    for u, v in points:
        digits = _base_minus_three_digits(u - v)
        longest = max(longest, len(digits))
        if u + v == sum(d * (-1) ** k for k, d in enumerate(digits)):
            by_rule.add(points[u, v])
    # expected set, route 2: decode every digit string that can reach the
    # grid.  The e2 coordinate of a string's value is its base -3 evaluation,
    # and base -3 expansions are unique, so a grid point's expansion is as
    # long as the base -3 expansion of n; |n| <= 100 needs at most 6 digits.
    max_length = 6
    grid_points = set(points.values())
    by_decoding = set()
    for length in range(1, max_length + 1):
        for digits in itertools.product(digit_set(base), repeat=length):
            if length > 1 and digits[-1] == 0:
                continue
            value = decode(DigitString(digits, base))
            if value in grid_points:
                by_decoding.add(value)
    # encode: succeeds and round-trips exactly on the representable points
    encoded = set()
    wrong = cycles = 0
    for x in points.values():
        try:
            digits = encode(x, base)
        except NonTerminationError:
            cycles += 1
            continue
        if decode(digits) == x and all(d in digit_set(base) for d in digits.digits):
            encoded.add(x)
        else:
            wrong += 1
    failures[str(base)] = wrong + len(by_rule ^ encoded) + len(by_rule ^ by_decoding)
    print(f"  radix base {base}: {len(encoded)}/{len(by_rule)} representable points "
          f"round-trip (closed form {len(by_rule)}, decoded strings of length <= "
          f"{max_length} {len(by_decoding)}); {cycles}/{size - len(by_rule)} others "
          f"raise NonTerminationError")
    ok = (all(v == 0 for v in failures.values())
          and len(by_rule) == 197 and longest <= max_length)
    detail = "; ".join(f"{k}: {v} failures" for k, v in failures.items() if v)
    report(11, "radix round trips on [-50,50]^2: seven bases on every point, "
               "-2+j on exactly its 197 finite expansions", ok,
           detail or f"{len(by_rule)} points of -2+j representable, "
                     f"longest base -3 expansion {longest} digits")


def test_criterion_12_conjugation_suite():
    rng = random.Random(10_12)
    ok = True
    for _ in range(1000):
        el = BicomplexElement.from_cartesian(
            *(Fraction(rng.randrange(-60, 61), rng.choice((1, 2, 3))) for _ in range(4)))
        ok = ok and coordinate_recovery_check(el)
        reference = minpoly_bicomplex(el).poly
        ok = ok and all(minpoly_bicomplex(el.conjugate(axis)).poly == reference
                        for axis in "ijk")
        other = BicomplexElement.from_cartesian(
            *(Fraction(rng.randrange(-60, 61), rng.choice((1, 2, 3))) for _ in range(4)))
        ok = ok and (el * other).norm() == el.norm() * other.norm()
        if not ok:
            break
    report(12, "coordinate recovery, conjugate minimal polynomials, norm product", ok)
