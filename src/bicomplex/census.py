"""The bicomplex root census of a squarefree integer polynomial.

A degree-n squarefree polynomial has n distinct complex roots and n^2
distinct bicomplex roots, the pairs alpha*e1 + beta*e2 over complex roots
alpha, beta.  The pairs partition into five loci by which conjugations fix
them: real roots, non-real roots of the i-, j- and k-planes, and the rest.
With r real roots and s conjugate pairs (n = r + 2s) the locus sizes are

    r,   2s (i-plane),   r(r-1) (j-plane),   2s (k-plane),   4s(s+r-1),

and the product of X - psi over all n^2 bicomplex roots psi equals the n-th
power of the monic polynomial.  This module computes the census, enumerates
and classifies the bicomplex roots when the complex roots are Gaussian
rationals, builds the five locus factor polynomials exactly, and provides a
floating-point simultaneous-iteration root finder used as a cross-check
oracle only.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .base import DomainError, _Record
from .element import BicomplexElement, _element
from .minpoly import minpoly_component
from .polys import IntPoly, Poly, is_squarefree, poly_product, sturm_real_root_count
from .scalars import GaussianRational, QuadRational, as_gaussian


class RootConvergenceError(DomainError, ArithmeticError):
    """The numeric root iteration did not converge within its cap."""


class Census(_Record):
    """Locus sizes of the bicomplex root set of a squarefree polynomial, all
    given by its degree and real-root count (see the module docstring)."""

    degree: int
    real_roots: int

    def __post_init__(self):
        n, r = self.degree, self.real_roots
        if not 0 <= r <= n or (n - r) % 2:
            raise ValueError(f"real_roots {r} must be in 0..{n} with {n} - {r} even")

    @property
    def complex_pairs(self) -> int:
        return (self.degree - self.real_roots) // 2

    @property
    def locus_sizes(self) -> tuple[int, int, int, int, int]:
        """Sizes of the real, i-plane, j-plane, k-plane and off-plane loci."""
        r, s = self.real_roots, self.complex_pairs
        return r, 2 * s, r * (r - 1), 2 * s, 4 * s * (s + r - 1)

    i_plane = property(lambda self: self.locus_sizes[1])
    j_plane = property(lambda self: self.locus_sizes[2])
    k_plane = property(lambda self: self.locus_sizes[3])
    off_plane = property(lambda self: self.locus_sizes[4])

    @property
    def total(self) -> int:
        return self.degree * self.degree


def census(p: IntPoly) -> Census:
    """Census of a squarefree integer polynomial.

    The squarefree test is a gcd(p, p') mod a word-size prime (the integer
    remainder sequence when that is not constant), and the real roots are
    counted by continued fractions under Descartes' rule of signs on integer
    Taylor shifts; see :func:`polys.sturm_real_root_count`.
    """
    if p.degree < 1:
        raise ValueError("census needs degree >= 1")
    try:
        real = sturm_real_root_count(p)
    except ValueError:  # the degree is checked above, so p is not squarefree
        raise ValueError("census is defined for squarefree polynomials only") from None
    return Census(p.degree, real)


def census_cyclotomic(n: int) -> Census:
    """Census of Phi_n: its phi(n) roots are roots of unity, and only 1 (for
    n = 1) and -1 (for n = 2) are real."""
    from .numtheory import totient

    if n < 1:
        raise ValueError("cyclotomic census needs n >= 1")
    return Census(totient(n), 1 if n <= 2 else 0)


LOCUS_NAMES = ("real", "plane_i", "plane_j", "plane_k", "generic")


class RootPartition(_Record):
    """The n^2 bicomplex roots, classified by fixing conjugations."""

    real: tuple[BicomplexElement, ...]
    plane_i: tuple[BicomplexElement, ...]
    plane_j: tuple[BicomplexElement, ...]
    plane_k: tuple[BicomplexElement, ...]
    generic: tuple[BicomplexElement, ...]

    def sizes(self) -> tuple[int, int, int, int, int]:
        return (len(self.real), len(self.plane_i), len(self.plane_j),
                len(self.plane_k), len(self.generic))


def _checked_roots(roots) -> tuple[tuple[QuadRational, ...], list[int]]:
    """The roots as Gaussian rationals, and the index of each one's conjugate.

    Raises ValueError unless the roots lie in Q(i), are distinct and are
    closed under conjugation.  Each root is keyed by the integers of its
    reduced parts, (re numerator, re denominator, im numerator, im
    denominator), so equal values have equal keys, and a conjugate's key is
    the one with the im numerator negated."""
    roots = tuple(map(as_gaussian, roots))
    keys = []
    for root in roots:
        re, im = root.re, root.im
        keys.append((re.numerator, re.denominator, im.numerator, im.denominator))
    index = {key: k for k, key in enumerate(keys)}
    if len(index) != len(roots):
        raise ValueError("duplicate roots in root set")
    conj = []
    for root, (a, b, c, d) in zip(roots, keys):
        if (k := index.get((a, b, -c, d))) is None:
            raise ValueError(f"root set is not closed under conjugation: {root} unpaired")
        conj.append(k)
    return roots, conj


def classify_pair(alpha: QuadRational, beta: QuadRational) -> str:
    """Locus of alpha*e1 + beta*e2 among the five conjugation classes."""
    if alpha == beta:
        return "real" if alpha.im == 0 else "plane_i"
    if alpha.im == 0 and beta.im == 0:
        return "plane_j"
    if beta == alpha.conjugate():
        return "plane_k"
    return "generic"


def enumerate_bicomplex_roots(roots) -> RootPartition:
    """All pairs alpha*e1 + beta*e2 over a conjugation-closed set of roots in
    Q(i); rationals are accepted as Gaussian rationals.

    Each locus lists its pairs in the order of a loop over alpha, then beta.
    The rule is :func:`classify_pair`, applied to indices: each root's
    realness and the index of its conjugate are found once.  The roots are
    checked Gaussian rationals, so each pair is built without the
    constructor's checks.
    """
    roots, conj = _checked_roots(roots)
    real = [not root.im for root in roots]
    buckets: dict[str, list[BicomplexElement]] = {name: [] for name in LOCUS_NAMES}
    for i, alpha in enumerate(roots):
        for j, beta in enumerate(roots):
            if i == j:
                name = "real" if real[i] else "plane_i"
            elif real[i] and real[j]:
                name = "plane_j"
            elif j == conj[i]:
                name = "plane_k"
            else:
                name = "generic"
            buckets[name].append(_element(alpha, beta))
    return RootPartition(**{name: tuple(vals) for name, vals in buckets.items()})


class LocusFactors(_Record):
    """The five monic polynomials collecting X - psi over each locus.

    Their product equals the n-th power of the monic input polynomial; an
    empty locus contributes the constant 1.
    """

    real: Poly
    plane_i: Poly
    plane_j: Poly
    plane_k: Poly
    generic: Poly

    def product(self) -> Poly:
        """The product of the five factors by Gauss's lemma (see
        :func:`polys.poly_product`): each is split once into its content and
        primitive part, and the primitive parts are multiplied as integer
        polynomials."""
        return poly_product((self.real, self.plane_i, self.plane_j, self.plane_k, self.generic))


def locus_factors(roots, lead: int = 1) -> LocusFactors:
    """Exact locus factor polynomials from a conjugation-closed set of roots
    in Q(i); rationals are accepted as Gaussian rationals.

    ``lead`` is the leading coefficient of the degree-n polynomial whose
    roots these are; the factors themselves are monic, so the full product
    identity reads lead^n * (product over all n^2 roots of X - psi)
    = (lead * prod(X - root))^n.

    By Gauss's lemma each factor is a monic multiple of a product of powers
    of two primitive integer polynomials: the product R of the minimal
    polynomials of the r real roots and the product P of those of the s
    conjugate pairs.  The factors are R, P, R^(r-1), P and
    R^(2s) * P^(r+2s-2), computed as :class:`IntPoly` and made monic once.
    The powers of R and P are built by Miller's recurrence (see
    :meth:`IntPoly.__pow__`), each coefficient from the ones below it and the
    few small coefficients of R or P; only R^(2s) * P^(r+2s-2) multiplies two
    large polynomials.
    """
    roots, _ = _checked_roots(roots)
    if lead <= 0:
        raise ValueError("leading coefficient must be positive")
    real_f = pair_f = one = IntPoly._make((1,))
    for root in roots:
        if root.im == 0:
            real_f *= minpoly_component(root)
        elif root.im > 0:
            pair_f *= minpoly_component(root)
    r, s = real_f.degree, pair_f.degree // 2

    plane_j = one if r == 0 else real_f ** (r - 1)
    generic = one if s == 0 else real_f ** (2 * s) * pair_f ** (r + 2 * (s - 1))
    pair_monic = pair_f.monic()
    return LocusFactors(real=real_f.monic(), plane_i=pair_monic, plane_j=plane_j.monic(),
                        plane_k=pair_monic, generic=generic.monic())


def gaussian_root_set(polys) -> list[QuadRational] | None:
    """Union of the Q(i)-roots of degree <= 2 integer polynomials.

    Returns None when some polynomial does not split over Q(i).
    """
    out: list[QuadRational] = []
    seen = set()
    for p in polys:
        roots = low_degree_gaussian_roots(p)
        if roots is None:
            return None
        for root in roots:
            if root not in seen:
                seen.add(root)
                out.append(root)
    return out


def sqrt_rational(value: Fraction) -> Fraction | None:
    """Exact positive square root of a nonnegative rational, if it exists."""
    if value < 0:
        raise ValueError("negative value")
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def low_degree_gaussian_roots(p: IntPoly) -> list[QuadRational] | None:
    """Roots of a degree 1 or 2 integer polynomial inside Q(i), else None."""
    if p.degree == 1:
        c0, c1 = p.coeffs
        return [GaussianRational(Fraction(-c0, c1), 0)]
    if p.degree != 2:
        raise ValueError("only degrees 1 and 2 are supported")
    c0, c1, c2 = (Fraction(c) for c in p.coeffs)
    disc = c1 * c1 - 4 * c2 * c0
    root = sqrt_rational(abs(disc))
    if root is None:
        return None
    mid, half = -c1 / (2 * c2), root / (2 * c2)
    if disc >= 0:
        return [GaussianRational(mid + half), GaussianRational(mid - half)]
    return [GaussianRational(mid, half), GaussianRational(mid, -half)]


MAX_ITERATIONS = 500
TOL = 1e-10


def numeric_roots(p: IntPoly) -> list[complex]:
    """Approximate complex roots by simultaneous (Durand-Kerner) iteration.

    A floating cross-check oracle only; exact computations never consume its
    output.  Starts from perturbed points near the unit circle and stops when
    the largest update drops below TOL, raising RootConvergenceError at the
    iteration cap or as soon as an iterate overflows to inf or NaN.  Raises
    ValueError on a constant or a polynomial that is not squarefree.
    """
    if p.degree < 1:
        raise ValueError("roots needs degree >= 1")
    if not is_squarefree(p):
        raise ValueError("roots is defined for squarefree polynomials only")
    n = p.degree
    lead = float(p.lead)
    monic = [float(c) / lead for c in p.coeffs]

    def value(z: complex) -> complex:
        acc = 0j
        for c in reversed(monic):
            acc = acc * z + c
        return acc

    guesses = [complex(0.4, 0.9) ** k for k in range(1, n + 1)]
    for iteration in range(MAX_ITERATIONS):
        biggest = 0.0
        updated = []
        for i, z in enumerate(guesses):
            denom = 1.0 + 0j
            for j, w in enumerate(guesses):
                if i != j:
                    denom *= (z - w)
            step = value(z) / denom
            moved = z - step
            if not cmath.isfinite(moved):
                raise RootConvergenceError(f"non-finite iterate at iteration {iteration + 1}")
            biggest = max(biggest, abs(step))
            updated.append(moved)
        guesses = updated
        if biggest < TOL:
            _certify_roots(guesses, value)
            return sorted(guesses, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    raise RootConvergenceError(f"no convergence after {MAX_ITERATIONS} iterations")


def _certify_roots(roots: list[complex], value):
    """Residual-smallness and separation heuristic for converged iterates."""
    for i, z in enumerate(roots):
        scale = max(1.0, abs(z)) ** len(roots)
        if abs(value(z)) > 1e6 * TOL * scale:
            raise RootConvergenceError(f"residual too large at {z}")
        for w in roots[i + 1:]:
            if abs(z - w) <= 2 * TOL:
                raise RootConvergenceError(f"roots {z} and {w} did not separate")


def numeric_real_count(p: IntPoly) -> int:
    """Number of roots reported by the numeric finder with |Im| < 1e-8."""
    return sum(1 for z in numeric_roots(p) if abs(z.imag) < 1e-8)
