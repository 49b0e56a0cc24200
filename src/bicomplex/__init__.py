"""Exact arithmetic of bicomplex algebraic numbers.

The package provides the bicomplex element type with its idempotent
decomposition, conjugations and norm; minimal polynomials and the quartic
characteristic polynomial; the bicomplex root census with exact locus
factors; rings of integers of bicomplex extensions with discriminants, unit
groups and unique factorization; ideal counting with Dirichlet convolution
and truncated zeta sums; and radix codecs for hyperbolic and Gaussian
integers.  A command line front end lives in :mod:`bicomplex.cli`.
"""

from .census import (
    Census,
    LocusFactors,
    RootPartition,
    census,
    census_cyclotomic,
    enumerate_bicomplex_roots,
    locus_factors,
    numeric_roots,
)
from .element import (
    BicomplexElement,
    E1,
    E2,
    I_UNIT,
    J_UNIT,
    K_UNIT,
    NullConeError,
    ONE,
    ZERO,
)
from .gaussian import factor_gaussian, is_gaussian_prime
from .minpoly import (
    MinPolyResult,
    QuarticCoefficients,
    eval_at_bicomplex,
    minpoly_bicomplex,
    minpoly_component,
    quartic_charpoly,
)
from .numtheory import WorkBudgetError
from .polys import (
    IntPoly,
    Poly,
    content_primitive,
    cyclotomic,
    is_squarefree,
    poly_gcd,
    sturm_real_root_count,
)
from .radix import (
    DigitString,
    GaussBase,
    HypGaussBase,
    HypSplitBase,
    NonTerminationError,
    decode,
    digit_set,
    encode,
)
from .rings import (
    BicomplexFactorization,
    ExtensionDescriptor,
    GAUSSIAN_FIELD,
    PrimeElementCheck,
    PrimeProfile,
    QB,
    QH,
    Q_FIELD,
    QuadraticField,
    RationalField,
    UnitGroupInfo,
    UnitInputError,
    UnsupportedRingError,
    canonical_associate,
    discriminant,
    discriminant_by_trace_matrix,
    factor,
    integral_basis,
    is_integral,
    is_prime_element,
    is_unit,
    rational_prime_profile,
    unit_group,
)
from .scalars import GaussianRational, MixedScalarError, QuadRational
from .zeta import (
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

__all__ = [name for name in dir() if not name.startswith("_")]
