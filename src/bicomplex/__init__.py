"""Exact arithmetic of bicomplex algebraic numbers.

The package provides the bicomplex element type with its idempotent
decomposition, conjugations and norm; minimal polynomials and the quartic
characteristic polynomial; the bicomplex root census with exact locus
factors; rings of integers of bicomplex extensions with discriminants, unit
groups and unique factorization; ideal counting with Dirichlet convolution
and truncated zeta sums; and radix codecs for hyperbolic and Gaussian
integers.  A command line front end lives in :mod:`bicomplex.cli`.

Importing the package loads none of its modules: each public name is
resolved on first use, by importing the module that defines it (PEP 562).
"""

import importlib as _importlib
import sys as _sys

# The public names, by the module that defines them.
_EXPORTS = {
    "census": ("Census", "LocusFactors", "RootPartition", "census", "census_cyclotomic",
               "enumerate_bicomplex_roots", "locus_factors", "numeric_roots"),
    "element": ("BicomplexElement", "E1", "E2", "I_UNIT", "J_UNIT", "K_UNIT",
                "NullConeError", "ONE", "ZERO"),
    "gaussian": ("factor_gaussian", "is_gaussian_prime"),
    "minpoly": ("MinPolyResult", "QuarticCoefficients", "eval_at_bicomplex",
                "minpoly_bicomplex", "minpoly_component", "quartic_charpoly"),
    "numtheory": ("WorkBudgetError",),
    "polys": ("IntPoly", "Poly", "content_primitive", "cyclotomic", "is_squarefree",
              "poly_gcd", "sturm_real_root_count"),
    "radix": ("DigitString", "GaussBase", "HypGaussBase", "HypSplitBase",
              "NonTerminationError", "decode", "digit_set", "encode"),
    "rings": ("BicomplexFactorization", "ExtensionDescriptor", "GAUSSIAN_FIELD",
              "PrimeElementCheck", "PrimeProfile", "QB", "QH", "Q_FIELD", "QuadraticField",
              "RationalField", "UnitGroupInfo", "UnitInputError", "UnsupportedRingError",
              "canonical_associate", "discriminant", "discriminant_by_trace_matrix", "factor",
              "integral_basis", "is_integral", "is_prime_element", "is_unit",
              "rational_prime_profile", "unit_group"),
    "scalars": ("GaussianRational", "MixedScalarError", "QuadRational"),
    "zeta": ("BicomplexIdeal", "CoefficientTable", "ComponentIdeal", "DegenerateIdealError",
             "brute_force_ideal_count", "coefficient_table", "dirichlet_convolve",
             "ideal_norm", "is_prime_ideal", "jacobi_r", "principal_ideal", "zeta_partial"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# The exported names and the modules themselves; ``census`` is the function.
__all__ = sorted(_MODULE_OF.keys() | _EXPORTS.keys())


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _importlib.import_module(f"{__name__}.{module or name}")
    if module is not None:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__))


class _Package(type(_sys)):
    """The import system binds each submodule on its package once loaded;
    a submodule that shares its name with an export (``census``) binds the
    export instead, so ``bicomplex.census`` stays the function."""

    def __setattr__(self, name, value):
        if name in _MODULE_OF and isinstance(value, type(_sys)):
            value = getattr(value, name)
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
