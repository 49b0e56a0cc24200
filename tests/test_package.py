"""The package namespace and what each import loads.

``import bicomplex`` resolves its public names on first use, and each CLI
subcommand imports only the modules it runs.  What an import loads depends
on what was imported before, so every case runs in a fresh interpreter.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bicomplex
from bicomplex import cli

SRC = str(Path(bicomplex.__file__).resolve().parent.parent)

# The public names, as the package listed them when it imported every module.
PUBLIC_NAMES = [
    "BicomplexElement", "BicomplexFactorization", "BicomplexIdeal", "Census",
    "CoefficientTable", "ComponentIdeal", "DegenerateIdealError", "DigitString", "E1", "E2",
    "ExtensionDescriptor", "GAUSSIAN_FIELD", "GaussBase", "GaussianRational", "HypGaussBase",
    "HypSplitBase", "I_UNIT", "IntPoly", "J_UNIT", "K_UNIT", "LocusFactors", "MinPolyResult",
    "MixedScalarError", "NonTerminationError", "NullConeError", "ONE", "Poly",
    "PrimeElementCheck", "PrimeProfile", "QB", "QH", "Q_FIELD", "QuadRational",
    "QuadraticField", "QuarticCoefficients", "RationalField", "RootPartition",
    "UnitGroupInfo", "UnitInputError", "UnsupportedRingError", "WorkBudgetError", "ZERO",
    "brute_force_ideal_count", "canonical_associate", "census", "census_cyclotomic",
    "coefficient_table", "content_primitive", "cyclotomic", "decode", "digit_set",
    "dirichlet_convolve", "discriminant", "discriminant_by_trace_matrix", "element",
    "encode", "enumerate_bicomplex_roots", "eval_at_bicomplex", "factor", "factor_gaussian",
    "gaussian", "ideal_norm", "integral_basis", "is_gaussian_prime",
    "is_integral", "is_prime_element", "is_prime_ideal", "is_squarefree", "is_unit", "jacobi_r",
    "locus_factors", "minpoly", "minpoly_bicomplex", "minpoly_component", "numeric_roots",
    "numtheory", "poly_gcd", "polys", "principal_ideal", "quartic_charpoly", "radix",
    "rational_prime_profile", "rings", "scalars", "sturm_real_root_count", "unit_group",
    "zeta", "zeta_partial",
]
SUBMODULES = {"element", "gaussian", "minpoly", "numtheory", "polys", "radix", "rings",
              "scalars", "zeta"}


def fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports bicomplex from this
    source tree; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(code: str) -> set[str]:
    """The bicomplex modules that are loaded after running ``code``."""
    out = fresh(f"import sys\n{code}\n"
                "print(*sorted(m for m in sys.modules if m.startswith('bicomplex')))")
    return set(out.split())


def test_import_bicomplex_loads_no_submodule():
    assert loaded_after("import bicomplex") == {"bicomplex"}


def test_import_cli_loads_only_the_element_layer():
    """The error and record bases live in ``base``, so no factoring code loads."""
    assert loaded_after("import bicomplex.cli") == {
        "bicomplex", "bicomplex.cli", "bicomplex.element", "bicomplex.scalars",
        "bicomplex.base"}


@pytest.mark.parametrize("argv, unloaded", [
    (["disc", "--L", "QB"], {"census", "polys", "minpoly", "zeta", "radix", "gaussian"}),
    (["minpoly", "1+i+j-k"], {"rings", "gaussian", "zeta", "radix", "census", "numtheory"}),
    (["units", "--L", "QB"], {"gaussian"}),
    (["zeta", "--K", "Qh", "--s", "2", "--N", "100"], {"gaussian"}),
    (["decompose", "1+i+j-k"], {"numtheory"}),
    (["norm", "[2, 2*i]"], {"numtheory"}),
    (["radix-encode", "[7, -4]", "--base", "split:-2"], {"numtheory"}),
])
def test_cli_subcommand_loads_only_its_modules(argv, unloaded):
    loaded = loaded_after(f"from bicomplex.cli import main\nassert main({argv!r}) == 0")
    assert not loaded & {f"bicomplex.{name}" for name in unloaded}


# One README command line for each subcommand.
README_LINES = [
    ["minpoly", "1+i+j-k"], ["decompose", "1+i+j-k"], ["conj", "1+i+j-k", "--axis", "j"],
    ["norm", "[2, 2*i]"], ["charpoly4", "1+i+j-k"],
    ["census", "--poly", "X^3 - 2*X^2 + 4*X - 8"], ["roots", "--poly", "X^2 + 1"],
    ["units", "--L", "QB"], ["disc", "--L", "QB"], ["ideal-count", "--K", "QB", "--max", "20"],
    ["zeta", "--K", "Qh", "--s", "2", "--N", "10000"],
    ["factor", "[6, 35]", "--L", "Qh"], ["factor", "5", "--L", "QB"],
    ["primes-profile", "3", "--L", "QB"],
    ["radix-encode", "[7, -4]", "--base", "split:-2"],
    ["radix-decode", "--base", "split:-2", "--digits", "1 4 3 0 3 5"],
]

# dataclasses (with inspect, which it imports) was most of the CLI's start-up;
# only what a bare ``import argparse, fractions`` loads may be there.
HEAVY = "heavy = ('dataclasses', 'inspect')\nbefore = {m for m in heavy if m in sys.modules}\n"
NEW_HEAVY = "sorted(m for m in heavy if m in sys.modules and m not in before)"


def test_cli_loads_no_dataclasses():
    out = fresh(f"import sys, argparse, fractions\n{HEAVY}"
                "from bicomplex.cli import main\n"
                f"codes = [main(argv) for argv in {README_LINES!r}]\n"
                f"print(codes, {NEW_HEAVY})")
    assert out.splitlines()[-1] == f"{[0] * len(README_LINES)} []"
    every = next(a.choices for a in cli.build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in README_LINES} == set(every)


def test_factoring_loads_no_dataclasses():
    """The factorization record is a ``base._Record`` like the rest."""
    out = fresh(f"import sys, fractions\n{HEAVY}"
                "import bicomplex\n"
                "from bicomplex.element import BicomplexElement as B\n"
                "from bicomplex.scalars import GaussianRational as G\n"
                "f = bicomplex.factor(B(G(45, 55), G(58, 52)), bicomplex.QB)\n"
                "g = bicomplex.factor(B(6, 35), bicomplex.QH)\n"
                "p = bicomplex.rational_prime_profile(3, bicomplex.QB)\n"
                "q = bicomplex.rational_prime_profile(5, bicomplex.QH)\n"
                "assert f.recompose() == B(G(45, 55), G(58, 52)) and g.recompose() == B(6, 35)\n"
                "assert p.semiprime and q.semiprime\n"
                f"print(type(f).__module__, {NEW_HEAVY})")
    assert out.strip() == "bicomplex.rings []"


def test_public_names():
    assert bicomplex.__all__ == PUBLIC_NAMES
    listed = dir(bicomplex)
    for name in PUBLIC_NAMES:
        value = getattr(bicomplex, name)
        assert name in listed
        if name in SUBMODULES:
            assert value is sys.modules[f"bicomplex.{name}"]
        else:  # a function, a class or an instance of one of the package's classes
            assert value is getattr(sys.modules[value.__module__], name)
    with pytest.raises(AttributeError):
        bicomplex.no_such_name


def test_star_import():
    out = fresh("from bicomplex import *\nprint(sorted(n for n in dir() if not n.startswith('_')))")
    assert out.strip() == repr(PUBLIC_NAMES)


@pytest.mark.parametrize("code", [
    "import bicomplex.census\nfrom bicomplex import census_cyclotomic",
    "from bicomplex import census_cyclotomic\nimport bicomplex.census",
    "from bicomplex import census_cyclotomic, census\nfrom bicomplex.census import census",
])
def test_census_is_the_function_whatever_the_import_order(code):
    out = fresh(f"{code}\nimport sys, bicomplex\n"
                "print(bicomplex.census is sys.modules['bicomplex.census'].census)")
    assert out.strip() == "True"
