"""The result record of :func:`bicomplex.rings.factor`.

It is the package's one dataclass, in a module of its own that only
factoring imports, so that no other command line loads ``dataclasses``.
It stays a dataclass because the benchmark's self-test
(``bench/selftest.py``) makes a wrong factorization from a right one with
``dataclasses.replace``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .element import BicomplexElement


@dataclass(frozen=True)
class BicomplexFactorization:
    unit: BicomplexElement
    factors: tuple[tuple[BicomplexElement, int], ...]

    def recompose(self) -> BicomplexElement:
        result = self.unit
        for prime, exponent in self.factors:
            result = result * prime ** exponent
        return result
