"""What every module of the package shares: the error bases and the record base.

``DomainError`` is the marker base of the errors that mean "outside the
domain", and ``WorkBudgetError`` the one raised when an operation needs more
than its work budget.  ``_Record`` is the base of the package's immutable
result records (``Census``, ``UnitGroupInfo``, ``Poly``,
``BicomplexFactorization`` and the rest), which stands in for frozen
dataclasses so that no import of the package loads ``dataclasses`` (and with
it ``inspect``).  Records are checked in ``__post_init__``; ``_Record._make``
is for values that pass by construction.

The module imports nothing, so the element layer and the command line load it
without loading the factoring code of ``numtheory``, which re-exports these names.
"""
from __future__ import annotations


class DomainError(Exception):
    """Marker base of the errors that mean the input lies outside the domain
    of an operation rather than being malformed; each also keeps a builtin
    base, so ``except ZeroDivisionError`` and the like still catch it."""


class WorkBudgetError(DomainError, ArithmeticError):
    """An operation needs more than its work budget: ``RHO_STEP_LIMIT`` rho
    steps to factor an integer, ``polys.SQUAREFREE_WORK_LIMIT`` coefficient
    updates to test a polynomial for squarefreeness,
    ``polys.ISOLATION_WORK_LIMIT`` to count real roots,
    ``rings.PELL_BIT_LIMIT`` bits for a fundamental unit,
    ``zeta.TABLE_LENGTH_LIMIT`` entries for an ideal-count table, or
    ``polys.DEGREE_LIMIT`` for the degree of a polynomial literal or a
    cyclotomic polynomial."""


class _Record:
    """An immutable record whose fields are the annotated names of its class,
    in order; a value given in the class body is that field's default.

    As with a frozen dataclass: ``__init__`` takes the fields by position or
    name and then runs the class's ``__post_init__`` checks, the fields live
    in the instance ``__dict__`` and cannot be assigned or deleted, records
    are equal when they are of one class with equal fields, the hash is that
    of the field tuple, and the repr is ``Name(field=value, ...)``.  A subclass
    checks its fields in ``__post_init__`` and defines no ``__init__``;
    ``_make`` skips the checks, so it is only for values that hold them by
    construction (a product of primitive polynomials is primitive, by Gauss's
    lemma), while outside input goes through ``__init__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} has {len(cls._fields)} fields, not {len(args)}")
        values = dict(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls.__dict__:
                values[name] = cls.__dict__[name]
            else:
                raise TypeError(f"{cls.__name__} needs a value for {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} has no field {next(iter(kwargs))!r}, "
                            f"or it was given twice")
        for name, value in values.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _make(cls, *values):
        """The record of its field values, given in order, without ``__post_init__``;
        set one by one, as in ``__init__``, they keep CPython's compact instance dict."""
        record = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(record, name, value)
        return record

    def __post_init__(self):
        """Checks of the fields, run by ``__init__``; none unless overridden."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"
