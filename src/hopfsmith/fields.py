"""Exact ground fields: the rationals (characteristic 0) and prime fields F_p.

Scalars are plain Python objects, not wrappers: ``Fraction`` over the
rationals, ``int`` reduced to ``[0, p)`` over F_p.  Both are canonical, so two
scalars are equal exactly when ``a == b`` and zero exactly when ``not a``.
Q scalars are ``Fraction`` at every API boundary; kernels may use scaled ints.
Every routine in the package receives the ambient :class:`FieldSpec`
explicitly and never touches floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import isqrt

Scalar = object  # Fraction (char 0) or int (char p)

_MAX_PRIME = 2**31
_BIG = 10**4000  # int() and str() convert at most 4,300 digits unless the limit is raised
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    r = isqrt(p)
    while d <= r:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The ground field K: ``characteristic == 0`` means Q, a prime p means F_p."""

    characteristic: int = 0

    def __post_init__(self):
        c = self.characteristic
        if c and (c >= _MAX_PRIME or not _is_prime(c)):
            raise ValueError(f"characteristic must be 0 or a prime below 2^31, got {c}")
        # the constants are shared, not rebuilt per access (scalars are immutable)
        object.__setattr__(self, "zero", 0 if c else _Q_ZERO)
        object.__setattr__(self, "one", 1 if c else _Q_ONE)

    # -- arithmetic --------------------------------------------------------
    def from_int(self, k: int) -> Scalar:
        if self.characteristic == 0:
            return Fraction(k)
        return k % self.characteristic

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        if self.characteristic == 0:
            return a + b
        return (a + b) % self.characteristic

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        if self.characteristic == 0:
            return a - b
        return (a - b) % self.characteristic

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        if self.characteristic == 0:
            return a * b
        return (a * b) % self.characteristic

    def neg(self, a: Scalar) -> Scalar:
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def inv(self, a: Scalar) -> Scalar:
        if self.characteristic == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(a)
        if a % self.characteristic == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.characteristic - 2, self.characteristic)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    # -- predicates and conversion ------------------------------------------
    def is_zero(self, a: Scalar) -> bool:
        return not a

    def eq(self, a: Scalar, b: Scalar) -> bool:
        return a == b

    def parse(self, obj) -> Scalar:
        """Read a scalar from its JSON form: an int, or its ASCII decimal string
        ``-?[0-9]+``, or over Q a ``-?[0-9]+/[0-9]+`` string with a nonzero
        denominator; anything else raises ValueError naming ``obj``."""
        if isinstance(obj, bool):
            raise ValueError(f"cannot parse a scalar from the boolean {obj!r}")
        p = self.characteristic
        if isinstance(obj, str) and re.fullmatch(
                r"-?[0-9]+" if p else r"-?[0-9]+(/0*[1-9][0-9]*)?", obj):
            # Decimal reads a numeral of any length, int() only up to 4,300 digits
            obj = Fraction(*(int(Decimal(k)) for k in obj.split("/")))
            return int(obj) % p if p else obj
        if isinstance(obj, int):
            return obj % p if p else Fraction(obj)
        raise ValueError(f"cannot parse {f'F_{p}' if p else 'rational'} scalar from {obj!r}")

    def to_json(self, a: Scalar):
        if self.characteristic == 0:
            # past the digits str() writes, Decimal writes a numeral string parse reads back
            num, den = (k if -_BIG < k < _BIG else str(Decimal(k))
                        for k in Fraction(a).as_integer_ratio())
            return num if den == 1 else f"{num}/{den}"
        return int(a) % self.characteristic


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)
