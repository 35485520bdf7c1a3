"""Exact arithmetic in a real quadratic field Q(sqrt(D)).

A scalar is stored as p + q*sqrt(D) with p, q rational and D a fixed
square-free integer >= 2.  A scalar with q == 0 is a plain rational and is
compatible with any D.  All comparisons are exact; the float embedding is
only used for reporting.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import MixedRingError

RationalLike = Union[int, Fraction]


def _is_square_free(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


class QuadScalar:
    """An element p + q*sqrt(D) of Q(sqrt(D)), stored exactly."""

    __slots__ = ("p", "q", "D")

    def __init__(self, p: RationalLike, q: RationalLike = 0, D: int = 2):
        self.p = Fraction(p)
        self.q = Fraction(q)
        if self.q != 0 and not _is_square_free(D):
            raise ValueError(f"D must be a square-free integer >= 2, got {D}")
        self.D = D

    # -- construction helpers ---------------------------------------------

    @classmethod
    def sqrtD(cls, D: int = 2) -> "QuadScalar":
        return cls(0, 1, D)

    def _coerce(self, other) -> "QuadScalar":
        if isinstance(other, QuadScalar):
            if other.q != 0 and self.q != 0 and other.D != self.D:
                raise MixedRingError(f"cannot mix sqrt({self.D}) and sqrt({other.D})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadScalar(other, 0, self.D)
        return NotImplemented  # type: ignore[return-value]

    def _common_D(self, other: "QuadScalar") -> int:
        if self.q != 0:
            return self.D
        if other.q != 0:
            return other.D
        return self.D

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadScalar(self.p + o.p, self.q + o.q, self._common_D(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.p, -self.q, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadScalar(self.p - o.p, self.q - o.q, self._common_D(o))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        D = self._common_D(o)
        return QuadScalar(self.p * o.p + D * self.q * o.q,
                          self.p * o.q + self.q * o.p, D)

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        # 1 / (p + q sqrt D) = (p - q sqrt D) / (p^2 - D q^2)
        norm = self.p * self.p - self.D * self.q * self.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt D)")
        return QuadScalar(self.p / norm, -self.q / norm, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- exact order -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(D)."""
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare p^2 against D q^2
        lhs, rhs = p * p, self.D * q * q
        if p > 0:  # q < 0
            if lhs > rhs:
                return 1
            return -1 if lhs < rhs else 0
        # p < 0, q > 0
        if rhs > lhs:
            return 1
        return -1 if rhs < lhs else 0

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def is_rational(self) -> bool:
        return self.q == 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.p == o.p and self.q == o.q

    def __hash__(self):
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.D))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- integer parts -----------------------------------------------------

    def floor(self) -> int:
        """Exact floor, robust near integers."""
        guess = math.floor(float(self))
        # correct the float guess by exact comparison
        while self < guess:
            guess -= 1
        while self >= guess + 1:
            guess += 1
        return guess

    def frac(self) -> "QuadScalar":
        return self - self.floor()

    def mod(self, modulus: "QuadScalar") -> "QuadScalar":
        """Reduce into [0, modulus) for modulus > 0."""
        m = self._coerce(modulus)
        if m.sign() <= 0:
            raise ValueError("modulus must be positive")
        k = (self / m).floor()
        return self - m * k

    # -- misc --------------------------------------------------------------

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(self.D)

    def __repr__(self):
        if self.q == 0:
            return f"QuadScalar({self.p})"
        return f"QuadScalar({self.p} + {self.q}*sqrt({self.D}))"

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        qs = f"{self.q}*sqrt({self.D})"
        if self.p == 0:
            return qs
        return f"{self.p} + {qs}" if self.q > 0 else f"{self.p} - {abs(self.q)}*sqrt({self.D})"

    def to_pair(self) -> list:
        """JSON form: [[p_num, p_den], [q_num, q_den]]."""
        return [[self.p.numerator, self.p.denominator],
                [self.q.numerator, self.q.denominator]]


def as_fraction(x) -> Fraction:
    """x as an exact Fraction.  A float (numpy's included) is read as its
    shortest decimal, so 0.1 is 1/10, never the binary value it stores."""
    return Fraction(repr(float(x))) if isinstance(x, float) else Fraction(x)


def as_quad(x, D: int = 2) -> QuadScalar:
    """Coerce ints, floats (``as_fraction``), Fractions and QuadScalars."""
    if isinstance(x, QuadScalar):
        return x
    return QuadScalar(as_fraction(x), 0, D)
