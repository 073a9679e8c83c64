"""Exact arithmetic in Z[e_p], integer combinations of complex p-th roots of unity.

Elements are stored on the power basis e^0, e^1, ..., e^(p-2); the redundant
power e^(p-1) is eliminated through 1 + e + ... + e^(p-1) = 0.  That basis is
a Z-module basis of the ring of integers of the p-th cyclotomic field, so two
elements are equal exactly when their coefficient tuples are equal.
"""
from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

from .field import is_odd_prime


def legendre(t: int, p: int) -> int:
    """Quadratic character of the prime field F_p: 0 at 0, +1 on squares, -1 otherwise."""
    t %= p
    if t == 0:
        return 0
    return 1 if pow(t, (p - 1) // 2, p) == 1 else -1


def fold_top(full) -> np.ndarray:
    """Canonical coefficients from counts on e^0 .. e^(p-1) (last axis), for
    one element or many: e^(p-1) = -(1 + e + ... + e^(p-2)) folds the top away."""
    full = np.asarray(full)
    return full[..., :-1] - full[..., -1:]


def format_coeffs(coeffs) -> str:
    """Text of the element with canonical integer coefficients coeffs: its
    nonzero terms c*e^j by increasing j, such as '3 - 2e + e^2', or '0'."""
    parts: list[str] = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if j == 0:
            body = str(mag)
        else:
            unit = "e" if j == 1 else f"e^{j}"
            body = unit if mag == 1 else f"{mag}{unit}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


class CycInt:
    """An element of Z[e_p] with exact integer coefficients."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs) -> None:
        if not is_odd_prime(p):
            raise ValueError(f"root order must be an odd prime, got {p}")
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != p - 1:
            raise ValueError(f"expected {p - 1} coefficients for Z[e_{p}], got {len(cs)}")
        self.p = p
        self.coeffs = cs

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def one(cls, p: int) -> "CycInt":
        return cls.from_int(p, 1)

    @classmethod
    def from_int(cls, p: int, k: int) -> "CycInt":
        return cls(p, (int(k),) + (0,) * (p - 2))

    # ---- ring structure -----------------------------------------------

    def _coerce(self, other) -> "CycInt":
        if isinstance(other, CycInt):
            if other.p != self.p:
                raise ValueError(f"mixed root orders {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return CycInt.from_int(self.p, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "CycInt":
        return CycInt(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):  # scale; the double loop costs O(p^2) steps
            return CycInt(self.p, tuple(a * other for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        full = [0] * p
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    full[(i + j) % p] += a * b
        # object dtype keeps the coefficients unbounded Python integers
        return CycInt(p, fold_top(np.array(full, dtype=object)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CycInt":
        if e < 0:
            raise ValueError("negative powers are not defined in Z[e_p]")
        result = CycInt.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    # ---- cyclotomic structure -------------------------------------------

    def conj(self) -> "CycInt":
        """Complex conjugation, the ring automorphism sending e to e^(-1)."""
        p = self.p
        full = [0] * p
        for j, c in enumerate(self.coeffs):
            full[(p - j) % p] += c
        return CycInt(p, fold_top(np.array(full, dtype=object)))

    def abs_sq(self) -> "CycInt":
        """Squared complex modulus a * conj(a), an element of the real subring."""
        return self * self.conj()

    def to_complex(self) -> complex:
        p = self.p
        return sum(
            c * cmath.exp(2j * cmath.pi * j / p) for j, c in enumerate(self.coeffs) if c
        )

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_rational:
            raise ValueError(f"{self} is not a rational integer")
        return self.coeffs[0]

    # ---- presentation ---------------------------------------------------

    def __str__(self) -> str:
        return format_coeffs(self.coeffs)

    def __repr__(self) -> str:
        return f"CycInt(p={self.p}, {self})"


def root_power(p: int, e: int) -> CycInt:
    """The root of unity e_p^e as a ring element."""
    full = [0] * p
    full[e % p] = 1
    return CycInt(p, fold_top(full))


@lru_cache(maxsize=None)
def gauss_sum(p: int) -> CycInt:
    """Quadratic Gauss sum: the character-weighted sum of all p-th roots of unity.

    Its square is legendre(-1, p) * p, which makes it the exact stand-in for
    sqrt(p) (p = 1 mod 4) or i*sqrt(p) (p = 3 mod 4).
    """
    return CycInt(p, fold_top([legendre(t, p) for t in range(p)]))
