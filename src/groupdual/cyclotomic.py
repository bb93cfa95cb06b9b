"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

Elements are stored as canonical residues modulo the m-th cyclotomic
polynomial, so equality and zero tests are decidable.  All coefficients
are Python ints; nothing here ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence


@dataclass(frozen=True)
class CycPoly:
    """Integer polynomial, coefficients ascending by degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        trimmed = list(self.coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other: "CycPoly") -> "CycPoly":
        if not self.coeffs or not other.coeffs:
            return CycPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return CycPoly(tuple(out))

    def divide_exact(self, divisor: "CycPoly") -> "CycPoly":
        """Exact division by a monic polynomial; remainder must vanish."""
        if not divisor.is_monic():
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - divisor.degree, 0)
        for k in range(len(rem) - 1, divisor.degree - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            quot[k - divisor.degree] = c
            for j, d in enumerate(divisor.coeffs):
                rem[k - divisor.degree + j] -= c * d
        if any(rem):
            raise ValueError("division is not exact")
        return CycPoly(tuple(quot))


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> CycPoly:
    """The m-th cyclotomic polynomial, by exact division of x^m - 1."""
    if m < 1:
        raise ValueError("m must be positive")
    num = CycPoly((-1,) + (0,) * (m - 1) + (1,))
    for d in _divisors(m):
        if d < m:
            num = num.divide_exact(cyclotomic_poly(d))
    return num


@lru_cache(maxsize=None)
def power_height(m: int) -> int:
    """H_m, the largest |coefficient| of x^r mod Phi_m over 0 <= r < m: one
    multiplication by x and one reduction step per r.  It is 1 for m < 105,
    2 at m = 105 and 3 at m = 385."""
    low = cyclotomic_poly(m).coeffs[:-1]
    row = [0] * (len(low) - 1) + [1]
    height = 1
    for _ in range(len(low), m):
        top = row.pop()
        row.insert(0, 0)
        row = [c - top * d for c, d in zip(row, low)]
        height = max(height, *map(abs, row))
    return height


def _reduce(m: int, coeffs: Sequence[int]) -> tuple[int, ...]:
    """Canonical residue of an integer polynomial in zeta_m."""
    # Phi_m is monic, so c x^k = -c x^(k - deg) (Phi_m - x^deg) mod Phi_m.
    low = cyclotomic_poly(m).coeffs[:-1]
    deg = len(low)
    rem = list(coeffs)
    rem += [0] * (deg - len(rem))
    for k in range(len(rem) - 1, deg - 1, -1):
        c = rem[k]
        if c:
            for j, d in enumerate(low, k - deg):
                rem[j] -= c * d
    return tuple(rem[:deg])


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_m] in canonical reduced form."""

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _reduce(self.modulus, self.coeffs))

    @staticmethod
    def zero(m: int) -> "CycInt":
        return CycInt(m, ())

    @staticmethod
    def from_int(m: int, n: int) -> "CycInt":
        return CycInt(m, (n,))

    def _check(self, other: "CycInt") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                "mixed moduli: embed into a common cyclotomic ring first"
            )

    def __add__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return CycInt(self.modulus, tuple(x + y for x, y in zip(a, b)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.modulus, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "CycInt") -> "CycInt":
        return self + (-other)

    def __mul__(self, other: "CycInt | int") -> "CycInt":
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return CycInt.zero(self.modulus)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return CycInt(self.modulus, tuple(out))

    def __rmul__(self, other: int) -> "CycInt":
        return self.scale(other)

    def scale(self, n: int) -> "CycInt":
        return CycInt(self.modulus, tuple(n * c for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def divide_exact(self, n: int) -> "CycInt":
        if n == 0:
            raise ZeroDivisionError("division by zero")
        if any(c % n for c in self.coeffs):
            raise ValueError(
                f"coefficients {self.coeffs} are not all divisible by {n}"
            )
        return CycInt(self.modulus, tuple(c // n for c in self.coeffs))

    def as_int(self) -> int:
        """The value as a rational integer; errors if not one."""
        if any(c != 0 for c in self.coeffs[1:]):
            raise ValueError(f"{self} is not a rational integer")
        return self.coeffs[0] if self.coeffs else 0

    def embed(self, M: int) -> "CycInt":
        """Image under zeta_m = zeta_M^(M/m)."""
        if M % self.modulus != 0:
            raise ValueError("target modulus must be a multiple")
        step = M // self.modulus
        out = [0] * (len(self.coeffs) * step + 1)
        for j, c in enumerate(self.coeffs):
            out[j * step] += c
        return CycInt(M, tuple(out))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
                continue
            base = f"z{self.modulus}" if j == 1 else f"z{self.modulus}^{j}"
            if c == 1:
                parts.append(base)
            elif c == -1:
                parts.append(f"-{base}")
            else:
                parts.append(f"{c}*{base}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def root_power(m: int, e: int) -> CycInt:
    """Canonical form of zeta_m^(e mod m)."""
    if m < 1:
        raise ValueError("m must be positive")
    e %= m
    return CycInt(m, (0,) * e + (1,))
