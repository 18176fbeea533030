"""Qudit Pauli strings with symplectic phase bookkeeping.

Conventions used throughout the package:

- X|j> = |j+1 mod d>, Z|j> = w^j |j> with w = exp(2*pi*i/d), so ZX = w XZ.
- A Pauli string on n qudits is  w^r * prod_j X^(x_j) Z^(z_j)  with the X
  factor written before the Z factor in every tensor slot.  Exponents and the
  phase exponent r live in Z_d.
- Block form of a string is the flat integer row [x_1..x_n | z_1..z_n | r].

Multiplying two strings reorders Z-past-X once per slot, so

    mul(p, q).r = p.r + q.r + sum_j p.z[j] * q.x[j]   (mod d)

and the commutation exponent c with p*q = w^c q*p is

    c = sum_j (p.z[j] * q.x[j] - p.x[j] * q.z[j])     (mod d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlockFormatError, DimensionError, ShapeError, integral
from .gates import check_qudits


def is_prime(d: int) -> bool:
    if d < 2:
        return False
    if d < 4:
        return True
    if d % 2 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Dimension:
    """A qudit dimension 2 <= d <= MAX with its derived constants.

    d_prime is the phase modulus of the Weyl formalism: d for odd d, 2d for
    even d.
    """

    d: int
    MAX = 2 ** 20  # a class constant, not a field: it has no annotation

    def __post_init__(self):
        if not isinstance(self.d, (int, np.integer)) or isinstance(self.d, bool):
            raise DimensionError(f"dimension must be an integer, got {self.d!r}")
        # d' <= 2^21 keeps each sum of n < 2^21 products of two residues < 2^63
        if not 2 <= self.d <= self.MAX:
            raise DimensionError(f"dimension must lie in [2, {self.MAX}], got {self.d}")
        object.__setattr__(self, "d", int(self.d))

    @property
    def is_prime(self) -> bool:
        return is_prime(self.d)

    @property
    def is_odd_prime(self) -> bool:
        return self.d % 2 == 1 and is_prime(self.d)

    @property
    def d_prime(self) -> int:
        return self.d if self.d % 2 == 1 else 2 * self.d

    def omega(self) -> complex:
        return np.exp(2j * np.pi / self.d)

    def tau(self) -> complex:
        # tau^2 = omega; tau has order d_prime.
        return np.exp(1j * np.pi * (self.d * self.d + 1) / self.d)

    def __int__(self) -> int:
        return self.d


def _as_dimension(d) -> Dimension:
    return d if isinstance(d, Dimension) else Dimension(d)


def _frozen_vector(values, d: int, what: str) -> np.ndarray:
    """values mod d as a read-only int64 array; ShapeError for an entry
    that is not an integer."""
    arr = np.atleast_1d(np.asarray(values))
    if arr.dtype.kind not in "biu":
        arr = np.array([integral(v, what, ShapeError) % d for v in arr.ravel()],
                       dtype=np.int64).reshape(arr.shape)
    arr = np.mod(arr.astype(np.int64), d)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PauliString:
    """Immutable n-qudit Pauli string w^r * prod_j X^(x_j) Z^(z_j)."""

    dimension: Dimension
    x: np.ndarray
    z: np.ndarray
    r: int = 0
    n: int = field(init=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (self.dimension.d == other.dimension.d
                and self.r == other.r
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.z, other.z))

    def __hash__(self) -> int:
        return hash((self.dimension.d, self.r,
                     self.x.tobytes(), self.z.tobytes()))

    def __post_init__(self):
        dim = _as_dimension(self.dimension)
        object.__setattr__(self, "dimension", dim)
        x = _frozen_vector(self.x, dim.d, "x")
        z = _frozen_vector(self.z, dim.d, "z")
        if x.shape != z.shape or x.ndim != 1:
            raise ShapeError(f"x and z must be equal-length vectors, got {x.shape} and {z.shape}")
        object.__setattr__(self, "n", int(x.shape[0]))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "r", integral(self.r, "r", ShapeError) % dim.d)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int, d) -> "PauliString":
        dim = _as_dimension(d)
        return cls(dim, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), 0)

    @classmethod
    def single(cls, n: int, d, j: int, x: int = 0, z: int = 0, r: int = 0) -> "PauliString":
        """String that is X^x Z^z on qudit j and identity elsewhere."""
        dim = _as_dimension(d)
        check_qudits("qudit", 1, (j,), n)
        xs = np.zeros(n, dtype=np.int64)
        zs = np.zeros(n, dtype=np.int64)
        xs[j] = integral(x, "x", ShapeError) % dim.d
        zs[j] = integral(z, "z", ShapeError) % dim.d
        return cls(dim, xs, zs, r)

    # -- algebra -----------------------------------------------------------

    def _check_compatible(self, other: "PauliString") -> None:
        if self.dimension.d != other.dimension.d:
            raise DimensionError(
                f"dimension mismatch: {self.dimension.d} vs {other.dimension.d}")
        if self.n != other.n:
            raise ShapeError(f"qudit count mismatch: {self.n} vs {other.n}")

    def mul(self, other: "PauliString") -> "PauliString":
        """Product self*other with the reordering phase tracked exactly."""
        self._check_compatible(other)
        d = self.dimension.d
        cross = int(np.dot(self.z, other.x)) % d
        return PauliString(
            self.dimension,
            (self.x + other.x) % d,
            (self.z + other.z) % d,
            (self.r + other.r + cross) % d,
        )

    def __mul__(self, other: "PauliString") -> "PauliString":
        return self.mul(other)

    def pow(self, k: int) -> "PauliString":
        """k-th power; the slot-reordering phases telescope to k(k-1)/2 * x.z."""
        d = self.dimension.d
        quad = (k * (k - 1) // 2) * int(np.dot(self.x, self.z))
        return PauliString(
            self.dimension,
            (self.x * k) % d,
            (self.z * k) % d,
            (self.r * k + quad) % d,
        )

    def inverse(self) -> "PauliString":
        """Inverse with phase chosen so mul(p, p.inverse()) is identity, phase 0."""
        d = self.dimension.d
        r_inv = (-self.r + int(np.dot(self.z, self.x))) % d
        return PauliString(self.dimension, (-self.x) % d, (-self.z) % d, r_inv)

    def commutation_exponent(self, other: "PauliString") -> int:
        """c with self*other = w^c other*self."""
        self._check_compatible(other)
        d = self.dimension.d
        return int(np.dot(self.z, other.x) - np.dot(self.x, other.z)) % d

    def commutes(self, other: "PauliString") -> bool:
        return self.commutation_exponent(other) == 0

    # -- block form --------------------------------------------------------

    def encode_block(self) -> np.ndarray:
        """Flat row [x_1..x_n | z_1..z_n | r]."""
        return np.concatenate([self.x, self.z, [self.r]]).astype(np.int64)

    @classmethod
    def decode_block(cls, row, d) -> "PauliString":
        dim = _as_dimension(d)
        arr = np.asarray(row, dtype=np.int64)
        if arr.ndim != 1 or arr.shape[0] < 3 or arr.shape[0] % 2 == 0:
            raise BlockFormatError(
                f"block row must be a flat vector of odd length 2n+1, got shape {arr.shape}")
        n = (arr.shape[0] - 1) // 2
        if np.any(arr < 0) or np.any(arr >= dim.d):
            bad = arr[(arr < 0) | (arr >= dim.d)][0]
            raise BlockFormatError(
                f"block entry {bad} out of range [0, {dim.d}) for dimension {dim.d}")
        return cls(dim, arr[:n], arr[n:2 * n], int(arr[2 * n]))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for j in range(self.n):
            a, b = int(self.x[j]), int(self.z[j])
            if a == 0 and b == 0:
                parts.append("I")
                continue
            s = ""
            if a:
                s += "X" if a == 1 else f"X^{a}"
            if b:
                s += "Z" if b == 1 else f"Z^{b}"
            parts.append(s)
        body = " ".join(parts) if parts else "I"
        return body if self.r == 0 else f"w^{self.r} {body}"

    def __repr__(self) -> str:
        return f"PauliString(d={self.dimension.d}, '{self}')"
