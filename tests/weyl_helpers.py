"""Weyl-element algebra that only the tests use: products, powers and
canonical coordinates of phase-tracked elements tau^f W_v, the Weyl form of
a PauliString, and the product of a WeylTableau's generators.

See quditsim.weyl for the conventions: W_(a,b) = tau^(-ab) Z^a X^b, and a
row v = (a_1..a_n | b_1..b_n) is taken mod d'.
"""

import numpy as np

from quditsim.pauli import Dimension, PauliString


def weyl_mul(f1: int, v1: np.ndarray, f2: int, v2: np.ndarray, dim: Dimension):
    """Product of two phase-tracked Weyl elements on the same register."""
    dp = dim.d_prime
    n = len(v1) // 2
    f = f1 + f2 + int(v1[:n] @ v2[n:]) - int(v2[:n] @ v1[n:])
    return f % dp, (v1 + v2) % dp


def weyl_pow(f: int, v: np.ndarray, k: int, dim: Dimension):
    dp = dim.d_prime
    return (k * f) % dp, (k * v) % dp


def weyl_canonical(f: int, v: np.ndarray, dim: Dimension):
    """Fold coordinates into [0, d); the d-multiples become phase."""
    d, dp = dim.d, dim.d_prime
    n = len(v) // 2
    base = v % d
    lift = (v - base) % dp
    if not lift.any():
        return f % dp, base
    u = lift // d
    corr = int(base[:n] @ u[n:]) + int(base[n:] @ u[:n]) + d * int(u[:n] @ u[n:])
    return (f - d * corr) % dp, base


def weyl_from_pauli(p: PauliString):
    """Coordinates and tau phase of w^r prod X^x Z^z.

    Per slot X^x Z^z = omega^(-zx) Z^z X^x = tau^(-xz) W_(z,x), and the
    omega phase prefactor contributes two tau units per power.
    """
    v = np.concatenate([p.z, p.x]).astype(np.int64)
    f = (2 * p.r - int(p.x @ p.z)) % p.dimension.d_prime
    return f, v % p.dimension.d_prime


def weyl_product(tab, y):
    """Phase and coordinates of prod_i generator_i^y_i of a WeylTableau, in
    row order."""
    f, v = 0, np.zeros(2 * tab.n, dtype=np.int64)
    for i, yi in enumerate(y):
        gf, gv = weyl_pow(int(tab.r[i]), tab.coords[i], int(yi), tab.dimension)
        f, v = weyl_mul(f, v, gf, gv, tab.dimension)
    return f, v


def set_weyl_rows(tab, rows) -> None:
    """Make the (phase, coordinates) pairs rows the generators of tab."""
    tab.coords = np.array([v for _, v in rows], dtype=np.int64).reshape(
        len(rows), 2 * tab.n)
    tab.r = np.array([f for f, _ in rows], dtype=np.int64)
