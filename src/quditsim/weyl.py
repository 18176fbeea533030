"""Stabilizer simulation for arbitrary qudit dimension via Weyl operators.

A single-qudit Weyl operator is W_(a,b) = tau^(-ab) Z^a X^b with
tau = exp(i*pi*(d^2+1)/d); tau^2 = omega and tau has order d' (d for odd d,
2d for even d).  An n-qudit element is tau^phi W_v with coordinate row
v = (a_1..a_n | b_1..b_n) taken mod d'.  Products and powers are clean:

    (tau^f W_v)(tau^g W_w) = tau^(f+g+<v,w>) W_(v+w),  <v,w> = a.b' - a'.b
    (tau^f W_v)^k          = tau^(kf) W_(kv)

Coordinates d apart describe the same operator up to sign:

    W_(v + d*u) = tau^(-d(a.ub + b.ua + d*ua.ub)) W_v,  u = (ua | ub),

so every W_(d e_i) is the identity.

The state is at most 2n phase-tracked generators of the stabilizer group:
composite d may need more than n (for d=4, (|0>+|2>)/sqrt(2) needs both X^2
and Z^2), so there is no destabilizer pairing.  A Z measurement of qudit j
is Euclidean row reduction: the row with the smallest entry in a column
is multiplied into every other row nonzero there at once (Aaronson &
Gottesman's whole-row update) until one row, the pivot, is left; the pivot
then becomes its smallest power that is 0 there (Howell's completion), so
the rows span every element that is 0 in the cleared columns.
Eliminating qudit j's X column mod d leaves the subgroup commuting with Z_j.
If the pivot's X_j entry is a unit mod d, the support is all of Z_d and the
rows left are that subgroup.  Otherwise they are echeloned mod d' with the
W_(d e_i), column j last: the last pivot is the smallest Z_j power in the
group and fixes the outcome support, and the other pivots span the rest.
A random outcome k keeps those rows that are not the identity and adds
tau^(-2k) Z_j.

A deterministic measurement leaves the generators as they are.  A random
one records as pivot the row left nonzero in qudit j's X column, mod d;
frames.compile_circuit reads the outcome map off these pivots and one run
that draws every random outcome as the lowest one in its support.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .errors import ShapeError, integral
from .pauli import _as_dimension
# measurement uses neither; tracers and tests patch these names here
from .snf import kernel_mod, solve_mod  # noqa: F401
from .tableau import Register


class WeylTableau(Register):
    """Phase-tracked stabilizer generators for any qudit dimension d >= 2.

    Row i is tau^r[i] W_coords[i]; every row is a stabilizer generator.
    """

    def __init__(self, n: int, d):
        dim = _as_dimension(d)
        n = integral(n, "qudit count", ShapeError, minimum=1)
        self.dimension = dim
        self.d = dim.d
        self.dp = dim.d_prime
        self.n = n
        # rows start as the Z_j generators of |0...0>
        self.coords = np.eye(n, 2 * n, dtype=np.int64)
        self.r = np.zeros(n, dtype=np.int64)
        self.measurements_done = 0

    def to_array(self) -> np.ndarray:
        """Debug dump: phase row, then Z block, then X block, one generator
        per column."""
        n = self.n
        return np.vstack([self.r[None, :],
                          self.coords[:, :n].T,
                          self.coords[:, n:].T])

    def check_invariants(self) -> None:
        d, n = self.d, self.n
        a, b = self.coords[:, :n], self.coords[:, n:]
        comm = (a @ b.T - b @ a.T) % d
        if np.any(comm):
            raise ShapeError("stabilizer generators do not commute")

    # -- gates ---------------------------------------------------------------

    def _apply(self, gate, qudits) -> None:
        # a coordinate row is (z | x): the Z-block comes first
        n, dp, C = self.n, self.dp, self.coords
        if gate.arity == 1:
            (j,) = qudits
            x, z = C[:, n + j], C[:, j]
            df = gate.tau(x, z, self.d)
            if df is not None:
                self.r += df
                self.r %= dp
            if gate.cols is not None:
                C[:, n + j], C[:, j] = gate.cols(x, z, dp)
        else:
            c, t = qudits
            C[:, n + t], C[:, c] = gate.cols(C[:, n + c], C[:, c],
                                             C[:, n + t], C[:, t], dp)

    def apply_pauli_error(self, j: int, a: int, b: int) -> None:
        """Conjugate every generator by X^a Z^b on qudit j."""
        a, b = self._error_exponents(j, a, b)
        n, C = self.n, self.coords
        self.r = (self.r + 2 * (b * C[:, n + j] - a * C[:, j])) % self.dp

    # -- measurement -----------------------------------------------------------

    def _eliminate(self, f, v, c: int, modulus: int):
        """Reduce rows (phases f, coordinates v) in place until at most one,
        the pivot, is nonzero in column c mod modulus; return it as
        (f_p, v_p), or the identity (0, 0) if there is none.

        A Euclidean step multiplies every other hit row by p^q, where p is
        the hit row with the smallest entry e_p and q = -(e // e_p), so e
        becomes e mod e_p: v += q*v_p and f += q*(f_p + <v, v_p>), mod d'.
        The pivot's row then becomes its smallest power that is 0 in
        column c (Howell's completion): the rows span every element that is.
        """
        n, dp = self.n, self.dp
        e = v[:, c] % modulus
        while np.count_nonzero(e) > 1:
            hit = np.flatnonzero(e)
            p = hit[np.argmin(e[hit])]
            hit = hit[hit != p]
            q = -(e[hit] // e[p])
            bracket = (f[p] + v[hit, :n] @ v[p, n:] - v[hit, n:] @ v[p, :n]) % dp
            f[hit] = (f[hit] + q * bracket) % dp
            v[hit] = (v[hit] + q[:, None] * v[p]) % dp
            e = v[:, c] % modulus
        if not e.any():
            return 0, np.zeros(2 * n, dtype=np.int64)
        p = np.flatnonzero(e)[0]
        pivot = int(f[p]), v[p].copy()
        k = modulus // gcd(modulus, int(e[p]))
        f[p], v[p] = k * f[p] % dp, k * v[p] % dp
        return pivot

    def _commutant(self, j: int):
        """Rows (f, v) spanning the subgroup commuting with Z_j, apart from
        its Z_j powers, then m, k0 and the pivot of qudit j's X column.

        A pivot whose X_j entry is a unit leaves no Z_j power but the
        identity, so m = d and k0 = 0.  Otherwise the last pivot
        tau^f W_(t e_j) (t = d if it is the identity) spans the Z_j powers
        in the group, so m = gcd(d, t) is the smallest one, and outcome k is
        in the support when tau^(2kt + f) = 1.  That holds for
        g = gcd(2t, d') dividing f and k = k0 mod d/m (d/m = d'/g), so the
        support is k0 + i*d/m for i < m.
        """
        d, dp, n = self.d, self.dp, self.n
        self._check_qudit(j)
        f, v = self.r.copy(), self.coords.copy()
        pivot = self._eliminate(f, v, n + j, d)
        if gcd(int(pivot[1][n + j]), d) == 1:
            # full support: the rows left already span the commutant, since
            # the pivot's power among them is W_(d v), the identity
            return f, v, d, 0, pivot
        # echelon mod d' with the W_(d e_i), one pivot per column, j last
        f = np.r_[f, np.zeros(2 * n, dtype=np.int64)]
        v = np.vstack([v, np.eye(2 * n, dtype=np.int64) * d % dp])
        columns = [c for c in range(2 * n) if c != j] + [j]
        pf, pv = map(np.array, zip(*[self._eliminate(f, v, c, dp) for c in columns]))
        assert not v.any() and not f.any(), \
            "reduction produced a nontrivial phase times identity"
        t = int(pv[-1, j]) or d
        m, g = gcd(d, t), gcd(2 * t, dp)
        assert not pf[-1] % g, "the pivot's phase leaves no outcome"
        k0 = (-(int(pf[-1]) // g) * pow(2 * t // g, -1, d // m)) % (d // m)
        return pf[:-1], pv[:-1], m, k0, pivot

    def _z_support(self, j: int):
        """Outcome support of a Z measurement on qudit j, with its size m."""
        _, _, m, k0, _ = self._commutant(j)
        return m, (k0 + self.d // m * np.arange(m)).tolist()

    def outcome_distribution(self, j: int) -> dict:
        m, support = self._z_support(j)
        return {k: 1.0 / m for k in support}

    def _collapse(self, j: int, rng):
        """Measure Z_j: (deterministic, outcome k mod d).  Outcome k
        collapses onto tau^(-2k) Z_j; a random one adds d/m times a uniform
        draw from rng (0 without one) to k0.  A deterministic measurement
        draws nothing and leaves the generators as they are."""
        d, dp, n = self.d, self.dp, self.n
        f, v, m, k, pivot = self._commutant(j)
        if m == 1:
            self.pivot = None
            return True, k
        self.pivot = (pivot[1][n:] % d, pivot[1][:n] % d)
        if rng is not None:
            k += d // m * int(rng.integers(m))
        # a row that is 0 mod d is the identity: the group has no -1
        keep = (v % d).any(axis=1)
        self.r = np.r_[f[keep], (-2 * k) % dp]
        self.coords = np.vstack([v[keep], np.eye(1, 2 * n, j, dtype=np.int64)])
        return False, k

