"""Stabilizer tableau simulation for odd prime qudit dimensions.

The tableau holds 2n Pauli rows over Z_d: rows 0..n-1 are destabilizers,
rows n..2n-1 are stabilizers.  A fresh register starts as destabilizer X_j
and stabilizer Z_j for each qudit j.  Gates act by the column maps and
omega phase rules of gates.py on the X-block, Z-block and phase vector;
measurement uses the destabilizer block to avoid searching the full group.

Row pairing invariant: the commutation exponent of stabilizer i with
destabilizer k is delta_ik.  A random measurement of Z_j keeps it by moving
its pivot row P into the destabilizer block as P^u, u = P.x[j]^-1 mod d, so
a deterministic outcome reads the exponents y = X[:n, j] directly.

Tableau.from_stabilizers completes stabilizer rows S in closed form: one
elimination of [Sz | -Sx | I] gives rows U with commutation exponents
c(S_k, U_i) = delta_ki; D = U - triu(C, 1) S, C_im = c(U_i, U_m), commutes.
Completions differ by rows in the span of S and stay so; a stabilizer is
only updated from a stabilizer pivot, and a deterministic outcome reads
X[k, j], fixed by c(D_k, Z_j), so outcomes do not depend on it.

A random measurement or reset records its pivot, the stabilizer row that
did not commute with Z_j, before eliminating with it.  frames.compile_circuit
reads the outcome map of a whole circuit off one run that takes every random
outcome as 0 and these pivots.

Elementary-operation counters are kept per gate and per measurement so the
asymptotic costs (linear per gate, quadratic per measurement, independent of
d) can be checked directly.
"""

from __future__ import annotations

import numpy as np

from .circuit import MeasurementRecord
from .errors import DimensionError, ShapeError, integral
from .gates import check_qudits, resolve
from .pauli import PauliString, _as_dimension


def rref_mod_prime(a, p: int):
    """Reduced row echelon form of a over F_p, and its pivot columns."""
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        sub = np.flatnonzero(a[rank:, c])
        if len(sub) == 0:
            continue
        r = rank + int(sub[0])
        a[[rank, r]] = a[[r, rank]]
        a[rank] = (a[rank] * pow(int(a[rank, c]), -1, p)) % p
        others = np.flatnonzero(a[:, c])
        others = others[others != rank]
        if len(others):
            a[others] = (a[others] - np.outer(a[others, c], a[rank])) % p
        pivots.append(c)
    return a, pivots


class Register:
    """Copying, measurement records, resets and operand checks shared by
    every single-shot register: Tableau, weyl.WeylTableau and
    statevector.DenseState.

    A subclass has n, d and measurements_done, an _apply(gate, qudits) for
    a gates.Gate on qudits already checked, apply_pauli_error(j, a, b) and
    a _collapse(j, rng) that measures Z_j and returns (deterministic,
    outcome k mod d).  After a random measurement or reset of a tableau,
    pivot is the stabilizer (x, z) mod d that the measured Z_j did not
    commute with; it is None after a deterministic one, and always on a
    DenseState.
    """

    pivot = None

    def copy(self):
        """An independent copy: every array and list attribute is copied."""
        out = object.__new__(type(self))
        out.__dict__.update({k: v.copy() if isinstance(v, (np.ndarray, list)) else v
                             for k, v in self.__dict__.items()})
        return out

    def apply_gate(self, name: str, *qudits: int) -> None:
        """Apply the gate name, or an alias, to qudits after checking them."""
        self._apply(resolve(name, qudits, self.n), qudits)

    def _check_qudit(self, j: int) -> None:
        check_qudits("qudit", 1, (j,), self.n)

    def _error_exponents(self, j: int, a, b):
        """Check qudit j; the exponents of an X^a Z^b error on it, mod d."""
        self._check_qudit(j)
        return (integral(a, "X exponent", ShapeError) % self.d,
                integral(b, "Z exponent", ShapeError) % self.d)

    def measure_z(self, j: int, rng: np.random.Generator = None) -> MeasurementRecord:
        """Z-basis measurement of qudit j; outcome k is the eigenvalue
        exponent of Z_j, matching dense Born sampling.

        A random outcome is drawn from rng, or is the lowest one its support
        allows (0 on full support) without one.
        """
        seq = self.measurements_done
        deterministic, k = self._collapse(j, rng)
        self.measurements_done += 1
        return MeasurementRecord(j, seq, deterministic, int(k))

    def reset(self, j: int, rng: np.random.Generator = None) -> None:
        """Measure qudit j and shift it back to |0> with the correction
        X^-k for outcome k, if k is not 0."""
        _, k = self._collapse(j, rng)
        if k:
            self.apply_pauli_error(j, -k, 0)


class Tableau(Register):
    """Destabilizer/stabilizer tableau for n qudits of odd prime dimension d."""

    def __init__(self, n: int, d):
        dim = _as_dimension(d)
        if not dim.is_odd_prime:
            raise DimensionError(
                f"tableau backend requires an odd prime dimension, got d={dim.d}")
        n = integral(n, "qudit count", ShapeError, minimum=1)
        self.dimension = dim
        self.d = dim.d
        self.n = n
        self.X = np.zeros((2 * n, n), dtype=np.int64)
        self.Z = np.zeros((2 * n, n), dtype=np.int64)
        self.r = np.zeros(2 * n, dtype=np.int64)
        for j in range(n):
            self.X[j, j] = 1
            self.Z[n + j, j] = 1
        self.measurements_done = 0
        self.gate_op_log: list[int] = []
        self.measure_op_log: list[int] = []

    @classmethod
    def from_stabilizers(cls, stabilizers) -> "Tableau":
        """Tableau for the joint +1-ish eigenstate of n given stabilizer rows.

        The rows must be independent and mutually commuting; phases are kept
        as given.  Destabilizers, with phase 0, come in closed form (see the
        module docstring), and destabilizer k pairs with stabilizer k alone.
        """
        stabs = list(stabilizers)
        if not stabs:
            raise ShapeError("need at least one stabilizer")
        n = stabs[0].n
        dim = stabs[0].dimension
        d = dim.d
        if len(stabs) != n:
            raise ShapeError(f"need exactly n={n} stabilizers, got {len(stabs)}")
        for s in stabs:
            if s.n != n or s.dimension.d != d:
                raise ShapeError("stabilizers disagree on qudit count or dimension")
        for i, s in enumerate(stabs):
            for t in stabs[i + 1:]:
                if not s.commutes(t):
                    raise ShapeError(f"stabilizers do not commute: {s} vs {t}")

        tab = cls(n, dim)
        for i, s in enumerate(stabs, n):
            tab.X[i], tab.Z[i], tab.r[i] = s.x, s.z, s.r
        sx, sz = tab.X[n:], tab.Z[n:]

        red, pivots = rref_mod_prime(
            np.hstack([sz, -sx, np.eye(n, dtype=np.int64)]), d)
        if pivots[-1] >= 2 * n:
            raise ShapeError("stabilizer rows are not independent")
        u = np.zeros((n, 2 * n), dtype=np.int64)
        u[:, pivots] = red[:, 2 * n:].T
        ux, uz = u[:, :n], u[:, n:]
        c = np.triu((uz @ ux.T - ux @ uz.T) % d, 1)
        tab.X[:n] = (ux - c @ sx) % d
        tab.Z[:n] = (uz - c @ sz) % d
        tab.check_invariants()
        return tab

    # -- row access ----------------------------------------------------------

    def destabilizer(self, k: int) -> PauliString:
        return self._row("destabilizer", k, 0)

    def stabilizer(self, i: int) -> PauliString:
        return self._row("stabilizer", i, self.n)

    def _row(self, what: str, i, offset: int) -> PauliString:
        if not isinstance(i, (int, np.integer)) or not 0 <= i < self.n:
            raise ShapeError(f"{what} index must be an integer in [0, {self.n}), got {i!r}")
        k = offset + int(i)
        return PauliString(self.dimension, self.X[k], self.Z[k], int(self.r[k]))

    def to_array(self) -> np.ndarray:
        """Block matrix [X | Z | r] of shape (2n, 2n+1)."""
        return np.hstack([self.X, self.Z, self.r.reshape(-1, 1)]).astype(np.int64)

    def check_invariants(self) -> None:
        """Raise if the pairing or commutation structure is broken."""
        d, n = self.d, self.n
        sx, sz = self.X[n:], self.Z[n:]
        comm = (sz @ sx.T - sx @ sz.T) % d
        if np.any(comm):
            raise ShapeError("stabilizer rows do not mutually commute")
        dx, dz = self.X[:n], self.Z[:n]
        comm = (dz @ dx.T - dx @ dz.T) % d
        if np.any(comm):
            raise ShapeError("destabilizer rows do not mutually commute")
        pair = (sz @ dx.T - sx @ dz.T) % d
        if np.any(pair != np.eye(n, dtype=np.int64)):
            raise ShapeError("stabilizer/destabilizer pairing is broken")

    # -- gates -----------------------------------------------------------------

    def _apply(self, gate, qudits) -> None:
        d, X, Z = self.d, self.X, self.Z
        if gate.arity == 1:
            (j,) = qudits
            x, z = X[:, j], Z[:, j]
            self.r += gate.omega(x, z, d)
            self.r %= d
            if gate.cols is not None:
                X[:, j], Z[:, j] = gate.cols(x, z, d)
        else:
            c, t = qudits
            X[:, t], Z[:, c] = gate.cols(X[:, c], Z[:, c], X[:, t], Z[:, t], d)
        self.gate_op_log.append(2 * gate.arity * self.n)

    def apply_pauli_error(self, j: int, a: int, b: int) -> None:
        """Conjugate every row by X^a Z^b on qudit j."""
        a, b = self._error_exponents(j, a, b)
        self.r = (self.r + b * self.X[:, j] - a * self.Z[:, j]) % self.d

    # -- measurement -----------------------------------------------------------

    def _collapse(self, j: int, rng):
        """Measure Z_j: (deterministic, outcome k mod d).  Outcome k
        collapses onto w^(-k) Z_j; a random one is drawn from rng, or is 0
        without one."""
        d, n = self.d, self.n
        self._check_qudit(j)
        hits = np.flatnonzero(self.X[n:, j])
        if len(hits):
            p = n + int(hits[0])
            self.pivot = (self.X[p].copy(), self.Z[p].copy())
            ops = 2 * n
            ops += self._eliminate_column(j, p) * (2 * n + 1)
            u = pow(int(self.X[p, j]), -1, d)  # P^u pairs with Z_j
            self.X[p - n] = self.X[p] * u % d
            self.Z[p - n] = self.Z[p] * u % d
            self.r[p - n] = self.r[p]  # free: no outcome reads a destabilizer phase
            self.X[p] = 0
            self.Z[p] = 0
            self.Z[p, j] = 1
            k = 0 if rng is None else int(rng.integers(0, d))
            self.r[p] = (-k) % d
            ops += 2 * (2 * n + 1) + 1
            self.measure_op_log.append(ops)
            return False, k

        # Z_j = prod_k S_k^y_k with y = X[:n, j].  Multiplying the
        # powers in order k = 0..n-1 gives the phase sum below: each power
        # contributes y_k r_k + C(y_k, 2) (x_k . z_k), and each earlier
        # factor k' < k contributes y_k' y_k (z_k' . x_k): a prefix sum over
        # k', so the measurement costs O(n^2).
        y = self.X[:n, j]
        sx, sz = self.X[n:], self.Z[n:]
        px, pz = y @ sx % d, y @ sz % d
        zy, xy = y[:, None] * sz % d, y[:, None] * sx % d
        cross = (np.cumsum(zy, axis=0) - zy) % d * xy % d
        assert not px.any() and pz[j] == 1 and pz.sum() == 1, \
            "deterministic measurement product is not the bare Z on the target"
        # every factor is reduced mod d first, so no term overflows int64
        k = (-(y @ self.r[n:]) - cross.sum()
             - (y * (y - 1) // 2 % d) @ ((sx * sz).sum(axis=1) % d))
        self.pivot = None
        self.measure_op_log.append(2 * n + n + n * (2 * n + 1))
        return True, int(k % d)

    def deterministic_outcome_gaussian(self, j: int):
        """Branch decision and outcome by direct linear solving; never mutates.

        Solves for exponents y with prod_i stabilizer_i^y_i = w^c Z_j over
        F_d.  Returns (True, outcome) when a solution exists, with the
        outcome read from the phase of the explicitly multiplied product,
        or (False, None) when Z_j is not in the stabilizer group and the
        measurement would be random.  Serves as an independent check of
        measure_z's pivot scan and phase accumulation.
        """
        self._check_qudit(j)
        d, n = self.d, self.n
        a = np.hstack([self.X[n:], self.Z[n:]]).T  # (2n, n): column i = generator i
        b = np.eye(2 * n, dtype=np.int64)[n + j]  # Z_j
        red, pivots = rref_mod_prime(np.column_stack([a, b]), d)
        if pivots[-1] == n:
            return False, None
        y = red[:n, n]  # the n generators are independent: pivots 0..n-1
        prod = PauliString.identity(n, self.dimension)
        for i in range(n):
            prod = prod * self.stabilizer(i).pow(int(y[i]))
        assert not prod.x.any() and prod.z[j] == 1 and prod.z.sum() == 1
        return True, (-prod.r) % d

    def _eliminate_column(self, j: int, p: int) -> int:
        """Clear column j of X in all rows except pivot p; returns rows touched."""
        d = self.d
        col = self.X[:, j]
        rows = np.flatnonzero(col)
        rows = rows[rows != p]
        if not len(rows):
            return 0
        xp = self.X[p].copy()
        zp = self.Z[p].copy()
        inv = pow(int(col[p]), -1, d)
        h = (-(col[rows]) * inv) % d
        self.r[rows] = (self.r[rows] + h * self.r[p]
                        + (h * (h - 1) // 2 % d) * (int(xp @ zp) % d)
                        + h * (self.Z[rows] @ xp % d)) % d
        self.X[rows] = (self.X[rows] + h[:, None] * xp) % d
        self.Z[rows] = (self.Z[rows] + h[:, None] * zp) % d
        return int(len(rows))
