"""Stabilizer tableau simulation for odd prime qudit dimensions.

The tableau holds 2n Pauli rows over Z_d: rows 0..n-1 are destabilizers,
rows n..2n-1 are stabilizers.  A fresh register starts as destabilizer X_j
and stabilizer Z_j for each qudit j.  Rows are stored as the Weyl elements
of weyl.py, tau^r W_(z, x) with coordinates (z | x) and r mod d, so gates,
Pauli errors and row products are the shared WeylRows updates; a row reads
out as w^r' X^x Z^z with r' = (r + x.z)(d+1)/2 mod d (tau^2 = w).
Measurement uses the destabilizer block to avoid searching the full group.

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


class WeylRows(Register):
    """Phase-tracked Weyl rows tau^r[i] W_coords[i] (see weyl.py), shared by
    Tableau and weyl.WeylTableau: the gate, Pauli-error and row-times-power
    updates and the bracket matrix.  coords has one row (z | x) per Pauli,
    coordinates and phases r are taken mod d' (dp), and a fresh register
    holds the rows Z_j of |0...0>.
    """

    def __init__(self, n: int, d):
        dim = _as_dimension(d)
        n = integral(n, "qudit count", ShapeError, minimum=1)
        self.dimension = dim
        self.d = dim.d
        self.dp = dim.d_prime
        self.n = n
        self.coords = np.eye(n, 2 * n, dtype=np.int64)
        self.r = np.zeros(n, dtype=np.int64)
        self.measurements_done = 0

    def _apply(self, gate, qudits) -> None:
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
        """Conjugate every row by X^a Z^b on qudit j."""
        a, b = self._error_exponents(j, a, b)
        C = self.coords
        self.r = (self.r + 2 * b * C[:, self.n + j] - 2 * a * C[:, j]) % self.dp

    def _times_power(self, f, v, rows, p, q) -> None:
        """Multiply each row i of rows (phases f, coordinates v) by row p to
        the power q_i, in place: v_i += q_i v_p and
        f_i += q_i (f_p + <v_i, v_p>), mod d'."""
        n, dp = self.n, self.dp
        bracket = (f[p] + v[rows, :n] @ v[p, n:] - v[rows, n:] @ v[p, :n]) % dp
        f[rows] = (f[rows] + q * bracket) % dp
        v[rows] = (v[rows] + q[:, None] * v[p]) % dp

    def _brackets(self, v, w) -> np.ndarray:
        """Commutation exponents <v_i, w_k> mod d of rows v against rows w."""
        n = self.n
        return (v[:, :n] @ w[:, n:].T - v[:, n:] @ w[:, :n].T) % self.d


class Tableau(WeylRows):
    """Destabilizer/stabilizer tableau for n qudits of odd prime dimension d.

    X and Z are views of the X and Z blocks of coords; r holds the tau
    phases of the rows, and stabilizer(i), destabilizer(k) and to_array
    read them out in the w^r' X^x Z^z form of pauli.py.
    """

    def __init__(self, n: int, d):
        dim = _as_dimension(d)
        if not dim.is_odd_prime:
            raise DimensionError(
                f"tableau backend requires an odd prime dimension, got d={dim.d}")
        super().__init__(n, dim)
        # destabilizer X_j above each stabilizer Z_j
        self.coords = np.vstack([np.roll(self.coords, self.n, axis=1), self.coords])
        self.r = np.zeros(2 * self.n, dtype=np.int64)
        self.gate_op_log: list[int] = []
        self.measure_op_log: list[int] = []

    @property
    def X(self) -> np.ndarray:
        return self.coords[:, self.n:]

    @property
    def Z(self) -> np.ndarray:
        return self.coords[:, :self.n]

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
        n, dim = stabs[0].n, stabs[0].dimension
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
        sv = tab.coords[n:]
        for i, s in enumerate(stabs):
            # w^r X^x Z^z = tau^(2r - x.z) W_(z, x)
            sv[i, :n], sv[i, n:] = s.z, s.x
            tab.r[n + i] = (2 * s.r - int(s.x @ s.z)) % d

        red, pivots = rref_mod_prime(
            np.hstack([sv[:, :n], -sv[:, n:], np.eye(n, dtype=np.int64)]), d)
        if pivots[-1] >= 2 * n:
            raise ShapeError("stabilizer rows are not independent")
        u = np.zeros((n, 2 * n), dtype=np.int64)
        u[:, pivots] = red[:, 2 * n:].T
        u = np.roll(u, n, axis=1)  # solved for (x | z)
        tab.coords[:n] = (u - np.triu(tab._brackets(u, u), 1) @ sv) % d
        tab.r[:n] = -(tab.X[:n] * tab.Z[:n]).sum(axis=1) % d
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
        return PauliString(self.dimension, self.X[k], self.Z[k],
                           int(self._omega_phase(k)))

    def _omega_phase(self, k):
        """r' of row(s) k read out as w^r' X^x Z^z: (r + x.z)(d+1)/2 mod d."""
        d = self.d
        xz = (self.X[k] * self.Z[k]).sum(axis=-1) % d
        return (self.r[k] + xz) * ((d + 1) // 2) % d

    def to_array(self) -> np.ndarray:
        """Block matrix [X | Z | r'] of shape (2n, 2n+1), with the phases
        read out as w^r' X^x Z^z."""
        return np.hstack([self.X, self.Z, self._omega_phase(slice(None))[:, None]])

    def check_invariants(self) -> None:
        """Raise if the pairing or commutation structure is broken."""
        n = self.n
        dv, sv = self.coords[:n], self.coords[n:]
        if np.any(self._brackets(sv, sv)):
            raise ShapeError("stabilizer rows do not mutually commute")
        if np.any(self._brackets(dv, dv)):
            raise ShapeError("destabilizer rows do not mutually commute")
        if np.any(self._brackets(sv, dv) != np.eye(n, dtype=np.int64)):
            raise ShapeError("stabilizer/destabilizer pairing is broken")

    def _apply(self, gate, qudits) -> None:
        super()._apply(gate, qudits)
        self.gate_op_log.append(2 * gate.arity * self.n)

    # -- measurement -----------------------------------------------------------

    def _collapse(self, j: int, rng):
        """Measure Z_j: (deterministic, outcome k mod d).  Outcome k
        collapses onto w^(-k) Z_j; a random one is drawn from rng, or is 0
        without one."""
        d, n, C = self.d, self.n, self.coords
        self._check_qudit(j)
        hits = np.flatnonzero(C[n:, n + j])
        if len(hits):
            p = n + int(hits[0])
            self.pivot = (C[p, n:].copy(), C[p, :n].copy())
            u = pow(int(C[p, n + j]), -1, d)  # P^u pairs with Z_j
            # clear X_j from every other row with a power of P
            rows = np.flatnonzero(C[:, n + j])
            rows = rows[rows != p]
            self._times_power(self.r, C, rows, p, -C[rows, n + j] * u % d)
            # P^u keeps P's read-out phase: free, since no outcome reads a
            # destabilizer phase, but to_array shows it
            xz = int(C[p, :n] @ C[p, n:]) % d
            self.r[p - n] = (self.r[p] + xz * ((1 - u * u) % d)) % d
            C[p - n] = C[p] * u % d
            C[p] = 0
            C[p, j] = 1
            k = 0 if rng is None else int(rng.integers(0, d))
            self.r[p] = (-2 * k) % d
            self.measure_op_log.append(2 * n + (len(rows) + 2) * (2 * n + 1) + 1)
            return False, k

        # Z_j = prod_k S_k^y_k with y = X[:n, j].  The stabilizers commute,
        # so every bracket of the product vanishes mod d and it is
        # tau^(y.r) Z_j; it fixes the state, so outcome k has
        # tau^(2k) = tau^(-y.r).
        y = C[:n, n + j]
        prod = y @ C[n:] % d
        assert not prod[n:].any() and prod[j] == 1 and prod.sum() == 1, \
            "deterministic measurement product is not the bare Z on the target"
        k = -(y @ self.r[n:] % d) * ((d + 1) // 2) % d
        self.pivot = None
        self.measure_op_log.append(2 * n + n + n * (2 * n + 1))
        return True, int(k)

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
