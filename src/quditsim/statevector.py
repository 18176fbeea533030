"""Dense statevector simulation of qudit Clifford circuits.

This module is the slow, obviously-correct reference: gates are applied as
explicit unitaries on a d^n amplitude tensor, Pauli strings as shift/phase
operations, and measurement follows the Born rule with explicit collapse.
Everything else in the package is validated against it.

Gate definitions, written out here independently of the update rules in
gates.py so that the stabilizer backends can be checked against them:

- X|j> = |j+1 mod d>
- Z|j> = w^j |j>,  w = exp(2*pi*i/d)
- F|i> = d^(-1/2) sum_j w^(ij) |j>              (discrete Fourier transform)
- P|j> = w^(j(j-1)/2) |j>        for odd d
  P|j> = tau^(j^2) |j>           for even d, tau = exp(i*pi*(d^2+1)/d)
- SUM|i,j> = |i, i+j mod d>      (control first)

The odd-d phase-gate exponent j(j-1)/2 is not single-valued mod d when d is
even (the wrap-around defect d(d-1)/2 does not vanish), which is why the even
case uses the tau form; at d=2 it reduces to diag(1, i).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuit import MeasurementRecord
from .errors import DimensionError, MemoryCapError, PauliMatchError, ShapeError, integral
from .gates import check_qudits, lookup, resolve
from .pauli import PauliString, _as_dimension
from .tableau import Tableau

#: Largest number of amplitudes a DenseState will allocate.
DEFAULT_AMPLITUDE_CAP = 2 ** 24


def gate_matrix(name: str, d) -> np.ndarray:
    """Dense unitary for a canonical gate name ('H'/'CNOT' aliases accepted)."""
    dim = _as_dimension(d)
    d = dim.d
    w = dim.omega()
    gate = lookup(name)
    name = gate.name
    j = np.arange(d)
    if name == "X":
        m = np.zeros((d, d), dtype=complex)
        m[(j + 1) % d, j] = 1.0
        return m
    if name == "Z":
        return np.diag(w ** j)
    if name == "F":
        return np.power(w, np.outer(j, j)) / np.sqrt(d)
    if name == "P":
        if d % 2 == 1:
            return np.diag(w ** ((j * (j - 1)) // 2))
        return np.diag(dim.tau() ** (j * j))
    if name == "SUM":
        m = np.zeros((d * d, d * d), dtype=complex)
        for a in range(d):
            for b in range(d):
                m[a * d + (a + b) % d, a * d + b] = 1.0
        return m
    return gate_matrix(gate.inverse, dim).conj().T


# room for every gate at a few dimensions; SUM alone holds d^4 entries
@lru_cache(maxsize=32)
def _cached_gate_matrix(name: str, d: int) -> np.ndarray:
    """gate_matrix(name, d), built once per (name, d) and read-only."""
    m = gate_matrix(name, d)
    m.flags.writeable = False
    return m


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string, w^r included."""
    dim = p.dimension
    d = dim.d
    w = dim.omega()
    xm = gate_matrix("X", dim)
    zm = gate_matrix("Z", dim)
    out = np.array([[w ** p.r]])
    for j in range(p.n):
        slot = np.linalg.matrix_power(xm, int(p.x[j])) @ np.linalg.matrix_power(zm, int(p.z[j]))
        out = np.kron(out, slot)
    return out


class DenseState:
    """A d^n statevector with qudit 0 as the most significant digit."""

    def __init__(self, n: int, d):
        dim = _as_dimension(d)
        n = integral(n, "qudit count", ShapeError, minimum=1)
        if dim.d ** n > DEFAULT_AMPLITUDE_CAP:
            raise MemoryCapError(f"d^n = {dim.d}^{n} exceeds the amplitude cap "
                                 f"{DEFAULT_AMPLITUDE_CAP}")
        self.dimension = dim
        self.n = n
        self.psi = np.zeros((dim.d,) * n, dtype=complex)
        self.psi[(0,) * n] = 1.0
        self.measurements_done = 0

    @property
    def vector(self) -> np.ndarray:
        return self.psi.reshape(-1)

    def copy(self) -> "DenseState":
        out = DenseState.__new__(DenseState)
        out.dimension = self.dimension
        out.n = self.n
        out.psi = self.psi.copy()
        out.measurements_done = self.measurements_done
        return out

    # -- evolution ---------------------------------------------------------

    def apply_gate(self, name: str, *qudits: int) -> None:
        gate = resolve(name, qudits, self.n)
        d = self.dimension.d
        m = _cached_gate_matrix(gate.name, d)
        if gate.arity == 1:
            (j,) = qudits
            self.psi = np.moveaxis(
                np.tensordot(m, self.psi, axes=([1], [j])), 0, j)
        else:
            c, t = qudits
            moved = np.moveaxis(self.psi, (c, t), (0, 1))
            moved = np.tensordot(m.reshape(d, d, d, d), moved,
                                 axes=([2, 3], [0, 1]))
            self.psi = np.moveaxis(moved, (0, 1), (c, t))

    def apply_pauli(self, p: PauliString) -> None:
        """Apply a Pauli string using index shifts and phase masks."""
        if p.n != self.n or p.dimension.d != self.dimension.d:
            raise ShapeError("Pauli string does not match state shape")
        d = self.dimension.d
        w = self.dimension.omega()
        psi = self.psi
        for j in range(self.n):
            b = int(p.z[j])
            if b:
                phases = w ** ((np.arange(d) * b) % d)
                shape = [1] * self.n
                shape[j] = d
                psi = psi * phases.reshape(shape)
            a = int(p.x[j])
            if a:
                psi = np.roll(psi, a, axis=j)
        if p.r:
            psi = psi * (w ** p.r)
        self.psi = psi

    def apply_pauli_error(self, j: int, a: int, b: int) -> None:
        """Apply X^a Z^b to qudit j."""
        self.apply_pauli(PauliString.single(self.n, self.dimension, j, a, b))

    # -- measurement -------------------------------------------------------

    def outcome_distribution(self, j: int) -> np.ndarray:
        """Born probabilities for a Z-basis measurement of qudit j."""
        check_qudits("qudit", 1, (j,), self.n)
        probs = np.abs(self.psi) ** 2
        axes = tuple(k for k in range(self.n) if k != j)
        return probs.sum(axis=axes)

    def measure_z(self, j: int, rng: np.random.Generator) -> MeasurementRecord:
        probs = self.outcome_distribution(j)
        probs = probs / probs.sum()
        deterministic = bool(probs.max() >= 1.0 - 1e-9)
        k = int(rng.choice(self.dimension.d, p=probs))
        self.project(j, k)
        seq = self.measurements_done
        self.measurements_done += 1
        return MeasurementRecord(j, seq, deterministic, k)

    def project(self, j: int, k: int) -> float:
        """Collapse qudit j to |k> and renormalize; returns the branch weight."""
        check_qudits("qudit", 1, (j,), self.n)
        if not isinstance(k, (int, np.integer)) or not 0 <= k < self.dimension.d:
            raise ShapeError(f"outcome must be an integer in [0, "
                             f"{self.dimension.d}), got {k!r}")
        idx = [slice(None)] * self.n
        sel = np.zeros(self.dimension.d, dtype=bool)
        sel[k] = True
        idx[j] = ~sel
        weight = float((np.abs(self.psi) ** 2).sum() -
                       (np.abs(self.psi[tuple(idx)]) ** 2).sum())
        if weight <= 1e-12:
            raise ShapeError(f"projection of qudit {j} onto |{k}> has zero weight")
        self.psi = self.psi.copy()
        self.psi[tuple(idx)] = 0.0
        self.psi /= np.sqrt(weight)
        return weight

    def reset(self, j: int, rng: np.random.Generator) -> None:
        rec = self.measure_z(j, rng)
        self.measurements_done -= 1  # resets do not occupy a record slot
        if rec.outcome:
            self.apply_pauli_error(j, -rec.outcome, 0)

    # -- inner products ----------------------------------------------------

    def expectation(self, p: PauliString) -> complex:
        tmp = self.copy()
        tmp.apply_pauli(p)
        return complex(np.vdot(self.vector, tmp.vector))


def match_pauli(matrix: np.ndarray, n: int, d, atol: float = 1e-9):
    """Decompose a dense matrix as (phase, PauliString) or raise PauliMatchError.

    The phase is returned as an exact exponent pair (omega_pow, tau_pow): for
    odd d the phase is w^omega_pow; for even d it is tau^tau_pow with tau_pow
    mod 2d.  The PauliString's own r field carries the omega part when the
    phase is an omega power, else r=0 and the tau exponent stands alone.
    """
    dim = _as_dimension(d)
    d = dim.d
    dp = dim.d_prime
    size = d ** n
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (size, size):
        raise ShapeError(f"matrix shape {m.shape} does not match d^n = {size}")

    # A Pauli has exactly one nonzero entry per column, at a fixed digit shift.
    col0 = m[:, 0]
    nz = np.flatnonzero(np.abs(col0) > atol)
    if len(nz) != 1:
        raise PauliMatchError("column 0 does not have exactly one nonzero entry")
    row0 = int(nz[0])
    digits0 = np.array(np.unravel_index(row0, (d,) * n))
    xs = digits0 % d

    # Z exponents from the phase ratio between column e_j and column 0.
    zs = np.zeros(n, dtype=np.int64)
    tau = dim.tau()
    for j in range(n):
        col_idx = d ** (n - 1 - j)
        col = m[:, col_idx]
        nzj = np.flatnonzero(np.abs(col) > atol)
        if len(nzj) != 1:
            raise PauliMatchError(f"column {col_idx} does not have exactly one nonzero entry")
        ratio = col[nzj[0]] / col0[row0]
        k = _phase_exponent(ratio, dim.omega(), d, atol)
        if k is None:
            raise PauliMatchError("column phase ratio is not a power of omega")
        zs[j] = k

    phase = col0[row0]
    tau_pow = _phase_exponent(phase, tau, dp, atol)
    if tau_pow is None:
        raise PauliMatchError("global phase is not a power of tau")

    p = PauliString(dim, xs, zs, 0)
    expected = pauli_matrix(p) * (tau ** tau_pow)
    if not np.allclose(expected, m, atol=atol):
        raise PauliMatchError("matrix is not a phase times a Pauli string")
    if tau_pow % 2 == 0:
        p = PauliString(dim, xs, zs, (tau_pow // 2) % d)
        return p, 0
    if d % 2 == 1:
        # tau = w^((d+1)/2) is itself an omega power for odd d.
        p = PauliString(dim, xs, zs, (tau_pow * ((d + 1) // 2)) % d)
        return p, 0
    return p, tau_pow


def _phase_exponent(value: complex, base: complex, order: int, atol: float):
    for k in range(order):
        if abs(value - base ** k) < max(atol, 1e-9):
            return k
    return None


def conjugate_pauli(gate: str, p: PauliString, atol: float = 1e-9):
    """Image of p under conjugation by a gate, computed densely.

    p must live on exactly the qudits the gate touches (n=1 or n=2 with the
    control as slot 0).  Returns (PauliString, tau_pow); tau_pow is 0 whenever
    the phase is an omega power (always, for odd d).
    """
    dim = p.dimension
    arity = lookup(gate).arity
    if p.n != arity:
        raise ShapeError(f"{gate} acts on {arity} qudit(s), Pauli has {p.n}")
    g = gate_matrix(gate, dim)
    m = g @ pauli_matrix(p) @ g.conj().T
    return match_pauli(m, p.n, dim, atol=atol)


def stabilizer_check(tableau, state: DenseState, atol: float = 1e-9) -> bool:
    """True when every stabilizer row of the tableau fixes the dense state.

    Bridges the integer and numeric representations: each row is applied to
    the state as an explicit shift/phase operation and compared amplitude by
    amplitude against the original within atol.  It needs a destabilizer
    Tableau (odd prime d); a WeylTableau raises DimensionError.
    """
    if not isinstance(tableau, Tableau):
        raise DimensionError("stabilizer_check needs a destabilizer Tableau "
                             f"(odd prime d), got {type(tableau).__name__}")
    if tableau.n != state.n or int(tableau.dimension) != int(state.dimension):
        raise ShapeError("tableau and state disagree on shape")
    for i in range(tableau.n):
        moved = state.copy()
        moved.apply_pauli(tableau.stabilizer(i))
        if np.abs(moved.psi - state.psi).max() > atol:
            return False
    return True
