"""Stabilizer tableau simulation for odd prime qudit dimensions.

The tableau holds 2n Pauli rows over Z_d: rows 0..n-1 are destabilizers,
rows n..2n-1 are stabilizers.  A fresh register starts as destabilizer X_j
and stabilizer Z_j for each qudit j.  Gates act by the column maps and
omega phase rules of gates.py on the X-block, Z-block and phase vector;
measurement uses the destabilizer block to avoid searching the full group.

Row pairing invariant: the commutation exponent of stabilizer i with
destabilizer k is lam[k] * delta_ik with lam[k] != 0.  The lam vector starts
at all ones and only changes when a measurement swaps an unnormalized pivot
row into the destabilizer block; the deterministic-measurement exponents
divide by lam to compensate.

Symbolic phases: the X-block, Z-block and lam evolve the same way in every
shot, because gates, pivot choice and row elimination never read the phase
vector, while noise and measurement outcomes only move it, and every update
of it is affine.  So symbolic() gives r a trailing axis [constant | live
symbol columns]: each phase is an affine form c + L @ s over random symbols
s (after Symphase, Fang & Ying 2024).  Gates and the quadratic terms of
elimination move the constant column only, a pivot row operation moves
every column, a random measurement or reset sets its pivot row to a fresh
uniform symbol and an N1 location (add_noise_symbols) adds the columns of
its error components a and b.  Outcomes then come out as forms
(constant, symbol ids, coefficients) instead of ints.  Destabilizer phases
never flow into a stabilizer row or an outcome, so a column that is zero on
every stabilizer row stays zero there and is dropped (_drop_dead); the live
width, not the symbol count, bounds the work.  SymbolicPhases holds this
bookkeeping for both Tableau and weyl.WeylTableau.  compile_circuit runs a
circuit this way once, on either, and returns an OutcomeMap, from which
frames.FrameSimulator draws every shot.

Elementary-operation counters are kept per gate and per measurement so the
asymptotic costs (linear per gate, quadratic per measurement, independent of
d) can be checked directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import MeasurementRecord
from .errors import DimensionError, ShapeError
from .gates import resolve
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


def solve_mod_prime(a, b, p: int):
    """One solution of a @ u = b (mod prime p), or None if inconsistent."""
    cols = np.shape(a)[1]
    red, pivots = rref_mod_prime(np.column_stack([a, b]), p)
    if pivots and pivots[-1] == cols:
        return None
    u = np.zeros(cols, dtype=np.int64)
    u[pivots] = red[:len(pivots), cols]
    return u


class SymbolicPhases:
    """Phase bookkeeping and measurement records shared by Tableau and
    weyl.WeylTableau.

    A subclass keeps its phases in r, whose rows _live (a slice) are the
    ones that reach an outcome, and a _collapse(j, rng) that measures Z_j
    and returns (deterministic, outcome k mod d).  symbolic() turns r into
    affine forms [constant | live symbol columns]; symbols holds the id of
    each symbol column.
    """

    symbols = None  # ids of r's symbol columns once symbolic()
    num_symbols = 0
    _pending = ()

    def symbolic(self):
        """A copy whose phases are affine forms over random symbols, starting
        as the constant column alone."""
        out = self.copy()
        out.r = self.r[:, None].copy()
        out.symbols = np.zeros(0, dtype=np.int64)
        out.num_symbols = 0
        out._pending = []
        return out

    def _const(self, a):
        """View of the constant part of a, one phase or an array of them."""
        return a if self.symbols is None else a[..., 0]

    def _new_symbols(self, *cols) -> list:
        """Ids of fresh symbols whose phase columns are cols, each one entry
        per row of r.

        Gates move only the constant column, so the columns wait in a list
        until the next measurement or reset needs them (_flush)."""
        ids = list(range(self.num_symbols, self.num_symbols + len(cols)))
        self.num_symbols += len(cols)
        self._pending.extend(cols)
        return ids

    def _flush(self) -> None:
        """Append the waiting symbol columns to r, except those zero on
        every live row, which are dead at birth."""
        if not self._pending:
            return
        cols = np.stack(self._pending, axis=1)
        ids = np.arange(self.num_symbols - len(self._pending), self.num_symbols)
        self._pending = []
        live = cols[self._live].any(axis=0)
        self.r = np.concatenate([self.r, cols[:, live]], axis=1)
        self.symbols = np.concatenate([self.symbols, ids[live]])

    def _fresh_symbol(self) -> np.ndarray:
        """A new uniform symbol, a column of r that is 0 on every row for
        now; returns the form that is that symbol alone."""
        self.r = np.concatenate(
            [self.r, np.zeros((len(self.r), 1), dtype=np.int64)], axis=1)
        self.symbols = np.concatenate([self.symbols, [self.num_symbols]])
        self.num_symbols += 1
        unit = np.zeros(self.r.shape[1], dtype=np.int64)
        unit[-1] = 1
        return unit

    def _drop_dead(self) -> None:
        """Drop the symbol columns that are zero on every live row."""
        live = self.r[self._live, 1:].any(axis=0)
        if not live.all():
            self.r = self.r[:, np.r_[True, live]]
            self.symbols = self.symbols[live]

    def _check_qudit(self, j: int) -> None:
        if not 0 <= j < self.n:
            raise ShapeError(f"qudit index {j} out of range for n={self.n}")

    def measure_z(self, j: int, rng: np.random.Generator = None) -> MeasurementRecord:
        """Z-basis measurement of qudit j; outcome k is the eigenvalue
        exponent of Z_j, matching dense Born sampling.

        A random outcome is drawn from rng, or with symbolic phases is
        built on a fresh uniform symbol; symbolic outcomes are forms
        (constant, symbol ids, nonzero coefficients).
        """
        seq = self.measurements_done
        deterministic, k = self._collapse(j, rng)
        self.measurements_done += 1
        if self.symbols is None:
            return MeasurementRecord(j, seq, deterministic, int(k))
        live = np.flatnonzero(k[1:])
        form = (int(k[0]), self.symbols[live], k[1 + live])
        self._drop_dead()
        return MeasurementRecord(j, seq, deterministic, form)


class Tableau(SymbolicPhases):
    """Destabilizer/stabilizer tableau for n qudits of odd prime dimension d."""

    def __init__(self, n: int, d):
        dim = _as_dimension(d)
        if not dim.is_odd_prime:
            raise DimensionError(
                f"tableau backend requires an odd prime dimension, got d={dim.d}")
        if n < 1:
            raise ShapeError(f"need at least 1 qudit, got n={n}")
        self.dimension = dim
        self.d = dim.d
        self.n = n
        self.X = np.zeros((2 * n, n), dtype=np.int64)
        self.Z = np.zeros((2 * n, n), dtype=np.int64)
        self.r = np.zeros(2 * n, dtype=np.int64)
        for j in range(n):
            self.X[j, j] = 1
            self.Z[n + j, j] = 1
        self.lam = np.ones(n, dtype=np.int64)
        self.measurements_done = 0
        self.gate_op_log: list[int] = []
        self.measure_op_log: list[int] = []

    @classmethod
    def from_stabilizers(cls, stabilizers) -> "Tableau":
        """Tableau for the joint +1-ish eigenstate of n given stabilizer rows.

        The rows must be independent and mutually commuting; phases are kept
        as given.  Destabilizers are completed by solving the symplectic
        pairing conditions over F_d, so lam starts at all ones.
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
        for i, s in enumerate(stabs):
            tab.X[n + i] = s.x
            tab.Z[n + i] = s.z
            tab.r[n + i] = s.r

        # Destabilizer i solves c(S_k, u) = delta_ki and c(D_m, u) = 0 for
        # m < i, where c((x,z),(x',z')) = z.x' - x.z' is the symplectic form.
        constraint_rows = [np.concatenate([tab.Z[n + k], (-tab.X[n + k]) % d])
                           for k in range(n)]
        for i in range(n):
            a = np.array(constraint_rows, dtype=np.int64)
            b = np.zeros(len(constraint_rows), dtype=np.int64)
            b[i] = 1
            u = solve_mod_prime(a, b, d)
            if u is None:
                raise ShapeError("stabilizer rows are not independent")
            tab.X[i] = u[:n] % d
            tab.Z[i] = u[n:] % d
            tab.r[i] = 0
            constraint_rows.append(np.concatenate([tab.Z[i], (-tab.X[i]) % d]))
        tab.check_invariants()
        return tab

    def copy(self) -> "Tableau":
        out = Tableau.__new__(Tableau)
        out.__dict__.update(
            self.__dict__, X=self.X.copy(), Z=self.Z.copy(), r=self.r.copy(),
            lam=self.lam.copy(), _pending=list(self._pending),
            gate_op_log=list(self.gate_op_log),
            measure_op_log=list(self.measure_op_log))
        return out

    @property
    def _live(self) -> slice:
        """Stabilizer rows: destabilizer phases never reach an outcome."""
        return slice(self.n, None)

    # -- row access ----------------------------------------------------------

    def destabilizer(self, k: int) -> PauliString:
        return PauliString(self.dimension, self.X[k], self.Z[k], int(self.r[k]))

    def stabilizer(self, i: int) -> PauliString:
        return PauliString(self.dimension, self.X[self.n + i], self.Z[self.n + i],
                           int(self.r[self.n + i]))

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
        expect = np.diag(self.lam % d)
        if np.any(pair != expect) or np.any(self.lam % d == 0):
            raise ShapeError("stabilizer/destabilizer pairing is broken")

    # -- gates -----------------------------------------------------------------

    def apply_gate(self, name: str, *qudits: int) -> None:
        gate = resolve(name, qudits, self.n)
        d, X, Z = self.d, self.X, self.Z
        if gate.arity == 1:
            (j,) = qudits
            x, z = X[:, j], Z[:, j]
            rc = self._const(self.r)
            rc += gate.omega(x, z, d)
            rc %= d
            if gate.cols is not None:
                X[:, j], Z[:, j] = gate.cols(x, z, d)
        else:
            c, t = qudits
            X[:, t], Z[:, c] = gate.cols(X[:, c], Z[:, c], X[:, t], Z[:, t], d)
        self.gate_op_log.append(2 * gate.arity * self.n)

    def apply_pauli_error(self, j: int, a: int, b: int) -> None:
        """Conjugate every row by X^a Z^b on qudit j."""
        self._check_qudit(j)
        self.r = (self.r + b * self.X[:, j] - a * self.Z[:, j]) % self.d

    def add_noise_symbols(self, j: int) -> list:
        """Symbolic X^a Z^b on qudit j: the ids of fresh symbols a and b."""
        self._check_qudit(j)
        return self._new_symbols((-self.Z[:, j]) % self.d, self.X[:, j].copy())

    # -- measurement -----------------------------------------------------------

    def _collapse(self, j: int, rng):
        """Measure Z_j: (deterministic, outcome k mod d), k an int or, with
        symbolic phases, a vector over r's columns.  Outcome k collapses
        onto w^(-k) Z_j; a random one is the pivot row's fresh symbol."""
        d, n = self.d, self.n
        self._check_qudit(j)
        self._flush()
        hits = np.flatnonzero(self.X[n:, j])
        if len(hits):
            p = n + int(hits[0])
            ops = 2 * n
            ops += self._eliminate_column(j, p) * (2 * n + 1)
            self.lam[p - n] = int(self.X[p, j])
            self.X[p - n] = self.X[p]
            self.Z[p - n] = self.Z[p]
            self.r[p - n] = self.r[p]
            self.X[p] = 0
            self.Z[p] = 0
            self.Z[p, j] = 1
            k = (int(rng.integers(0, d)) if self.symbols is None
                 else self._fresh_symbol())
            self.r[p] = (-k) % d
            ops += 2 * (2 * n + 1) + 1
            self.measure_op_log.append(ops)
            return False, k

        # Z_j = prod_k S_k^y_k with y = X[:n, j] / lam.  Multiplying the
        # powers in order k = 0..n-1 gives the phase sum below: each power
        # contributes y_k r_k + C(y_k, 2) (x_k . z_k), and each earlier
        # factor k' < k contributes y_k' y_k (z_k' . x_k).
        lam_inv = np.array([pow(int(v), -1, d) for v in self.lam], dtype=np.int64)
        y = (self.X[:n, j] * lam_inv) % d
        sx, sz = self.X[n:], self.Z[n:]
        px = (y @ sx) % d
        pz = (y @ sz) % d
        cross = np.triu((y[:, None] * sz) @ (y[:, None] * sx).T, 1).sum()
        assert not px.any() and pz[j] == 1 and pz.sum() == 1, \
            "deterministic measurement product is not the bare Z on the target"
        k = np.array(-(y @ self.r[n:]))
        kc = self._const(k)
        kc -= (y * (y - 1) // 2) @ (sx * sz).sum(axis=1) + cross
        self.measure_op_log.append(2 * n + n + n * (2 * n + 1))
        return True, k % d

    def deterministic_outcome_gaussian(self, j: int):
        """Branch decision and outcome by direct linear solving; never mutates.

        Solves for exponents y with prod_i stabilizer_i^y_i = w^c Z_j over
        F_d.  Returns (True, outcome) when a solution exists, with the
        outcome read from the phase of the explicitly multiplied product,
        or (False, None) when Z_j is not in the stabilizer group and the
        measurement would be random.  Serves as an independent check of
        measure_z's pivot scan and phase accumulation.
        """
        d, n = self.d, self.n
        if not 0 <= j < n:
            raise ShapeError(f"qudit index {j} out of range for n={n}")
        a = np.hstack([self.X[n:], self.Z[n:]]).T  # (2n, n): column i = generator i
        b = np.zeros(2 * n, dtype=np.int64)
        b[n + j] = 1
        y = solve_mod_prime(a, b, d)
        if y is None:
            return False, None
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
        moved = self.r[rows] + np.multiply.outer(h, self.r[p])
        mc = self._const(moved)
        mc += (h * (h - 1) // 2) * int(xp @ zp) + h * (self.Z[rows] @ xp)
        self.r[rows] = moved % d
        self.X[rows] = (self.X[rows] + h[:, None] * xp) % d
        self.Z[rows] = (self.Z[rows] + h[:, None] * zp) % d
        return int(len(rows))

    def reset(self, j: int, rng: np.random.Generator = None) -> None:
        """Measure qudit j and shift it back to |0> with an X^-k correction,
        which adds k Z[:, j] to the phases."""
        _, k = self._collapse(j, rng)
        self.r = (self.r + np.multiply.outer(self.Z[:, j], k)) % self.d
        if self.symbols is not None:
            self._drop_dead()


@dataclass(eq=False)
class OutcomeMap:
    """Every measurement outcome of a circuit as an affine form over symbols.

    Slot m reads (const[m] + sum of coeff * value over its entries) mod d.
    Symbols are numbered in program order: a random M or RESET adds one,
    uniform on Z_d (listed in uniform), and each N1 location two, its error
    components a and b (the rows of noise), which are 0 unless it fires.
    Symbol s's entries, sorted by slot, are slots[indptr[s]:indptr[s+1]]
    with their coeffs.  noise_groups lists, per (channel, prob), the N1
    locations (rows of noise) that share it.
    """

    d: int
    const: np.ndarray
    qudits: np.ndarray
    seqs: np.ndarray
    deterministic: np.ndarray
    indptr: np.ndarray
    slots: np.ndarray
    coeffs: np.ndarray
    uniform: np.ndarray
    noise: np.ndarray
    noise_groups: list


def compile_circuit(circuit, start: SymbolicPhases) -> OutcomeMap:
    """Run circuit once on symbolic phases from start, a Tableau or a
    WeylTableau; no randomness used."""
    tab = start.symbolic()
    records, noise, groups = [], [], {}
    for ins in circuit.instructions:
        name = ins.name
        if name == "M":
            records.append(tab.measure_z(ins.qudits[0]))
        elif name == "RESET":
            tab.reset(ins.qudits[0])
        elif name == "N1":
            groups.setdefault((ins.noise_channel, ins.prob), []).append(len(noise))
            noise.append(tab.add_noise_symbols(ins.qudits[0]))
        else:
            tab.apply_gate(name, *ins.qudits)
    forms = [rec.outcome for rec in records]
    ids = np.concatenate([f[1] for f in forms] + [np.zeros(0, np.int64)])
    order = np.argsort(ids, kind="stable")
    slots = np.repeat(np.arange(len(forms)), [len(f[1]) for f in forms])
    noise = np.array(noise, dtype=np.int64).reshape(-1, 2)
    uniform = np.ones(tab.num_symbols, dtype=bool)
    uniform[noise] = False
    return OutcomeMap(
        d=tab.d,
        const=np.array([f[0] for f in forms], dtype=np.int64),
        qudits=np.array([r.qudit for r in records], dtype=np.int64),
        seqs=np.array([r.seq for r in records], dtype=np.int64),
        deterministic=np.array([r.deterministic for r in records], dtype=bool),
        indptr=np.r_[0, np.cumsum(np.bincount(ids, minlength=tab.num_symbols))],
        slots=slots[order],
        coeffs=np.concatenate([f[2] for f in forms]
                              + [np.zeros(0, np.int64)])[order],
        uniform=np.flatnonzero(uniform),
        noise=noise,
        noise_groups=[(key, np.array(locs)) for key, locs in groups.items()],
    )
