"""Vectorized Pauli-frame sampling for odd prime qudit dimensions.

One phase-tracked reference run of the circuit is taken on the stabilizer
tableau with noise switched off.  Each shot then carries only a phaseless
Pauli frame (fx, fz) per qudit, the difference between that shot's state and
the reference state.  Gates act on frames by the same symplectic column maps
as on tableau rows (phases dropped), noise adds sampled error components, and
a measurement of qudit j returns reference outcome + fx_j.

Frames are initialized with uniformly random powers of the initial
stabilizer rows, i.e. a uniform element of the initial stabilizer group.
Without this the frame would be pinned to the reference on the first
measurement and random outcomes would all repeat the reference values; with
it the frame stays uniform over the current stabilizer group for the whole
run, which makes random outcomes uniform and leaves deterministic outcomes
exact in every shot.

Shots are processed in fixed-size shards, each with its own child of the
master seed sequence, so results are identical whether shards run serially
or across a thread pool.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .circuit import MeasurementRecord
from .errors import DimensionError
from .gates import GATES
from .noise import sample_error_batch
from .pauli import _as_dimension
from .tableau import Tableau

SHARD_SIZE = 4096


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _start_tableau(circuit, initial_tableau: Tableau = None) -> Tableau:
    dim = _as_dimension(circuit.dimension)
    if not dim.is_odd_prime:
        raise DimensionError(
            f"frame sampling requires an odd prime dimension, got d={dim.d}")
    if initial_tableau is None:
        return Tableau(circuit.num_qudits, dim)
    if initial_tableau.n != circuit.num_qudits or initial_tableau.d != dim.d:
        raise DimensionError("initial tableau does not match the circuit")
    return initial_tableau.copy()


def _trace(circuit, tab: Tableau, rng) -> list[MeasurementRecord]:
    records = []
    for ins in circuit.instructions:
        if ins.name == "M":
            records.append(tab.measure_z(ins.qudits[0], rng))
        elif ins.name == "RESET":
            tab.reset(ins.qudits[0], rng)
        elif ins.name != "N1":
            tab.apply_gate(ins.name, *ins.qudits)
    return records


def reference_run(circuit, rng, initial_tableau: Tableau = None) -> list[MeasurementRecord]:
    """One noiseless tableau execution; returns its MeasurementRecords."""
    return _trace(circuit, _start_tableau(circuit, initial_tableau), rng)


class FrameSimulator:
    """Samples measurement records of a circuit by Pauli-frame propagation."""

    def __init__(self, circuit, seed=None, initial_tableau: Tableau = None,
                 shard_size: int = SHARD_SIZE):
        tab = _start_tableau(circuit, initial_tableau)
        self.circuit = circuit
        self.dimension = tab.dimension
        self.d = tab.d
        self.n = circuit.num_qudits
        self.shard_size = int(shard_size)
        self._seedseq = _as_seedseq(seed)
        self.op_count = 0

        # uniform powers of these rows seed each shot's frame
        self.init_stab_x = tab.X[self.n:].copy()
        self.init_stab_z = tab.Z[self.n:].copy()

        ref_rng = np.random.Generator(np.random.PCG64(self._seedseq.spawn(1)[0]))
        self.reference_records = _trace(circuit, tab, ref_rng)
        self._ref_outcomes = np.array([r.outcome for r in self.reference_records],
                                      dtype=np.int64)

    def run(self, shots: int, threads: int = None) -> np.ndarray:
        """Record matrix of shape (shots, num_measurements)."""
        shots = int(shots)
        if shots < 1:
            return np.zeros((0, self.circuit.num_measurements), dtype=np.int64)
        sizes = []
        left = shots
        while left > 0:
            sizes.append(min(self.shard_size, left))
            left -= sizes[-1]
        children = self._seedseq.spawn(len(sizes))
        jobs = [(np.random.Generator(np.random.PCG64(child)), size)
                for child, size in zip(children, sizes)]
        if threads and threads > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(lambda job: self._run_shard(*job), jobs))
        else:
            parts = [self._run_shard(rng, size) for rng, size in jobs]
        self.op_count += sum(ops for _, ops in parts)
        return np.concatenate([out for out, _ in parts], axis=0)

    def _run_shard(self, rng: np.random.Generator, size: int):
        d, n = self.d, self.n
        powers = rng.integers(0, d, (size, n))
        fx = (powers @ self.init_stab_x) % d
        fz = (powers @ self.init_stab_z) % d
        out = np.empty((size, self.circuit.num_measurements), dtype=np.int64)
        mi = 0
        ops = 0  # frame-slot updates: O(1) per shot per instruction
        for ins in self.circuit.instructions:
            name = ins.name
            if name == "M":
                j = ins.qudits[0]
                out[:, mi] = (self._ref_outcomes[mi] + fx[:, j]) % d
                mi += 1
                fz[:, j] = (fz[:, j] + rng.integers(0, d, size)) % d
                ops += 2 * size
            elif name == "RESET":
                j = ins.qudits[0]
                fx[:, j] = 0
                fz[:, j] = rng.integers(0, d, size)
                ops += 2 * size
            elif name == "N1":
                j = ins.qudits[0]
                a, b = sample_error_batch(ins.noise_channel, ins.prob, d, rng, size)
                fx[:, j] = (fx[:, j] + a) % d
                fz[:, j] = (fz[:, j] + b) % d
                ops += 2 * size
            else:
                gate = GATES[name]
                if gate.arity == 2:
                    c, t = ins.qudits
                    fx[:, t], fz[:, c] = gate.cols(fx[:, c], fz[:, c],
                                                   fx[:, t], fz[:, t], d)
                elif gate.cols is not None:  # X and Z powers move only phases
                    j = ins.qudits[0]
                    fx[:, j], fz[:, j] = gate.cols(fx[:, j], fz[:, j], d)
                ops += gate.arity * size
        return out, ops


def run_frames(circuit, shots: int, seed=None, threads: int = None,
               initial_tableau: Tableau = None) -> np.ndarray:
    return FrameSimulator(circuit, seed, initial_tableau).run(shots, threads)
