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

Layout: a shard keeps fx and fz qudit-major, one row of shots per qudit, in
the smallest unsigned dtype that holds 2d - 1 (uint8 for d <= 127), so a
gate reads and rewrites whole contiguous rows and the sum of two reduced
entries never wraps before it is taken mod d.  Measured outcomes collect
in an (M, shots) block that run() transposes into its (shots, M) int64
result.

Noise is sampled sparsely, after Stim's frame simulator (Gidney 2021): for
each N1 and shard the number of firing shots is drawn from Binomial(shard
size, p), that many distinct shots are chosen uniformly, and only those get
an error, uniform over the channel's support.  Each (instruction, shot) pair
still fires independently with probability p, so the distribution is
exactly that of one Bernoulli draw per pair, while the cost follows the
events that fire.

Shots are processed in fixed-size shards, each with its own child of the
master seed sequence, so results are identical whether shards run serially
or across a thread pool.

The odd-prime tableau (simulate.run_circuit, method 'tableau') samples
from an OutcomeMap compiled once on symbolic phases (tableau.py):
sample_outcomes draws a shard's symbols, uniform values for random
measurements and resets and, per (channel, prob) group of N1 locations,
the same sparse Bernoulli draw over the whole (locations x shots) grid, and
adds each fired error's entries to its shot's outcomes.  The shot-batched
Weyl backend (method 'weyl') shares the per-N1 sparse draw (sample_noise)
and the instruction loop (run_tableau), which the reference run above uses
on a single shot (a 1-D phase vector) with noise skipped.  Both share the
shard scheme (run_shards).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .circuit import MeasurementRecord
from .errors import DimensionError
from .gates import GATES
from .noise import sample_error_batch
from .pauli import _as_dimension
from .tableau import Tableau

# Every instruction costs a few numpy calls per shard whatever its size, so
# large shards amortize that; a shard's frame rows stay small (16 KiB each).
SHARD_SIZE = 16384

# sample_outcomes scatters symbol entries times shots in steps of at most
# this many products (8 MiB of int64).
SCATTER_ENTRIES = 1 << 20


def _as_seedseq(seed) -> np.random.SeedSequence:
    """seed as a SeedSequence; a caller's is copied so spawning never
    advances it."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size,
            n_children_spawned=seed.n_children_spawned)
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


def sample_noise(ins, d: int, rng, size: int):
    """Sparse errors of one N1 over a batch of size shots.

    Bernoulli(prob) per shot: a binomial count of firing shots, a uniform
    subset of that size, then errors from the channel's support.  Returns
    (shot indices, a, b), or None when no shot fires.
    """
    k = rng.binomial(size, ins.prob)
    if not k:
        return None
    hit = rng.choice(size, k, replace=False, shuffle=False)
    a, b = sample_error_batch(ins.noise_channel, 1.0, d, rng, k)
    return hit, a, b


def run_tableau(circuit, tab, rng, noise: bool = True) -> list[MeasurementRecord]:
    """Run circuit on tab, a Tableau or a WeylTableau; its MeasurementRecords
    in program order.

    With a shot axis on a WeylTableau's phase array the outcomes are
    per-shot arrays, with a 1-D one (a single shot) they are ints.
    noise=False skips N1; noise needs the shot axis.
    """
    records = []
    for ins in circuit.instructions:
        name = ins.name
        if name == "M":
            records.append(tab.measure_z(ins.qudits[0], rng))
        elif name == "RESET":
            tab.reset(ins.qudits[0], rng)
        elif name == "N1":
            if noise:
                drawn = sample_noise(ins, tab.d, rng, tab.num_shots)
                if drawn is not None:
                    hit, a, b = drawn
                    tab.apply_pauli_error(ins.qudits[0], a, b, hit)
        else:
            tab.apply_gate(name, *ins.qudits)
    return records


def run_shards(seedseq, shots: int, shard_size: int, threads, run_shard) -> list:
    """run_shard(rng, size) on consecutive shards of at most shard_size shots.

    Each shard gets its own child of seedseq and the results come back in
    shard order, so they do not depend on whether the shards run serially
    or on min(threads, shards, CPUs) pool threads.
    """
    shots = int(shots)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    sizes = [min(shard_size, shots - start)
             for start in range(0, shots, shard_size)]
    jobs = [(np.random.Generator(np.random.PCG64(child)), size)
            for child, size in zip(seedseq.spawn(len(sizes)), sizes)]
    workers = min(threads or 1, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda job: run_shard(*job), jobs))
    return [run_shard(rng, size) for rng, size in jobs]


def draw_symbols(omap, rng, size: int):
    """One shard's symbol values for omap: uniform draws, shape
    (len(omap.uniform), size), and the fired N1 events as arrays
    (location, shot, a, b).

    Per (channel, prob) group of locations, a binomial count over the
    (locations x shots) grid, a uniform subset of that size and errors from
    the channel's support: each (location, shot) fires independently with
    probability prob.
    """
    values = rng.integers(0, omap.d, (len(omap.uniform), size))
    fired = [np.zeros(0, dtype=np.int64)] * 4
    for (kind, prob), locs in omap.noise_groups:
        k = rng.binomial(len(locs) * size, prob)
        if k:
            hit = rng.choice(len(locs) * size, k, replace=False, shuffle=False)
            a, b = sample_error_batch(kind, 1.0, omap.d, rng, k)
            fired = [np.concatenate(pair) for pair in
                     zip(fired, (locs[hit // size], hit % size, a, b))]
    return values, tuple(fired)


def _entries(omap, sym):
    """(position in sym, slot, coeff) of every entry of the symbols sym."""
    start = omap.indptr[sym]
    count = omap.indptr[sym + 1] - start
    which = np.repeat(np.arange(len(sym)), count)
    pos = np.arange(len(which)) + np.repeat(start - np.cumsum(count) + count,
                                            count)
    return which, omap.slots[pos], omap.coeffs[pos]


def _chunks(weights, cap: int):
    """Consecutive slices of weights, each summing to at most cap unless it
    is a single element."""
    ends = np.cumsum(weights)
    lo = 0
    while lo < len(ends):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + cap, side="right")))
        yield slice(lo, hi)
        lo = hi


def sample_outcomes(omap, rng, size: int) -> np.ndarray:
    """(size, M) int64 outcomes of one shard of shots drawn from omap.

    Uniform symbols reach every shot, so their entries scale whole rows of
    draws; a fired error adds a * (its a symbol's entries) + b * (its b
    symbol's) to its own shot only.  Both go in chunks of at most
    SCATTER_ENTRIES products.
    """
    values, (loc, shot, a, b) = draw_symbols(omap, rng, size)
    d = omap.d
    out = np.empty((len(omap.const), size), dtype=np.int64)
    out[:] = omap.const[:, None]
    counts = np.diff(omap.indptr)
    for part in _chunks(counts[omap.uniform] * size, SCATTER_ENTRIES):
        which, slot, coeff = _entries(omap, omap.uniform[part])
        if not len(slot):  # symbols of resets that no outcome reads
            continue
        order = np.argsort(slot, kind="stable")
        which, slot, coeff = which[order], slot[order], coeff[order]
        heads = np.flatnonzero(np.r_[True, slot[1:] != slot[:-1]])
        rows = coeff[:, None] * values[part][which]
        out[slot[heads]] += np.add.reduceat(rows, heads, axis=0) % d
    val = np.column_stack([a, b]).reshape(-1)
    fired = val != 0
    sym, val = omap.noise[loc].reshape(-1)[fired], val[fired]
    shot = np.repeat(shot, 2)[fired]
    flat = out.reshape(-1)
    for part in _chunks(counts[sym], SCATTER_ENTRIES):
        which, slot, coeff = _entries(omap, sym[part])
        np.add.at(flat, slot * size + shot[part][which],
                  val[part][which] * coeff)
    out %= d
    return out.T


def reference_run(circuit, rng, initial_tableau: Tableau = None) -> list[MeasurementRecord]:
    """One noiseless tableau execution; returns its MeasurementRecords."""
    return run_tableau(circuit, _start_tableau(circuit, initial_tableau), rng,
                       noise=False)


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
        # frame entries live in [0, d); sums of two fit before reduction
        self._dtype = np.min_scalar_type(2 * self.d - 1)

        # uniform powers of these rows seed each shot's frame
        self.init_stab_x = tab.X[self.n:].copy()
        self.init_stab_z = tab.Z[self.n:].copy()

        ref_rng = np.random.Generator(np.random.PCG64(self._seedseq.spawn(1)[0]))
        self.reference_records = run_tableau(circuit, tab, ref_rng, noise=False)
        self._ref_outcomes = [r.outcome for r in self.reference_records]

    def run(self, shots: int, threads: int = None) -> np.ndarray:
        """Record matrix of shape (shots, num_measurements), dtype int64."""
        parts = run_shards(self._seedseq, shots, self.shard_size, threads,
                           self._run_shard)
        self.op_count += sum(ops for _, ops in parts)
        return np.concatenate([out.T for out, _ in parts], axis=0,
                              dtype=np.int64)

    def _run_shard(self, rng: np.random.Generator, size: int):
        """(M, size) outcomes of one shard and its frame-slot update count."""
        d, dtype = self.d, self._dtype
        powers = rng.integers(0, d, (self.n, size))
        fx = ((self.init_stab_x.T @ powers) % d).astype(dtype)
        fz = ((self.init_stab_z.T @ powers) % d).astype(dtype)
        out = np.empty((self.circuit.num_measurements, size), dtype=dtype)
        mi = 0
        ops = 0  # frame-slot updates: O(1) per shot per instruction
        for ins in self.circuit.instructions:
            name = ins.name
            if name == "M":
                j = ins.qudits[0]
                np.remainder(fx[j] + self._ref_outcomes[mi], d, out=out[mi])
                mi += 1
                row = fz[j]
                row += rng.integers(0, d, size, dtype=dtype)
                row %= d
                ops += 2 * size
            elif name == "RESET":
                j = ins.qudits[0]
                fx[j] = 0
                fz[j] = rng.integers(0, d, size, dtype=dtype)
                ops += 2 * size
            elif name == "N1":
                drawn = sample_noise(ins, d, rng, size)
                if drawn is not None:
                    j = ins.qudits[0]
                    hit, a, b = drawn
                    fx[j, hit] = (fx[j, hit] + a) % d
                    fz[j, hit] = (fz[j, hit] + b) % d
                ops += 2 * size
            else:
                gate = GATES[name]
                if gate.arity == 2:
                    c, t = ins.qudits
                    fx[t], fz[c] = gate.cols(fx[c], fz[c], fx[t], fz[t], d)
                elif gate.cols is not None:  # X and Z powers move only phases
                    j = ins.qudits[0]
                    fx[j], fz[j] = gate.cols(fx[j], fz[j], d)
                ops += gate.arity * size
        return out, ops


def run_frames(circuit, shots: int, seed=None, threads: int = None,
               initial_tableau: Tableau = None) -> np.ndarray:
    return FrameSimulator(circuit, seed, initial_tableau).run(shots, threads)
