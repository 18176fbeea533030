"""Pauli-frame sampling for every qudit dimension.

A Pauli frame records how one shot differs from a noiseless reference
shot: each random measurement or reset and each noise event that fires
moves the later outcomes by fixed multiples of its value, the same in every
shot.  FrameSimulator works that map out once.  compile_circuit
(tableau.py) runs the circuit on symbolic phases, on a Tableau for odd
prime d and a weyl.WeylTableau otherwise, and returns an OutcomeMap: every
outcome is an affine form over random symbols, one uniform symbol per
random measurement or reset and the components a and b of each N1
location's error.  The constant terms are the reference shot and the
symbol entries are the frame.  A shard of shots then only draws its symbols
and adds their entries to the constants (sample_outcomes), so no
instruction is replayed per shot.

Noise is sampled sparsely, after Stim's frame simulator (Gidney 2021): per
(channel, prob) group of N1 locations, the number of firing (location,
shot) pairs is drawn from Binomial(locations x shots, prob), that many
distinct pairs are chosen uniformly, and only those get an error, uniform
over the channel's support.  Each pair still fires independently with
probability prob, so the distribution is exactly that of one Bernoulli draw
per pair, while the cost follows the events that fire.

Shots are processed in shards, each with its own child of the master seed
sequence, so results are identical whether shards run serially or across a
thread pool (run_shards).  simulate.run_circuit samples the 'frames',
'tableau' and 'weyl' methods with FrameSimulator.  reference_run runs the
circuit once on a concrete tableau with noise skipped.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .circuit import MeasurementRecord
from .errors import DimensionError
from .noise import sample_error_batch
from .pauli import _as_dimension
from .tableau import Tableau, compile_circuit
from .weyl import WeylTableau

# A FrameSimulator shard holds (M, shard) outcomes and (U, shard) uniform
# symbol draws in int64, for M measurements and U random measurements and
# resets, and draws its noise over an (L, shard) grid of N1 locations; this
# caps M + U + L times the shard size.
OUTCOME_SHARD_ENTRIES = 1 << 20

# sample_outcomes scatters symbol entries times shots in steps of at most
# this many products (32 KiB of int64), so its index and value arrays stay
# small next to the shard's outcomes.
SCATTER_ENTRIES = 1 << 12


def _as_seedseq(seed) -> np.random.SeedSequence:
    """seed as a SeedSequence; a caller's is copied so spawning never
    advances it."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size,
            n_children_spawned=seed.n_children_spawned)
    return np.random.SeedSequence(seed)


def _start_tableau(circuit, initial_tableau=None):
    """A copy of initial_tableau, or a fresh register: a Tableau for odd
    prime d and a WeylTableau otherwise."""
    dim = _as_dimension(circuit.dimension)
    if initial_tableau is None:
        kind = Tableau if dim.is_odd_prime else WeylTableau
        return kind(circuit.num_qudits, dim)
    if initial_tableau.n != circuit.num_qudits or initial_tableau.d != dim.d:
        raise DimensionError("initial tableau does not match the circuit")
    return initial_tableau.copy()


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
    """(size, M) outcomes of one shard of shots drawn from omap, in the
    smallest unsigned dtype that holds d - 1.

    Uniform symbols reach every shot, so their entries scale whole rows of
    draws, in blocks of shots; a fired error adds a * (its a symbol's
    entries) + b * (its b symbol's) to its own shot only, in chunks of
    errors.  Each step takes at most SCATTER_ENTRIES products.
    """
    values, (loc, shot, a, b) = draw_symbols(omap, rng, size)
    d = omap.d
    out = np.empty((len(omap.const), size), dtype=np.int64)
    out[:] = omap.const[:, None]
    which, slot, coeff = _entries(omap, omap.uniform)
    order = np.argsort(slot, kind="stable")
    which, slot, coeff = which[order], slot[order], coeff[order]
    heads = np.flatnonzero(np.r_[True, slot[1:] != slot[:-1]])
    step = max(1, SCATTER_ENTRIES // max(1, len(slot)))
    for lo in range(0, size if len(slot) else 0, step):
        cols = slice(lo, lo + step)
        rows = coeff[:, None] * values[which, cols]
        out[slot[heads], cols] += np.add.reduceat(rows, heads, axis=0) % d
    counts = np.diff(omap.indptr)
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
    return out.astype(np.min_scalar_type(d - 1)).T


def reference_run(circuit, rng, initial_tableau=None) -> list[MeasurementRecord]:
    """One noiseless execution on a concrete tableau; its MeasurementRecords
    in program order."""
    tab = _start_tableau(circuit, initial_tableau)
    records = []
    for ins in circuit.instructions:
        name = ins.name
        if name == "M":
            records.append(tab.measure_z(ins.qudits[0], rng))
        elif name == "RESET":
            tab.reset(ins.qudits[0], rng)
        elif name != "N1":
            tab.apply_gate(name, *ins.qudits)
    return records


class FrameSimulator:
    """Samples the measurement outcomes of a circuit from its OutcomeMap.

    omap holds the slot arrays (qudits, seqs, deterministic).  op_count
    adds up map entries times shots over every run.
    """

    def __init__(self, circuit, seed=None, initial_tableau=None):
        omap = compile_circuit(circuit, _start_tableau(circuit, initial_tableau))
        width = len(omap.const) + len(omap.uniform) + len(omap.noise)
        self.omap = omap
        self.shard_size = max(1, OUTCOME_SHARD_ENTRIES // max(1, width))
        self._seedseq = _as_seedseq(seed)
        self.op_count = 0

    def run(self, shots: int, threads: int = None) -> np.ndarray:
        """Outcome matrix of shape (shots, num_measurements), dtype int64."""
        parts = run_shards(self._seedseq, shots, self.shard_size, threads,
                           lambda rng, size: sample_outcomes(self.omap, rng, size))
        self.op_count += len(self.omap.slots) * int(shots)
        return np.concatenate(parts, axis=0, dtype=np.int64)


def run_frames(circuit, shots: int, seed=None, threads: int = None,
               initial_tableau=None) -> np.ndarray:
    return FrameSimulator(circuit, seed, initial_tableau).run(shots, threads)
