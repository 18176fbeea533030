"""Pauli-frame sampling for every qudit dimension.

A Pauli frame records how one shot differs from a noiseless reference
shot: each random measurement or reset and each noise event that fires
moves the later outcomes by fixed multiples of its value, the same in every
shot.  FrameSimulator works that map out once.  compile_circuit returns
it as an OutcomeMap: every outcome is an affine form over random symbols,
one uniform symbol per random measurement or reset and the components a
and b of each N1 location's error.  Its constant terms come from one
reference run on a concrete tableau (a Tableau for odd prime d, a
weyl.WeylTableau otherwise) and its symbol entries, the frame, from one
pass that carries every measured Z back through the circuit, after Stim's
error analysis (Gidney 2021).  A shard of shots then only draws its
symbols and adds their entries to the constants (_Layout.sample), so no
instruction is replayed per shot.

FrameSimulator makes one generator from its seed and works out once what
every shard reads; run draws shards of shard_size shots from it in order,
each adding into its rows of one preallocated int64 result, so a second run
continues the stream, and reseed restarts it from a new seed without
compiling again.  Noise is sparse, after Stim's frame simulator: the
(location, shot) pairs that fire come from geometric gaps between them
(fired_positions), one Bernoulli(prob) draw per pair at the cost of the
events that fire.  Threads ran no faster, so the threads argument is
checked but changes nothing; output never depended on it.
simulate.run_circuit samples the 'frames' and 'tableau' methods with
FrameSimulator.  reference_run runs the circuit once on a concrete tableau
with noise skipped, the same loop the compile starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd

import numpy as np

from .circuit import MeasurementRecord
from .errors import DimensionError, MemoryCapError, integral
from .gates import GATES
from .noise import sample_error_batch
from .pauli import _as_dimension
from .tableau import Tableau
from .weyl import WeylTableau

# No run builds an outcome matrix of more shots x max(1, measurements)
# entries than this (2 GiB of int64); check_outcome_entries refuses it first.
MAX_OUTCOME_ENTRIES = 1 << 28

# A FrameSimulator shard allocates about this many int64 entries, shard_width
# per shot (512 KiB per temporary): glibc then reuses one shard's freed
# temporaries for the next instead of trimming the heap and re-faulting them.
OUTCOME_SHARD_ENTRIES = 1 << 16

# compile_circuit buffers at most this many symbol entries (8 MiB of int64)
# before compressing them to the nonzero ones.
COMPILE_BUFFER_ENTRIES = 1 << 20


def check_outcome_entries(shots: int, num_slots: int) -> None:
    """Raise MemoryCapError if a (shots, num_slots) outcome matrix would
    exceed MAX_OUTCOME_ENTRIES."""
    if int(shots) * max(1, num_slots) > MAX_OUTCOME_ENTRIES:
        raise MemoryCapError(
            f"{shots} shots x {num_slots} measurements exceeds the outcome "
            f"cap of {MAX_OUTCOME_ENTRIES} entries")


def _start_tableau(circuit, initial_tableau=None):
    """A copy of initial_tableau with no measurements counted, so that seqs
    start at 0, or a fresh register: a Tableau for odd prime d and a
    WeylTableau otherwise."""
    dim = _as_dimension(circuit.dimension)
    if initial_tableau is None:
        kind = Tableau if dim.is_odd_prime else WeylTableau
        return kind(circuit.num_qudits, dim)
    if initial_tableau.n != circuit.num_qudits or initial_tableau.d != dim.d:
        raise DimensionError("initial tableau does not match the circuit")
    tab = initial_tableau.copy()
    tab.measurements_done = 0
    return tab


def fired_positions(rng, count: int, prob: float) -> np.ndarray:
    """Sorted positions in range(count), each present independently with
    probability prob.  The gaps between them are geometric, so they are
    cumulative sums of rng.geometric draws, taken in batches of a little
    over the expected count until they pass count; prob 0 draws nothing and
    prob 1 gives every position."""
    if prob >= 1:
        return np.arange(count)
    parts, last, mean = [np.zeros(0, dtype=np.int64)], -1, count * prob
    while prob > 0 and last + 1 < count:
        gaps = rng.geometric(prob, int(mean + 4 * mean ** 0.5) + 8)
        # capped at count + 1, a gap still passes count; sums stay in int64
        parts.append(last + np.cumsum(np.minimum(gaps, count + 1)))
        last = parts[-1][-1]
    pos = np.concatenate(parts)
    return pos[:np.searchsorted(pos, count)]


def draw_symbols(omap, rng, size: int):
    """One shard's symbol values for omap: uniform draws, shape
    (len(omap.uniform), size), and the fired N1 events as arrays (location,
    shot, a, b): per (channel, prob) group, the fired positions of its
    location-major (locations x shots) grid and their errors."""
    values = rng.integers(0, omap.d, (len(omap.uniform), size))
    fired = [(np.zeros(0, dtype=np.int64),) * 4]
    for (kind, prob), locs in omap.noise_groups:
        row, shot = np.divmod(fired_positions(rng, len(locs) * size, prob), size)
        fired.append((locs[row], shot,
                      *sample_error_batch(kind, omap.d, rng, len(row))))
    return values, tuple(np.concatenate(part) for part in zip(*fired))


def _ranges(start, count):
    """The concatenated ranges start[i] .. start[i] + count[i] - 1."""
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count,
                                              count)


class _Layout:
    """What every shard of an OutcomeMap reads, worked out once: the uniform
    symbols' entries (draw row, slot, coeff) and, per N1 location, its first
    entry and how many its a and b symbols have (its entries run a's, then
    b's).  width: the int64 entries a shard allocates per shot."""

    def __init__(self, omap):
        self.omap = omap
        start, count = omap.indptr[:-1], np.diff(omap.indptr)
        uniform = count[omap.uniform]
        self.which = np.repeat(np.arange(len(uniform)), uniform)
        pos = _ranges(start[omap.uniform], uniform)
        self.slot, self.coeff = omap.slots[pos, None], omap.coeffs[pos, None]
        self.noise_start = start[omap.noise[:, 0]]
        self.noise_count = count[omap.noise]
        self.noise_total = self.noise_count.sum(axis=1)
        fired = sum(prob * (len(locs) + self.noise_total[locs].sum())
                    for (_, prob), locs in omap.noise_groups)
        self.width = max(1, len(omap.const) + len(omap.uniform)
                         + len(self.which) + ceil(fired))

    def sample(self, rng, out) -> None:
        """Draw len(out) shots into out, C-contiguous (shots, M) int64 rows:
        each uniform entry adds coeff times its symbol's draw to its slot in
        every shot, each fired error adds a times its a symbol's entries and
        b times its b symbol's in its own shot, and out is reduced mod d."""
        omap = self.omap
        size, num_slots = out.shape
        values, (loc, shot, a, b) = draw_symbols(omap, rng, size)
        flat = out.reshape(-1)
        out[:] = omap.const
        cell = self.slot + num_slots * np.arange(size)
        np.add.at(flat, cell.reshape(-1),
                  (values[self.which] * self.coeff).reshape(-1))
        total = self.noise_total[loc]
        pos = _ranges(self.noise_start[loc], total)
        cell = np.repeat(shot * num_slots, total) + omap.slots[pos]
        value = np.repeat(np.column_stack((a, b)).reshape(-1),
                          self.noise_count[loc].reshape(-1))
        np.add.at(flat, cell, value * omap.coeffs[pos])
        # numpy vectorizes integer division by a scalar but not remainder
        out -= out // omap.d * omap.d


def _reference(circuit, tab, rng):
    """Run circuit once on tab with noise skipped: its MeasurementRecords in
    program order and, per M and RESET, tab.pivot after it."""
    records, pivots = [], []
    for ins in circuit.instructions:
        name = ins.name
        if name == "M":
            records.append(tab.measure_z(ins.qudits[0], rng))
        elif name == "RESET":
            tab.reset(ins.qudits[0], rng)
        else:
            if name != "N1":
                tab.apply_gate(name, *ins.qudits)
            continue
        pivots.append(tab.pivot)
    return records, pivots


def reference_run(circuit, rng, initial_tableau=None) -> list[MeasurementRecord]:
    """One noiseless execution on a concrete tableau; its MeasurementRecords
    in program order."""
    return _reference(circuit, _start_tableau(circuit, initial_tableau), rng)[0]


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


class _SymbolRows:
    """One row over the slots per symbol, added in descending symbol order,
    kept as sparse (slot, coeff) entries.

    Rows wait in a buffer of at most COMPILE_BUFFER_ENTRIES, filled from
    the bottom, and are compressed to their nonzero entries when it is
    full; read back to front, the chunks are in ascending symbol order.
    """

    def __init__(self, size: int, num_slots: int, d: int):
        rows = min(size, COMPILE_BUFFER_ENTRIES // max(1, num_slots))
        self.buf = np.zeros((max(1, rows), num_slots), dtype=np.int64)
        self.free = len(self.buf)
        self.d = d
        self.chunks = []

    def add(self, row, lo: int) -> None:
        """The next symbol's row: row on the slots from lo, 0 before."""
        if not self.free:
            self._compress()
        self.free -= 1
        self.buf[self.free, :lo] = 0
        self.buf[self.free, lo:] = row

    def _compress(self) -> None:
        rows = self.buf[self.free:] % self.d
        which, slot = np.nonzero(rows)
        self.chunks.append((np.bincount(which, minlength=len(rows)),
                            slot.astype(np.int32),
                            rows[which, slot].astype(np.min_scalar_type(self.d - 1))))
        self.free = len(self.buf)

    def finish(self):
        """(indptr, slots, coeffs) of every symbol, in symbol order."""
        self._compress()
        counts, slots, coeffs = (np.concatenate(part, dtype=np.int64)
                                 for part in zip(*self.chunks[::-1]))
        return np.r_[0, np.cumsum(counts)], slots, coeffs


def compile_circuit(circuit, start) -> OutcomeMap:
    """The OutcomeMap of circuit run from start, a Tableau or a WeylTableau;
    no randomness used.

    A reference run on a copy of start, every random outcome at the lowest
    value its support allows, gives the constants, the flags and the pivot
    (px, pz) of each random M and RESET.  One pass in reverse program order
    then carries every measured Z_j back to the start, as the columns of x
    and z (qudits x slots, mod d): a gate applies its inverse's column map,
    an N1's a gets the entries z[j] and its b -x[j], an M sets z[j, slot]
    and a RESET clears row j.  A random M or RESET gets row = px.z - pz.x;
    if px[j] is a unit, row is scaled by its inverse and taken off z[j],
    which zeroes the slot's own column, so a random outcome is its symbol
    alone (Symphase's gauge, Fang & Ying 2024).  Partial support on
    composite d keeps row as it is.  Cost: O(instructions x slots).
    """
    d, n = start.d, start.n
    records, pivots = _reference(circuit, start.copy(), None)
    num_slots = len(records)
    ops = circuit.instructions
    num_noise = sum(ins.name == "N1" for ins in ops)
    sym = sum(p is not None for p in pivots) + 2 * num_noise
    rows = _SymbolRows(sym, num_slots, d)
    x = np.zeros((n, num_slots), dtype=np.int64)
    z = np.zeros((n, num_slots), dtype=np.int64)
    noise = np.zeros((num_noise, 2), dtype=np.int64)
    uniform = []
    loc, slot, piv = num_noise, num_slots, len(pivots)
    for ins in reversed(ops):
        name, j = ins.name, ins.qudits[0]
        if name == "N1":
            loc -= 1
            sym -= 2
            noise[loc] = sym, sym + 1
            rows.add(-x[j, slot:], slot)
            rows.add(z[j, slot:], slot)
            continue
        if name not in ("M", "RESET"):
            gate = GATES[GATES[name].inverse]
            if gate.arity == 2:
                c, t = ins.qudits
                x[t, slot:], z[c, slot:] = gate.cols(
                    x[c, slot:], z[c, slot:], x[t, slot:], z[t, slot:], d)
            elif gate.cols is not None:
                x[j, slot:], z[j, slot:] = gate.cols(x[j, slot:], z[j, slot:], d)
            continue
        if name == "M":
            slot -= 1
            z[j, slot] = 1
        else:
            x[j, slot:] = z[j, slot:] = 0
        piv -= 1
        if pivots[piv] is None:
            continue
        px, pz = pivots[piv]
        sym -= 1
        uniform.append(sym)
        row = (px @ z[:, slot:] - pz @ x[:, slot:]) % d
        if gcd(int(px[j]), d) == 1:
            row = row * pow(int(px[j]), -1, d) % d
            z[j, slot:] = (z[j, slot:] - row) % d
        rows.add(row, slot)
    indptr, slots, coeffs = rows.finish()
    groups = {}
    for k, ins in enumerate(ins for ins in ops if ins.name == "N1"):
        groups.setdefault((ins.noise_channel, ins.prob), []).append(k)
    return OutcomeMap(
        d=d,
        const=np.array([r.outcome for r in records], dtype=np.int64),
        qudits=np.array([r.qudit for r in records], dtype=np.int64),
        seqs=np.array([r.seq for r in records], dtype=np.int64),
        deterministic=np.array([r.deterministic for r in records], dtype=bool),
        indptr=indptr,
        slots=slots,
        coeffs=coeffs,
        uniform=np.array(uniform[::-1], dtype=np.int64),
        noise=noise,
        noise_groups=[(key, np.array(locs)) for key, locs in groups.items()],
    )


class FrameSimulator:
    """Samples the measurement outcomes of a circuit from its OutcomeMap.

    omap holds the slot arrays (qudits, seqs, deterministic).  A shard
    holds shard_size shots of shard_width int64 entries each (_Layout).
    op_count adds up map entries times shots over every run.
    """

    def __init__(self, circuit, seed=None, initial_tableau=None):
        self.omap = compile_circuit(circuit,
                                    _start_tableau(circuit, initial_tableau))
        self._layout = _Layout(self.omap)
        self.shard_width = self._layout.width
        self.shard_size = max(1, OUTCOME_SHARD_ENTRIES // self.shard_width)
        self.reseed(seed)
        self.op_count = 0

    def reseed(self, seed) -> "FrameSimulator":
        """Draw later runs from a new generator made from seed, as a new
        simulator of the same circuit would; returns self."""
        self._rng = np.random.default_rng(seed)
        return self

    def run(self, shots: int, threads: int = None) -> np.ndarray:
        """(shots, num_measurements) int64 outcomes, drawn in shards from the
        simulator's one generator, so a later call continues where this one
        stops; threads is checked but changes nothing."""
        shots = integral(shots, "shots", minimum=1)
        if threads is not None:
            integral(threads, "threads", minimum=1)
        check_outcome_entries(shots, len(self.omap.const))
        out = np.empty((shots, len(self.omap.const)), dtype=np.int64)
        for lo in range(0, shots, self.shard_size):
            self._layout.sample(self._rng, out[lo:lo + self.shard_size])
        self.op_count += len(self.omap.slots) * shots
        return out
