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
error analysis (Gidney 2021), on live frame columns only: a column leaves
once a random measurement or reset zeroes it.  A shard of shots draws its
symbols and adds their entries to the constants (_Layout.sample), so no
instruction is replayed per shot.  outcome_law reads the exact law of any
small integer projection of the outcomes off the same map, with no sampling.

FrameSimulator makes one generator from its seed and works out once what
every shard reads; run draws shards of shard_size shots from it in order,
each adding into its rows of one preallocated int64 result, so a second run
continues the stream.  Noise is sparse, after Stim's frame simulator: the
(location, shot) pairs that fire come from geometric gaps between them
(fired_positions), one Bernoulli(prob) draw per pair at the cost of the
events that fire.  Threads ran no faster, so the threads argument is
checked but changes nothing; output never depended on it.
_run runs a circuit once on any register: with noise skipped, the reference
shot that the compile reads; with a noise draw, one per-shot run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd

import numpy as np

from .circuit import MeasurementRecord
from .errors import DimensionError, MemoryCapError, ShapeError, integral
from .gates import GATES
from .noise import error_distribution, sample_error_batch
from .tableau import Tableau
from .weyl import WeylTableau

# No run builds an outcome matrix of more shots x max(1, measurements)
# entries than this (2 GiB of int64); check_outcome_entries refuses it first.
MAX_OUTCOME_ENTRIES = 1 << 28

# A FrameSimulator shard allocates about this many int64 entries, shard_width
# per shot (512 KiB per temporary): glibc then reuses one shard's freed
# temporaries for the next instead of trimming the heap and re-faulting them.
OUTCOME_SHARD_ENTRIES = 1 << 16

# outcome_law refuses a law of more outcomes than this (16 MiB of complex128),
# or a d x d character table of more entries
MAX_LAW_ENTRIES = 1 << 20


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
    if initial_tableau is None:
        kind = Tableau if circuit.dimension.is_odd_prime else WeylTableau
        return kind(circuit.num_qudits, circuit.dimension)
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


def _run(circuit, state, rng, draw=None):
    """Run circuit once on state, any register: MeasurementRecords in program
    order and state.pivot after each M and RESET; DimensionError unless
    state fits.  Each N1 applies the error draw(kind, prob, d, rng) returns;
    without draw it is skipped, which gives the noiseless reference shot."""
    d = state.d
    if state.n != circuit.num_qudits or d != circuit.dimension.d:
        raise DimensionError("initial state does not match the circuit")
    records, pivots = [], []
    for ins in circuit.instructions:
        name = ins.name
        if name == "M":
            records.append(state.measure_z(ins.qudits[0], rng))
        elif name == "RESET":
            state.reset(ins.qudits[0], rng)
        else:
            if name != "N1":
                # Circuit.add_gate checked the name and the operands
                state._apply(GATES[name], ins.qudits)
            elif draw is not None:
                a, b = draw(ins.noise_channel, ins.prob, d, rng)
                if a or b:
                    state.apply_pauli_error(ins.qudits[0], a, b)
            continue
        pivots.append(state.pivot)
    return records, pivots


def reference_run(circuit, rng, initial_tableau=None) -> list[MeasurementRecord]:
    """One noiseless execution on a concrete tableau; its MeasurementRecords
    in program order."""
    return _run(circuit, _start_tableau(circuit, initial_tableau), rng)[0]


@dataclass(eq=False)
class OutcomeMap:
    """Every measurement outcome of a circuit as an affine form over symbols.

    Slot m reads (const[m] + sum of coeff * value over its entries) mod d.
    Symbols are numbered in program order: a random M or RESET adds one,
    uniform on Z_d (listed in uniform), and each N1 location two, its error
    components a and b (the rows of noise), which are 0 unless it fires.
    Symbol s's entries, sorted by slot, are slots[indptr[s]:indptr[s+1]]
    with their coeffs.  noise_groups lists, per (channel, prob), the N1
    locations (rows of noise) that share it; a location listed k times is
    k independent events with its entries.
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


def compile_circuit(circuit, start=None) -> OutcomeMap:
    """The OutcomeMap of circuit run from start, a Tableau or a WeylTableau
    of its n and d (else DimensionError), or from _start_tableau's fresh
    register when None; no randomness used.

    A reference run on a copy of start, every random outcome at the lowest
    value its support allows, gives the constants, the flags and the pivot
    (px, pz) of each random M and RESET.  One pass in reverse program order
    then carries every measured Z_j back to the start as the live columns
    of x and z (qudits x L, mod d), slots descending in live: a gate applies
    its inverse's column map, an N1's a gets the entries z[j] and its b
    -x[j], an M appends the column e_j of z and a RESET clears row j.  A
    random M or RESET gets row = px.z - pz.x; if px[j] is a unit, row is
    scaled by its inverse and taken off z[j], which zeroes the slot's own
    column, so a random outcome is its symbol alone (Symphase's gauge, Fang
    & Ying 2024).  Partial support on composite d keeps row as it is.  A
    column leaves once the RESET or random M that touched it zeroes it, so
    the cost is O(instructions x live columns); a deterministic M's column
    can stay live back to the start.
    """
    start = _start_tableau(circuit, start)
    d, n = start.d, start.n
    records, pivots = _run(circuit, start, None)
    ops, num_slots = circuit.instructions, len(records)
    xz = np.zeros((2 * n, num_slots), dtype=np.int64)
    x, z = xz[:n], xz[n:]
    # live is replaced, never written, so each pending row keeps its slots
    live = np.zeros(0, dtype=np.int64)
    pending, spans, parts = [], [], [(np.zeros(0, dtype=np.int64),) * 3]
    # pending rows are bounded by the input: the frame plus one per instruction
    size, bound, kept = 0, xz.size + len(ops), 0

    def compress():
        """Move the pending rows' nonzero entries to parts, compactly."""
        nonlocal size, kept
        v = np.concatenate(pending) % d
        nz = v.nonzero()[0]
        lens = np.fromiter(map(len, pending), np.int64, len(pending))
        parts.append((kept + nz.searchsorted(lens.cumsum()),
                      np.concatenate(spans)[nz].astype(np.int32),
                      v[nz].astype(np.min_scalar_type(d - 1))))
        size, kept = 0, kept + len(nz)
        del pending[:], spans[:]

    # symbols and N1 locations count from the end until all are seen; an
    # N1's backward pair is (a, b) = (sym + 1, sym)
    noise, uniform, groups = [], [], {}
    sym, slot, piv, L = 0, num_slots, len(pivots), 0
    for ins in reversed(ops):
        if size > bound:
            compress()
        name, j = ins.name, ins.qudits[0]
        if name == "N1":
            groups.setdefault((ins.noise_channel, ins.prob),
                              []).append(len(noise))
            noise.append((sym + 1, sym))
            sym += 2
            pending += -x[j, :L], z[j, :L].copy()
            spans += live, live
            size += 2 * L
            continue
        if name not in ("M", "RESET"):
            gate = GATES[GATES[name].inverse]
            if gate.arity == 2:
                c, t = ins.qudits
                x[t, :L], z[c, :L] = gate.cols(
                    x[c, :L], z[c, :L], x[t, :L], z[t, :L], d)
            elif gate.cols is not None:
                x[j, :L], z[j, :L] = gate.cols(x[j, :L], z[j, :L], d)
            continue
        touched = ()
        if name == "M":
            slot -= 1
            live = np.concatenate((live, (slot,)))
            z[j, L] = 1
            L += 1
        else:
            touched = (x[j, :L] | z[j, :L]).nonzero()[0]
            xz[j::n, :L] = 0
        piv -= 1
        if pivots[piv] is not None:
            px, pz = pivots[piv]
            uniform.append(sym)
            sym += 1
            row = (px @ z[:, :L] - pz @ x[:, :L]) % d
            unit = gcd(int(px[j]), d) == 1
            if unit:
                row = row * pow(int(px[j]), -1, d) % d
                z[j, :L] = (z[j, :L] - row) % d
            pending.append(row)
            spans.append(live)
            size += L
            if unit and name == "M":
                # its own column, the last, is zero now; another column that
                # row moved is zero only where z[j] became 0
                L -= 1
                live = live[:L]
                touched = ((row[:L] != 0) & (z[j, :L] == 0)).nonzero()[0]
        if len(touched) and not xz.take(touched, axis=1).any(axis=0).all():
            # a column died: drop it, leaving zero columns for the next M
            keep = xz[:, :L].any(axis=0)
            live = live[keep]
            xz[:, :len(live)], xz[:, len(live):L] = xz[:, :L][:, keep], 0
            L = len(live)
    if pending:
        compress()
    # reversed, the rows are in (symbol, slot) order
    end, slots, coeffs = (np.concatenate([a[::-1] for a in part[::-1]],
                                         dtype=np.int64) for part in zip(*parts))
    return OutcomeMap(
        d=d,
        const=np.array([r.outcome for r in records], dtype=np.int64),
        qudits=np.array([r.qudit for r in records], dtype=np.int64),
        seqs=np.array([r.seq for r in records], dtype=np.int64),
        deterministic=np.array([r.deterministic for r in records], dtype=bool),
        indptr=np.append(kept - end, kept),
        slots=slots,
        coeffs=coeffs,
        uniform=sym - 1 - np.array(uniform[::-1], dtype=np.int64),
        noise=sym - 1 - np.array(noise[::-1], dtype=np.int64).reshape(-1, 2),
        noise_groups=sorted(((key, len(noise) - 1 - np.array(locs[::-1]))
                             for key, locs in groups.items()),
                            key=lambda group: group[1][0]),
    )


def _dots(w, d: int) -> np.ndarray:
    """w . u mod d for every u in Z_d^k, as an array of shape (d,) * len(w)."""
    total = np.zeros((), dtype=np.int64)
    for wi in w:
        total = total[..., None] + wi * np.arange(d)
    return total % d


def _law_factors(omap, P):
    """One pass over omap's symbols for outcome_law(omap, P): phi masked by
    the uniform symbols, (values, count) per distinct N1 pair, and dft."""
    d, num_slots = omap.d, len(omap.const)
    P = np.eye(num_slots, dtype=np.int64) if P is None else np.asarray(P)
    if P.ndim != 2 or P.shape[1] != num_slots or P.dtype.kind not in "iu":
        raise ShapeError(f"P must be an integer (k, {num_slots}) matrix, got "
                         f"shape {P.shape} of {P.dtype}")
    if max(d ** len(P), d * d) > MAX_LAW_ENTRIES:
        raise MemoryCapError(f"{d}^{len(P)} outcomes or {d}^2 characters "
                             f"exceed the law cap of {MAX_LAW_ENTRIES}")
    # reduced in P's own kind: an int64 cast would wrap uint64 entries
    k, P = len(P), np.remainder(P, d, dtype=P.dtype.kind + "8").astype(int)
    w = np.zeros((len(omap.indptr) - 1, k), dtype=np.int64)
    np.add.at(w, np.repeat(np.arange(len(w)), np.diff(omap.indptr)),
              omap.coeffs[:, None] * P[:, omap.slots].T)
    omega = np.exp(2j * np.pi / d * np.arange(d))
    dft = omega[np.outer(np.arange(d), np.arange(d)) % d]
    phi = omega[_dots(P @ omap.const % d, d)]
    # with counts, np.unique skips its numpy.ma check and that import
    for ws in np.unique(w[omap.uniform] % d, axis=0, return_counts=True)[0]:
        phi *= _dots(ws, d) == 0
    factors = []
    for (kind, prob), locs in omap.noise_groups:
        table = np.zeros((d, d))
        for (a, b), p in error_distribution(kind, prob, d).items():
            table[a, b] = p
        chi = dft @ table @ dft
        chi /= chi[0, 0]  # trivial characters exactly 1: no power decays
        pairs, reps = np.unique(w[omap.noise[locs]].reshape(len(locs), 2 * k)
                                % d, axis=0, return_counts=True)
        factors += [(chi[_dots(pair[:k], d), _dots(pair[k:], d)], rep)
                    for pair, rep in zip(pairs, reps)]
    return phi, factors, dft


def _outcome_laws(omap, P, reps):
    """Yields outcome_law(omap, P) with each N1 location listed r times, per r
    in reps, bit for bit, from one _law_factors pass: a pair's values enter
    to the power count * r, MAX_LAW_ENTRIES // d^k multiplicities at once."""
    phi, factors, dft = _law_factors(omap, P)
    if max(int(c) for _, c in factors or [(0, 0)]) * max(reps) >= 1 << 63:
        raise ShapeError(f"noise listed {max(reps)} times (LRB-D depth "
                         f"{max(reps) - 1}) reaches 2^63 events at one location")
    reps = np.asarray(reps, dtype=np.int64).reshape((-1,) + (1,) * phi.ndim)
    step = MAX_LAW_ENTRIES // phi.size
    for lo in range(0, len(reps), step):
        batch = np.repeat(phi[None], len(reps[lo:lo + step]), axis=0)
        for values, count in factors:
            batch *= values ** (count * reps[lo:lo + step])
        for law in batch:
            for _ in range(phi.ndim):
                # transforms axis 0 and appends it; k steps restore the order
                law = np.tensordot(law, dft.conj(), axes=(0, 0))
            yield np.maximum(law.real / phi.size, 0.0)


def outcome_law(omap, P=None) -> np.ndarray:
    """The exact law of P y mod d, y the outcomes of omap, as an array of
    shape (d,) * k: entry y' is its probability.  P is an integer (k, M)
    matrix, the identity when None (else ShapeError), with d^k and d^2 at
    most MAX_LAW_ENTRIES (else MemoryCapError).  Symbol s moves P y by X_s w_s,
    w_s = P v_s, so the law's Fourier transform at u in Z_d^k is, for any d,
    w^(u.Pc) prod_uniform [u.w_s = 0 mod d] prod_N1 chi(u.w_a, u.w_b), chi
    the channel's character table.  Symbols with one w enter at once, so
    memory is O(d^k k) whatever their number (_outcome_laws: batches of at
    most MAX_LAW_ENTRIES // d^k transforms, one pass over the pairs each).
    """
    return next(_outcome_laws(omap, P, [1]))


class FrameSimulator:
    """Samples the measurement outcomes of a circuit from its OutcomeMap.

    omap holds the slot arrays (qudits, seqs, deterministic).  A shard
    holds shard_size shots of shard_width int64 entries each (_Layout).
    op_count adds up map entries times shots over every run.
    """

    def __init__(self, circuit, seed=None, initial_tableau=None):
        self.omap = compile_circuit(circuit, initial_tableau)
        self._layout = _Layout(self.omap)
        self.shard_width = self._layout.width
        self.shard_size = max(1, OUTCOME_SHARD_ENTRIES // self.shard_width)
        self._rng = np.random.default_rng(seed)
        self.op_count = 0

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
