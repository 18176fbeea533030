"""Shot sampling across the three simulation methods.

- 'tableau' and 'frames', one sampler: every outcome is compiled into an
  affine OutcomeMap over random symbols, from one reference run (on the
  destabilizer Tableau for odd prime d, the Weyl tableau otherwise, or a
  given initial_tableau) and one backward pass (frames.compile_circuit);
  each shard of shots draws its symbols and fired errors and reads its
  outcomes off that map (frames.FrameSimulator).
- 'statevector', dense (_run_dense): the gates before the first M, RESET or
  N1 run once; past them shots share a stack of states, one row per distinct
  history, as Stim shares a reference (Gidney 2021), each instruction one
  numpy call over all the rows.

Results are columnar: outcomes[s, i] is shot s's outcome at measurement
slot i (program order), and the per-slot arrays qudits, seqs and
deterministic describe slot i for every shot.  Whether a measurement is
deterministic depends only on the phaseless stabilizer group, which neither
earlier outcomes nor Pauli noise change, so one flag per slot is exact: the
compiled map reads it off its reference run, and the dense sampler checks
that every row and shard agrees.  stream_circuit yields the rows a shard
at a time on either sampler, run_circuit collects them into the (shots, M)
matrix, and Tally counts them as they come, so a caller that writes each
block holds one shard and the distinct rows, not the matrix.

Both samplers draw in order from one generator made from the seed, only the
errors that fire (frames.fired_positions), so neither the thread count
(checked, then unused) nor how calls on the shard grid split the shots
changes the output.  A noiseless circuit whose M are all terminal draws as
one rng.choice over the joint Born law of its measured qudits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import frames  # OUTCOME_SHARD_ENTRIES is read at call time
from .circuit import Circuit
from .errors import QuditSimError, integral
from .frames import (FrameSimulator, check_outcome_entries, fired_positions,
                     sample_error_batch)
from .gates import GATES
from .noise import sample_error  # noqa: F401  (perfbench/tracing.py patches it)
from .statevector import DenseState, _evolve

# the sampler behind each method: 'tableau' and 'frames' are two names for
# the compiled Pauli-frame sampler
SAMPLERS = {"tableau": "frames", "frames": "frames",
            "statevector": "statevector"}
METHODS = tuple(SAMPLERS)

# statevector rows past the trunk: shards of this many amplitudes over d^n shots
DENSE_SHARD_AMPLITUDES = 1 << 15


def _check_method_pair(method_a: str, method_b: str) -> None:
    """Raise ValueError unless the two methods name two different samplers;
    a pair of one sampler passes whatever that sampler does."""
    for method in (method_a, method_b):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if SAMPLERS[method_a] == SAMPLERS[method_b]:
        pair = f"{method_a},{method_b}"
        raise ValueError(f"{pair!r} compares one sampler with itself")


def counts_key(outcomes, d: int) -> str:
    """Digit string for d <= 10, dash-separated decimal otherwise."""
    if d <= 10:
        return "".join(str(int(k)) for k in outcomes)
    return "-".join(str(int(k)) for k in outcomes)


class Tally:
    """A running tally of outcome rows over d, added block by block, its
    memory in the distinct rows: each is kept as the bytes of its digits
    (ASCII for d <= 10, big-endian above), whose order is numeric order."""

    def __init__(self, d: int):
        self.d, self.seen = d, Counter()
        self.zero = ord("0") if d <= 10 else 0
        self.digit = np.dtype(np.uint8 if d <= 256 else ">u4")

    def add(self, outcomes) -> None:
        """Count the rows of a (shots, M) outcome array."""
        rows = (np.asarray(outcomes) + self.zero).astype(self.digit, order="C")
        width = rows.itemsize * rows.shape[-1]  # 0 for an empty list too
        self.seen.update(rows.view(f"V{width}").reshape(-1).tolist() if width
                         else [b""] * len(rows))

    def counts(self) -> dict:
        """The tally, keys ordered by numeric outcome."""
        keys = sorted(self.seen)
        names = ([key.decode() for key in keys] if self.d <= 10 else
                 [counts_key(np.frombuffer(key, self.digit).tolist(), self.d)
                  for key in keys])
        return dict(zip(names, map(self.seen.get, keys)))


def records_to_counts(outcomes, d: int) -> dict:
    """Tally the rows of a (shots, M) outcome array, keys ordered by
    numeric outcome."""
    tally = Tally(d)
    tally.add(outcomes)
    return tally.counts()


@dataclass(eq=False)
class SimulationResult:
    """Sampled outcomes with one description per measurement slot.

    outcomes has shape (shots, M); qudits, seqs and deterministic have
    shape (M,).  counts is built from outcomes on first use and
    outcome_tuples() on each call.
    """

    dimension: int
    num_qudits: int
    shots: int
    seed: object
    method: str
    outcomes: np.ndarray = field(repr=False)
    qudits: np.ndarray
    seqs: np.ndarray
    deterministic: np.ndarray

    @cached_property
    def counts(self) -> dict:
        """Tally of the outcome rows, keys ordered by numeric outcome."""
        return records_to_counts(self.outcomes, self.dimension)

    def outcome_tuples(self) -> list:
        return [tuple(row) for row in self.outcomes.tolist()]


def _measure_rows(rows, row, qudits, out, flags, rng, split: bool) -> tuple:
    """(rows, row) after a run of M (a list of qudits, its slots from column
    len(flags) of out) or a RESET (a tuple): each row's shots draw from its
    joint as rng.choice does, all from one rng.random in row order.  With
    split, a row per (row, outcome), at |0> after a RESET."""
    distinct = list(dict.fromkeys(qudits))
    k, d = len(distinct), rows.shape[1]
    joint = (np.abs(rows) ** 2).sum(axis=tuple(
        a for a in range(1, rows.ndim) if a - 1 not in distinct))
    # summing keeps axes in qudit order; put them in measurement order
    joint = np.transpose(joint, (0, *np.argsort(np.argsort(distinct)) + 1)
                         ).reshape(len(rows), -1)
    flat, shape = joint / joint.sum(axis=1, keepdims=True), (d,) * k
    parts = np.split(rng.random(len(row)), np.cumsum(np.bincount(row))[:-1])
    draws = np.empty(len(row), dtype=np.int64)
    draws[np.argsort(row, kind="stable")] = np.concatenate([
        np.searchsorted(cdf / cdf[-1], u, "right")
        for cdf, u in zip(np.cumsum(flat, axis=1), parts)])
    if isinstance(qudits, list):
        slot = [distinct.index(q) for q in qudits]
        out[:, len(flags):len(flags) + len(slot)] = np.stack(
            np.unravel_index(draws, shape), axis=1)[:, slot]
        # deterministic if every reachable prefix, in every row, leaves one
        single = [(allowed[allowed > 0] == 1) for allowed in (
            (joint.reshape(-1, d ** m, d ** (k - m)).sum(axis=2).reshape(-1, d)
             > 1e-12).sum(axis=1) for m in range(1, k + 1))]
        if any(one.any() != one.all() for one in single):
            raise QuditSimError("dense flags depend on the earlier outcomes")
        flags += [q in qudits[:m] or bool(single[c][0])
                  for m, (q, c) in enumerate(zip(qudits, slot))]
    if not split:
        return rows, row
    cells, row = np.unique(row * flat.shape[1] + draws, return_inverse=True)
    src, cell = np.divmod(cells, flat.shape[1])
    kept, axes = np.unravel_index(cell, shape), (
        [q + 1 for q in distinct], range(1, k + 1))
    new = np.zeros((len(cells),) + rows.shape[1:], dtype=complex)
    np.moveaxis(new, *axes)[(np.arange(len(cells)), *(
        kept if isinstance(qudits, list) else (0,)))] = np.moveaxis(
        rows, *axes)[(src, *kept)] / np.sqrt(flat[src, cell]).reshape(
        (-1,) + (1,) * (rows.ndim - 1 - k))
    return new, row


def _run_dense(circuit: Circuit, shots: int, rng) -> tuple:
    """stream_circuit's tuple for the statevector method: the gates before
    the first M, RESET or N1 on one DenseState, the rest on a stack of its
    copies, one row per distinct shot history (outcomes drawn and errors
    fired), in shards of DENSE_SHARD_AMPLITUDES // d^n shots, or of
    OUTCOME_SHARD_ENTRIES // M (at least d^n) on one row if only M remain.
    A fired error changes its shot's row, copied first if shared.  Flags
    that differ between rows or shards raise QuditSimError."""
    state, steps = DenseState(circuit.num_qudits, circuit.dimension), []
    for ins in circuit.instructions:  # steps: a run of M as its qudit list
        if not steps and ins.name not in ("M", "RESET", "N1"):
            state._apply(GATES[ins.name], ins.qudits)
        elif ins.name == "M" and steps and isinstance(steps[-1], list):
            steps[-1].append(ins.qudits[0])
        else:
            steps.append([ins.qudits[0]] if ins.name == "M" else
                         ins.qudits if ins.name == "RESET" else ins)
    measured = [q for step in steps if isinstance(step, list) for q in step]
    terminal, d = all(isinstance(step, list) for step in steps), state.d
    size = (max(frames.OUTCOME_SHARD_ENTRIES // max(1, len(measured)),
                state.psi.size) if terminal
            else max(1, DENSE_SHARD_AMPLITUDES // state.psi.size))

    def shard(lo: int) -> np.ndarray:
        # rows change in place, so a shard that can change them copies
        rows, flags = state.psi[None] if terminal else state.psi[None].copy(), []
        row = np.zeros(min(size, shots - lo), dtype=np.int64)
        out = np.empty((len(row), len(measured)), dtype=np.int64)
        for i, step in enumerate(steps):
            if isinstance(step, (list, tuple)):
                rows, row = _measure_rows(rows, row, step, out, flags, rng,
                                          i + 1 < len(steps))
            elif step.name != "N1":
                rows = _evolve(rows, step.name, step.qudits, d, 1)
            elif len(fired := fired_positions(rng, len(row), step.prob)):
                a, b = sample_error_batch(step.noise_channel, d, rng, len(fired))
                shared = fired[np.bincount(row)[row[fired]] > 1]
                if len(shared):  # and drop the rows no shot is left on
                    rows = np.concatenate((rows, rows[row[shared]]))
                    row[shared] = len(rows) - len(shared) + np.arange(len(shared))
                    used = np.bincount(row, minlength=len(rows)) > 0
                    rows, row = rows[used], (np.cumsum(used) - 1)[row]
                hit = np.moveaxis(rows[row[fired]], step.qudits[0] + 1, -1) * np.exp(
                    2j * np.pi / d * np.arange(d) * b.reshape(-1, *[1] * (rows.ndim - 1)))
                for shift in set(a.tolist()) - {0}:
                    hit[a == shift] = np.roll(hit[a == shift], shift, -1)
                rows[row[fired]] = np.moveaxis(hit, -1, step.qudits[0] + 1)
        seen.add(tuple(flags))
        if len(seen) != 1:
            raise QuditSimError("dense flags differ between shards")
        return out

    seen, blocks = set(), map(shard, range(0, shots, size))
    first = next(blocks)  # drawn now: the slot arrays need its flags
    return (np.array(measured, dtype=np.int64), np.arange(len(measured)),
            np.array(*seen, dtype=bool), chain([first], blocks))


def run_circuit(circuit: Circuit, shots: int = 1, seed=None,
                method: str = "tableau", threads: int = None,
                initial_tableau=None) -> SimulationResult:
    """Sample measurement outcomes for a circuit: stream_circuit's blocks,
    each copied into one (shots, M) matrix, raising its errors (the outcome
    cap's MemoryCapError too) before compiling or sampling anything."""
    qudits, seqs, deterministic, blocks = stream_circuit(
        circuit, shots, seed, method, threads, initial_tableau)
    outcomes, lo = np.empty((int(shots), len(qudits)), dtype=np.int64), 0
    for block in blocks:
        outcomes[lo:lo + len(block)], lo = block, lo + len(block)
    return SimulationResult(circuit.dimension.d, circuit.num_qudits, lo, seed,
                            method, outcomes, qudits, seqs, deterministic)


def stream_circuit(circuit: Circuit, shots: int = 1, seed=None,
                   method: str = "tableau", threads: int = None,
                   initial_tableau=None) -> tuple:
    """(qudits, seqs, deterministic, blocks): the slot arrays and an iterator
    of the outcome rows in shot order, one shard per block, drawn by
    FrameSimulator.run on its shard_size grid or by _run_dense.  Arguments
    and the outcome cap are checked first, before compiling or sampling."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    shots = integral(shots, "shots", minimum=1)
    if threads is not None:
        integral(threads, "threads", minimum=1)
    if initial_tableau is not None and SAMPLERS[method] == "statevector":
        raise ValueError("initial_tableau requires the tableau or frames "
                         "method")
    check_outcome_entries(shots, circuit.num_measurements)
    if SAMPLERS[method] == "statevector":
        return _run_dense(circuit, shots, np.random.default_rng(seed))
    sim = FrameSimulator(circuit, seed, initial_tableau)
    blocks = (sim.run(min(sim.shard_size, shots - lo), threads)
              for lo in range(0, shots, sim.shard_size))
    return sim.omap.qudits, sim.omap.seqs, sim.omap.deterministic, blocks
