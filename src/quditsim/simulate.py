"""Shot sampling across the three simulation methods.

- 'tableau' and 'frames', one sampler: every outcome is compiled into an
  affine OutcomeMap over random symbols, from one reference run (on the
  destabilizer Tableau for odd prime d, the Weyl tableau otherwise, or a
  given initial_tableau) and one backward pass (frames.compile_circuit);
  each shard of shots draws its symbols and fired errors and reads its
  outcomes off that map (frames.FrameSimulator).
- 'statevector': dense reference simulation.  Circuits whose measurements
  are all terminal, with no noise or resets, are sampled from one joint Born
  distribution over the measured qudits; any other runs each shot on a
  fresh DenseState in frames._run, the compile's reference-shot loop, with
  sample_error drawing its noise.

Results are columnar: outcomes[s, i] is shot s's outcome at measurement
slot i (program order), and the per-slot arrays qudits, seqs and
deterministic describe slot i for every shot.  Whether a measurement is
deterministic depends only on the phaseless stabilizer group, which neither
earlier outcomes nor Pauli noise change, so one flag per slot is exact: the
compiled map reads it off its reference run, and the per-shot statevector
loop checks that every shot agrees with the first.  run_circuit returns the
(shots, M) matrix; stream_circuit yields its rows a shard at a time on the
compiled sampler, and Tally counts them as they come, so a caller that
writes each block holds one shard and the distinct rows, not the matrix.

Statevector shots run one after another on one generator, and their noise
draws one float and one integer per N1 and shot whether or not it fires
(noise.sample_error), so their streams stay aligned across circuits that
differ only in where errors land.  The compiled sampler draws its shards
serially, in order, from one generator made from the seed
(FrameSimulator.run), so neither the thread count (checked, then unused)
nor how calls on the shard grid split the shots changes its output.  It
draws only the errors that fire, one integer each; compiling draws nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .circuit import Circuit
from .errors import QuditSimError, integral
from .frames import FrameSimulator, _run, check_outcome_entries
from .gates import GATES
from .noise import sample_error
from .statevector import DenseState

# the sampler behind each method: 'tableau' and 'frames' are two names for
# the compiled Pauli-frame sampler
SAMPLERS = {"tableau": "frames", "frames": "frames",
            "statevector": "statevector"}
METHODS = tuple(SAMPLERS)


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


def _terminal_measurement_plan(circuit: Circuit):
    """Measured qudit order if the dense fast path applies, else None."""
    measured = []
    tail = False
    for ins in circuit.instructions:
        if ins.name == "M":
            tail = True
            measured.append(ins.qudits[0])
        elif ins.name in ("N1", "RESET") or tail:
            return None
    return measured or None


def _run_per_shot(circuit: Circuit, shots: int, rng) -> tuple:
    """Outcome rows and slot arrays from one fresh DenseState per shot."""
    n, dim = circuit.num_qudits, circuit.dimension
    # the module's sample_error, read per call, so patching it takes effect
    first = _run(circuit, DenseState(n, dim), rng, sample_error)[0]
    flags = [r.deterministic for r in first]
    outcomes = np.empty((shots, len(first)), dtype=np.int64)
    outcomes[0] = [r.outcome for r in first]
    for s in range(1, shots):
        records = _run(circuit, DenseState(n, dim), rng, sample_error)[0]
        if [r.deterministic for r in records] != flags:
            raise QuditSimError(f"shot {s} has deterministic flags that "
                                f"differ from shot 0")
        outcomes[s] = [r.outcome for r in records]
    # a fresh state counts every M from 0, so slot i has seq i
    return (outcomes, np.array([r.qudit for r in first], dtype=np.int64),
            np.arange(len(first), dtype=np.int64), np.array(flags, dtype=bool))


def _run_dense_fast(circuit: Circuit, measured, shots: int, rng) -> tuple:
    """Sample all terminal measurements from one joint Born distribution.

    The joint is over the distinct measured qudits in first-measured order;
    a repeated slot copies its qudit's first outcome and is deterministic.
    A first slot is deterministic when every reachable prefix of earlier
    slots leaves it one outcome, and random when every one leaves several.
    """
    state = DenseState(circuit.num_qudits, circuit.dimension)
    for ins in circuit.instructions:
        if ins.name != "M":
            state._apply(GATES[ins.name], ins.qudits)
    distinct = list(dict.fromkeys(measured))
    probs = np.abs(state.psi) ** 2
    other = tuple(a for a in range(circuit.num_qudits) if a not in distinct)
    joint = probs.sum(axis=other) if other else probs
    # summing keeps axes in qudit order; put them in measurement order
    order = np.argsort(np.argsort(distinct))
    joint = np.ascontiguousarray(np.transpose(joint, axes=order))
    flat = joint.reshape(-1)
    flat = flat / flat.sum()
    draws = rng.choice(len(flat), size=shots, p=flat)

    flags = []
    for i in range(joint.ndim):
        # outcomes of slot i each positive-probability prefix allows
        marginal = joint.sum(axis=tuple(range(i + 1, joint.ndim)))
        allowed = (marginal.reshape(-1, joint.shape[i]) > 1e-12).sum(axis=1)
        kinds = set((allowed[allowed > 0] == 1).tolist())
        if len(kinds) != 1:
            raise QuditSimError("deterministic flags of the dense joint "
                                "depend on the earlier outcomes")
        flags.append(kinds.pop())
    slot = [distinct.index(q) for q in measured]
    repeat = [q in measured[:i] for i, q in enumerate(measured)]
    outcomes = np.stack(np.unravel_index(draws, joint.shape), axis=1)[:, slot]
    return (outcomes.astype(np.int64), np.array(measured, dtype=np.int64),
            np.arange(len(measured), dtype=np.int64),
            np.array([r or flags[k] for k, r in zip(slot, repeat)], dtype=bool))


def run_circuit(circuit: Circuit, shots: int = 1, seed=None,
                method: str = "tableau", threads: int = None,
                initial_tableau=None) -> SimulationResult:
    """Sample measurement outcomes for a circuit.

    Raises MemoryCapError, before compiling or sampling anything, when the
    (shots, measurements) outcome matrix would exceed
    frames.MAX_OUTCOME_ENTRIES."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    shots = integral(shots, "shots", minimum=1)
    if threads is not None:
        integral(threads, "threads", minimum=1)
    sampler = SAMPLERS[method]
    if initial_tableau is not None and sampler == "statevector":
        raise ValueError("initial_tableau requires the tableau or frames "
                         "method")
    check_outcome_entries(shots, circuit.num_measurements)

    if sampler == "statevector":
        rng = np.random.default_rng(seed)
        measured = _terminal_measurement_plan(circuit)
        if measured is not None:
            columns = _run_dense_fast(circuit, measured, shots, rng)
        else:
            columns = _run_per_shot(circuit, shots, rng)
    else:
        sim = FrameSimulator(circuit, seed, initial_tableau)
        omap = sim.omap
        columns = (sim.run(shots, threads), omap.qudits, omap.seqs,
                   omap.deterministic)

    return SimulationResult(circuit.dimension.d, circuit.num_qudits, shots,
                            seed, method, *columns)


def stream_circuit(circuit: Circuit, shots: int = 1, seed=None,
                   method: str = "tableau", threads: int = None,
                   initial_tableau=None) -> tuple:
    """(qudits, seqs, deterministic, blocks): run_circuit's slot arrays and an
    iterator of its outcome rows in blocks, in shot order, never the whole
    matrix: one shard per block, drawn by FrameSimulator.run on its
    shard_size grid, or on statevector run_circuit's outcomes as one block.
    Arguments and the outcome cap are checked as run_circuit checks them."""
    if SAMPLERS.get(method) != "frames":  # statevector, or run_circuit's error
        run = run_circuit(circuit, shots, seed, method, threads, initial_tableau)
        return run.qudits, run.seqs, run.deterministic, iter([run.outcomes])
    shots = integral(shots, "shots", minimum=1)
    if threads is not None:
        integral(threads, "threads", minimum=1)
    check_outcome_entries(shots, circuit.num_measurements)
    sim = FrameSimulator(circuit, seed, initial_tableau)
    blocks = (sim.run(min(sim.shard_size, shots - lo), threads)
              for lo in range(0, shots, sim.shard_size))
    return sim.omap.qudits, sim.omap.seqs, sim.omap.deterministic, blocks
