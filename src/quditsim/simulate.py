"""Shot sampling across the three simulation methods.

Methods:

- 'tableau': compiles every outcome into an affine OutcomeMap over random
  symbols, from one reference run on the destabilizer Tableau for odd
  prime d and on the Weyl generator tableau otherwise, and one backward
  pass over the circuit (frames.compile_circuit); each shard of shots then
  draws its symbols and fired errors and reads its outcomes off that map
  (frames.FrameSimulator).  An initial_tableau starts the reference run
  from a given state; a WeylTableau(n, d) compiles an odd-prime circuit on
  the Weyl tableau into the same map.
- 'frames': the same sampler as 'tableau', with the same output at the same
  seed.
- 'statevector': dense reference simulation.  Circuits whose measurements
  are all terminal, with no noise or resets, are sampled from one joint Born
  distribution over the measured qudits instead of evolving every shot.

Results are columnar: outcomes[s, i] is shot s's outcome at measurement
slot i (program order), and the per-slot arrays qudits, seqs and
deterministic describe slot i for every shot.  Whether a measurement is
deterministic depends only on the phaseless stabilizer group, which neither
earlier outcomes nor Pauli noise change, so one flag per slot is exact.
The compiled map reads it off its one reference run; the
per-shot statevector loop checks that every shot agrees with the first.

Statevector shots run one after another on one generator, and their noise
draws one float and one integer per N1 and shot whether or not it fires
(noise.sample_error), so their streams stay aligned across circuits that
differ only in where errors land.  The compiled sampler runs its shards of
shots serially, drawing them in order from one generator made from the
seed (FrameSimulator.run), so its output never depends on the thread count,
which is checked but changes nothing.  It draws only the errors that fire,
one integer each (noise.sample_error_batch).  Its RNG work is all in the
shards: compiling draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .circuit import Circuit
from .errors import QuditSimError, integral
from .frames import FrameSimulator, check_outcome_entries
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


def records_to_counts(outcomes, d: int) -> dict:
    """Tally the rows of a (shots, M) outcome array, keys ordered by
    numeric outcome."""
    outcomes = np.asarray(outcomes, dtype=np.int64)
    if len(outcomes) == 0:
        return {}
    shots, m = outcomes.shape
    if m == 0:
        return {"": shots}
    if d <= 10:
        # each row's digit string as one byte string; byte order is the
        # numeric order of the rows
        keys = outcomes.astype(np.uint8, order="C")
        keys += 48
        keys = keys.view(f"S{m}")[:, 0]
        keys, counts = np.unique(keys, return_counts=True)
        return dict(zip(keys.astype(str).tolist(), counts.tolist()))
    # lexsort's last key is its primary one; np.unique(axis=0) is slower
    rows = outcomes[np.lexsort(outcomes.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    counts = np.diff(np.r_[starts, len(rows)])
    return {counts_key(row, d): c
            for row, c in zip(rows[starts].tolist(), counts.tolist())}


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


def _slot_arrays(records) -> tuple:
    """(qudits, seqs, deterministic) arrays of one shot's records."""
    return (np.array([r.qudit for r in records], dtype=np.int64),
            np.array([r.seq for r in records], dtype=np.int64),
            np.array([r.deterministic for r in records], dtype=bool))


def _run_shot(circuit: Circuit, state, rng):
    """One shot on a fresh state of any single-shot backend; its records in
    order."""
    records = []
    for ins in circuit.instructions:
        name = ins.name
        if name == "M":
            records.append(state.measure_z(ins.qudits[0], rng))
        elif name == "RESET":
            state.reset(ins.qudits[0], rng)
        elif name == "N1":
            a, b = sample_error(ins.noise_channel, ins.prob, circuit.dimension.d, rng)
            if a or b:
                state.apply_pauli_error(ins.qudits[0], a, b)
        else:
            state.apply_gate(name, *ins.qudits)
    return tuple(records)


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
    first = _run_shot(circuit, DenseState(n, dim), rng)
    flags = [r.deterministic for r in first]
    outcomes = np.empty((shots, len(first)), dtype=np.int64)
    outcomes[0] = [r.outcome for r in first]
    for s in range(1, shots):
        records = _run_shot(circuit, DenseState(n, dim), rng)
        if [r.deterministic for r in records] != flags:
            raise QuditSimError(f"shot {s} has deterministic flags that "
                                f"differ from shot 0")
        outcomes[s] = [r.outcome for r in records]
    return (outcomes, *_slot_arrays(first))


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
            state.apply_gate(ins.name, *ins.qudits)
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
        kinds = np.unique(allowed[allowed > 0] == 1)
        if len(kinds) != 1:
            raise QuditSimError("deterministic flags of the dense joint "
                                "depend on the earlier outcomes")
        flags.append(bool(kinds[0]))
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

    outcomes, qudits, seqs, deterministic = columns
    return SimulationResult(
        dimension=circuit.dimension.d,
        num_qudits=circuit.num_qudits,
        shots=shots,
        seed=seed,
        method=method,
        outcomes=outcomes,
        qudits=qudits,
        seqs=seqs,
        deterministic=deterministic,
    )
