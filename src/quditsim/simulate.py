"""Shot sampling across the four simulation backends.

Methods:

- 'tableau': odd prime d runs the destabilizer tableau; any other d falls
  back to the Weyl generator backend automatically.
- 'weyl': force the Weyl generator backend (any d >= 2).
- 'frames': Pauli-frame sampler (odd prime d only).
- 'statevector': dense reference simulation.  Circuits whose measurements
  are all terminal, on distinct qudits, with no noise or resets, are sampled
  from one joint Born distribution instead of evolving every shot.

Each shot's result is a tuple of MeasurementRecord in program order, so a
result carries the measured qudit, the sequence number, the outcome, and
whether that outcome was deterministic given the shot's earlier outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, MeasurementRecord
from .frames import FrameSimulator, _as_seedseq
from .noise import sample_error
from .statevector import DEFAULT_AMPLITUDE_CAP, DenseState
from .tableau import Tableau
from .weyl import WeylTableau

METHODS = ("tableau", "weyl", "frames", "statevector")


def counts_key(outcomes, d: int) -> str:
    """Digit string for d <= 10, dash-separated decimal otherwise."""
    if d <= 10:
        return "".join(str(int(k)) for k in outcomes)
    return "-".join(str(int(k)) for k in outcomes)


def records_to_counts(records, d: int) -> dict:
    """Tally per-shot outcome tuples, keys ordered by numeric outcome."""
    tally = {}
    for rec in records:
        outs = tuple(int(r.outcome) for r in rec)
        tally[outs] = tally.get(outs, 0) + 1
    return {counts_key(outs, d): c for outs, c in sorted(tally.items())}


@dataclass
class SimulationResult:
    dimension: int
    num_qudits: int
    shots: int
    seed: object
    method: str
    records: list = field(repr=False)
    counts: dict = field(default_factory=dict)

    def outcome_tuples(self) -> list:
        return [tuple(int(r.outcome) for r in rec) for rec in self.records]


def _run_shot(circuit: Circuit, state, rng):
    """One shot on a fresh state of any backend; its records in order."""
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
    if not measured or len(set(measured)) != len(measured):
        return None
    return measured


def _run_dense_fast(circuit: Circuit, measured, shots: int, rng,
                    amplitude_cap: int):
    """Sample all terminal measurements from one joint Born distribution.

    The per-record deterministic flag is conditional on the shot's earlier
    outcomes, so it is recovered from the joint by checking whether the
    marginal of each slot given the sampled prefix is a point mass; prefix
    marginals are memoized across shots.
    """
    d = circuit.dimension.d
    state = DenseState(circuit.num_qudits, circuit.dimension, amplitude_cap)
    for ins in circuit.instructions:
        if ins.name != "M":
            state.apply_gate(ins.name, *ins.qudits)
    probs = np.abs(state.psi) ** 2
    other = tuple(a for a in range(circuit.num_qudits) if a not in measured)
    joint = probs.sum(axis=other) if other else probs
    # summing keeps axes in qudit order; put them in measurement order
    order = np.argsort(np.argsort(measured))
    joint = np.ascontiguousarray(np.transpose(joint, axes=order))
    flat = joint.reshape(-1)
    flat = flat / flat.sum()
    draws = rng.choice(len(flat), size=shots, p=flat)

    m = len(measured)
    marginal_cache = {}

    def slot_marginal(prefix):
        got = marginal_cache.get(prefix)
        if got is None:
            sub = joint[prefix]
            got = sub.reshape(d, -1).sum(axis=1)
            got = got / got.sum()
            marginal_cache[prefix] = got
        return got

    records = []
    for idx in draws:
        outs = tuple(int(v) for v in np.unravel_index(idx, joint.shape))
        shot = tuple(
            MeasurementRecord(measured[i], i,
                              bool(slot_marginal(outs[:i])[outs[i]] >= 1.0 - 1e-9),
                              outs[i])
            for i in range(m))
        records.append(shot)
    return records


def run_circuit(circuit: Circuit, shots: int = 1, seed=None,
                method: str = "tableau", threads: int = None,
                initial_tableau: Tableau = None,
                amplitude_cap: int = DEFAULT_AMPLITUDE_CAP) -> SimulationResult:
    """Sample measurement records and tallied counts for a circuit."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    d = circuit.dimension.d
    if method == "tableau" and not circuit.dimension.is_odd_prime:
        method_used = "weyl"
    else:
        method_used = method

    if method_used == "frames":
        sim = FrameSimulator(circuit, seed, initial_tableau)
        matrix = sim.run(shots, threads)
        refs = sim.reference_records
        records = [tuple(MeasurementRecord(r.qudit, r.seq, r.deterministic,
                                           int(row[i]))
                         for i, r in enumerate(refs))
                   for row in matrix]
    else:
        rng = np.random.Generator(np.random.PCG64(_as_seedseq(seed)))
        if method_used == "statevector":
            if initial_tableau is not None:
                raise ValueError("initial_tableau is only supported on the "
                                 "stabilizer methods")
            measured = _terminal_measurement_plan(circuit)
            if measured is not None:
                records = _run_dense_fast(circuit, measured, shots, rng,
                                          amplitude_cap)
            else:
                n, dim = circuit.num_qudits, circuit.dimension
                records = [_run_shot(circuit, DenseState(n, dim, amplitude_cap), rng)
                           for _ in range(shots)]
        else:
            records = []
            for _ in range(shots):
                if method_used == "weyl":
                    if initial_tableau is not None:
                        raise ValueError("initial_tableau requires the odd-prime "
                                         "tableau backend")
                    state = WeylTableau(circuit.num_qudits, circuit.dimension)
                elif initial_tableau is not None:
                    state = initial_tableau.copy()
                else:
                    state = Tableau(circuit.num_qudits, circuit.dimension)
                records.append(_run_shot(circuit, state, rng))

    return SimulationResult(
        dimension=d,
        num_qudits=circuit.num_qudits,
        shots=shots,
        seed=seed,
        method=method,
        records=records,
        counts=records_to_counts(records, d),
    )
