"""Contrast naive repetition with Pauli-frame sampling on a deep circuit.

Naive repetition re-runs the full tableau simulation once per shot.  The
frame sampler (run_circuit's 'frames' method, which also serves the
'tableau' method on every d) runs the tableau once, as a
noiseless reference shot, and then carries every measured Z back through
the circuit once.  That gives each outcome as an affine form over random
symbols: the constant terms are the reference shot, and the symbol entries
are the Pauli frame, how each random measurement and each noise event
moves every outcome.  A shot then costs
only its symbol draws and the errors that fire.  Both must produce the same
outcome distribution; the frame sampler touches the quadratic-cost tableau
machinery once.
"""

import time

import numpy as np

from quditsim import (Tableau, build_random_clifford_circuit, run_circuit,
                      sample_error)
from quditsim.experiments import mean_slot_tvd
from quditsim.frames import _run


def naive_repetition(circuit, shots: int, seed: int) -> np.ndarray:
    """(shots, M) outcomes from a fresh tableau per shot."""
    rng = np.random.default_rng(seed)
    n, d = circuit.num_qudits, circuit.dimension
    return np.array([[r.outcome for r in
                      _run(circuit, Tableau(n, d), rng, sample_error)[0]]
                     for _ in range(shots)], dtype=np.int64)


def main() -> None:
    rng = np.random.default_rng(21)
    circuit = build_random_clifford_circuit(
        5, 3, depth=200, rng=rng, noise=("d", 0.01), measure_all=True)
    shots = 8000

    t0 = time.perf_counter()
    naive = naive_repetition(circuit, shots, seed=1)
    t1 = time.perf_counter()
    framed = run_circuit(circuit, shots=shots, seed=3, method="frames")
    t2 = time.perf_counter()

    print(f"depth-200 noisy qutrit circuit on 5 qudits, {shots} shots")
    print(f"  naive repetition      : {t1 - t0:7.2f} s")
    print(f"  frame sampling        : {t2 - t1:7.2f} s "
          f"({(t1 - t0) / (t2 - t1):.0f}x faster)")
    print(f"  mean per-slot TVD, naive vs frames: "
          f"{mean_slot_tvd(naive, framed.outcomes, 3):.4f}")


if __name__ == "__main__":
    main()
