"""Simulate composite-dimension qudits, where measurement needs integer
linear algebra.

For non-prime d a measurement can be neither deterministic nor uniform over
all d outcomes: the support is a coset of a subgroup of Z_d.  The d=4
circuit below leaves qudit 1 supported on {0, 2} with probability 1/2 each.
The backend finds the support with one Euclidean row reduction over Z_d:
its last pivot is the smallest power of the measured qudit's Z in the
stabilizer group, and that power and its phase fix the coset.  The Smith
normal form, the textbook tool for such linear algebra over Z_d, is shown
on its own at the end.
"""

import numpy as np

from quditsim import Circuit, DenseState, run_circuit, smith_normal_form


def main() -> None:
    circuit = Circuit(2, 4)
    circuit.add_gate("F", 0)
    circuit.add_gate("CNOT", 0, 1)
    circuit.add_gate("CNOT", 0, 1)
    circuit.add_gate("M", 1)

    result = run_circuit(circuit, shots=10000, seed=13)
    print("d=4 circuit F 0; CNOT 0 1; CNOT 0 1; M 1")
    print(f"  sampled counts          {dict(sorted(result.counts.items()))}")

    oracle = DenseState(2, 4)
    for ins in circuit.instructions:
        if ins.name != "M":
            oracle.apply_gate(ins.name, *ins.qudits)
    dist = oracle.outcome_distribution(1)
    print(f"  statevector distribution {np.round(dist, 4)}")

    print("\nSmith normal form of [[4, 2], [2, 8]]:")
    res = smith_normal_form([[4, 2], [2, 8]])
    print(f"  S = diag{tuple(int(res.s[i, i]) for i in range(2))}")
    print(f"  U = {res.u.tolist()}  V = {res.v.tolist()}")
    print(f"  U S V == A: {np.array_equal(res.u @ res.s @ res.v, np.array([[4, 2], [2, 8]], dtype=object))}")


if __name__ == "__main__":
    main()
