"""Run Deutsch-Jozsa and Bernstein-Vazirani oracles across dimensions.

Deutsch-Jozsa distinguishes a constant oracle from a balanced (identity)
oracle in one shot: the query register reads 0 for constant and d-1 for
balanced, deterministically.  Bernstein-Vazirani recovers a hidden digit
string in one query.  Both run on the stabilizer path, including d=2, where
the even-dimension backend takes over.
"""

import numpy as np

from quditsim import (build_bernstein_vazirani, build_deutsch_jozsa,
                      run_circuit)


def main() -> None:
    print("Deutsch-Jozsa, 20 shots each:")
    for d in (2, 3, 5, 7):
        for constant in (True, False):
            circuit = build_deutsch_jozsa(d, constant=constant)
            result = run_circuit(circuit, shots=20, seed=3, method="tableau")
            outcomes = set(result.outcomes[:, 0].tolist())
            kind = "constant" if constant else "balanced"
            print(f"  d={d} {kind:8s} -> outcomes {sorted(outcomes)}, "
                  f"deterministic={bool(result.deterministic[0])}")

    print("\nBernstein-Vazirani, one line per recovered secret:")
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        secret = tuple(int(s) for s in rng.integers(0, d, size=6))
        circuit = build_bernstein_vazirani(d, secret)
        result = run_circuit(circuit, shots=10, seed=4, method="tableau")
        recovered = result.outcome_tuples()[0]
        print(f"  d={d} secret={secret} recovered={recovered} "
              f"match={recovered == secret}")


if __name__ == "__main__":
    main()
