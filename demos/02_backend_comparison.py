"""Sample one circuit with all three backends and compare the histograms.

A four-qutrit GHZ chain has exactly three outcomes (0000, 1111, 2222), each
with probability 1/3.  The tableau, statevector, and frame backends must all
reproduce that distribution; the frame backend compiles every outcome
into an affine map over random symbols, from one noiseless reference run
and one backward pass over the circuit, then draws only those symbols per
shot.
"""

from quditsim import build_ghz_chain, run_circuit, serialize_sdim


def main() -> None:
    circuit = build_ghz_chain(4, 3, measure=True)
    print("circuit in SDIM format:\n")
    print(serialize_sdim(circuit))

    shots = 9000
    for method in ("tableau", "statevector", "frames"):
        result = run_circuit(circuit, shots=shots, seed=11, method=method)
        counts = dict(sorted(result.counts.items()))
        print(f"{method:12s} {counts}")
    print(f"\nideal        {{'0000': {shots // 3}, '1111': {shots // 3}, "
          f"'2222': {shots // 3}}} (each 1/3)")


if __name__ == "__main__":
    main()
