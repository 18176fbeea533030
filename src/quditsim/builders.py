"""Canned circuit families: GHZ chains, oracle algorithms, random circuits."""

from __future__ import annotations

import numpy as np

from .circuit import Circuit
from .errors import ShapeError, integral
from .gates import SINGLE_QUDIT_GATES
from .noise import NOISE_KINDS
from .pauli import _as_dimension


def build_ghz_chain(n: int, d, measure: bool = False) -> Circuit:
    """F on qudit 0 then a SUM chain; optionally measure every qudit."""
    circuit = Circuit(n, d)
    circuit.add_gate("F", 0)
    for j in range(n - 1):
        circuit.add_gate("SUM", j, j + 1)
    if measure:
        for j in range(n):
            circuit.add_gate("M", j)
    circuit.metadata["family"] = f"ghz_chain_n{n}_d{_as_dimension(d).d}"
    return circuit


def build_deutsch_jozsa(d, constant: bool = True, constant_value: int = 0) -> Circuit:
    """Two-qudit oracle-distinguishing circuit.

    With constant=True the oracle encodes f(x) = constant_value and the
    terminal measurement of qudit 0 reads 0 in every shot; with
    constant=False it encodes the balanced f(x) = x and reads d-1.
    """
    dim = _as_dimension(d)
    value = integral(constant_value, "constant_value", ShapeError) if constant else 0
    if not 0 <= value < dim.d:
        raise ShapeError(f"constant_value must lie in [0, {dim.d})")
    circuit = Circuit(2, dim)
    circuit.add_gate("F", 0)
    circuit.add_gate("X", 1)
    circuit.add_gate("F", 1)
    if constant:
        for _ in range(value):
            circuit.add_gate("X", 1)
    else:
        circuit.add_gate("SUM", 0, 1)
    circuit.add_gate("F_INV", 0)
    circuit.add_gate("M", 0)
    kind = "constant" if constant else "identity"
    circuit.metadata["family"] = f"deutsch_jozsa_{kind}_d{dim.d}"
    return circuit


def expected_deutsch_jozsa_outcome(d, constant: bool) -> int:
    return 0 if constant else _as_dimension(d).d - 1


def build_bernstein_vazirani(d, secret) -> Circuit:
    """Recover a hidden digit string in one query.

    Register qudits 0..len(secret)-1, ancilla last.  The ancilla is prepared
    in the omega-phase state, SUM(i, ancilla) repeated secret[i] times kicks
    back phase omega^(-secret.x), and a plain F readout (not F_INV, whose
    readout would negate the digits) maps qudit i to |secret[i]>.
    """
    dim = _as_dimension(d)
    secret = [int(s) % dim.d for s in secret]
    m = len(secret)
    if m < 1:
        raise ShapeError("secret must have at least one digit")
    circuit = Circuit(m + 1, dim)
    anc = m
    circuit.add_gate("X", anc)
    for j in range(m):
        circuit.add_gate("F", j)
    circuit.add_gate("F", anc)
    for j, s in enumerate(secret):
        for _ in range(s):
            circuit.add_gate("SUM", j, anc)
    for j in range(m):
        circuit.add_gate("F", j)
    for j in range(m):
        circuit.add_gate("M", j)
    circuit.metadata["family"] = f"bernstein_vazirani_d{dim.d}"
    circuit.metadata["secret"] = "".join(str(s) for s in secret)
    return circuit


def build_local_gate_test(n: int = 7, *, d, depth: int,
                          rng: np.random.Generator) -> Circuit:
    """depth random single-qudit gates per qudit, a SUM chain, measure all."""
    depth = integral(depth, "depth", ShapeError, minimum=0)
    circuit = Circuit(n, d)
    for j in range(n):
        for name in rng.choice(SINGLE_QUDIT_GATES, size=depth):
            circuit.add_gate(str(name), j)
    for j in range(n - 1):
        circuit.add_gate("SUM", j, j + 1)
    for j in range(n):
        circuit.add_gate("M", j)
    circuit.metadata["family"] = f"local_gate_test_n{n}_depth{depth}"
    return circuit


def build_random_clifford_circuit(n: int, d, depth: int, rng: np.random.Generator,
                                  two_qudit_prob: float = 0.2,
                                  noise=None,
                                  mid_measure_prob: float = 0.0,
                                  reset_prob: float = 0.0,
                                  measure_all: bool = True) -> Circuit:
    """Depth layers of uniformly random gates, optional noise and mid-circuit ops.

    noise, when given, is a (kind, prob) pair appended as N1 after every gate
    on each touched qudit.
    """
    depth = integral(depth, "depth", ShapeError, minimum=0)
    circuit = Circuit(n, d)
    if noise is not None and noise[0] not in NOISE_KINDS:
        raise ShapeError(f"noise kind must be one of {NOISE_KINDS}")
    for _ in range(depth):
        touched = []
        if n >= 2 and rng.random() < two_qudit_prob:
            c, t = rng.choice(n, size=2, replace=False)
            circuit.add_gate("SUM", int(c), int(t))
            touched = [int(c), int(t)]
        else:
            j = int(rng.integers(n))
            circuit.add_gate(str(rng.choice(SINGLE_QUDIT_GATES)), j)
            touched = [j]
        if noise is not None:
            for q in touched:
                circuit.add_gate("N1", q, noise_channel=noise[0], prob=noise[1])
        if mid_measure_prob and rng.random() < mid_measure_prob:
            circuit.add_gate("M", int(rng.integers(n)))
        if reset_prob and rng.random() < reset_prob:
            circuit.add_gate("RESET", int(rng.integers(n)))
    if measure_all:
        for j in range(n):
            circuit.add_gate("M", j)
    circuit.metadata["family"] = f"random_clifford_n{n}_depth{depth}"
    circuit.metadata["two_qudit_prob"] = two_qudit_prob
    return circuit
