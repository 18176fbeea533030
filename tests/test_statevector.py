"""Tests for the dense statevector oracle."""

import itertools

import numpy as np
import pytest

from quditsim.errors import DimensionError, MemoryCapError, PauliMatchError, ShapeError
from quditsim.gates import GATE_ALIASES, GATES, lookup
from quditsim.pauli import Dimension, PauliString
from quditsim.statevector import (
    DenseState,
    conjugate_pauli,
    gate_matrix,
    match_pauli,
    pauli_matrix,
)


def full_unitary(name, d, n, qudits) -> np.ndarray:
    """The d^n x d^n unitary of a gate on the given qudits, control first:
    kron(gate_matrix, I) on the qudits listed first, with its rows and
    columns permuted back to qudit order."""
    rest = [q for q in range(n) if q not in qudits]
    u = np.kron(gate_matrix(name, d), np.eye(d ** len(rest)))
    order = np.arange(d ** n).reshape((d,) * n).transpose([*qudits, *rest])
    back = np.argsort(order.reshape(-1))
    return u[np.ix_(back, back)]


class TestGateMatrices:
    """Explicit unitaries for the generator set."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
    @pytest.mark.parametrize("name", ["X", "Z", "F", "P", "SUM"])
    def test_unitary(self, name, d):
        u = gate_matrix(name, d)
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)

    def test_x_is_cyclic_shift(self):
        x = gate_matrix("X", 3)
        e0 = np.zeros(3)
        e0[0] = 1
        assert np.allclose(x @ e0, [0, 1, 0])

    def test_z_is_diagonal_phase(self):
        z = gate_matrix("Z", 3)
        w = np.exp(2j * np.pi / 3)
        assert np.allclose(np.diag(z), [1, w, w * w])

    def test_f_conjugates_z_to_x(self):
        for d in (3, 5):
            f = gate_matrix("F", d)
            x = gate_matrix("X", d)
            z = gate_matrix("Z", d)
            assert np.allclose(f @ x @ f.conj().T, z)

    def test_inverse_names(self):
        for d in (3, 4, 5):
            for name in ("X", "Z", "F", "P"):
                u = gate_matrix(name, d)
                v = gate_matrix(name + "_INV", d)
                assert np.allclose(u @ v, np.eye(d), atol=1e-12)

    def test_sum_is_controlled_shift(self):
        s = gate_matrix("SUM", 3)
        # |2,1> -> |2, 1+2 mod 3> = |2,0>
        vec = np.zeros(9)
        vec[2 * 3 + 1] = 1
        out = s @ vec
        assert np.isclose(out[2 * 3 + 0], 1)

    def test_unknown_name(self):
        with pytest.raises(ShapeError):
            gate_matrix("WAT", 3)


class TestPauliMatrix:
    """PauliString -> dense matrix bridge."""

    def test_phase_and_order(self):
        d = Dimension(3)
        p = PauliString.single(1, d, 0, x=1, z=1, r=2)
        m = pauli_matrix(p)
        w = np.exp(2j * np.pi / 3)
        x = gate_matrix("X", 3)
        z = gate_matrix("Z", 3)
        assert np.allclose(m, w**2 * x @ z)

    def test_mul_matches_matrix_product(self):
        rng = np.random.default_rng(0)
        for d in (3, 5):
            for n in (1, 2):
                for _ in range(10):
                    p = PauliString(Dimension(d), rng.integers(0, d, n),
                                    rng.integers(0, d, n), int(rng.integers(d)))
                    q = PauliString(Dimension(d), rng.integers(0, d, n),
                                    rng.integers(0, d, n), int(rng.integers(d)))
                    assert np.allclose(pauli_matrix(p.mul(q)),
                                       pauli_matrix(p) @ pauli_matrix(q))


class TestMatchPauli:
    """Recover a PauliString from its matrix."""

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 4, 5):
            tau = Dimension(d).tau()
            for _ in range(8):
                p = PauliString(Dimension(d), rng.integers(0, d, 2),
                                rng.integers(0, d, 2), int(rng.integers(d)))
                got, tau_pow = match_pauli(pauli_matrix(p), 2, d)
                assert np.allclose(pauli_matrix(got) * tau ** tau_pow,
                                   pauli_matrix(p))

    def test_non_pauli_rejected(self):
        with pytest.raises(PauliMatchError):
            match_pauli(gate_matrix("F", 3), 1, 3)

    @pytest.mark.parametrize("matrix, error, match", [
        (np.eye(4), ShapeError, r"does not match d\^n = 3"),
        (np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]]) / np.array([1, np.sqrt(2), 1]),
         PauliMatchError, "column 1 does not have exactly one nonzero entry"),
        (np.diag([1, 1j, 1]), PauliMatchError,
         "column phase ratio is not a power of omega"),
        (np.exp(0.1j) * np.eye(3), PauliMatchError,
         "global phase is not a power of tau"),
        (np.array([[1, 0, 1], [0, 1, 0], [0, 0, 0]]), PauliMatchError,
         "matrix is not a phase times a Pauli string"),
    ], ids=["shape", "column", "ratio", "phase", "not_pauli"])
    def test_each_rejection(self, matrix, error, match):
        with pytest.raises(error, match=match):
            match_pauli(matrix, 1, 3)


class TestConjugation:
    """Clifford conjugation of Pauli strings via the oracle."""

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("gate", ["F", "F_INV", "P", "P_INV",
                                      "X", "X_INV", "Z", "Z_INV"])
    def test_matrix_exact(self, gate, d):
        rng = np.random.default_rng(d)
        u = gate_matrix(gate, d)
        for _ in range(6):
            p = PauliString(Dimension(d), rng.integers(0, d, 1),
                            rng.integers(0, d, 1), int(rng.integers(d)))
            got, tau_pow = conjugate_pauli(gate, p)
            assert tau_pow == 0  # odd d phases stay omega powers
            assert np.allclose(pauli_matrix(got),
                               u @ pauli_matrix(p) @ u.conj().T)

    def test_arity_mismatch(self):
        with pytest.raises(ShapeError, match="SUM acts on 2 qudit"):
            conjugate_pauli("SUM", PauliString.single(1, Dimension(3), 0, x=1))


class TestDenseState:
    """State evolution and measurement."""

    @pytest.mark.parametrize("j, k, match", [
        (-1, 0, "out of range for n=2"),
        (5, 0, "out of range for n=2"),
        (1.5, 0, "qudit index must be an integer"),
        (0, 5, r"outcome must be an integer in \[0, 3\), got 5"),
        (0, -1, r"outcome must be an integer in \[0, 3\), got -1"),
        (0, 1.5, r"outcome must be an integer in \[0, 3\), got 1.5"),
    ], ids=["negative_j", "big_j", "float_j", "big_k", "negative_k", "float_k"])
    def test_project_checks_operands(self, j, k, match):
        state = DenseState(2, 3)
        state.apply_gate("F", 1)
        before = state.vector.copy()
        with pytest.raises(ShapeError, match=match):
            state.project(j, k)
        assert np.array_equal(state.vector, before)
        assert np.isclose(state.project(np.int64(1), np.int64(2)), 1 / 3)

    def test_initial_state(self):
        state = DenseState(2, 3)
        vec = state.vector
        assert np.isclose(vec[0], 1)
        assert np.isclose(np.abs(vec[1:]).max(), 0)

    def test_gate_application(self):
        state = DenseState(2, 3)
        state.apply_gate("F", 0)
        state.apply_gate("SUM", 0, 1)
        vec = state.vector
        # GHZ: (|00> + |11> + |22>)/sqrt(3); qudit 0 most significant
        expect = np.zeros(9, dtype=complex)
        expect[[0, 4, 8]] = 1 / np.sqrt(3)
        assert np.allclose(vec, expect)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_two_qudit_gates_permute_amplitudes(self, d):
        """SUM and SUM_INV on every ordered pair, against the index map
        |..i_c..i_t..> -> |..i_c..i_t +- i_c..>, exactly."""
        n = 3
        rng = np.random.default_rng(d)
        psi = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
        for name, sign in (("SUM", 1), ("SUM_INV", -1)):
            for c, t in itertools.permutations(range(n), 2):
                state = DenseState(n, d)
                state.psi = psi.copy()
                state.apply_gate(name, c, t)
                expect = np.empty_like(psi)
                for idx in np.ndindex(psi.shape):
                    out = list(idx)
                    out[t] = (idx[t] + sign * idx[c]) % d
                    expect[tuple(out)] = psi[idx]
                assert np.array_equal(state.psi, expect), (name, c, t)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 12])
    def test_every_gate_matches_its_full_unitary(self, d, n):
        """Every gate name and alias on every qudit or ordered pair, against
        its full unitary on a random state: exactly for the gates with one
        nonzero per row, to 1e-12 for F and F_INV.  Real and imaginary
        parts are random signed powers of two, so each product with a phase
        rounds once however numpy groups its multiply-adds."""
        rng = np.random.default_rng(100 * d + n)
        parts = rng.choice([-4, -2, -1, -0.5, 0.5, 1, 2, 4], size=(2,) + (d,) * n)
        psi = parts[0] + 1j * parts[1]
        for name in [*GATES, *GATE_ALIASES]:
            arity = lookup(name).arity
            for qudits in itertools.permutations(range(n), arity):
                state = DenseState(n, d)
                state.psi = psi.copy()
                state.apply_gate(name, *qudits)
                u = full_unitary(name, d, n, qudits)
                if lookup(name).name.startswith("F"):
                    assert np.allclose(state.vector, u @ psi.reshape(-1),
                                       rtol=0, atol=1e-12), (name, qudits)
                else:
                    # one nonzero product per row, summed with exact zeros
                    expect = (u * psi.reshape(-1)).sum(axis=1)
                    assert np.array_equal(state.vector, expect), (name, qudits)

    def test_gate_matrix_stays_fresh_after_use(self):
        DenseState(1, 3).apply_gate("X", 0)
        m = gate_matrix("X", 3)
        assert m.flags.writeable
        m[:] = 0
        state = DenseState(1, 3)
        state.apply_gate("X", 0)
        assert np.isclose(state.vector[1], 1)

    def test_outcome_distribution(self):
        state = DenseState(2, 3)
        state.apply_gate("F", 0)
        state.apply_gate("SUM", 0, 1)
        probs = state.outcome_distribution(1)
        assert np.allclose(probs, [1 / 3] * 3)

    def test_measurement_collapse(self):
        rng = np.random.default_rng(5)
        state = DenseState(2, 3)
        state.apply_gate("F", 0)
        state.apply_gate("SUM", 0, 1)
        rec = state.measure_z(1, rng)
        assert not rec.deterministic
        rec2 = state.measure_z(0, rng)
        assert rec2.deterministic
        assert rec2.outcome == rec.outcome

    def test_deterministic_flag(self):
        rng = np.random.default_rng(6)
        state = DenseState(1, 5)
        state.apply_gate("X", 0)
        rec = state.measure_z(0, rng)
        assert rec.deterministic and rec.outcome == 1

    def test_reset(self):
        rng = np.random.default_rng(7)
        state = DenseState(2, 3)
        state.apply_gate("F", 0)
        state.apply_gate("SUM", 0, 1)
        state.reset(0, rng)
        rec = state.measure_z(0, rng)
        assert rec.deterministic and rec.outcome == 0

    def test_copy_is_independent(self):
        state = DenseState(2, 3)
        state.apply_gate("F", 0)
        state.measure_z(1, np.random.default_rng(1))
        twin = state.copy()
        assert twin.measurements_done == 1
        twin.apply_gate("Z", 0)
        assert not np.allclose(twin.vector, state.vector)
        assert state.measure_z(0, np.random.default_rng(2)).seq == 1
        assert twin.measurements_done == 1

    @pytest.mark.parametrize("name, qudits, operand, match", [
        ("F", (2,), 1, "out of range for n=2"),
        ("F", (0.5,), 1, "qudit index must be an integer"),
        ("F", (0, 1), 0, "F takes 1 qudit"),
        ("SUM", (1, 1), 2, "SUM needs two distinct qudits"),
        ("CNOT", (0, -1), 2, "out of range for n=2"),
        ("NOPE", (0,), 0, "unknown gate name"),
    ])
    def test_apply_gate_checks_operands(self, name, qudits, operand, match):
        state = DenseState(2, 3)
        with pytest.raises(ShapeError, match=match) as exc:
            state.apply_gate(name, *qudits)
        assert exc.value.operand == operand
        assert np.isclose(state.vector[0], 1)

    def test_lowest_outcome_without_rng(self):
        """A GHZ run with no generator reads the lowest outcome, 0."""
        state = DenseState(3, 5)
        state.apply_gate("F", 0)
        state.apply_gate("SUM", 0, 1)
        state.apply_gate("SUM", 1, 2)
        records = [state.measure_z(j) for j in (2, 0, 1)]
        assert [r.outcome for r in records] == [0, 0, 0]
        assert [r.deterministic for r in records] == [False, True, True]
        assert [r.seq for r in records] == [0, 1, 2]

    def test_expectation_of_stabilizer(self):
        state = DenseState(2, 3)
        state.apply_gate("F", 0)
        state.apply_gate("SUM", 0, 1)
        g = PauliString(Dimension(3), [2, 2], [0, 0], 0)
        assert np.isclose(state.expectation(g), 1.0)

    def test_memory_cap(self):
        with pytest.raises(MemoryCapError):
            DenseState(30, 5)

    def test_apply_pauli(self):
        state = DenseState(1, 3)
        p = PauliString.single(1, Dimension(3), 0, x=2)
        state.apply_pauli(p)
        assert np.isclose(state.vector[2], 1)

    @pytest.mark.parametrize("n, d", [(3, 3), (2, 5)])
    def test_apply_pauli_shape_mismatch(self, n, d):
        with pytest.raises(ShapeError, match="does not match state shape"):
            DenseState(2, 3).apply_pauli(PauliString.identity(n, Dimension(d)))

    def test_project_onto_an_absent_outcome(self):
        state = DenseState(2, 3)
        before = state.vector.copy()
        with pytest.raises(ShapeError, match=r"onto \|1> has zero weight"):
            state.project(0, 1)
        assert np.array_equal(state.vector, before)
