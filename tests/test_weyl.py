"""Tests for the composite-dimension Weyl tableau."""

import numpy as np
import pytest

import quditsim.weyl as weyl
from quditsim.circuit import Circuit
from quditsim.errors import ShapeError
from quditsim.frames import compile_circuit
from quditsim.pauli import Dimension, PauliString
from quditsim.snf import kernel_mod, solve_mod
from quditsim.statevector import DenseState
from quditsim.weyl import WeylTableau

from weyl_helpers import (weyl_canonical, weyl_from_pauli, weyl_mul,
                          weyl_pow, weyl_product)

SINGLE_GATES = ["X", "Z", "X_INV", "Z_INV", "F", "F_INV", "P", "P_INV"]


def random_walk(tab, rng, depth, state=None):
    for _ in range(depth):
        if tab.n > 1 and rng.random() < 0.3:
            a, b = rng.choice(tab.n, size=2, replace=False)
            name, qs = "SUM", (int(a), int(b))
        else:
            name, qs = str(rng.choice(SINGLE_GATES)), (int(rng.integers(tab.n)),)
        tab.apply_gate(name, *qs)
        if state is not None:
            state.apply_gate(name, *qs)


def weyl_matrix(f, v, dim):
    """Dense matrix of tau^f W_(a|b) for checking the algebra."""
    n = len(v) // 2
    d = dim.d
    tau = dim.tau()
    out = np.eye(d ** n, dtype=complex)
    for j in range(n):
        a, b = int(v[j]), int(v[n + j])
        x = np.zeros((d, d), dtype=complex)
        for k in range(d):
            x[(k + 1) % d, k] = 1
        z = np.diag([dim.omega() ** k for k in range(d)])
        w = tau ** (-a * b) * np.linalg.matrix_power(z, a) @ np.linalg.matrix_power(x, b)
        full = np.eye(1, dtype=complex)
        for q in range(n):
            full = np.kron(full, w if q == j else np.eye(d))
        out = out @ full
    return tau ** f * out


class TestWeylAlgebra:
    """Phase-exact group operations."""

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_mul_matches_matrices(self, d):
        dim = Dimension(d)
        rng = np.random.default_rng(d)
        for _ in range(10):
            f1, f2 = (int(rng.integers(dim.d_prime)) for _ in range(2))
            v1 = rng.integers(0, dim.d_prime, size=2)
            v2 = rng.integers(0, dim.d_prime, size=2)
            f, v = weyl_mul(f1, v1, f2, v2, dim)
            lhs = weyl_matrix(f1, v1, dim) @ weyl_matrix(f2, v2, dim)
            assert np.allclose(lhs, weyl_matrix(f, v, dim), atol=1e-8)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_pow_matches_matrices(self, d):
        dim = Dimension(d)
        rng = np.random.default_rng(d + 1)
        for _ in range(8):
            f = int(rng.integers(dim.d_prime))
            v = rng.integers(0, dim.d_prime, size=2)
            k = int(rng.integers(0, 2 * d))
            fk, vk = weyl_pow(f, v, k, dim)
            assert np.allclose(np.linalg.matrix_power(weyl_matrix(f, v, dim), k),
                               weyl_matrix(fk, vk, dim), atol=1e-8)

    def test_canonical_reduces_coordinates(self):
        dim = Dimension(4)
        f, v = weyl_canonical(0, np.array([5, 9]), dim)
        assert (v < 4).all()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_from_pauli(self, d):
        from quditsim.statevector import pauli_matrix
        rng = np.random.default_rng(d)
        for _ in range(8):
            p = PauliString(Dimension(d), rng.integers(0, d, 2),
                            rng.integers(0, d, 2), int(rng.integers(d)))
            f, v = weyl_from_pauli(p)
            assert np.allclose(weyl_matrix(f, v, Dimension(d)),
                               pauli_matrix(p), atol=1e-8)


class TestInitAndGates:
    """Tableau evolution for composite d."""

    def test_initial_generators_fix_zero_state(self):
        tab = WeylTableau(2, 4)
        arr = tab.to_array()
        assert arr.shape == (5, 2)
        # phase row zero; Z block identity; X block zero
        assert not arr[0].any()
        assert np.array_equal(arr[1:3], np.eye(2, dtype=np.int64))
        assert not arr[3:].any()

    def test_tau_square_is_omega(self):
        dim = Dimension(4)
        assert np.isclose(dim.tau() ** 2, dim.omega())

    def test_gate_then_inverse(self):
        rng = np.random.default_rng(3)
        for d in (2, 4, 6):
            tab = WeylTableau(2, d)
            random_walk(tab, rng, 10)
            before = tab.to_array().copy()
            for name, inv in (("F", "F_INV"), ("P", "P_INV"), ("X", "X_INV")):
                tab.apply_gate(name, 0)
                tab.apply_gate(inv, 0)
                assert np.array_equal(tab.to_array(), before), (d, name)

    def test_generators_commute_along_walks(self):
        rng = np.random.default_rng(4)
        for d in (2, 4, 6, 9):
            tab = WeylTableau(3, d)
            random_walk(tab, rng, 40)
            tab.check_invariants()

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_measurement_distribution_matches_oracle(self, d):
        # exact distribution comparison, per-gate-walk
        for seed in range(12):
            rng = np.random.default_rng(seed)
            tab = WeylTableau(2, d)
            state = DenseState(2, d)
            random_walk(tab, rng, 15, state)
            j = int(rng.integers(2))
            dist = tab.outcome_distribution(j)
            probs = state.outcome_distribution(j)
            for k in range(d):
                assert probs[k] == pytest.approx(dist.get(k, 0.0), abs=1e-9), \
                    (d, seed, j)


class TestMeasurement:
    """Collapse and record bookkeeping."""

    def test_fresh_qudit_deterministic_zero(self):
        rng = np.random.default_rng(0)
        tab = WeylTableau(2, 6)
        rec = tab.measure_z(0, rng)
        assert rec.deterministic and rec.outcome == 0
        assert rec.seq == 0

    def test_fourier_state_uniform(self):
        rng = np.random.default_rng(1)
        counts = np.zeros(4, dtype=np.int64)
        for _ in range(800):
            tab = WeylTableau(1, 4)
            tab.apply_gate("F", 0)
            rec = tab.measure_z(0, rng)
            assert not rec.deterministic
            counts[rec.outcome] += 1
        assert (np.abs(counts / 800 - 0.25) < 0.08).all()

    def test_half_support_circuit(self):
        # F 0; SUM 0 1; SUM 0 1 at d=4 leaves qudit 1 on {0, 2}
        rng = np.random.default_rng(2)
        outcomes = set()
        for _ in range(400):
            tab = WeylTableau(2, 4)
            tab.apply_gate("F", 0)
            tab.apply_gate("SUM", 0, 1)
            tab.apply_gate("SUM", 0, 1)
            rec = tab.measure_z(1, rng)
            outcomes.add(rec.outcome)
        assert outcomes == {0, 2}

    def test_half_support_distribution(self):
        tab = WeylTableau(2, 4)
        tab.apply_gate("F", 0)
        tab.apply_gate("SUM", 0, 1)
        tab.apply_gate("SUM", 0, 1)
        assert tab.outcome_distribution(1) == {0: 0.5, 2: 0.5}

    def test_remeasure_repeats(self):
        rng = np.random.default_rng(3)
        for d in (2, 4, 6):
            for seed in range(15):
                tab = WeylTableau(2, d)
                random_walk(tab, np.random.default_rng(seed), 20)
                first = tab.measure_z(1, rng)
                second = tab.measure_z(1, rng)
                assert second.deterministic
                assert second.outcome == first.outcome

    def test_post_measurement_state_tracks_oracle(self):
        for d in (2, 4):
            for seed in range(10):
                rng = np.random.default_rng(seed)
                tab = WeylTableau(2, d)
                state = DenseState(2, d)
                random_walk(tab, rng, 12, state)
                rec = tab.measure_z(0, rng)
                state.project(0, rec.outcome)
                dist = tab.outcome_distribution(1)
                probs = state.outcome_distribution(1)
                for k in range(d):
                    assert probs[k] == pytest.approx(dist.get(k, 0.0),
                                                     abs=1e-9), (d, seed)

    def test_qubit_path(self):
        # d=2 is served by this tableau
        rng = np.random.default_rng(4)
        tab = WeylTableau(2, 2)
        tab.apply_gate("H", 0)
        tab.apply_gate("CNOT", 0, 1)
        first = tab.measure_z(0, rng)
        second = tab.measure_z(1, rng)
        assert second.deterministic
        assert second.outcome == first.outcome

    def test_reset(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            tab = WeylTableau(2, 4)
            random_walk(tab, np.random.default_rng(seed), 15)
            tab.reset(0, rng)
            rec = tab.measure_z(0, rng)
            assert rec.deterministic and rec.outcome == 0

    @pytest.mark.parametrize("d", [4, 6])
    def test_compiled_reset(self, d):
        """A compiled reset corrects each shot by its own outcome."""
        c = Circuit(2, d)
        for name, *qudits in [("F", 0), ("SUM", 0, 1), ("RESET", 0),
                              ("M", 0), ("M", 1)]:
            c.add_gate(name, *qudits)
        omap = compile_circuit(c, WeylTableau(2, d))
        assert omap.deterministic.tolist() == [True, True]
        # the partner reads the reset's uniform symbol
        assert omap.const.tolist() == [0, 0] and len(omap.uniform) == 1
        assert omap.slots.tolist() == [1] and omap.coeffs.tolist() == [1]

    def test_compiled_half_support(self):
        # F 0; SUM 0 1; SUM 0 1 at d=4 leaves qudit 1 on {0, 2}: its
        # outcome is 2 times a fresh uniform symbol
        c = Circuit(2, 4)
        for name, *qudits in [("F", 0), ("SUM", 0, 1), ("SUM", 0, 1),
                              ("M", 1), ("M", 1)]:
            c.add_gate(name, *qudits)
        omap = compile_circuit(c, WeylTableau(2, 4))
        assert omap.deterministic.tolist() == [False, True]
        assert omap.const.tolist() == [0, 0]
        assert omap.slots.tolist() == [0, 1] and omap.coeffs.tolist() == [2, 2]

    def test_index_range(self):
        tab = WeylTableau(1, 4)
        with pytest.raises(ShapeError):
            tab.measure_z(1, np.random.default_rng(0))

    @pytest.mark.parametrize("j", [-1, 2])
    def test_distribution_index_range(self, j):
        tab = WeylTableau(2, 4)
        for probe in (tab.outcome_distribution, tab._z_support,
                      lambda q: tab.measure_z(q, np.random.default_rng(0))):
            with pytest.raises(ShapeError, match="out of range for n=2"):
                probe(j)
        assert tab.measurements_done == 0


class TestPauliErrors:
    """Injected Weyl-frame errors."""

    def test_x_error_shifts_outcome(self):
        rng = np.random.default_rng(6)
        for d in (4, 6):
            tab = WeylTableau(1, d)
            tab.apply_pauli_error(0, 3, 0)
            rec = tab.measure_z(0, rng)
            assert rec.deterministic and rec.outcome == 3 % d

    def test_z_error_invisible_in_z_basis(self):
        rng = np.random.default_rng(7)
        tab = WeylTableau(1, 4)
        tab.apply_pauli_error(0, 0, 2)
        rec = tab.measure_z(0, rng)
        assert rec.deterministic and rec.outcome == 0

    @pytest.mark.parametrize("j", [-1, 2])
    def test_index_range(self, j):
        tab = WeylTableau(2, 4)
        with pytest.raises(ShapeError, match="out of range for n=2"):
            tab.apply_pauli_error(j, 1, 0)
        assert not tab.r.any()


def divisor_search_support(tab, j):
    """Reference _z_support: try each divisor m of d until m*(e_j|0) solves."""
    d, dp, n = tab.d, tab.dp, tab.n
    target = np.zeros(2 * n, dtype=np.int64)
    target[j] = 1
    for m in [m for m in range(1, d + 1) if d % m == 0]:
        y = solve_mod((tab.coords % d).T, (m * target) % d, d)
        if y is not None:
            f, _ = weyl_canonical(*weyl_product(tab, y), tab.dimension)
            return m, [k for k in range(d) if (2 * k * m + f) % dp == 0]
    raise AssertionError("m = d is always solvable")


def noisy_walk(tab, rng, depth):
    """Gates interleaved with Weyl errors, mid-walk measurements and resets."""
    for _ in range(depth):
        u = rng.random()
        j = int(rng.integers(tab.n))
        if u < 0.1:
            tab.apply_pauli_error(j, int(rng.integers(tab.d)), int(rng.integers(tab.d)))
        elif u < 0.15:
            tab.measure_z(j, rng)
        elif u < 0.2:
            tab.reset(j, rng)
        else:
            random_walk(tab, rng, 1)
        yield


class TestSupportFromXColumn:
    """The elimination's support equals the Smith-normal-form divisor search."""

    @pytest.mark.parametrize("d", [2, 4, 6, 8, 9, 12])
    def test_matches_divisor_search(self, d):
        sizes = set()
        for seed in range(6):
            rng = np.random.default_rng(100 * d + seed)
            tab = WeylTableau(3, d)
            for _ in noisy_walk(tab, rng, 40):
                assert len(tab.coords) <= 2 * tab.n
                tab.check_invariants()
                for j in range(tab.n):
                    expected = divisor_search_support(tab, j)
                    assert tab._z_support(j) == expected, (d, seed, j)
                    sizes.add(expected[0])
        # the corpus reaches every support size that divides d
        assert sizes == {m for m in range(1, d + 1) if d % m == 0}, sizes

    @pytest.mark.parametrize("d", [4, 6, 9])
    def test_one_solve_per_measurement(self, d, monkeypatch):
        """No modular solve or kernel per measurement: one elimination does it."""
        calls = []

        def counting(solver):
            def wrapped(*args):
                calls.append(args)
                return solver(*args)
            return wrapped

        monkeypatch.setattr(weyl, "solve_mod", counting(solve_mod))
        monkeypatch.setattr(weyl, "kernel_mod", counting(kernel_mod))
        rng = np.random.default_rng(d)
        tab = WeylTableau(3, d)
        for _ in range(30):
            random_walk(tab, rng, 3)
            tab.measure_z(int(rng.integers(tab.n)), rng)
            assert calls == []
