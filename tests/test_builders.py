"""Tests for the canned circuit families."""

import numpy as np
import pytest

from quditsim.builders import (
    build_bernstein_vazirani,
    build_deutsch_jozsa,
    build_ghz_chain,
    build_local_gate_test,
    build_random_clifford_circuit,
    expected_deutsch_jozsa_outcome,
)
from quditsim.errors import ShapeError
from quditsim.simulate import run_circuit


class TestGHZChain:
    """Entangling chain."""

    def test_two_qudit_gate_list(self):
        c = build_ghz_chain(2, 3)
        assert [str(ins) for ins in c.instructions] == ["F 0", "SUM 0 1"]

    def test_all_outcomes_equal(self):
        c = build_ghz_chain(4, 5, measure=True)
        result = run_circuit(c, shots=100, seed=0, method="tableau")
        for outs in result.outcome_tuples():
            assert len(set(outs)) == 1

    def test_measure_flag(self):
        assert build_ghz_chain(3, 3).num_measurements == 0
        assert build_ghz_chain(3, 3, measure=True).num_measurements == 3


class TestDeutschJozsa:
    """Constant-vs-identity oracle discrimination."""

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_constant_reads_zero(self, d):
        c = build_deutsch_jozsa(d, constant=True)
        result = run_circuit(c, shots=20, seed=1, method="statevector")
        assert result.deterministic[0]
        assert (result.outcomes[:, 0] == 0).all()

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_identity_reads_d_minus_one(self, d):
        c = build_deutsch_jozsa(d, constant=False)
        result = run_circuit(c, shots=20, seed=2, method="statevector")
        assert result.deterministic[0]
        assert (result.outcomes[:, 0] == d - 1).all()

    def test_constant_value_does_not_matter(self):
        for value in range(3):
            c = build_deutsch_jozsa(3, constant=True, constant_value=value)
            result = run_circuit(c, shots=5, seed=3, method="tableau")
            assert (result.outcomes[:, 0] == 0).all()

    def test_constant_value_range(self):
        with pytest.raises(ShapeError):
            build_deutsch_jozsa(3, constant=True, constant_value=3)

    def test_expected_helper(self):
        assert expected_deutsch_jozsa_outcome(3, True) == 0
        assert expected_deutsch_jozsa_outcome(5, False) == 4


class TestBernsteinVazirani:
    """One-query secret recovery."""

    @pytest.mark.parametrize("d,secret", [(3, (1, 0, 2)), (5, (4, 2, 0, 1)),
                                          (2, (1, 0, 1, 1)), (7, (6, 3))])
    def test_recovers_secret(self, d, secret):
        c = build_bernstein_vazirani(d, secret)
        method = "tableau" if d % 2 else "statevector"
        result = run_circuit(c, shots=25, seed=4, method=method)
        for outs in result.outcome_tuples():
            assert outs == tuple(secret), (d, secret)

    def test_string_secret(self):
        c = build_bernstein_vazirani(3, "102")
        result = run_circuit(c, shots=10, seed=5, method="tableau")
        assert all(outs == (1, 0, 2) for outs in result.outcome_tuples())

    def test_all_zero_secret(self):
        c = build_bernstein_vazirani(3, (0, 0))
        result = run_circuit(c, shots=10, seed=6, method="tableau")
        assert all(outs == (0, 0) for outs in result.outcome_tuples())

    def test_empty_secret_rejected(self):
        with pytest.raises(ShapeError):
            build_bernstein_vazirani(3, ())

    def test_register_width(self):
        c = build_bernstein_vazirani(3, (1, 2, 0, 1))
        assert c.num_qudits == 5  # register + ancilla
        assert c.num_measurements == 4


class TestLocalGateTest:
    """Per-qudit scrambles plus a SUM chain."""

    def test_structure(self):
        rng = np.random.default_rng(0)
        c = build_local_gate_test(4, d=3, depth=5, rng=rng)
        names = [ins.name for ins in c.instructions]
        assert names.count("SUM") == 3
        assert names.count("M") == 4
        assert len([n for n in names if n not in ("SUM", "M")]) == 20

    def test_depth_zero(self):
        rng = np.random.default_rng(1)
        c = build_local_gate_test(3, d=3, depth=0, rng=rng)
        names = [ins.name for ins in c.instructions]
        assert names == ["SUM", "SUM", "M", "M", "M"]

    def test_negative_depth_rejected(self):
        with pytest.raises(ShapeError):
            build_local_gate_test(3, d=3, depth=-1, rng=np.random.default_rng(2))

    def test_seed_determinism(self):
        a = build_local_gate_test(5, d=5, depth=10, rng=np.random.default_rng(7))
        b = build_local_gate_test(5, d=5, depth=10, rng=np.random.default_rng(7))
        assert a == b


class TestRandomClifford:
    """Random circuit corpus generator."""

    def test_depth_and_measurements(self):
        rng = np.random.default_rng(3)
        c = build_random_clifford_circuit(4, 3, 50, rng)
        gates = [ins for ins in c.instructions if ins.name != "M"]
        assert len(gates) == 50
        assert c.num_measurements == 4

    def test_noise_insertion(self):
        rng = np.random.default_rng(4)
        c = build_random_clifford_circuit(3, 3, 30, rng, noise=("d", 0.02))
        n1 = [ins for ins in c.instructions if ins.name == "N1"]
        assert len(n1) >= 30  # one per touched qudit per layer
        assert all(ins.noise_channel == "d" and ins.prob == 0.02 for ins in n1)

    def test_bad_noise_kind(self):
        with pytest.raises(ShapeError):
            build_random_clifford_circuit(2, 3, 5, np.random.default_rng(5),
                                          noise=("bogus", 0.1))

    def test_two_qudit_rate(self):
        rng = np.random.default_rng(6)
        c = build_random_clifford_circuit(4, 3, 2000, rng)
        sums = sum(1 for ins in c.instructions if ins.name == "SUM")
        assert sums / 2000 == pytest.approx(0.2, abs=0.03)

    def test_mid_circuit_options(self):
        rng = np.random.default_rng(8)
        c = build_random_clifford_circuit(3, 3, 100, rng, mid_measure_prob=0.3,
                                          reset_prob=0.2, measure_all=False)
        names = [ins.name for ins in c.instructions]
        assert "M" in names
        assert "RESET" in names

    def test_seed_determinism(self):
        a = build_random_clifford_circuit(4, 5, 60, np.random.default_rng(11))
        b = build_random_clifford_circuit(4, 5, 60, np.random.default_rng(11))
        assert a == b

    def test_metadata(self):
        c = build_random_clifford_circuit(2, 3, 5, np.random.default_rng(12))
        assert "family" in c.metadata
        assert c.metadata["two_qudit_prob"] == 0.2
