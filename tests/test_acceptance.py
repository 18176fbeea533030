"""Acceptance suite: one test per shipping criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Every test uses a fixed seed so the whole suite is reproducible;
the stated tolerances are asserted literally.
"""

import numpy as np
import pytest

from quditsim.builders import (
    build_bernstein_vazirani,
    build_deutsch_jozsa,
    build_ghz_chain,
    build_random_clifford_circuit,
)
from quditsim.circuit import Circuit
from quditsim.experiments import (
    RBConfig,
    channel_distribution_test,
    run_lrb_d,
    run_rb,
    validate_backend_pair,
)
from quditsim.simulate import run_circuit
from quditsim.snf import integer_determinant, smith_normal_form
from quditsim.statevector import DenseState
from quditsim.tableau import Tableau

SINGLE_GATES = ["X", "Z", "X_INV", "Z_INV", "F", "F_INV", "P", "P_INV"]


def test_criterion_01_golden_tableau_checkpoints():
    """H 0; X 1; H 1 from init(2,3) hits all four frozen tableaus exactly."""
    tab = Tableau(2, 3)
    assert np.array_equal(tab.to_array(), [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
    ])
    tab.apply_gate("H", 0)
    assert np.array_equal(tab.to_array(), [
        [0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0],
        [2, 0, 0, 0, 0],
        [0, 0, 0, 1, 0],
    ])
    tab.apply_gate("X", 1)
    assert np.array_equal(tab.to_array(), [
        [0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0],
        [2, 0, 0, 0, 0],
        [0, 0, 0, 1, 2],
    ])
    tab.apply_gate("H", 1)
    assert np.array_equal(tab.to_array(), [
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [2, 0, 0, 0, 0],
        [0, 2, 0, 0, 2],
    ])


def test_criterion_02_measurement_worked_example():
    """GHZ-pair M 1 rewrites the pinned rows; follow-up M 0 always agrees."""
    rng = np.random.default_rng(20260814)
    for _ in range(10**4):
        tab = Tableau(2, 3)
        tab.apply_gate("F", 0)
        tab.apply_gate("SUM", 0, 1)
        assert np.array_equal(tab.to_array(), [
            [0, 0, 1, 0, 0],
            [0, 1, 0, 0, 0],
            [2, 2, 0, 0, 0],
            [0, 0, 2, 1, 0],
        ])
        first = tab.measure_z(1, rng)
        assert not first.deterministic
        arr = tab.to_array()
        # destabilizer swap: (X^2 X^2)^(2^-1 mod 3) = X X pairs with Z_1
        assert arr[0].tolist() == [1, 1, 0, 0, 0]
        assert arr[2].tolist() == [0, 0, 0, 1, (-first.outcome) % 3]
        assert arr[3].tolist() == [0, 0, 2, 1, 0]
        second = tab.measure_z(0, rng)
        assert second.deterministic
        assert second.outcome == first.outcome


def test_criterion_03_tableau_vs_statevector_corpus():
    """100 random circuits, d in {3,5,7}, n <= 5, depth <= 100: TVD < 0.2."""
    rng = np.random.default_rng(3)
    dims = (3, 5, 7)
    circuits = []
    for i in range(100):
        n = int(rng.integers(1, 6))
        depth = int(rng.integers(1, 101))
        circuits.append(build_random_clifford_circuit(n, dims[i % 3], depth,
                                                      rng))
    report = validate_backend_pair(circuits, "tableau", "statevector",
                                   shots=800, threshold=0.2, seed=30)
    assert report["all_passed"], report["max_tvd"]


def test_criterion_04_frames_vs_statevector_corpus():
    """20 random circuits, d in {3,5}, n <= 6, depth <= 200: TVD < 0.02
    against dense Born sampling."""
    rng = np.random.default_rng(4)
    dims = (3, 5)
    circuits = []
    for i in range(20):
        n = int(rng.integers(1, 7))
        depth = int(rng.integers(1, 201))
        circuits.append(build_random_clifford_circuit(n, dims[i % 2], depth,
                                                      rng))
    report = validate_backend_pair(circuits, "frames", "statevector",
                                   shots=10**4, threshold=0.02, seed=40)
    assert report["all_passed"], report["max_tvd"]


def test_composite_frames_vs_statevector_corpus():
    """Criterion 04's TVD bar on d in {2,4,6,8,9}, where frames compiles on
    the Weyl generator tableau: 20 noiseless circuits, n <= 4, depth <= 100.
    At 10^4 shots a uniform slot on d = 8 or 9 sits on the bar by sampling
    alone (two statevector samples differ by ~0.016), so 4 x 10^4."""
    rng = np.random.default_rng(41)
    dims = (2, 4, 6, 8, 9)
    circuits = []
    for i in range(20):
        n = int(rng.integers(1, 5))
        depth = int(rng.integers(1, 101))
        circuits.append(build_random_clifford_circuit(n, dims[i % 5], depth,
                                                      rng))
    report = validate_backend_pair(circuits, "frames", "statevector",
                                   shots=4 * 10**4, threshold=0.02, seed=42)
    assert report["all_passed"], report["max_tvd"]


def test_criterion_05_channel_distributions():
    """Single-event channels match their closed forms within TVD 0.02."""
    depol = channel_distribution_test("d", 3, 0.1, shots=10**5, seed=50)
    assert depol["passed"], depol
    assert depol["reference"] == pytest.approx({0: 0.925, 1: 0.0375,
                                                2: 0.0375})
    for kind in ("f", "p"):
        report = channel_distribution_test(kind, 3, 0.1, shots=10**5,
                                           seed=51)
        assert report["passed"], report


def test_criterion_06_deterministic_oracle_agreement():
    """Algorithmic, Gaussian-elimination, and dense deterministic outcomes
    agree exactly on 500 random (circuit, measurement) instances."""
    agreed = 0
    for i in range(500):
        rng = np.random.default_rng(600 + i)
        d = 3 if i % 2 == 0 else 5
        n = int(rng.integers(1, 5))
        tab = Tableau(n, d)
        state = DenseState(n, d)
        for _ in range(int(rng.integers(0, 31))):
            if n > 1 and rng.random() < 0.25:
                a, b = rng.choice(n, size=2, replace=False)
                name, qs = "SUM", (int(a), int(b))
            else:
                name, qs = str(rng.choice(SINGLE_GATES)), (int(rng.integers(n)),)
            tab.apply_gate(name, *qs)
            state.apply_gate(name, *qs)
        j = int(rng.integers(n))
        flag, outcome = tab.deterministic_outcome_gaussian(j)
        rec = tab.measure_z(j, rng)
        probs = state.outcome_distribution(j)
        assert rec.deterministic == flag
        if flag:
            assert rec.outcome == outcome
            assert probs[outcome] == pytest.approx(1.0, abs=1e-9)
        else:
            assert np.count_nonzero(probs > 1e-9) > 1
        agreed += 1
    assert agreed == 500


def test_criterion_07_oracle_algorithms():
    """Deutsch-Jozsa reads 0 / d-1 deterministically; B-V recovers secrets."""
    for d in (2, 3, 5):
        for constant, want in ((True, 0), (False, d - 1)):
            circuit = build_deutsch_jozsa(d, constant=constant)
            result = run_circuit(circuit, shots=50, seed=70, method="tableau")
            assert result.deterministic[0]
            assert (result.outcomes[:, 0] == want).all(), (d, constant)
    rng = np.random.default_rng(71)
    for d in (2, 3, 5):
        for m in (1, 5, 10):
            secret = tuple(int(s) for s in rng.integers(0, d, size=m))
            circuit = build_bernstein_vazirani(d, secret)
            result = run_circuit(circuit, shots=20, seed=72, method="tableau")
            for outs in result.outcome_tuples():
                assert outs == secret, (d, secret)


def test_criterion_08_nonprime_path_and_snf():
    """d=4 half-support circuit matches the oracle; SNF contract holds on
    10^3 random matrices."""
    circuit = Circuit(2, 4)
    circuit.add_gate("F", 0)
    circuit.add_gate("CNOT", 0, 1)
    circuit.add_gate("CNOT", 0, 1)
    circuit.add_gate("M", 1)
    result = run_circuit(circuit, shots=10**4, seed=80, method="tableau")
    outs = result.outcomes[:, 0]
    assert set(outs.tolist()) == {0, 2}
    assert abs((outs == 0).mean() - 0.5) < 0.02
    assert abs((outs == 2).mean() - 0.5) < 0.02

    oracle = DenseState(2, 4)
    oracle.apply_gate("F", 0)
    oracle.apply_gate("SUM", 0, 1)
    oracle.apply_gate("SUM", 0, 1)
    assert np.allclose(oracle.outcome_distribution(1), [0.5, 0, 0.5, 0])

    rng = np.random.default_rng(81)
    for _ in range(10**3):
        a = rng.integers(-9, 10, size=(int(rng.integers(1, 9)),
                                       int(rng.integers(1, 9))))
        res = smith_normal_form(a)
        assert np.array_equal(res.u @ res.s @ res.v,
                              np.asarray(a, dtype=object))
        assert abs(integer_determinant(res.u)) == 1
        assert abs(integer_determinant(res.v)) == 1
        diag = [int(res.s[i, i]) for i in range(min(a.shape))]
        for prev, cur in zip(diag, diag[1:]):
            assert (cur % prev == 0) if prev else (cur == 0)


def test_criterion_09_operation_count_scaling():
    """Counters are O(n) per gate, O(n^2) per measurement, and identical
    across d at fixed n."""
    for n in (2, 3, 4, 6, 8):
        logs = {}
        for d in (3, 5, 7):
            circuit = build_ghz_chain(n, d, measure=True)
            tab = Tableau(n, d)
            rng = np.random.default_rng(90)
            for ins in circuit.instructions:
                if ins.name == "M":
                    tab.measure_z(ins.qudits[0], rng)
                else:
                    tab.apply_gate(ins.name, *ins.qudits)
            logs[d] = (list(tab.gate_op_log), list(tab.measure_op_log))
            assert max(tab.gate_op_log) <= 4 * n
            assert max(tab.measure_op_log) <= 8 * n * n
        assert logs[3] == logs[5] == logs[7], n


def test_criterion_10_benchmarking_sanity():
    """RB: perfect at p=0, non-increasing at p=0.05; LRB-D: full
    postselection never below X-only beyond two standard errors."""
    clean = run_rb(RBConfig(d=3, depths=(0, 4, 8), circuits_per_depth=5,
                            shots=2000, p=0.0), seed=100, method="frames")
    assert clean["fit_ok"]
    assert clean["alpha"] == pytest.approx(1.0, abs=1e-6)
    clean_lrbd = run_lrb_d(RBConfig(d=3, depths=(0, 4), circuits_per_depth=3,
                                    shots=1000, p=0.0), seed=101)
    for row in clean_lrbd["per_depth"]:
        assert row["survivor_fraction"] == pytest.approx(1.0)
        assert row["mean_fidelity"] == pytest.approx(1.0, abs=1e-6)

    cfg = RBConfig(d=3, depths=(0, 4, 8, 12, 16, 20), circuits_per_depth=30,
                   shots=10**4, p=0.05)
    noisy = run_rb(cfg, seed=102, method="frames")
    means = [row["mean_fidelity"] for row in noisy["per_depth"]]
    assert all(a >= b for a, b in zip(means, means[1:])), means

    full = run_lrb_d(cfg, seed=103, postselect="all")
    xonly = run_lrb_d(cfg, seed=103, postselect="x_only")
    for row_f, row_x in zip(full["per_depth"], xonly["per_depth"]):
        assert row_f["mean_fidelity"] is not None
        assert row_x["mean_fidelity"] is not None
        spread = 2 * float(np.hypot(row_f["stderr"], row_x["stderr"]))
        assert row_f["mean_fidelity"] >= row_x["mean_fidelity"] - spread, \
            (row_f, row_x)
