"""Tests for validation, channel, benchmarking, and detection-code tooling."""

import hashlib
import json
import subprocess
import sys
import textwrap
from dataclasses import fields

import numpy as np
import pytest

from quditsim.builders import (build_ghz_chain, build_local_gate_test,
                               build_random_clifford_circuit)
from quditsim.circuit import Circuit
from quditsim.errors import DimensionError, ShapeError, SupportMismatchError
from quditsim.experiments import (
    DetectionCode,
    OutcomeDistribution,
    RBConfig,
    build_channel_test_circuit,
    build_lrb_d_circuit,
    build_rb_circuit,
    build_syndrome_gadget,
    channel_distribution_test,
    channel_reference_distribution,
    code_initial_tableau,
    mean_slot_tvd,
    per_slot_distributions,
    qutrit_detection_code,
    rb_fidelity,
    run_lrb_d,
    run_rb,
    tvd,
    validate_backend_pair,
    _depth_row,
)
from quditsim.frames import (MAX_OUTCOME_ENTRIES, FrameSimulator, OutcomeMap,
                             _law_factors, _outcome_laws, compile_circuit,
                             outcome_law)
from quditsim.pauli import Dimension, PauliString
from quditsim.simulate import run_circuit
from quditsim.statevector import (DenseState, gate_matrix, pauli_matrix,
                                  stabilizer_check)
from quditsim.tableau import Tableau


class TestOutcomeDistribution:
    """Empirical distribution value type."""

    def test_from_counts(self):
        dist = OutcomeDistribution.from_counts({0: 3, 2: 1}, 3)
        assert dist.prob(0) == pytest.approx(0.75)
        assert dist.prob(2) == pytest.approx(0.25)
        assert dist.prob(1) == 0.0

    def test_rejects_bad_mass(self):
        with pytest.raises(ShapeError):
            OutcomeDistribution(3, {0: 0.5, 1: 0.6})
        with pytest.raises(ShapeError):
            OutcomeDistribution(3, {0: 1.2, 1: -0.2})

    def test_empty_counts_rejected(self):
        with pytest.raises(ShapeError):
            OutcomeDistribution.from_counts({}, 3)


class TestTVD:
    """Total variation distance."""

    def test_identical_is_zero(self):
        a = OutcomeDistribution(3, {0: 0.5, 1: 0.5})
        assert tvd(a, a) == 0.0

    def test_disjoint_is_one(self):
        a = OutcomeDistribution(3, {0: 1.0})
        b = OutcomeDistribution(3, {1: 1.0})
        assert tvd(a, b) == pytest.approx(1.0)

    def test_golden_value(self):
        a = OutcomeDistribution(3, {0: 0.5, 1: 0.5})
        b = OutcomeDistribution(3, {0: 0.25, 1: 0.25, 2: 0.5})
        assert tvd(a, b) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        a = OutcomeDistribution(3, {0: 1.0})
        b = OutcomeDistribution(5, {0: 1.0})
        with pytest.raises(SupportMismatchError):
            tvd(a, b)

    def test_label_format_mismatch(self):
        a = OutcomeDistribution(3, {0: 1.0})
        b = OutcomeDistribution(3, {(0, 0): 1.0})
        with pytest.raises(SupportMismatchError):
            tvd(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pa = rng.dirichlet(np.ones(4))
            pb = rng.dirichlet(np.ones(4))
            a = OutcomeDistribution(5, {k: float(v) for k, v in enumerate(pa)})
            b = OutcomeDistribution(5, {k: float(v) for k, v in enumerate(pb)})
            assert tvd(a, b) == pytest.approx(tvd(b, a))
            assert 0.0 <= tvd(a, b) <= 1.0


class TestPerSlot:
    """Slot-wise marginals of outcome arrays."""

    def test_slot_distributions(self):
        c = build_ghz_chain(2, 3, measure=True)
        result = run_circuit(c, shots=900, seed=1, method="tableau")
        dists = per_slot_distributions(result.outcomes, 3)
        assert len(dists) == 2
        for dist in dists:
            for k in range(3):
                assert dist.prob(k) == pytest.approx(1 / 3, abs=0.06)

    def test_mean_slot_tvd_same_backend(self):
        c = build_ghz_chain(2, 3, measure=True)
        a = run_circuit(c, shots=2000, seed=2, method="tableau")
        b = run_circuit(c, shots=2000, seed=3, method="tableau")
        assert mean_slot_tvd(a.outcomes, b.outcomes, 3) < 0.06

    def test_shape_mismatch(self):
        c1 = build_ghz_chain(2, 3, measure=True)
        c2 = build_ghz_chain(3, 3, measure=True)
        a = run_circuit(c1, shots=10, seed=4, method="tableau")
        b = run_circuit(c2, shots=10, seed=5, method="tableau")
        with pytest.raises(SupportMismatchError):
            mean_slot_tvd(a.outcomes, b.outcomes, 3)


class TestValidateBackendPair:
    """Cross-backend corpus validation."""

    def test_small_corpus(self):
        rng = np.random.default_rng(6)
        circuits = [build_random_clifford_circuit(2, 3, 15, rng)
                    for _ in range(4)]
        report = validate_backend_pair(circuits, "tableau", "statevector",
                                       shots=800, threshold=0.2, seed=7)
        assert report["circuits"] == 4
        assert report["all_passed"]
        assert report["max_tvd"] < 0.2
        assert len(report["per_circuit"]) == 4

    def test_frames_versus_statevector(self):
        rng = np.random.default_rng(8)
        circuits = [build_random_clifford_circuit(3, 5, 20, rng)
                    for _ in range(3)]
        report = validate_backend_pair(circuits, "frames", "statevector",
                                       shots=800, threshold=0.2, seed=9)
        assert report["all_passed"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ShapeError, match="at least one circuit"):
            validate_backend_pair([], "tableau", "statevector", shots=10,
                                  threshold=0.2, seed=0)

    @pytest.mark.parametrize("pair, match", [
        (("tableau", "frames"), "one sampler with itself"),
        (("statevector", "statevector"), "one sampler with itself"),
        (("tableau", "weyl"), "unknown method")])
    def test_pair_of_one_sampler_rejected(self, pair, match, monkeypatch):
        """tableau and frames are one sampler, so the pair would compare it
        with itself; it is refused before anything runs."""
        monkeypatch.setattr("quditsim.experiments.run_circuit", None)
        circuits = [build_random_clifford_circuit(2, 3, 5,
                                                  np.random.default_rng(1))]
        with pytest.raises(ValueError, match=match):
            validate_backend_pair(circuits, *pair, shots=10, threshold=0.2,
                                  seed=0)


class TestChannels:
    """Closed-form channel distributions."""

    def test_depolarizing_reference(self):
        ref = channel_reference_distribution("depolarizing", 3, 0.1)
        assert ref.prob(0) == pytest.approx(0.925)
        assert ref.prob(1) == pytest.approx(0.0375)
        assert ref.prob(2) == pytest.approx(0.0375)

    def test_flip_reference(self):
        ref = channel_reference_distribution("f", 5, 0.2)
        assert ref.prob(0) == pytest.approx(0.8)
        for k in range(1, 5):
            assert ref.prob(k) == pytest.approx(0.05)

    def test_phase_circuit_wraps_in_fourier(self):
        c = build_channel_test_circuit("phase", 3, 0.1)
        names = [ins.name for ins in c.instructions]
        assert names == ["F", "N1", "F_INV", "M"]

    @pytest.mark.parametrize("kind", ["f", "p", "d"])
    def test_empirical_matches_reference(self, kind):
        report = channel_distribution_test(kind, 3, 0.1, shots=20000, seed=10)
        assert report["passed"], report
        assert report["tvd"] < 0.02

    @pytest.mark.parametrize("kind", ["flip", "phase", "depolarizing"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("prob", [0.1, 0.37])
    def test_law_matches_reference(self, kind, d, prob):
        """The exact law of the channel test circuit's one outcome is the
        closed form, with no sampling floor."""
        law = outcome_law(compile_circuit(build_channel_test_circuit(kind, d,
                                                                     prob)))
        ref = channel_reference_distribution(kind, d, prob)
        assert law.shape == (d,)
        assert np.abs(law - [ref.prob(k) for k in range(d)]).max() <= 1e-12

    def test_alias_names(self):
        for alias, short in (("flip", "f"), ("phase", "p"),
                             ("depolarizing", "d")):
            report = channel_distribution_test(alias, 3, 0.05, shots=2000,
                                               seed=11)
            assert report["kind"] == short

    def test_unknown_kind_names_accepted_ones(self):
        for call in (lambda: channel_distribution_test("x", 3, 0.1, 100),
                     lambda: channel_reference_distribution("x", 3, 0.1),
                     lambda: build_channel_test_circuit("x", 3, 0.1)):
            with pytest.raises(ShapeError, match="'depolarizing'.*got 'x'"):
                call()


class TestRBFidelity:
    """Omega-weighted readout statistic."""

    def test_point_mass_at_zero(self):
        assert rb_fidelity(OutcomeDistribution(3, {0: 1.0})) == pytest.approx(1.0)

    def test_uniform_is_zero(self):
        dist = OutcomeDistribution(3, {k: 1 / 3 for k in range(3)})
        assert rb_fidelity(dist) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_elsewhere_is_one(self):
        # modulus ignores which eigenstate the state sits in
        assert rb_fidelity(OutcomeDistribution(3, {1: 1.0})) == pytest.approx(1.0)

    def test_label_range_checked(self):
        with pytest.raises(ShapeError):
            rb_fidelity(OutcomeDistribution(3, {5: 1.0}))


class TestRB:
    """Randomized benchmarking decay."""

    def test_circuit_structure(self):
        rng = np.random.default_rng(12)
        c = build_rb_circuit(3, 4, 0.05, rng)
        names = [ins.name for ins in c.instructions]
        assert names.count("N1") == 5  # one per gate layer plus the final event
        assert names[-1] == "M"
        gates = [n for n in names if n not in ("N1", "M")]
        assert len(gates) == 8  # depth + mirrored inverses

    def test_noiseless_run_is_perfect(self):
        cfg = RBConfig(d=3, depths=(0, 3, 6), circuits_per_depth=3,
                       shots=600, p=0.0)
        report = run_rb(cfg, seed=13, method="frames")
        for row in report["per_depth"]:
            assert row["mean_fidelity"] == pytest.approx(1.0, abs=1e-6)
        assert report["fit_ok"]
        assert report["alpha"] == pytest.approx(1.0, abs=1e-6)

    def test_decay_with_noise(self):
        cfg = RBConfig(d=3, depths=(0, 6, 12), circuits_per_depth=6,
                       shots=2000, p=0.1)
        report = run_rb(cfg, seed=14, method="frames")
        means = [row["mean_fidelity"] for row in report["per_depth"]]
        assert means[0] > means[-1]
        assert report["fit_ok"]
        assert 0.0 < report["alpha"] < 1.0

    def test_one_distinct_depth_is_not_fitted(self):
        """Two rows at one depth leave the decay rate undetermined."""
        cfg = RBConfig(d=3, depths=(5, 5), circuits_per_depth=2, shots=200,
                       p=0.05)
        report = run_rb(cfg, seed=5, method="frames")
        assert len(report["per_depth"]) == 2
        assert not report["fit_ok"]
        assert report["alpha"] is None and report["B"] is None
        assert report["fit_reason"] == "only 1 usable depths"

    def test_config_validation(self):
        with pytest.raises(ShapeError):
            RBConfig(d=3, depths=(-1,), circuits_per_depth=1, shots=10, p=0.0)
        with pytest.raises(ShapeError):
            RBConfig(d=3, depths=(0,), circuits_per_depth=1, shots=10, p=1.5)

    @pytest.mark.parametrize("p", [None, "half", [0.1], float("nan")])
    def test_config_rejects_a_p_that_is_no_probability(self, p):
        """p goes through float(), as an N1 probability does: a value that
        does not convert, or NaN, raises ShapeError."""
        with pytest.raises(ShapeError, match="p must"):
            RBConfig(d=3, depths=(0,), circuits_per_depth=1, shots=10, p=p)

    @pytest.mark.parametrize("p", ["0.25", np.float32(0.25), 0.25])
    def test_config_converts_p_to_float(self, p):
        cfg = RBConfig(d=3, depths=(0,), circuits_per_depth=1, shots=10, p=p)
        assert type(cfg.p) is float and cfg.p == 0.25

    @pytest.mark.parametrize("field, value", [
        ("depths", (1.5,)), ("circuits_per_depth", 1.5), ("shots", 2.5),
    ])
    def test_config_rejects_fractional_counts(self, field, value):
        kwargs = dict(d=3, depths=(0,), circuits_per_depth=1, shots=10, p=0.0)
        kwargs[field] = value
        with pytest.raises(ShapeError, match="must be an integer"):
            RBConfig(**kwargs)

    def test_config_takes_integral_counts(self):
        cfg = RBConfig(d=3, depths=(2.0, np.int64(3)),
                       circuits_per_depth=np.int64(2), shots=10.0, p=0.0)
        counts = cfg.depths + (cfg.circuits_per_depth, cfg.shots)
        assert counts == (2, 3, 2, 10)
        assert all(type(v) is int for v in counts)

    @pytest.mark.parametrize("field, value", [
        ("circuits_per_depth", 0), ("circuits_per_depth", -1),
        ("shots", 0), ("depths", ()),
    ])
    def test_config_rejects_empty_runs(self, field, value):
        kwargs = dict(d=3, depths=(0,), circuits_per_depth=1, shots=10, p=0.0)
        kwargs[field] = value
        with pytest.raises(ShapeError, match="depths|>= 1"):
            RBConfig(**kwargs)


_BUILDERS = {
    "rb": lambda depth: build_rb_circuit(3, depth, 0.0,
                                         np.random.default_rng(1)),
    "lrbd": lambda depth: build_lrb_d_circuit(qutrit_detection_code(), depth,
                                              0.0),
    "random_clifford": lambda depth: build_random_clifford_circuit(
        2, 3, depth, np.random.default_rng(1)),
    "local_gate_test": lambda depth: build_local_gate_test(
        2, d=3, depth=depth, rng=np.random.default_rng(1)),
}


@pytest.mark.parametrize("builder", sorted(_BUILDERS))
@pytest.mark.parametrize("depth, match", [
    (2.5, "depth must be an integer, got 2.5"),
    (-1, "depth must be >= 0, got -1"),
], ids=["fractional", "negative"])
def test_builders_reject_bad_depth(builder, depth, match):
    with pytest.raises(ShapeError, match=match):
        _BUILDERS[builder](depth)


class TestDetectionCode:
    """Five-qutrit detection code and its derived logicals."""

    def test_generators_commute(self):
        code = qutrit_detection_code()
        for i, gi in enumerate(code.stabilizers):
            for gj in code.stabilizers:
                assert gi.commutation_exponent(gj) == 0

    def test_logical_pair(self):
        code = qutrit_detection_code()
        assert code.logical_x.commutation_exponent(code.logical_z) == 1
        for g in code.stabilizers:
            assert code.logical_x.commutation_exponent(g) == 0
            assert code.logical_z.commutation_exponent(g) == 0

    def test_logicals_pinned(self):
        code = qutrit_detection_code()
        assert code.logical_x == PauliString(Dimension(3), [2, 0, 0, 2, 0],
                                             [0, 0, 0, 0, 0], 0)
        assert code.logical_z == PauliString(Dimension(3), [0, 0, 0, 0, 0],
                                             [1, 0, 1, 0, 0], 0)

    def test_initial_tableau_pinned(self):
        # destabilizers come from the closed-form mod-3 completion in
        # from_stabilizers (one RREF, then a triangular correction)
        got = code_initial_tableau(qutrit_detection_code()).to_array()
        assert got.tolist() == [
            [0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0],
            [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 2, 0, 2, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 2, 0, 0],
            [1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 2, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
        ]

    def test_code_state_is_stabilized(self):
        code = qutrit_detection_code()
        tab = code_initial_tableau(code)
        tab.check_invariants()
        assert tab.n == 6

    @pytest.mark.parametrize("n, d, logical_n, field", [
        (4, 3, 4, r"stabilizers\[0\] acts on 5 qudits of dimension 3"),
        (5, 5, 5, r"stabilizers\[0\] acts on 5 qudits of dimension 3"),
        (5, 3, 6, r"logical_x acts on 6 qudits"),
    ], ids=["n", "d", "logical"])
    def test_paulis_must_match_n_and_d(self, n, d, logical_n, field):
        code = qutrit_detection_code()
        logical_x = PauliString(Dimension(3), [2, 0, 0, 2, 0, 0][:logical_n],
                                [0] * logical_n)
        with pytest.raises(ShapeError, match=field):
            DetectionCode(n, d, code.stabilizers, logical_x, code.logical_z)

    def test_logical_must_commute_with_stabilizers(self):
        code = qutrit_detection_code()
        x0 = PauliString.single(5, Dimension(3), 0, x=1)
        with pytest.raises(ShapeError, match="commute with stabilizers"):
            DetectionCode(5, 3, code.stabilizers, x0, code.logical_z)

    def test_logical_pair_must_pair_to_one(self):
        # logical_x squared still commutes with every stabilizer, but
        # c(Lx^2, Lz) = 2
        code = qutrit_detection_code()
        squared = code.logical_x * code.logical_x
        assert squared.commutation_exponent(code.logical_z) % 3 == 2
        with pytest.raises(ShapeError, match=r"c\(Lx, Lz\) = 1"):
            DetectionCode(5, 3, code.stabilizers, squared, code.logical_z)

    def test_bad_code_rejected(self):
        d = Dimension(3)
        x = PauliString.single(2, d, 0, x=1)
        z = PauliString.single(2, d, 0, z=1)
        with pytest.raises(ShapeError):
            DetectionCode(2, 3, (x, z), logical_x=x, logical_z=z)


class TestSyndromeGadget:
    """Ancilla-coupled eigenvalue readout."""

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_controlled_pauli(self, d):
        # between the ancilla's F and F_INV, the gadget of w^r X^a Z^b on
        # qudit 0 (ancilla 1) is sum_k |k><k| (x) (w^r X^a Z^b)^k exactly;
        # the dense basis is ancilla-major, so SUM(1, 0) is gate_matrix("SUM")
        eye = np.eye(d)
        for a in range(d):
            for b in range(d):
                if (a, b) == (0, 0):
                    continue
                for r in range(d):
                    pauli = PauliString(Dimension(d), [a], [b], r)
                    gadget = build_syndrome_gadget(pauli).instructions
                    assert [ins.name for ins in gadget[:1] + gadget[-2:]] \
                        == ["F", "F_INV", "M"]
                    u = np.eye(d * d)
                    for ins in gadget[1:-2]:
                        g = gate_matrix(ins.name, d)
                        if ins.qudits == (1, 0):
                            u = g @ u
                        elif ins.qudits == (1,):
                            u = np.kron(g, eye) @ u
                        else:
                            u = np.kron(eye, g) @ u
                    m = pauli_matrix(pauli)
                    want = np.zeros((d * d, d * d), dtype=complex)
                    for k in range(d):
                        want[k * d:(k + 1) * d, k * d:(k + 1) * d] = \
                            np.linalg.matrix_power(m, k)
                    assert np.allclose(u, want, atol=1e-9), (a, b, r)

    def gadget_outcome(self, prep, stab, seed=0):
        """Measure a stabilizer eigenvalue after prep errors on the code state."""
        code = qutrit_detection_code()
        tab = code_initial_tableau(code)
        for q, (a, b) in prep.items():
            tab.apply_pauli_error(q, a, b)
        gadget = build_syndrome_gadget(stab, ancilla=5)
        rng = np.random.default_rng(seed)
        rec = None
        for ins in gadget.instructions:
            if ins.name == "M":
                rec = tab.measure_z(ins.qudits[0], rng)
            else:
                tab.apply_gate(ins.name, *ins.qudits)
        return rec

    def test_code_state_reads_zero(self):
        code = qutrit_detection_code()
        for stab in code.stabilizers:
            rec = self.gadget_outcome({}, stab)
            assert rec.deterministic and rec.outcome == 0

    def test_error_flags_syndrome(self):
        code = qutrit_detection_code()
        # X error on qudit 0 anti-commutes with the first Z-type generator
        g = code.stabilizers[0]
        expected = g.commutation_exponent(
            PauliString.single(5, Dimension(3), 0, x=1))
        assert expected != 0
        rec = self.gadget_outcome({0: (1, 0)}, g)
        assert rec.deterministic
        assert rec.outcome == expected % 3

    def test_logical_error_invisible(self):
        code = qutrit_detection_code()
        # a logical X commutes with every generator: all syndromes stay zero
        for stab in code.stabilizers:
            prep = {q: (int(code.logical_x.x[q]), 0) for q in range(5)}
            rec = self.gadget_outcome(prep, stab)
            assert rec.outcome == 0

    def test_gadget_shape(self):
        code = qutrit_detection_code()
        for stab in code.stabilizers:
            gadget = build_syndrome_gadget(stab, ancilla=5)
            names = [ins.name for ins in gadget.instructions]
            assert names[0] == "F"
            assert names[-2:] == ["F_INV", "M"]
            # one SUM or SUM_INV per non-identity factor
            factors = sum(1 for x, z in zip(stab.x, stab.z) if x or z)
            assert names.count("SUM") + names.count("SUM_INV") == factors

    @pytest.mark.parametrize("d", [2, 4])
    def test_rejects_non_odd_prime(self, d):
        with pytest.raises(DimensionError, match="odd prime"):
            build_syndrome_gadget(PauliString.single(2, Dimension(d), 0, z=1))

    def test_requires_room_for_ancilla(self):
        with pytest.raises(ShapeError):
            build_syndrome_gadget(
                PauliString.single(2, Dimension(3), 0, z=1), ancilla=1)

    @pytest.mark.parametrize("ancilla, match", [
        (2.5, "ancilla must be an integer"), (-1, "collides")],
        ids=["fractional", "negative"])
    def test_rejects_bad_ancilla(self, ancilla, match):
        with pytest.raises(ShapeError, match=match):
            build_syndrome_gadget(
                PauliString.single(2, Dimension(3), 0, z=1), ancilla=ancilla)


class TestLRBD:
    """Logical benchmarking with postselection."""

    def test_circuit_ends_with_data_readout(self):
        code = qutrit_detection_code()
        c = build_lrb_d_circuit(code, 2, 0.05)
        measures = [ins.qudits[0] for ins in c.instructions if ins.name == "M"]
        # 4 syndrome reads on the ancilla, then the 5 data qudits
        assert measures[:4] == [5, 5, 5, 5]
        assert measures[4:] == [0, 1, 2, 3, 4]

    def test_noiseless_depth_zero(self):
        cfg = RBConfig(d=3, depths=(0,), circuits_per_depth=2, shots=400,
                       p=0.0)
        report = run_lrb_d(cfg, seed=16)
        row = report["per_depth"][0]
        assert row["survivor_fraction"] == pytest.approx(1.0)
        assert row["mean_fidelity"] == pytest.approx(1.0, abs=1e-6)

    def test_noise_lowers_survival(self):
        cfg = RBConfig(d=3, depths=(0, 4), circuits_per_depth=3, shots=1500,
                       p=0.05)
        report = run_lrb_d(cfg, seed=17)
        rows = report["per_depth"]
        assert rows[0]["survivor_fraction"] > rows[1]["survivor_fraction"]
        assert rows[1]["survivor_fraction"] > 0.0

    def test_postselect_subset(self):
        cfg = RBConfig(d=3, depths=(2,), circuits_per_depth=2, shots=800,
                       p=0.05)
        full = run_lrb_d(cfg, seed=18, postselect="all")
        xonly = run_lrb_d(cfg, seed=18, postselect="x_only")
        # fewer checks keep more shots
        assert (xonly["per_depth"][0]["survivor_fraction"]
                >= full["per_depth"][0]["survivor_fraction"])

    @staticmethod
    def with_logical_paulis(code, depth, p, rng, postselect):
        """The LRB-D circuit with a random logical X^a Z^b, as single-qudit
        X and Z powers, before each of the first depth noise rounds and
        their inverse before the last."""
        d, n = code.d, code.n
        c = Circuit(n + 1, d)
        net = np.zeros(2, dtype=np.int64)
        for layer in range(depth + 1):
            powers = rng.integers(d, size=2) if layer < depth else -net
            net = (net + powers) % d
            for logical, power in zip((code.logical_x, code.logical_z), powers):
                for gate, exponents in (("X", logical.x), ("Z", logical.z)):
                    for q in range(n):
                        for _ in range(int(power * exponents[q]) % d):
                            c.add_gate(gate, q)
            for q in range(n):
                c.add_gate("N1", q, noise_channel="d", prob=p)
        selected = [s for s in code.stabilizers
                    if postselect == "all" or not s.z.any()]
        for stab in selected:
            c.add_gate("RESET", n)
            for ins in build_syndrome_gadget(stab, ancilla=n).instructions:
                c.add_gate(ins.name, *ins.qudits)
        for q in range(n):
            c.add_gate("M", q)
        return c

    @pytest.mark.parametrize("postselect", ["all", "x_only"])
    def test_logical_paulis_do_not_change_the_map(self, postselect):
        """Logical Paulis pass the Pauli channels up to a phase, so random
        layers and their inverse compile to the same OutcomeMap as the
        circuit without them."""
        code = qutrit_detection_code()
        start = code_initial_tableau(code)
        rng = np.random.default_rng(23)
        paulis = 0
        for depth in range(9):
            plain = compile_circuit(
                build_lrb_d_circuit(code, depth, 0.05, postselect), start)
            for _ in range(3):
                layered = self.with_logical_paulis(code, depth, 0.05, rng,
                                                   postselect)
                paulis += sum(ins.name in ("X", "Z")
                              for ins in layered.instructions)
                omap = compile_circuit(layered, start)
                for f in fields(OutcomeMap):
                    if f.name != "noise_groups":
                        assert np.array_equal(getattr(omap, f.name),
                                              getattr(plain, f.name)), \
                            (depth, f.name)
                assert ([(key, locs.tolist()) for key, locs in omap.noise_groups]
                        == [(key, locs.tolist())
                            for key, locs in plain.noise_groups])
        assert paulis > 100

    def test_config_must_match_code_dimension(self):
        cfg = RBConfig(d=5, depths=(0,), circuits_per_depth=1, shots=10,
                       p=0.0)
        with pytest.raises(DimensionError, match="d=5 does not match code d=3"):
            run_lrb_d(cfg, seed=1)

    def test_bad_postselect_value(self):
        code = qutrit_detection_code()
        with pytest.raises(ShapeError):
            build_lrb_d_circuit(code, 1, 0.0, postselect="some")

    def test_x_only_reads_stabilizer_types_not_positions(self):
        code = qutrit_detection_code()
        z1, z2, x1, x2 = code.stabilizers
        mixed = DetectionCode(5, 3, (x1, z1, x2, z2), code.logical_x,
                              code.logical_z)
        cfg = RBConfig(d=3, depths=(0, 4), circuits_per_depth=3, shots=2000,
                       p=0.1)
        assert (run_lrb_d(cfg, mixed, seed=1, postselect="x_only")
                == run_lrb_d(cfg, code, seed=1, postselect="x_only"))

    @pytest.mark.parametrize("postselect", ["all", "x_only"])
    def test_three_qutrit_code_noiseless(self, postselect):
        """A [[3,1]] code with Z-type stabilizers only: x_only reads no
        syndromes at all."""
        d = Dimension(3)
        code = DetectionCode(
            3, 3,
            (PauliString(d, [0, 0, 0], [1, 2, 0]),
             PauliString(d, [0, 0, 0], [0, 1, 2])),
            PauliString(d, [2, 2, 2], [0, 0, 0]),
            PauliString(d, [0, 0, 0], [1, 0, 0]))
        cfg = RBConfig(d=3, depths=(0, 3), circuits_per_depth=2, shots=200,
                       p=0.0)
        report = run_lrb_d(cfg, code, seed=2, postselect=postselect)
        for row in report["per_depth"]:
            assert row["survivor_fraction"] == 1.0
            assert row["mean_fidelity"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("depths", [(0,), (0, 2, 5), (7, 3, 40)])
    @pytest.mark.parametrize("postselect", ["all", "x_only"])
    def test_one_compile_per_sweep(self, postselect, depths, monkeypatch):
        """The whole sweep reads every depth's law off the depth-0 map; rb
        circuits differ, so each compiles its own."""
        compiles = []

        def counting(circuit, start):
            compiles.append(circuit.metadata["family"])
            return compile_circuit(circuit, start)

        for module in ("quditsim.frames", "quditsim.experiments"):
            monkeypatch.setattr(f"{module}.compile_circuit", counting)
        cfg = RBConfig(d=3, depths=depths, circuits_per_depth=4, shots=50,
                       p=0.05)
        run_lrb_d(cfg, seed=7, postselect=postselect)
        assert compiles == [f"lrbd_depth0_{postselect}"]
        compiles.clear()
        run_rb(cfg, seed=7, method="frames")
        assert len(compiles) == len(cfg.depths) * cfg.circuits_per_depth

    def test_one_symbol_pass_per_sweep(self, monkeypatch):
        """The default sweep reads every depth's law from one pass over the
        depth-0 map's symbols."""
        passes = []

        def counting(omap, P):
            passes.append(len(omap.noise))
            return _law_factors(omap, P)

        monkeypatch.setattr("quditsim.frames._law_factors", counting)
        cfg = RBConfig(d=3, depths=(0, 4, 8, 12, 16, 20), circuits_per_depth=2,
                       shots=100, p=0.02)
        run_lrb_d(cfg, seed=1)
        assert passes == [5]

    @pytest.mark.parametrize("p", [0.02, 0.3])
    @pytest.mark.parametrize("postselect", ["all", "x_only"])
    def test_each_depth_law_is_its_compiled_circuit_law(self, postselect, p,
                                                        monkeypatch):
        """The laws run_lrb_d reads off the depth-0 map, one per depth at
        multiplicity depth + 1, are bit for bit the projected law of the
        compiled depth-D circuit, and the same multiplicities give its full
        joint law."""
        calls = []

        def recording(omap, P, reps):
            laws = list(_outcome_laws(omap, P, reps))
            calls.append((omap, P, list(reps), laws))
            return laws

        monkeypatch.setattr("quditsim.experiments._outcome_laws", recording)
        code = qutrit_detection_code()
        start = code_initial_tableau(code)
        cfg = RBConfig(d=3, depths=(0, 1, 5, 17), circuits_per_depth=1,
                       shots=10, p=p)
        run_lrb_d(cfg, code, seed=1, postselect=postselect)
        [(omap, P, reps, laws)] = calls
        assert reps == [depth + 1 for depth in cfg.depths]
        joints = _outcome_laws(omap, None, reps)
        for depth, law, joint in zip(cfg.depths, laws, joints):
            compiled = compile_circuit(
                build_lrb_d_circuit(code, depth, p, postselect), start)
            assert np.array_equal(law, outcome_law(compiled, P)), depth
            assert np.array_equal(joint, outcome_law(compiled)), depth

    @pytest.mark.parametrize("postselect", ["all", "x_only"])
    def test_shots_past_the_outcome_cap_run(self, postselect):
        """Each circuit's shots are one multinomial draw from its depth's
        law, so a shot count whose outcome matrix would pass the cap runs."""
        cfg = RBConfig(d=3, depths=(0,), circuits_per_depth=1,
                       shots=MAX_OUTCOME_ENTRIES // 7 + 1, p=0.05)
        report = run_lrb_d(cfg, seed=1, postselect=postselect)
        assert 0 < report["per_depth"][0]["survivor_fraction"] <= 1

    def test_depth_1e15_is_fully_mixed(self):
        """At depth 10^15 each of the four syndromes is uniform, so 1 of
        the 81 syndrome values is clean.  Every trivial character must be
        exactly 1: read as 1 - 2.2e-16 and raised to the power 10^15 + 1,
        it gave 0.00407."""
        cfg = RBConfig(d=3, depths=(10**15,), circuits_per_depth=1,
                       shots=100, p=0.02)
        row = run_lrb_d(cfg, seed=1)["per_depth"][0]
        assert row["exact_survivor_fraction"] == pytest.approx(1 / 81,
                                                               abs=1e-9)

    def test_depth_past_int64_event_counts_is_refused(self):
        """Depth 10^19 lists each noise location more than 2^63 times:
        refused, naming the depth, before any int64 cast wraps it."""
        cfg = RBConfig(d=3, depths=(0, 10**19), circuits_per_depth=1,
                       shots=100, p=0.02)
        with pytest.raises(ShapeError, match="depth 10000000000000000000"):
            run_lrb_d(cfg, seed=1)

    @pytest.mark.parametrize("threads, match", [
        (0, "threads must be >= 1, got 0"),
        (-3, "threads must be >= 1, got -3"),
        (1.5, "threads must be an integer, got 1.5")])
    def test_threads_checked_before_any_compile(self, threads, match,
                                                monkeypatch):
        """threads changes nothing, but a bad value is refused with
        run_circuit's message before the first compile."""
        def unreachable(*args, **kwargs):
            raise AssertionError("compiled before checking threads")

        monkeypatch.setattr("quditsim.experiments.compile_circuit",
                            unreachable)
        cfg = RBConfig(d=3, depths=(0,), circuits_per_depth=1, shots=10,
                       p=0.0)
        with pytest.raises(ValueError, match=match):
            run_lrb_d(cfg, seed=1, threads=threads)
        with pytest.raises(ValueError, match=match):
            run_circuit(build_lrb_d_circuit(qutrit_detection_code(), 0, 0.0),
                        10, 1, threads=threads)

    def test_logical_z_must_be_z_type(self):
        # times an X-type stabilizer, logical Z is still a valid logical Z
        code = qutrit_detection_code()
        mixed = DetectionCode(5, 3, code.stabilizers, code.logical_x,
                              code.logical_z * code.stabilizers[2])
        cfg = RBConfig(d=3, depths=(0,), circuits_per_depth=1, shots=10,
                       p=0.0)
        with pytest.raises(ShapeError, match="Z-type"):
            run_lrb_d(cfg, mixed, seed=3)


def frame_sampled_lrb_d(cfg, seeds, postselect):
    """Per depth, a (len(seeds), 2) array of each seed's survivor fraction
    and mean fidelity, sampled shot by shot with FrameSimulator and scored
    by masking the shots with clean syndromes, independently of run_lrb_d's
    law and multinomial draws."""
    code = qutrit_detection_code()
    start = code_initial_tableau(code)
    num_syndromes = 4 if postselect == "all" else 2
    out = {}
    for depth in cfg.depths:
        sim = FrameSimulator(build_lrb_d_circuit(code, depth, cfg.p, postselect),
                             depth, start)
        rows = []
        for _ in seeds:
            fractions, fidelities = [], []
            for _ in range(cfg.circuits_per_depth):
                shots = sim.run(cfg.shots)
                clean = np.all(shots[:, :num_syndromes] == 0, axis=1)
                logical = shots[clean, num_syndromes:] @ code.logical_z.z
                fractions.append(clean.mean())
                if len(logical):
                    fidelities.append(rb_fidelity(per_slot_distributions(
                        logical[:, None] % code.d, code.d)[0]))
            rows.append((np.mean(fractions), np.mean(fidelities)))
        out[depth] = np.array(rows)
    return out


@pytest.mark.parametrize("postselect", ["all", "x_only"])
def test_law_drawn_lrb_d_agrees_with_frame_sampling(postselect):
    """Over 30 seeds, run_lrb_d's per-depth mean survivor fraction and
    fidelity agree with a frame-sampled, mask-scored reference within four
    standard errors of their difference."""
    cfg = RBConfig(d=3, depths=(0, 4, 8), circuits_per_depth=4, shots=2000,
                   p=0.05)
    seeds = range(30)
    reference = frame_sampled_lrb_d(cfg, seeds, postselect)
    reports = [run_lrb_d(cfg, seed=seed, postselect=postselect)
               for seed in seeds]
    for i, depth in enumerate(cfg.depths):
        drawn = np.array([(r["per_depth"][i]["survivor_fraction"],
                           r["per_depth"][i]["mean_fidelity"])
                          for r in reports])
        sampled = reference[depth]
        stderr = np.sqrt(drawn.var(axis=0, ddof=1) / len(seeds)
                         + sampled.var(axis=0, ddof=1) / len(seeds))
        z = (drawn.mean(axis=0) - sampled.mean(axis=0)) / stderr
        assert (np.abs(z) <= 4).all(), (depth, z)


def test_fresh_runs_leave_numpy_ma_unimported():
    """np.unique without counts or indices checks for a masked array, and
    that imports numpy.ma; a fresh run, validate, rb or lrbd never does."""
    script = textwrap.dedent("""\
        import sys
        import numpy as np
        from quditsim.builders import build_random_clifford_circuit
        from quditsim.experiments import (RBConfig, run_lrb_d, run_rb,
                                          validate_backend_pair)
        from quditsim.simulate import run_circuit
        cfg = RBConfig(d=3, depths=(0, 4), circuits_per_depth=2, shots=100,
                       p=0.05)
        run_lrb_d(cfg, seed=1)
        run_rb(cfg, seed=1)
        c = build_random_clifford_circuit(3, 4, 20, np.random.default_rng(1))
        names = [ins.name for ins in c.instructions]
        assert names.count("M") == 3 and names[-3:] == ["M"] * 3
        validate_backend_pair([c], "tableau", "statevector", 50, 1.0, seed=1)
        run_circuit(c, 50, 1, "frames")
        print("numpy.ma" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


class TestDepthRow:
    """A depth row's stderr rules: None without fidelities, 0.0 with one,
    the sample standard error with several."""

    def test_no_fidelities(self):
        assert _depth_row(4, []) == {"depth": 4, "mean_fidelity": None,
                                     "stderr": None}

    def test_one_fidelity(self):
        row = _depth_row(4, [0.75])
        assert row == {"depth": 4, "mean_fidelity": 0.75, "stderr": 0.0}
        assert type(row["stderr"]) is float

    def test_several_fidelities(self):
        row = _depth_row(4, [0.5, 0.75, 1.0])
        assert row["depth"] == 4
        assert row["mean_fidelity"] == pytest.approx(0.75)
        assert row["stderr"] == pytest.approx(0.25 / np.sqrt(3))
        assert type(row["mean_fidelity"]) is float
        assert type(row["stderr"]) is float


class TestReportDigests:
    """rb and lrbd reports of fixed configs, pinned by the sha256 of their
    sorted JSON.  A change to any digest is a change to the experiments'
    output at a seed."""

    LRBD_CFG = RBConfig(d=3, depths=(0, 3, 6, 10), circuits_per_depth=3,
                        shots=40, p=0.3)

    @staticmethod
    def digest(report) -> str:
        return hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()

    def test_rb_frames_noisy(self):
        cfg = RBConfig(d=3, depths=(0, 2, 5), circuits_per_depth=3,
                       shots=300, p=0.05)
        report = run_rb(cfg, seed=11, method="frames")
        assert self.digest(report) == (
            "33a9a25e5a05e013a520035bc11be0a3348109082387aa1e86fbbebf96c8c2a3")

    def test_lrbd_all(self):
        report = run_lrb_d(self.LRBD_CFG, seed=5, postselect="all")
        # surviving circuits per depth at this seed; TestDepthRow checks the
        # stderr rule for each count
        assert [row["surviving_circuits"] for row in report["per_depth"]] == \
            [3, 2, 2, 0]
        assert self.digest(report) == (
            "092e70a428742b385709d6a2cad5a91af16e1dc14f1750167e0fde1d51e1ca9d")

    def test_lrbd_x_only(self):
        report = run_lrb_d(self.LRBD_CFG, seed=5, postselect="x_only")
        assert self.digest(report) == (
            "69951fed8e6fe332f33c29ab2d40ea6b0889e4e6f63739681044f7742b2b720d")
