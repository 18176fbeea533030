"""Tests for the unified circuit-execution front end."""

import numpy as np
import pytest

from quditsim.builders import (
    build_deutsch_jozsa,
    build_ghz_chain,
    build_random_clifford_circuit,
)
import quditsim.frames as frames_module
import quditsim.simulate as simulate
from quditsim.circuit import Circuit
from quditsim.errors import DimensionError
from quditsim.experiments import (build_lrb_d_circuit, code_initial_tableau,
                                  mean_slot_tvd, qutrit_detection_code)
from quditsim.noise import NOISE_KINDS, error_distribution
from quditsim.frames import FrameSimulator
from quditsim.simulate import counts_key, records_to_counts, run_circuit
from quditsim.tableau import Tableau
from quditsim.weyl import WeylTableau


class TestCountsKeys:
    """Outcome labeling."""

    def test_digit_concatenation(self):
        assert counts_key((1, 0, 2), 3) == "102"
        assert counts_key((0,), 5) == "0"

    def test_large_d_uses_dashes(self):
        assert counts_key((10, 0, 12), 13) == "10-0-12"

    def test_counts_sorted_numerically(self):
        outcomes = np.array([[2, 0], [0, 1], [2, 0]])
        counts = records_to_counts(outcomes, 3)
        assert list(counts) == ["01", "20"]
        assert counts["20"] == 2


class TestMethodRouting:
    """Backend selection and dimension gating."""

    def test_tableau_on_odd_prime(self):
        c = build_ghz_chain(2, 3, measure=True)
        result = run_circuit(c, shots=50, seed=0, method="tableau")
        assert result.method == "tableau"
        assert result.shots == 50

    def test_tableau_routes_composite_to_weyl(self):
        c = Circuit(1, 4)
        c.add_gate("F", 0)
        c.add_gate("M", 0)
        result = run_circuit(c, shots=20, seed=0, method="tableau")
        # the requested name is echoed even when the Weyl path serves it
        assert result.method == "tableau"
        assert all(k in range(4) for k in result.outcomes[:, 0].tolist())

    def test_frames_on_composite(self):
        c = Circuit(1, 4)
        c.add_gate("F", 0)
        c.add_gate("M", 0)
        result = run_circuit(c, shots=20, seed=0, method="frames")
        tableau = run_circuit(c, shots=20, seed=0, method="tableau")
        assert result.method == "frames"
        assert np.array_equal(result.outcomes, tableau.outcomes)

    @pytest.mark.parametrize("start", [Tableau(3, 3), Tableau(2, 5)],
                             ids=["n", "d"])
    def test_initial_tableau_must_match_circuit(self, start):
        c = build_ghz_chain(2, 3, measure=True)
        with pytest.raises(DimensionError, match="does not match the circuit"):
            run_circuit(c, shots=1, seed=0, initial_tableau=start)

    def test_initial_tableau_needs_the_compiled_sampler(self):
        c = build_ghz_chain(2, 3, measure=True)
        with pytest.raises(ValueError, match="requires the tableau or frames"):
            run_circuit(c, shots=1, seed=0, method="statevector",
                        initial_tableau=Tableau(2, 3))

    def test_unknown_method(self):
        c = build_ghz_chain(2, 3, measure=True)
        with pytest.raises(ValueError):
            run_circuit(c, shots=1, seed=0, method="magic")


class TestRecords:
    """Per-shot record structure."""

    def test_records_shape_and_fields(self):
        c = build_ghz_chain(2, 3, measure=True)
        result = run_circuit(c, shots=10, seed=1, method="tableau")
        assert result.outcomes.shape == (10, 2)
        assert result.seqs.tolist() == [0, 1]
        assert result.qudits.tolist() == [0, 1]
        assert result.deterministic[1]  # second GHZ readout is pinned
        assert not result.deterministic[0]

    def test_deterministic_flags_dense(self):
        c = build_ghz_chain(2, 3, measure=True)
        result = run_circuit(c, shots=10, seed=2, method="statevector")
        assert not result.deterministic[0]
        assert result.deterministic[1]
        assert np.array_equal(result.outcomes[:, 0], result.outcomes[:, 1])

    @pytest.mark.parametrize("d", [3, 4])
    def test_repeated_terminal_measurement_dense(self, d):
        c = build_ghz_chain(2, d, measure=True)
        c.add_gate("M", 0)
        # sampled from the joint, not shot by shot
        assert simulate._terminal_measurement_plan(c) == [0, 1, 0]
        result = run_circuit(c, shots=50, seed=4, method="statevector")
        assert np.array_equal(result.outcomes[:, 2], result.outcomes[:, 0])
        assert len(set(result.outcomes[:, 0].tolist())) > 1
        tableau = run_circuit(c, shots=5, seed=4, method="tableau")
        assert result.deterministic.tolist() == [False, True, True]
        assert np.array_equal(result.deterministic, tableau.deterministic)
        assert result.qudits.tolist() == [0, 1, 0]

    def test_deterministic_flags_frames(self):
        c = build_ghz_chain(2, 3, measure=True)
        result = run_circuit(c, shots=10, seed=3, method="frames")
        assert not result.deterministic[0]
        assert result.deterministic[1]
        assert np.array_equal(result.outcomes[:, 0], result.outcomes[:, 1])

    def test_reset_not_a_record_slot(self):
        c = Circuit(2, 3)
        c.add_gate("F", 0)
        c.add_gate("M", 0)
        c.add_gate("RESET", 0)
        c.add_gate("M", 0)
        for method in ("tableau", "statevector", "frames"):
            result = run_circuit(c, shots=5, seed=4, method=method)
            assert result.seqs.tolist() == [0, 1]
            assert (result.outcomes[:, 1] == 0).all()

    @pytest.mark.parametrize("kind, d", [(Tableau, 3), (WeylTableau, 4)])
    def test_seqs_start_at_zero_from_a_measured_start(self, kind, d):
        start = kind(2, d)
        start.apply_gate("F", 0)
        start.measure_z(0, np.random.default_rng(1))
        c = Circuit(2, d)
        c.add_gate("M", 0)
        c.add_gate("M", 1)
        for method in ("tableau", "frames"):
            result = run_circuit(c, shots=5, seed=2, method=method,
                                 initial_tableau=start)
            assert result.seqs.tolist() == [0, 1]
        records = frames_module.reference_run(c, np.random.default_rng(3),
                                              initial_tableau=start)
        assert [r.seq for r in records] == [0, 1]
        # the caller's tableau keeps its own count
        assert start.measurements_done == 1


class TestCrossBackendAgreement:
    """All three backends sample the same distribution."""

    def marginals(self, result, slot, d):
        return np.bincount(result.outcomes[:, slot],
                           minlength=d) / len(result.outcomes)

    @pytest.mark.parametrize("d", [3, 5])
    def test_marginal_agreement(self, d):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            c = build_random_clifford_circuit(3, d, 25, rng)
            for j in range(3):
                c.add_gate("M", j)
            results = {m: run_circuit(c, shots=4000, seed=seed + 10, method=m)
                       for m in ("tableau", "statevector", "frames")}
            for slot in range(3):
                base = self.marginals(results["tableau"], slot, d)
                for m in ("statevector", "frames"):
                    other = self.marginals(results[m], slot, d)
                    assert 0.5 * np.abs(base - other).sum() < 0.08, (d, seed, m, slot)

    def test_deutsch_jozsa_all_methods(self):
        for d in (3, 5):
            for constant in (True, False):
                c = build_deutsch_jozsa(d, constant=constant)
                want = 0 if constant else d - 1
                for m in ("tableau", "statevector", "frames"):
                    result = run_circuit(c, shots=30, seed=5, method=m)
                    assert (result.outcomes[:, 0] == want).all(), (d, constant, m)
                    assert result.deterministic[0]


class TestDeterminismAndCounts:
    """Seeded reproducibility and the counts table."""

    def test_same_seed_identical_results(self):
        rng = np.random.default_rng(7)
        c = build_random_clifford_circuit(3, 3, 30, rng, noise=("d", 0.05))
        for j in range(3):
            c.add_gate("M", j)
        for m in ("tableau", "statevector", "frames"):
            a = run_circuit(c, shots=200, seed=99, method=m)
            b = run_circuit(c, shots=200, seed=99, method=m)
            assert a.outcome_tuples() == b.outcome_tuples(), m
            assert a.counts == b.counts

    @pytest.mark.parametrize("method", ["frames", "tableau"])
    def test_seed_sequence_reused_not_advanced(self, method):
        rng = np.random.default_rng(8)
        c = build_random_clifford_circuit(3, 3, 30, rng, noise=("d", 0.05))
        for j in range(3):
            c.add_gate("M", j)
        ss = np.random.SeedSequence(99)
        a = run_circuit(c, shots=200, seed=ss, method=method).outcomes
        b = run_circuit(c, shots=200, seed=ss, method=method).outcomes
        assert ss.n_children_spawned == 0
        assert np.array_equal(a, b)
        assert np.array_equal(a, run_circuit(c, shots=200, seed=99,
                                             method=method).outcomes)

    def test_counts_totals(self):
        c = build_ghz_chain(2, 3, measure=True)
        result = run_circuit(c, shots=300, seed=8, method="tableau")
        assert sum(result.counts.values()) == 300
        assert set(result.counts) <= {"00", "11", "22"}

    def test_seed_echoed(self):
        c = build_ghz_chain(2, 3, measure=True)
        result = run_circuit(c, shots=1, seed=1234, method="tableau")
        assert result.seed == 1234
        assert result.dimension == 3
        assert result.num_qudits == 2


class TestNoiseIntegration:
    """N1 instructions inside full runs."""

    def test_certain_flip_changes_outcome(self):
        c = Circuit(1, 3)
        c.add_gate("N1", 0, noise_channel="f", prob=1.0)
        c.add_gate("M", 0)
        for m in ("tableau", "statevector", "frames"):
            result = run_circuit(c, shots=400, seed=9, method=m)
            outs = result.outcomes[:, 0]
            assert 0 not in outs, m
            freqs = np.bincount(outs, minlength=3)[1:] / 400
            assert (np.abs(freqs - 0.5) < 0.08).all(), m

    def test_depolarizing_marginal(self):
        c = Circuit(1, 3)
        c.add_gate("N1", 0, noise_channel="d", prob=0.1)
        c.add_gate("M", 0)
        result = run_circuit(c, shots=20000, seed=10, method="tableau")
        outs = result.outcomes[:, 0]
        freqs = np.bincount(outs, minlength=3) / 20000
        # X^a Z^b errors: 6 of 8 shift the outcome, uniformly over {1, 2}
        assert freqs[0] == pytest.approx(0.925, abs=0.01)
        assert freqs[1] == pytest.approx(0.0375, abs=0.01)
        assert freqs[2] == pytest.approx(0.0375, abs=0.01)


def channel_component(kind, prob, d, read):
    """Outcome distribution of N1 then M (read 'x', which measures a) or of
    F, N1, F_INV, M (read 'z', which measures b), from the channel's exact
    table."""
    dist = np.zeros(d)
    for (a, b), p in error_distribution(kind, prob, d).items():
        dist[a if read == "x" else b] += p
    return dist


class TestBatchedTableau:
    """Shard-sampled tableau and Weyl runs: noise, shards, threads, start."""

    @staticmethod
    def check_single_channel(kind, d, prob, read, method):
        shots = 20000
        c = Circuit(1, d)
        if read == "z":
            c.add_gate("F", 0)
        c.add_gate("N1", 0, noise_channel=kind, prob=prob)
        if read == "z":
            c.add_gate("F_INV", 0)
        c.add_gate("M", 0)
        outs = run_circuit(c, shots, seed=18, method=method).outcomes
        freqs = np.bincount(outs[:, 0], minlength=d) / shots
        expected = channel_component(kind, prob, d, read)
        # five binomial standard deviations; exact where expected is 0 or 1
        # (clipped: expected sums of p/(d-1) can round to just above 1)
        var = np.clip(expected * (1 - expected), 0, None)
        bound = 5 * np.sqrt(var / shots) + 1e-12
        assert (np.abs(freqs - expected) <= bound).all(), (freqs, expected)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("prob", [0.0, 0.01, 0.3, 1.0])
    @pytest.mark.parametrize("read", ["x", "z"])
    def test_single_channel_matches_error_distribution(self, kind, d, prob,
                                                       read):
        self.check_single_channel(kind, d, prob, read, "tableau")

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("d", [2, 4, 6])
    @pytest.mark.parametrize("prob", [0.0, 0.01, 0.3, 1.0])
    @pytest.mark.parametrize("read", ["x", "z"])
    def test_weyl_single_channel_matches_error_distribution(self, kind, d,
                                                            prob, read):
        self.check_single_channel(kind, d, prob, read, "tableau")

    @staticmethod
    def noisy_circuit(d=3):
        c = build_random_clifford_circuit(4, d, 60, np.random.default_rng(21),
                                          noise=("d", 0.05))
        for j in range(4):
            c.add_gate("M", j)
        return c

    @staticmethod
    def check_thread_count_invariance(c, method):
        serial = run_circuit(c, shots=350, seed=31, method=method)
        for threads in (2, 4):
            threaded = run_circuit(c, shots=350, seed=31, method=method,
                                   threads=threads)
            assert np.array_equal(serial.outcomes, threaded.outcomes)

    @staticmethod
    def check_shard_boundary_determinism(c, method):
        long = run_circuit(c, shots=250, seed=32, method=method).outcomes
        again = run_circuit(c, shots=250, seed=32, method=method).outcomes
        assert np.array_equal(long, again)
        # shards draw in order from one generator, whatever the shot count
        first = run_circuit(c, shots=100, seed=32, method=method).outcomes
        assert np.array_equal(long[:100], first)
        assert not np.array_equal(long[100:200], first)

    @staticmethod
    def outcome_shards_of(monkeypatch, c, shots):
        """Make the compiled tableau sample c in shards of `shots` shots."""
        monkeypatch.setattr(frames_module, "OUTCOME_SHARD_ENTRIES",
                            shots * FrameSimulator(c).shard_width)

    def test_thread_count_invariance(self, monkeypatch):
        c = self.noisy_circuit()
        self.outcome_shards_of(monkeypatch, c, 100)
        self.check_thread_count_invariance(c, "tableau")

    def test_shard_boundary_determinism(self, monkeypatch):
        c = self.noisy_circuit()
        self.outcome_shards_of(monkeypatch, c, 100)
        self.check_shard_boundary_determinism(c, "tableau")

    def test_second_run_continues_the_stream(self, monkeypatch):
        """Two runs on one simulator read the shots that one longer run
        on a fresh simulator reads."""
        c = self.noisy_circuit()
        s = 100
        self.outcome_shards_of(monkeypatch, c, s)
        sim = FrameSimulator(c, 32)
        both = np.vstack([sim.run(2 * s), sim.run(s + 7)])
        assert np.array_equal(both, FrameSimulator(c, 32).run(3 * s + 7))

    @pytest.mark.parametrize("method", ["tableau", "frames", "statevector"])
    def test_fractional_shots_rejected(self, method):
        """Every method refuses 2.5 shots with one ValueError and stores an
        integral count as an int."""
        c = build_ghz_chain(2, 3, measure=True)
        with pytest.raises(ValueError, match="shots must be an integer, got 2.5"):
            run_circuit(c, 2.5, 1, method)
        for shots in (4.0, np.int64(4)):
            result = run_circuit(c, shots, 1, method)
            assert type(result.shots) is int and result.shots == 4
            assert result.outcomes.shape == (4, 2)

    @pytest.mark.parametrize("threads", [0, -1])
    @pytest.mark.parametrize("method", ["tableau", "frames", "statevector"])
    def test_nonpositive_threads_rejected(self, method, threads):
        c = self.noisy_circuit()
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            run_circuit(c, 10, 1, method, threads=threads)
        if method == "frames":
            with pytest.raises(ValueError, match="threads must be >= 1, got -3"):
                FrameSimulator(c, 1).run(10, threads=-3)
        if method == "statevector":  # the dense fast path as well
            with pytest.raises(ValueError,
                               match=f"threads must be >= 1, got {threads}"):
                run_circuit(build_ghz_chain(2, 3, measure=True), 10, 1,
                            method, threads=threads)

    @pytest.mark.parametrize("threads", [2.5, "2.5", "two", [2]],
                             ids=["float", "float_text", "word", "list"])
    def test_non_integer_threads_rejected(self, threads):
        """threads is refused unless it is an integer, on every method and
        on FrameSimulator.run; an integral value of any type runs."""
        c = self.noisy_circuit()
        for method in ("tableau", "frames", "statevector"):
            with pytest.raises(ValueError, match="threads must be an integer"):
                run_circuit(c, 5, 1, method, threads=threads)
        with pytest.raises(ValueError, match="threads must be an integer"):
            FrameSimulator(c, 1).run(5, threads)
        expected = run_circuit(c, 5, 1, "frames", threads=2).outcomes
        for ok in (2.0, np.int64(2), "2"):
            got = run_circuit(c, 5, 1, "frames", threads=ok).outcomes
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("d", [4, 6])
    def test_weyl_thread_count_invariance(self, d, monkeypatch):
        c = self.noisy_circuit(d)
        self.outcome_shards_of(monkeypatch, c, 100)
        self.check_thread_count_invariance(c, "tableau")

    @pytest.mark.parametrize("d", [4, 6])
    def test_weyl_shard_boundary_determinism(self, d, monkeypatch):
        c = self.noisy_circuit(d)
        self.outcome_shards_of(monkeypatch, c, 100)
        self.check_shard_boundary_determinism(c, "tableau")

    def test_initial_tableau_with_resets_matches_frames(self):
        """The LRB-D circuit (coded start, ancilla resets, noise): per-shot
        Tableau runs from copies of the coded start, which never compile a
        map, vs frames at criterion 04's bar."""
        code = qutrit_detection_code()
        start = code_initial_tableau(code)
        before = start.to_array()
        for depth in (2, 6):
            c = build_lrb_d_circuit(code, depth, 0.05)
            assert any(ins.name == "RESET" for ins in c.instructions)
            shot_rng = np.random.default_rng(34 + depth)
            shots = [simulate._run_shot(c, start.copy(), shot_rng)
                     for _ in range(2000)]
            tab = np.array([[r.outcome for r in shot] for shot in shots])
            frames = run_circuit(c, 10**4, 44 + depth, "frames",
                                 initial_tableau=start)
            for shot in shots:
                assert [r.deterministic for r in shot] == \
                    frames.deterministic.tolist()
            assert mean_slot_tvd(tab, frames.outcomes, 3) < 0.02
        # the start tableau itself is left untouched
        assert np.array_equal(start.to_array(), before)

    @staticmethod
    def mid_circuit_readout(d):
        """A noisy random circuit with an M and a RESET after every 15th
        instruction, and a final readout."""
        src = build_random_clifford_circuit(3, d, 40, np.random.default_rng(d),
                                            noise=("d", 0.05))
        c = Circuit(3, d)
        for i, ins in enumerate(src.instructions):
            c.add_gate(ins.name, *ins.qudits, noise_channel=ins.noise_channel,
                       prob=ins.prob)
            if i % 15 == 14:
                c.add_gate("M", i % 3)
                c.add_gate("RESET", (i + 1) % 3)
        for j in range(3):
            c.add_gate("M", j)
        return c

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", ["d3", "d4", "d5", "d11", "lrbd"])
    def test_frames_equal_tableau_at_same_seed(self, case, threads,
                                               monkeypatch):
        """frames and tableau are one sampler: same outcomes and flags at
        one seed, across several shards."""
        start = None
        if case == "lrbd":
            code = qutrit_detection_code()
            start = code_initial_tableau(code)
            c = build_lrb_d_circuit(code, 3, 0.05)
        else:
            c = self.mid_circuit_readout(int(case[1:]))
        assert {"M", "RESET", "N1"} <= {ins.name for ins in c.instructions}
        monkeypatch.setattr(frames_module, "OUTCOME_SHARD_ENTRIES", 1 << 13)
        tab = run_circuit(c, 500, 7, "tableau", threads=threads,
                          initial_tableau=start)
        frames = run_circuit(c, 500, 7, "frames", threads=threads,
                             initial_tableau=start)
        assert np.array_equal(tab.outcomes, frames.outcomes)
        for name in ("deterministic", "qudits", "seqs"):
            assert np.array_equal(getattr(tab, name), getattr(frames, name))
        assert tab.counts == frames.counts
