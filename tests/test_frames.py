"""Tests for the Pauli-frame Monte Carlo sampler."""

import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import quditsim.frames as frames_module
from quditsim.builders import build_ghz_chain, build_random_clifford_circuit
from quditsim.circuit import Circuit
from quditsim.errors import DimensionError, MemoryCapError, ShapeError
from quditsim.experiments import (build_channel_test_circuit,
                                  build_lrb_d_circuit,
                                  channel_reference_distribution,
                                  code_initial_tableau, qutrit_detection_code)
from quditsim.frames import (MAX_LAW_ENTRIES, FrameSimulator, _run,
                             compile_circuit, outcome_law, reference_run)
from quditsim.noise import NOISE_KINDS, error_distribution, sample_error
from quditsim.simulate import run_circuit
from quditsim.statevector import DenseState
from quditsim.tableau import Tableau
from quditsim.weyl import WeylTableau


def outcome_histogram(matrix, d):
    """Joint outcome frequencies from a (shots, m) record matrix."""
    counts = {}
    for row in map(tuple, matrix.tolist()):
        counts[row] = counts.get(row, 0) + 1
    total = matrix.shape[0]
    return {k: v / total for k, v in counts.items()}


def statevector_histogram(circuit, shots, seed):
    """Joint outcome frequencies from dense Born sampling, which shares no
    code with the frame sampler's compiled outcome map."""
    result = run_circuit(circuit, shots=shots, seed=seed, method="statevector")
    counts = {}
    for key in map(tuple, result.outcomes.tolist()):
        counts[key] = counts.get(key, 0) + 1
    return {k: v / shots for k, v in counts.items()}


def hist_tvd(p, q):
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0) - q.get(k, 0)) for k in keys)


class TestReferenceRun:
    """Noiseless reference traces."""

    def test_skips_noise_instructions(self):
        c = Circuit(1, 3)
        c.add_gate("N1", 0, noise_channel="f", prob=1.0)
        c.add_gate("M", 0)
        rng = np.random.default_rng(0)
        recs = reference_run(c, rng)
        assert recs[0].outcome == 0 and recs[0].deterministic

    def test_records_in_program_order(self):
        c = build_ghz_chain(3, 5, measure=True)
        recs = reference_run(c, np.random.default_rng(1))
        assert [r.seq for r in recs] == [0, 1, 2]
        assert [r.qudit for r in recs] == [0, 1, 2]

    def test_composite_dimension(self):
        # a WeylTableau serves every d that is not an odd prime
        c = build_ghz_chain(3, 4, measure=True)
        recs = reference_run(c, np.random.default_rng(2))
        assert [r.deterministic for r in recs] == [False, True, True]
        assert len({r.outcome for r in recs}) == 1
        mat = FrameSimulator(c, 4).run(2000)
        assert (mat == mat[:, :1]).all()
        assert len(np.unique(mat[:, 0])) == 4


class TestFrameSampling:
    """Sampled distributions against exact values and dense sampling."""

    def test_shape(self):
        c = build_ghz_chain(3, 3, measure=True)
        mat = FrameSimulator(c, 7).run(100)
        assert mat.shape == (100, 3)
        assert mat.dtype == np.int64
        assert ((mat >= 0) & (mat < 3)).all()

    def test_ghz_correlations(self):
        c = build_ghz_chain(2, 3, measure=True)
        mat = FrameSimulator(c, 11).run(4000)
        # perfectly correlated pair, uniform marginal
        assert (mat[:, 0] == mat[:, 1]).all()
        freqs = np.bincount(mat[:, 0], minlength=3) / 4000
        assert (np.abs(freqs - 1 / 3) < 0.05).all()

    def test_fresh_measurement_uniformity(self):
        # first random measurement must not be pinned to the reference outcome
        c = Circuit(1, 5)
        c.add_gate("F", 0)
        c.add_gate("M", 0)
        mat = FrameSimulator(c, 3).run(5000)
        freqs = np.bincount(mat[:, 0], minlength=5) / 5000
        assert (np.abs(freqs - 0.2) < 0.05).all()

    @pytest.mark.parametrize("d", [3, 5])
    def test_matches_statevector_joint_distribution(self, d):
        # wrong propagation rules produce TVD well above the noise floor
        for seed in range(4):
            rng = np.random.default_rng(seed)
            c = build_random_clifford_circuit(3, d, 30, rng)
            for j in range(3):
                c.add_gate("M", j)
            frames = outcome_histogram(FrameSimulator(c, seed + 50).run(20000), d)
            dense = statevector_histogram(c, 6000, seed + 90)
            assert hist_tvd(frames, dense) < 0.1, (d, seed)

    def test_noise_shifts_distribution(self):
        c = Circuit(1, 3)
        c.add_gate("N1", 0, noise_channel="f", prob=1.0)
        c.add_gate("M", 0)
        mat = FrameSimulator(c, 5).run(3000)
        freqs = np.bincount(mat[:, 0], minlength=3) / 3000
        assert freqs[0] == pytest.approx(0.0, abs=1e-12)
        assert freqs[1] == pytest.approx(0.5, abs=0.05)

    def test_reset_clears_error(self):
        c = Circuit(1, 3)
        c.add_gate("N1", 0, noise_channel="f", prob=1.0)
        c.add_gate("RESET", 0)
        c.add_gate("M", 0)
        mat = FrameSimulator(c, 6).run(500)
        assert (mat == 0).all()

    def test_measurement_then_remeasure_consistent(self):
        c = Circuit(2, 3)
        c.add_gate("F", 0)
        c.add_gate("SUM", 0, 1)
        c.add_gate("M", 0)
        c.add_gate("M", 1)
        c.add_gate("M", 0)
        mat = FrameSimulator(c, 8).run(2000)
        assert (mat[:, 0] == mat[:, 1]).all()
        assert (mat[:, 0] == mat[:, 2]).all()


class TestDeterminismContract:
    """Seed and thread-count reproducibility."""

    def test_same_seed_same_records(self):
        c = build_ghz_chain(3, 3, measure=True)
        a = FrameSimulator(c, 13).run(500)
        b = FrameSimulator(c, 13).run(500)
        assert np.array_equal(a, b)

    def test_thread_count_invariance(self):
        rng = np.random.default_rng(1)
        c = build_random_clifford_circuit(4, 5, 40, rng)
        for j in range(4):
            c.add_gate("M", j)
        single = FrameSimulator(c, 21).run(3000, 1)
        multi = FrameSimulator(c, 21).run(3000, 4)
        assert np.array_equal(single, multi)

    def test_sharding_invariance(self, monkeypatch):
        c = build_ghz_chain(2, 3, measure=True)
        width = FrameSimulator(c).shard_width
        monkeypatch.setattr(frames_module, "OUTCOME_SHARD_ENTRIES", 64 * width)
        small = FrameSimulator(c, seed=9).run(1000)
        monkeypatch.setattr(frames_module, "OUTCOME_SHARD_ENTRIES",
                            100000 * width)
        large = FrameSimulator(c, seed=9).run(1000)
        # same ensemble even when shard boundaries differ
        assert hist_tvd(outcome_histogram(small, 3),
                        outcome_histogram(large, 3)) < 0.1


class TestCustomInitialTableau:
    """Sampling from encoded starting states."""

    def test_ghz_start(self):
        tab = Tableau(2, 3)
        tab.apply_gate("F", 0)
        tab.apply_gate("SUM", 0, 1)
        c = Circuit(2, 3)
        c.add_gate("M", 0)
        c.add_gate("M", 1)
        sim = FrameSimulator(c, seed=31, initial_tableau=tab)
        mat = sim.run(2000)
        assert (mat[:, 0] == mat[:, 1]).all()
        freqs = np.bincount(mat[:, 0], minlength=3) / 2000
        assert (np.abs(freqs - 1 / 3) < 0.06).all()

    @pytest.mark.parametrize("kind, d", [
        (Tableau, 3), (Tableau, 5), (WeylTableau, 3), (WeylTableau, 4),
        (DenseState, 3), (DenseState, 4)])
    def test_reference_shot_skips_noise(self, kind, d):
        """_run without draw gives the records and pivots of the same circuit
        with its N1 lines removed, on every register."""
        noisy = build_random_clifford_circuit(
            3, d, 60, np.random.default_rng(d), noise=("d", 0.3),
            mid_measure_prob=0.1, reset_prob=0.1)
        clean = Circuit(3, d)
        for ins in noisy.instructions:
            if ins.name != "N1":
                clean.add_gate(ins.name, *ins.qudits)
        assert len(clean.instructions) < len(noisy.instructions)
        runs = [_run(c, kind(3, d), np.random.default_rng(1))
                for c in (noisy, clean)]
        (rec_a, piv_a), (rec_b, piv_b) = runs
        assert rec_a == rec_b and len(piv_a) == len(piv_b)
        assert any(p is not None for p in piv_a) == (kind is not DenseState)
        for p, q in zip(piv_a, piv_b):
            assert (p is None and q is None) or all(
                np.array_equal(u, v) for u, v in zip(p, q))

    @pytest.mark.parametrize("n, d", [(4, 3), (3, 5)], ids=["n", "d"])
    def test_dense_state_must_fit_the_circuit(self, n, d):
        c = build_ghz_chain(3, 3, measure=True)
        with pytest.raises(DimensionError, match="does not match the circuit"):
            _run(c, DenseState(n, d), np.random.default_rng(0), sample_error)

    @pytest.mark.parametrize("kind", [Tableau, WeylTableau])
    @pytest.mark.parametrize("n, d", [(4, 3), (3, 5)], ids=["n", "d"])
    def test_start_must_fit_the_circuit(self, kind, n, d):
        """A start of another n or d is refused, not compiled."""
        c = build_ghz_chain(3, 3, measure=True)
        with pytest.raises(DimensionError, match="does not match the circuit"):
            compile_circuit(c, kind(n, d))
        with pytest.raises(DimensionError, match="does not match the circuit"):
            reference_run(c, np.random.default_rng(0), kind(n, d))

    def test_op_count_accumulates(self):
        c = build_ghz_chain(2, 3, measure=True)
        sim = FrameSimulator(c, seed=1)
        assert sim.op_count == 0
        sim.run(100)
        first = sim.op_count
        assert first > 0
        sim.run(100)
        assert sim.op_count > first


class TestInputChecks:
    """Shot and thread counts."""

    def test_nonpositive_shots_rejected(self):
        c = build_ghz_chain(2, 3, measure=True)
        for shots in (0, -5):
            with pytest.raises(ValueError, match=f"got {shots}"):
                FrameSimulator(c, 0).run(shots)
            with pytest.raises(ValueError, match=f"got {shots}"):
                run_circuit(c, shots, 0, "frames")

    def test_fractional_shots_rejected(self):
        """Integral floats and numpy integers count; 2.5 is not truncated."""
        sim = FrameSimulator(build_ghz_chain(2, 3, measure=True), 0)
        with pytest.raises(ValueError, match="shots must be an integer, got 2.5"):
            sim.run(2.5)
        assert sim.run(3.0).shape == sim.run(np.int64(3)).shape == (3, 2)

    def test_huge_shots_hit_the_outcome_cap(self, monkeypatch):
        """10**12 shots fail before any shard is spawned or compiled."""
        spawned = []
        monkeypatch.setattr(frames_module, "draw_symbols",
                            lambda *args: spawned.append(args))
        c = build_ghz_chain(2, 3, measure=True)
        with pytest.raises(MemoryCapError, match="outcome cap"):
            FrameSimulator(c, 0).run(10**12)
        for method in ("tableau", "frames", "statevector"):
            with pytest.raises(MemoryCapError, match="outcome cap"):
                run_circuit(c, 10**12, 0, method)
        assert spawned == []

    def test_threads_start_no_thread(self, monkeypatch):
        """Several shards at threads=4 run serially, as at threads=1."""
        def refuse(thread):
            raise AssertionError("a sampler thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        c = build_ghz_chain(3, 5, measure=True)
        width = FrameSimulator(c).shard_width
        monkeypatch.setattr(frames_module, "OUTCOME_SHARD_ENTRIES", 64 * width)
        sim = FrameSimulator(c, 4)
        assert sim.shard_size == 64
        threaded = sim.run(300, threads=4)
        assert np.array_equal(FrameSimulator(c, 4).run(300, threads=1),
                              threaded)


def resets_then_m(pairs):
    """H, RESET pairs on one qutrit, then M: every RESET is random and its
    uniform symbol has no entries."""
    c = Circuit(1, 3)
    for _ in range(pairs):
        c.add_gate("H", 0)
        c.add_gate("RESET", 0)
    c.add_gate("M", 0)
    return c


def noise_after_m(locations):
    """M on one qutrit, then N1 locations at p = 0.5 that no slot reads."""
    c = Circuit(1, 3)
    c.add_gate("M", 0)
    for _ in range(locations):
        c.add_gate("N1", 0, noise_channel="d", prob=0.5)
    return c


class TestShardMemory:
    """A shard allocates about OUTCOME_SHARD_ENTRIES int64 entries per
    array, also for symbols and locations that reach no slot."""

    @pytest.mark.parametrize("circuit", [resets_then_m(500),
                                         noise_after_m(1000),
                                         build_ghz_chain(6, 3, measure=True)])
    def test_shard_peak_stays_near_the_budget(self, circuit, monkeypatch):
        entries = 1 << 12
        monkeypatch.setattr(frames_module, "OUTCOME_SHARD_ENTRIES", entries)
        sim = FrameSimulator(circuit, 1)
        tracemalloc.start()
        try:
            sim.run(3 * sim.shard_size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # sizing by outcomes and entries alone gave 500x and 4500x here
        assert peak <= 16 * 8 * entries


def observed_component(kind, prob, d, read):
    """Outcome distribution of N1 then M (read 'x', which measures a) or of
    F, N1, F_INV, M (read 'z', which measures b), from the channel's exact
    table."""
    dist = np.zeros(d)
    for (a, b), p in error_distribution(kind, prob, d).items():
        dist[a if read == "x" else b] += p
    return dist


class TestChannelSampling:
    """Sparse noise draws one Bernoulli(p) error per instruction and shot."""

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("prob", [0.0, 0.01, 0.3, 1.0])
    @pytest.mark.parametrize("read", ["x", "z"])
    def test_single_channel_matches_error_distribution(self, kind, d, prob,
                                                       read):
        shots = 20000
        c = Circuit(1, d)
        if read == "z":
            c.add_gate("F", 0)
        c.add_gate("N1", 0, noise_channel=kind, prob=prob)
        if read == "z":
            c.add_gate("F_INV", 0)
        c.add_gate("M", 0)
        mat = FrameSimulator(c, 17).run(shots)
        freqs = np.bincount(mat[:, 0], minlength=d) / shots
        expected = observed_component(kind, prob, d, read)
        # five binomial standard deviations; exact where expected is 0 or 1
        bound = 5 * np.sqrt(expected * (1 - expected) / shots) + 1e-12
        assert (np.abs(freqs - expected) <= bound).all(), (freqs, expected)


class TestFiredPositions:
    """frames.fired_positions: each position of range(count) present
    independently with probability prob, drawn from geometric gaps."""

    @pytest.mark.parametrize("count", [0, 1, 37, 5000])
    def test_prob_zero_and_one_draw_nothing(self, count):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert frames_module.fired_positions(rng, count, 0.0).tolist() == []
        assert frames_module.fired_positions(rng, count, 1.0).tolist() == \
            list(range(count))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("prob", [1e-300, 1e-4, 0.02, 0.5, 0.999])
    @pytest.mark.parametrize("count", [1, 2, 50, 100000])
    def test_sorted_distinct_in_range(self, count, prob):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pos = frames_module.fired_positions(rng, count, prob)
            assert pos.dtype == np.int64
            assert (np.diff(pos) > 0).all()
            assert len(pos) == 0 or (pos[0] >= 0 and pos[-1] < count)

    @pytest.mark.parametrize("count,prob", [(1000, 0.05), (40, 0.5),
                                            (3000, 0.002), (10, 0.1)])
    def test_count_and_positions_follow_bernoulli(self, count, prob):
        """Over 4000 draws: the fired count's mean and variance match
        Binomial(count, prob) within five standard errors (normal
        approximation), and every
        position fires within five binomial standard deviations of
        4000 * prob."""
        reps = 4000
        rng = np.random.default_rng(3)
        hits = np.zeros(count, dtype=np.int64)
        sizes = np.empty(reps)
        for r in range(reps):
            pos = frames_module.fired_positions(rng, count, prob)
            hits[pos] += 1
            sizes[r] = len(pos)
        mean, var = count * prob, count * prob * (1 - prob)
        assert abs(sizes.mean() - mean) <= 5 * np.sqrt(var / reps)
        assert abs(sizes.var(ddof=1) - var) <= 5 * var * np.sqrt(2 / (reps - 1))
        spread = np.sqrt(reps * prob * (1 - prob))
        assert np.abs(hits - reps * prob).max() <= 5 * spread

    def test_noise_fires_evenly_across_shard_boundaries(self, monkeypatch):
        """Two N1 locations read by their own M, in shards of 7 shots:
        each (location, shot within the shard) fires at prob, and the two
        locations fire together at prob**2, within five binomial standard
        deviations."""
        prob, size, shards = 0.2, 7, 6000
        c = Circuit(2, 3)
        for j in range(2):
            c.add_gate("N1", j, noise_channel="f", prob=prob)
        for j in range(2):
            c.add_gate("M", j)
        width = FrameSimulator(c).shard_width
        monkeypatch.setattr(frames_module, "OUTCOME_SHARD_ENTRIES",
                            size * width)
        sim = FrameSimulator(c, 5)
        assert sim.shard_size == size
        fired = (sim.run(size * shards) != 0).reshape(shards, size, 2)
        freq = fired.mean(axis=0)
        assert np.abs(freq - prob).max() <= 5 * np.sqrt(
            prob * (1 - prob) / shards)
        both = fired.all(axis=2).mean()
        assert abs(both - prob ** 2) <= 5 * np.sqrt(
            prob ** 2 * (1 - prob ** 2) / (size * shards))


def sample_tvd_bound(pooled, n1, n2, factor=4.0):
    """factor times the expected TVD between two independent samples
    (sizes n1, n2) of one categorical distribution, estimated from pooled
    counts by the normal approximation to each count."""
    p = pooled / pooled.sum()
    spread = np.sqrt(2 / np.pi * p * (1 - p) * (1 / n1 + 1 / n2))
    return factor * 0.5 * spread.sum()


class TestWideDimensions:
    """Wide prime dimensions: a sum of two entries, up to 2d - 2, nearly
    reaches 255 (d = 127) or passes it (d = 131)."""

    @pytest.mark.parametrize("d", [127, 131])
    def test_marginals_match_tableau(self, d):
        """Against per-shot Tableau runs, which never compile a map."""
        rng = np.random.default_rng(d)
        c = build_random_clifford_circuit(3, d, 40, rng, two_qudit_prob=0.5,
                                          noise=("d", 0.05),
                                          mid_measure_prob=0.2,
                                          reset_prob=0.1)
        n_frames, n_tab = 20000, 2000
        fr = FrameSimulator(c, 1).run(n_frames)
        tab_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2)))
        tab = np.array([[r.outcome for r in _run(c, Tableau(3, d), tab_rng,
                                                 sample_error)[0]]
                        for _ in range(n_tab)], dtype=np.int64)
        m = fr.shape[1]

        def peak_k(i, j):
            """The k in 1..d-1 at which the Tableau sample of
            (a_i - k * a_j) mod d has the highest peak."""
            diffs = (tab[:, [i]] - np.arange(1, d) * tab[:, [j]]) % d
            return 1 + int(np.argmax([np.bincount(col, minlength=d).max()
                                      for col in diffs.T]))

        # each slot, the difference of each pair (GHZ-like correlations),
        # and each pair's a_i - k * a_j at its peak k, which catches an
        # outcome read with a wrong coefficient
        pairs = [(i, j, k) for i in range(m) for j in range(i + 1, m)
                 for k in sorted({1, peak_k(i, j)})]
        stats = [(fr[:, i], tab[:, i]) for i in range(m)]
        stats += [((fr[:, i] - k * fr[:, j]) % d,
                   (tab[:, i] - k * tab[:, j]) % d) for i, j, k in pairs]
        for s, (a, b) in enumerate(stats):
            ca = np.bincount(a, minlength=d)
            cb = np.bincount(b, minlength=d)
            tvd = 0.5 * np.abs(ca / n_frames - cb / n_tab).sum()
            assert tvd <= sample_tvd_bound(ca + cb, n_frames, n_tab), (d, s)

    @pytest.mark.parametrize("d", [127, 131])
    def test_entries_up_to_2d_minus_2(self, d):
        # the second SUM adds x_0 to x_1 == x_0, a sum up to 2d - 2 before
        # reduction; SUM_INV takes one copy off, leaving a GHZ pair
        c = Circuit(2, d)
        for name, *qudits in [("F", 0), ("SUM", 0, 1), ("SUM", 0, 1),
                              ("SUM_INV", 0, 1), ("M", 0), ("M", 1)]:
            c.add_gate(name, *qudits)
        mat = FrameSimulator(c, 3).run(20000)
        assert (mat[:, 0] == mat[:, 1]).all()
        assert len(np.unique(mat[:, 0])) == d


def noisy_with_mid_circuit_ops(d, kind, seed):
    """Two noisy random Clifford blocks on two qudits, an M of qudit 0 and a
    RESET of qudit 1 between them, then M on both: three slots, one or more
    uniform symbols and N1 events of channel kind at p = 0.1."""
    rng = np.random.default_rng(seed)
    c = Circuit(2, d)
    for block in range(2):
        part = build_random_clifford_circuit(2, d, 10, rng, two_qudit_prob=0.5,
                                             noise=(kind, 0.1),
                                             measure_all=False)
        for ins in part.instructions:
            c.add_gate(ins.name, *ins.qudits, noise_channel=ins.noise_channel,
                       prob=ins.prob)
        if block == 0:
            c.add_gate("M", 0)
            c.add_gate("RESET", 1)
    for j in range(2):
        c.add_gate("M", j)
    return c


class TestOutcomeLaw:
    """frames.outcome_law: the exact law of a projection of a compiled map's
    outcomes, from the characters of its symbols."""

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_sampler_matches_joint_law(self, d, kind):
        """FrameSimulator.run against its own map's exact joint law: the
        sample sits within four times the expected TVD of an exact law.
        Only a joint check catches uniform coefficients read as 1, since on
        prime d every unit multiple of a uniform symbol is uniform."""
        shots = 40000
        c = noisy_with_mid_circuit_ops(d, kind, 10 * d + NOISE_KINDS.index(kind))
        sim = FrameSimulator(c, 1)
        law = outcome_law(sim.omap)
        assert law.shape == (d,) * 3
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        counts = np.zeros(law.shape)
        np.add.at(counts, tuple(sim.run(shots).T), 1)
        score = 0.5 * np.abs(counts / shots - law).sum()
        # the law is exact: a second sample of infinite size
        assert score <= sample_tvd_bound(law.reshape(-1), shots, np.inf)

    @pytest.mark.parametrize("case", ["lrbd_x_only", "mid_circuit_d3",
                                      "mid_circuit_d6"])
    def test_repeated_locations_sample_as_independent_events(self, case):
        """A map whose noise locations are each listed three times: its
        _Layout sample sits within four times the expected TVD of its
        outcome_law, which raises each location's character to the count."""
        shots = 40000
        if case == "lrbd_x_only":
            code = qutrit_detection_code()
            omap = compile_circuit(
                build_lrb_d_circuit(code, 0, 0.05, "x_only"),
                code_initial_tableau(code))
        else:
            d = int(case[-1])
            omap = compile_circuit(noisy_with_mid_circuit_ops(d, "d", d),
                                   Tableau(2, 3) if d == 3
                                   else WeylTableau(2, d))
        tiled = replace(omap, noise_groups=[
            (key, np.tile(locs, 3)) for key, locs in omap.noise_groups])
        law = outcome_law(tiled)
        assert np.abs(law - outcome_law(omap)).max() > 0.01
        out = np.empty((shots, len(omap.const)), dtype=np.int64)
        frames_module._Layout(tiled).sample(np.random.default_rng(5), out)
        counts = np.zeros(law.shape)
        np.add.at(counts, tuple(out.T), 1)
        score = 0.5 * np.abs(counts / shots - law).sum()
        assert score <= sample_tvd_bound(law.reshape(-1), shots, np.inf)

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_noiseless_deterministic_circuit_is_a_point_mass(self, d):
        c = Circuit(2, d)
        for name, *qudits in [("X", 0), ("SUM", 0, 1), ("SUM", 0, 1),
                              ("M", 0), ("M", 1)]:
            c.add_gate(name, *qudits)
        law = outcome_law(FrameSimulator(c).omap)
        expected = np.zeros((d, d))
        expected[1, 2 % d] = 1.0
        assert np.abs(law - expected).max() <= 1e-12

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("prob", [0.0, 0.3, 1.0])
    def test_single_channel_matches_closed_form(self, kind, d, prob):
        law = outcome_law(FrameSimulator(
            build_channel_test_circuit(kind, d, prob)).omap)
        reference = channel_reference_distribution(kind, d, prob)
        assert np.abs(law - [reference.prob(k) for k in range(d)]).max() \
            <= 1e-12

    def test_projection_is_the_pushforward_of_the_joint(self):
        """The law of (y0 + 2 y1, y2 - y0) mod d is the full joint summed
        over the outcomes that map to each value."""
        d = 4
        omap = FrameSimulator(noisy_with_mid_circuit_ops(d, "d", 7)).omap
        P = np.array([[1, 2, 0], [-1, 0, 1]])
        joint = outcome_law(omap)
        expected = np.zeros((d, d))
        for y in np.ndindex(joint.shape):
            expected[tuple(P @ y % d)] += joint[y]
        assert np.abs(outcome_law(omap, P) - expected).max() <= 1e-12

    @pytest.mark.parametrize("P", [np.eye(2, dtype=np.int64),
                                   np.ones(3, dtype=np.int64),
                                   np.eye(3) / 2],
                             ids=["too_few_columns", "one_dimensional",
                                  "not_integer"])
    def test_bad_projection_rejected(self, P):
        omap = FrameSimulator(build_ghz_chain(3, 3, measure=True)).omap
        with pytest.raises(ShapeError, match="P must be an integer"):
            outcome_law(omap, P)

    @pytest.mark.parametrize("d", [1021, 1031])
    def test_character_table_counts_against_the_cap(self, d):
        """A one-slot law needs d x d character tables: d = 1031 (d^2 over
        MAX_LAW_ENTRIES) raises before building them, d = 1021 fits."""
        c = Circuit(1, d)
        c.add_gate("N1", 0, noise_channel="f", prob=0.1)
        c.add_gate("M", 0)
        omap = compile_circuit(c)
        if d * d > MAX_LAW_ENTRIES:
            with pytest.raises(MemoryCapError, match="law cap"):
                outcome_law(omap)
        else:
            assert outcome_law(omap).sum() == pytest.approx(1)

    @pytest.mark.parametrize("d, rows", [(2, 21), (3, 13)])
    def test_over_the_cap_rejected(self, d, rows):
        """d^k above MAX_LAW_ENTRIES raises before any array is built."""
        assert d ** rows > MAX_LAW_ENTRIES >= d ** (rows - 1)
        omap = FrameSimulator(build_ghz_chain(2, d, measure=True)).omap
        with pytest.raises(MemoryCapError, match="law cap"):
            outcome_law(omap, np.ones((rows, 2), dtype=np.int64))
        assert outcome_law(omap, np.ones((rows - 1, 2), dtype=np.int64)).size \
            == d ** (rows - 1)
