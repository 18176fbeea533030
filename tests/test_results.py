"""Columnar SimulationResult: per-slot flags, counts, views and CLI bytes.

The CLI writers stream their text from the outcome array.  The byte tests
rebuild each output the way it used to be written, from the per-shot record
view, and require the streamed text to match it exactly.
"""

import hashlib
import json
import resource
import subprocess
import sys
from dataclasses import fields
from math import gcd

import numpy as np
import pytest

import quditsim.simulate as simulate
from quditsim import cli
from quditsim.builders import build_ghz_chain, build_random_clifford_circuit
from quditsim.circuit import Circuit, serialize_sdim
from quditsim.experiments import (OutcomeDistribution, build_lrb_d_circuit,
                                  code_initial_tableau, per_slot_distributions,
                                  qutrit_detection_code)
import quditsim.frames as frames_module
from quditsim.frames import (FrameSimulator, OutcomeMap, _Layout, _run,
                             _start_tableau, compile_circuit, draw_symbols,
                             outcome_law)
from quditsim.gates import GATE_TABLE, GATES
from quditsim.noise import NOISE_KINDS, sample_error
from quditsim.simulate import records_to_counts, run_circuit
from quditsim.statevector import DenseState
from quditsim.tableau import Tableau
from quditsim.weyl import WeylTableau

from test_frames import noisy_with_mid_circuit_ops, sample_tvd_bound
from weyl_helpers import set_weyl_rows, weyl_from_pauli


def sample_outcomes(omap, rng, size: int) -> np.ndarray:
    """(size, M) int64 outcomes of one shard of shots drawn from omap."""
    out = np.empty((size, len(omap.const)), dtype=np.int64)
    _Layout(omap).sample(rng, out)
    return out


def corpus(seed: int, dims, count: int, max_qudits: int, max_depth: int):
    """Random circuits drawn the way the cross-backend corpora draw them."""
    rng = np.random.default_rng(seed)
    circuits = []
    for i in range(count):
        n = int(rng.integers(1, max_qudits + 1))
        depth = int(rng.integers(1, max_depth + 1))
        circuits.append(build_random_clifford_circuit(n, dims[i % len(dims)],
                                                      depth, rng))
    return circuits


def per_shot_records(circuit, shots: int, seed, new_state) -> list:
    """Records of independent shots, drawn from run_circuit's RNG stream."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return [_run(circuit, new_state(), rng, sample_error)[0]
            for _ in range(shots)]


class ReplayRNG:
    """Hands a concrete tableau one shot's random outcomes, in order.

    A Tableau draws integers(0, d) and takes it as the outcome; a
    WeylTableau draws integers(m) and adds d/m times it to its k0 < d/m.
    Either way the draw k // (d/m) gives outcome k when k is in the
    support.
    """

    def __init__(self, outcomes, d: int):
        self._values = iter(outcomes.tolist())
        self.d = d

    def integers(self, low, high=None, size=None):
        return next(self._values) // (self.d // (low if high is None else high))

    def exhausted(self) -> bool:
        return next(self._values, None) is None


def with_reset_readout(circuit) -> Circuit:
    """circuit with an M ahead of every RESET.  Its map has the same symbols
    as circuit's, and its random slots read every random M and RESET."""
    out = Circuit(circuit.num_qudits, circuit.dimension)
    for ins in circuit.instructions:
        if ins.name == "RESET":
            out.add_gate("M", *ins.qudits)
        out.add_gate(ins.name, *ins.qudits, noise_channel=ins.noise_channel,
                     prob=ins.prob)
    return out


def replay_compiled(circuit, shots: int, seed, initial_tableau=None):
    """Replay run_circuit(method="tableau") shot by shot.

    Draws the symbols of run_circuit's one shard from a generator made
    from its seed, then runs each shot on its own concrete tableau (a Tableau
    for odd prime d, a WeylTableau otherwise): its random measurements and
    resets take that shot's compiled outcomes in order, read off
    with_reset_readout's map with the same draws, and each N1 applies the
    error that fired there in that shot, if any.  Returns the result, the
    per-shot records, the number of random measurements and resets over all
    shots whose pivot's X entry on the measured qudit is not 1, and the
    number of fired errors.
    """
    start = initial_tableau or _start_tableau(circuit)
    omap = compile_circuit(circuit, start)
    assert shots <= FrameSimulator(
        circuit, initial_tableau=initial_tableau).shard_size  # one shard
    result = run_circuit(circuit, shots, seed, "tableau",
                         initial_tableau=initial_tableau)
    _, (loc, shot, a, b) = draw_symbols(omap, np.random.default_rng(seed),
                                        shots)
    probe = compile_circuit(with_reset_readout(circuit), start)
    random = sample_outcomes(probe, np.random.default_rng(seed),
                             shots)[:, ~probe.deterministic]
    fired = {(int(l), int(s)): (int(x), int(z))
             for l, s, x, z in zip(loc, shot, a, b)}
    records, scaled = [], 0
    for s in range(shots):
        tab, rng = start.copy(), ReplayRNG(random[s], start.d)
        shot_records, location = [], 0
        for ins in circuit.instructions:
            q = ins.qudits[0]
            if ins.name == "M":
                shot_records.append(tab.measure_z(q, rng))
            elif ins.name == "RESET":
                tab.reset(q, rng)
            elif ins.name == "N1":
                if (location, s) in fired:
                    tab.apply_pauli_error(q, *fired[location, s])
                location += 1
            else:
                tab.apply_gate(ins.name, *ins.qudits)
            if ins.name in ("M", "RESET") and tab.pivot is not None:
                scaled += int(tab.pivot[0][q]) != 1
        assert rng.exhausted()
        records.append(tuple(shot_records))
    return result, records, scaled, len(fired)


def record_outcomes(records) -> np.ndarray:
    return np.array([[r.outcome for r in shot] for shot in records],
                    dtype=np.int64).reshape(len(records), -1)


def old_tally(rows, d: int) -> dict:
    """Counts as the per-shot tuple tally computed them from outcome
    rows."""
    tally = {}
    for shot in rows:
        outs = tuple(shot)
        tally[outs] = tally.get(outs, 0) + 1
    sep = "" if d <= 10 else "-"
    return {sep.join(map(str, outs)): c for outs, c in sorted(tally.items())}


class TestSlotFlags:
    """One deterministic flag per slot holds for every shot."""

    @pytest.mark.parametrize("seed, dims, count, max_qudits, max_depth", [
        (3, (3, 5, 7), 12, 5, 100),   # criterion 03 corpus
        (4, (3, 5), 6, 6, 200),       # criterion 04 corpus
    ])
    def test_tableau_and_frames_flags(self, seed, dims, count, max_qudits,
                                      max_depth):
        for i, circuit in enumerate(corpus(seed, dims, count, max_qudits,
                                           max_depth)):
            frames = run_circuit(circuit, 25, i, "frames")
            tab, records, _, _ = replay_compiled(circuit, 25, i)
            assert np.array_equal(tab.outcomes, record_outcomes(records))
            for shot in records:
                flags = [r.deterministic for r in shot]
                assert tab.deterministic.tolist() == flags
                assert frames.deterministic.tolist() == flags
                assert tab.qudits.tolist() == [r.qudit for r in shot]
                assert tab.seqs.tolist() == [r.seq for r in shot]

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_replay_with_resets_and_rescaled_pairs(self, d):
        """Exact replay of the compiled sampler with noise, mid-circuit M
        and RESET; some random measurements and resets have a pivot whose X
        entry on the measured qudit is not 1, so the swapped-in destabilizer
        is a proper power of it."""
        rescaled = fired = random_slots = 0
        for i in range(12):
            noise = (NOISE_KINDS[i % 3], 0.1)
            circuit = reset_corpus_circuit(d, np.random.default_rng(100 * d + i),
                                           noise)
            result, records, scaled, events = replay_compiled(circuit, 40, i)
            assert np.array_equal(result.outcomes, record_outcomes(records))
            for shot in records:
                assert result.deterministic.tolist() == [r.deterministic
                                                         for r in shot]
            rescaled += scaled
            fired += events
            random_slots += int((~result.deterministic).sum())
        assert rescaled >= 3 * 40
        assert fired >= 100 and random_slots >= 10

    def test_replay_from_initial_tableau(self):
        """The LRB-D circuit: coded start, ancilla resets and noise."""
        code = qutrit_detection_code()
        start = code_initial_tableau(code)
        circuit = build_lrb_d_circuit(code, 4, 0.05)
        result, records, _, events = replay_compiled(circuit, 60, 6, start)
        assert np.array_equal(result.outcomes, record_outcomes(records))
        assert events > 0

    @pytest.mark.parametrize("d", [2, 4, 6, 8, 9])
    def test_weyl_flags(self, d):
        """Exact replay of the sampler compiled on the Weyl tableau: each
        shot, replayed on its own per-shot WeylTableau, gives the same
        outcome and flag at every slot, mid-circuit M and RESET included,
        with and without noise."""
        random_slots = fired = 0
        clean = [(reset_corpus_circuit(d, np.random.default_rng(200 + 10 * d + i)),
                  30, i) for i in range(10)]
        noisy = [(reset_corpus_circuit(d, np.random.default_rng(100 * d + i),
                                       (NOISE_KINDS[i % 3], 0.1)), 40, i)
                 for i in range(12)]
        for circuit, shots, seed in clean + noisy:
            result, records, _, events = replay_compiled(circuit, shots, seed)
            assert np.array_equal(result.outcomes, record_outcomes(records))
            for shot in records:
                assert result.deterministic.tolist() == [r.deterministic
                                                         for r in shot]
            random_slots += int((~result.deterministic).sum())
            fired += events
        assert random_slots >= 10 and fired >= 100

    def test_statevector_per_shot_flags(self):
        """Every per-shot DenseState run has the dense sampler's flags, and
        the sampler's joint sits at the sampling floor of the exact law."""
        circuit = reset_circuit()
        n, dim = circuit.num_qudits, circuit.dimension
        records = per_shot_records(circuit, 40, 5, lambda: DenseState(n, dim))
        result = run_circuit(circuit, 4000, 5, "statevector")
        assert joint_tvd(result.outcomes, circuit) <= sample_tvd_bound(
            outcome_law(compile_circuit(circuit)).reshape(-1), 4000, np.inf)
        for shot in records:
            assert result.deterministic.tolist() == [r.deterministic
                                                     for r in shot]

    def test_dense_fast_path_flags(self):
        result = run_circuit(build_ghz_chain(3, 5, measure=True), 200, 1,
                             "statevector")
        assert result.deterministic.tolist() == [False, True, True]
        assert (result.outcomes == result.outcomes[:, :1]).all()

    def test_frames_take_reference_flags(self):
        circuit = build_random_clifford_circuit(
            4, 3, 60, np.random.default_rng(8), noise=("d", 0.02))
        result = run_circuit(circuit, 300, 9, "frames")
        sim = FrameSimulator(circuit, 9)
        assert np.array_equal(result.outcomes, sim.run(300))
        omap = sim.omap
        assert result.deterministic.tolist() == omap.deterministic.tolist()
        assert result.qudits.tolist() == omap.qudits.tolist()
        assert result.seqs.tolist() == omap.seqs.tolist()


def joint_tvd(outcomes, circuit) -> float:
    """TVD between the joint of sampled outcome rows and the circuit's
    exact law, outcome_law of its compiled map."""
    law = outcome_law(compile_circuit(circuit))
    counts = np.zeros(law.shape)
    np.add.at(counts, tuple(outcomes.T), 1)
    return 0.5 * np.abs(counts / len(outcomes) - law).sum()


def two_resets_through_partners(d: int) -> Circuit:
    """Qudit 0 is put in uniform superposition, copied onto a partner and
    reset, twice; the partners keep the two reset outcomes, which are
    independent and uniform.  A sampler that merged the rows of two
    histories after the second reset would correlate them."""
    circuit = Circuit(3, d)
    for partner in (1, 2):
        circuit.add_gate("F", 0)
        circuit.add_gate("SUM", 0, partner)
        circuit.add_gate("RESET", 0)
    circuit.add_gate("M", 1)
    circuit.add_gate("M", 2)
    return circuit


class TestDenseRows:
    """The statevector sampler: one dense row per distinct shot history,
    checked against per-shot DenseState runs and exact laws."""

    @pytest.mark.parametrize("d, seed", [(2, 21), (3, 31), (4, 40), (5, 51),
                                         (6, 61), (9, 92)])
    def test_matches_per_shot_runs(self, d, seed):
        """Against the per-shot oracle, one fresh DenseState per shot with
        sample_error's draws: every slot's marginal within four times the
        expected TVD of two samples, and the same flags in every shot."""
        circuit = reset_corpus_circuit(d, np.random.default_rng(seed),
                                       ("d", 0.1))
        n, dim = circuit.num_qudits, circuit.dimension
        records = per_shot_records(circuit, 300, seed,
                                   lambda: DenseState(n, dim))
        oracle = record_outcomes(records)
        result = run_circuit(circuit, 3000, seed, "statevector")
        for slot in range(circuit.num_measurements):
            a, b = (np.bincount(m[:, slot], minlength=d)
                    for m in (result.outcomes, oracle))
            score = 0.5 * np.abs(a / a.sum() - b / b.sum()).sum()
            assert score <= sample_tvd_bound(a + b, a.sum(), b.sum()), slot
        for shot in records:
            assert result.deterministic.tolist() == [r.deterministic
                                                     for r in shot]

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_noisy_mid_circuit_joint_matches_law(self, d, kind):
        circuit = noisy_with_mid_circuit_ops(d, kind, 10 * d + 1)
        result = run_circuit(circuit, 20000, d, "statevector")
        law = outcome_law(compile_circuit(circuit))
        assert joint_tvd(result.outcomes, circuit) <= sample_tvd_bound(
            law.reshape(-1), 20000, np.inf)
        assert np.array_equal(result.deterministic,
                              compile_circuit(circuit).deterministic)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_two_resets_keep_their_histories_apart(self, d):
        circuit = two_resets_through_partners(d)
        result = run_circuit(circuit, 20000, 1, "statevector")
        law = outcome_law(compile_circuit(circuit))
        assert np.abs(law - 1 / d ** 2).max() <= 1e-12
        assert joint_tvd(result.outcomes, circuit) <= sample_tvd_bound(
            law.reshape(-1), 20000, np.inf)
        # each RESET collapses its partner
        assert result.deterministic.tolist() == [True, True]
        assert np.array_equal(result.deterministic,
                              compile_circuit(circuit).deterministic)

    def test_shards_keep_the_law_and_terminal_streams(self, monkeypatch):
        """Shards of 1000 shots: a noisy run over 20 of them still matches
        its law, and a noiseless run whose M are all terminal, whose shards
        this size does not set, gives the same bytes as with the default."""
        noisy = noisy_with_mid_circuit_ops(3, "d", 31)
        clean = build_random_clifford_circuit(4, 5, 40,
                                              np.random.default_rng(5))
        expected = run_circuit(clean, 2000, 29, "statevector").outcomes
        monkeypatch.setattr(simulate, "DENSE_SHARD_AMPLITUDES", 9 * 1000)
        result = run_circuit(noisy, 20000, 3, "statevector")
        law = outcome_law(compile_circuit(noisy))
        assert joint_tvd(result.outcomes, noisy) <= sample_tvd_bound(
            law.reshape(-1), 20000, np.inf)
        assert np.array_equal(result.deterministic,
                              compile_circuit(noisy).deterministic)
        monkeypatch.setattr(simulate, "DENSE_SHARD_AMPLITUDES", 1)
        assert np.array_equal(
            run_circuit(clean, 2000, 29, "statevector").outcomes, expected)

    @pytest.mark.parametrize("case", ["terminal_ghz", "noisy_reset"])
    def test_stream_comes_in_bounded_shards(self, case, monkeypatch):
        """With small shard sizes stream_circuit yields the statevector run
        in three or more blocks, each within its shard bound, and together
        they are the bytes of run_circuit.  A terminal run, its one row
        drawn as one rng.choice, also gives the bytes of the default sizes;
        past the trunk each shard draws its own noise and outcomes, so
        there the shard size is part of the stream."""
        terminal = case == "terminal_ghz"
        circuit = (build_ghz_chain(4, 3, measure=True) if terminal
                   else noisy_with_mid_circuit_ops(3, "d", 31))
        default = run_circuit(circuit, 2000, 5, "statevector")
        amplitudes = circuit.dimension.d ** circuit.num_qudits
        slots = max(1, circuit.num_measurements)
        monkeypatch.setattr(simulate, "DENSE_SHARD_AMPLITUDES", 300 * amplitudes)
        monkeypatch.setattr(frames_module, "OUTCOME_SHARD_ENTRIES", 150 * slots)
        # terminal runs are sized by the outcome entries, the rest by the
        # amplitudes, and a terminal shard holds at least d^n shots
        bound = max(150, amplitudes) if terminal else 300
        *columns, blocks = simulate.stream_circuit(circuit, 2000, 5,
                                                   "statevector")
        blocks = list(blocks)
        assert len(blocks) >= 3
        assert all(0 < len(block) <= bound for block in blocks)
        joined = np.concatenate(blocks).tobytes()
        expected = run_circuit(circuit, 2000, 5, "statevector")
        assert joined == expected.outcomes.tobytes()
        if terminal:
            assert joined == default.outcomes.tobytes()
        for got, name in zip(columns, ("qudits", "seqs", "deterministic")):
            assert np.array_equal(got, getattr(expected, name))
            assert np.array_equal(got, getattr(default, name))

    def test_rows_stay_bounded_in_memory(self, tmp_path):
        """Every one of 150 shots fires an error on a 12-qutrit state, so
        its rows would take 1.28 GB at once; in shards the run completes in
        a 1 GiB address space."""
        circuit = Circuit(12, 3)
        circuit.add_gate("F", 0)
        for q in range(1, 12):
            circuit.add_gate("SUM", 0, q)
        circuit.add_gate("N1", 4, noise_channel="d", prob=1.0)
        circuit.add_gate("M", 0)
        circuit.add_gate("M", 4)
        shots = 150
        assert shots * 3 ** 12 * 16 > 2 ** 30
        path = tmp_path / "wide.sdim"
        path.write_text(serialize_sdim(circuit))
        cap = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "quditsim", "run", str(path), "--shots",
             str(shots), "--seed", "1", "--method", "statevector", "--out",
             "counts"], capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (cap, cap)))
        assert proc.returncode == 0, proc.stderr
        counts = dict(line.split() for line in proc.stdout.splitlines())
        assert sum(map(int, counts.values())) == shots
        # X^a moves qudit 4 off qudit 0's value unless a = 0
        assert 0.1 < sum(int(c) for key, c in counts.items()
                         if key[0] == key[1]) / shots < 0.4


class TestMapDigests:
    """The compiled maps of fixed circuits, pinned by digest.

    compile_circuit draws nothing, so these hold on any numpy whose
    Generator builds the same circuits.  A change to any digest is a
    change to the map, and so to the compiled samplers' output streams.
    """

    FIELDS = ("const", "qudits", "seqs", "deterministic", "indptr", "slots",
              "coeffs", "uniform", "noise")

    DIGESTS = {
        "north_star":
            "f1ba303c7cb59fba0d864cdee43bcc6abc0676269daf8f684d211896b5bd84b9",
        "reset_corpus_d5":
            "c1a3bc3192fb4ee4dad2af7a4c18d0ca7b0c68f78449335d0a6d4dfc7635c17e",
        "lrbd_depth8":
            "67d44b56db972f5efec457d3c5a5ef6609839b3d79cd77a09752b98a85a5e60a",
        "reset_corpus_d2":
            "93ab1dae43a3b6e4cb384e90037d1209f200aa2a66d635deca6d5d003fa23d1f",
        "weyl_d3":
            "8b3aaed597fd7a075e56964c88cc8fb2809553b3cd2c6fa692c14aadb24503cd",
        # two of its four random M and RESET have partial support
        "reset_corpus_d4":
            "3274b0a1e3a324a34748b795ce58dec2a3517880b6b8b2a8ddadddf8023f21b2",
        # pinned before the backward pass kept only its live frame columns
        "guard_d3":
            "295f84e5ec8db4940a8ec0aceadfc031702464b108d3c2b553d636fb18a5832f",
        "guard_d2":
            "e36bfac6d85a2a4cbd59bafde6fb5dff6a0f5c87ee8bfbb9792d6048b1e8b7a3",
        "syndrome_rounds_30":
            "2b96d0ce998347933571ba14126d5c77bdb6936843803b4ea1cae0993b09272d",
    }

    @staticmethod
    def cases() -> dict:
        """name -> (circuit, start tableau or None for the default)."""
        code = qutrit_detection_code()
        north = build_random_clifford_circuit(
            6, 3, 200, np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(1))), noise=("d", 0.01))
        weyl_d3 = reset_corpus_circuit(3, np.random.default_rng(307), ("p", 0.1))
        return {
            "north_star": (north, None),
            "reset_corpus_d5": (reset_corpus_circuit(
                5, np.random.default_rng(505), ("d", 0.1)), None),
            "lrbd_depth8": (build_lrb_d_circuit(code, 8, 0.05),
                            code_initial_tableau(code)),
            "reset_corpus_d2": (reset_corpus_circuit(
                2, np.random.default_rng(201), ("f", 0.1)), None),
            "weyl_d3": (weyl_d3, WeylTableau(weyl_d3.num_qudits, 3)),
            "reset_corpus_d4": (reset_corpus_circuit(
                4, np.random.default_rng(404), ("d", 0.1)), None),
            "guard_d3": (guard_circuit(3), None),
            "guard_d2": (guard_circuit(2), None),
            "syndrome_rounds_30": (syndrome_rounds(30), None),
        }

    @classmethod
    def digest(cls, omap) -> str:
        h = hashlib.sha256()
        for name in cls.FIELDS:
            a = np.ascontiguousarray(getattr(omap, name), dtype=np.int64)
            h.update(f"{name}{a.shape}".encode())
            h.update(a.tobytes())
        for (kind, prob), locs in omap.noise_groups:
            h.update(f"{kind}{prob!r}".encode())
            h.update(np.ascontiguousarray(locs, dtype=np.int64).tobytes())
        return h.hexdigest()

    def test_digests(self):
        digests = {name: self.digest(compile_circuit(
                       circuit, start or _start_tableau(circuit)))
                   for name, (circuit, start) in self.cases().items()}
        assert digests == self.DIGESTS


def dense_compile(circuit, start) -> OutcomeMap:
    """compile_circuit's map by the dense backward pass it replaced: x and
    z carry a column for every slot measured later, and every symbol's row
    is dense over all slots until the end."""
    d, n = start.d, start.n
    records, pivots = _run(circuit, start.copy(), None)
    num_slots, ops = len(records), circuit.instructions
    num_noise = sum(ins.name == "N1" for ins in ops)
    sym = sum(p is not None for p in pivots) + 2 * num_noise
    rows = np.zeros((sym, num_slots), dtype=np.int64)
    x = np.zeros((n, num_slots), dtype=np.int64)
    z = np.zeros((n, num_slots), dtype=np.int64)
    noise = np.zeros((num_noise, 2), dtype=np.int64)
    uniform = []
    loc, slot, piv = num_noise, num_slots, len(pivots)
    for ins in reversed(ops):
        name, j = ins.name, ins.qudits[0]
        if name == "N1":
            loc -= 1
            sym -= 2
            noise[loc] = sym, sym + 1
            rows[sym, slot:], rows[sym + 1, slot:] = z[j, slot:], -x[j, slot:]
            continue
        if name not in ("M", "RESET"):
            gate = GATES[GATES[name].inverse]
            if gate.arity == 2:
                c, t = ins.qudits
                x[t, slot:], z[c, slot:] = gate.cols(
                    x[c, slot:], z[c, slot:], x[t, slot:], z[t, slot:], d)
            elif gate.cols is not None:
                x[j, slot:], z[j, slot:] = gate.cols(x[j, slot:], z[j, slot:], d)
            continue
        if name == "M":
            slot -= 1
            z[j, slot] = 1
        else:
            x[j, slot:] = z[j, slot:] = 0
        piv -= 1
        if pivots[piv] is None:
            continue
        px, pz = pivots[piv]
        sym -= 1
        uniform.insert(0, sym)
        row = (px @ z[:, slot:] - pz @ x[:, slot:]) % d
        if gcd(int(px[j]), d) == 1:
            row = row * pow(int(px[j]), -1, d) % d
            z[j, slot:] = (z[j, slot:] - row) % d
        rows[sym, slot:] = row
    rows %= d
    which, slots = np.nonzero(rows)
    groups = {}
    for k, ins in enumerate(ins for ins in ops if ins.name == "N1"):
        groups.setdefault((ins.noise_channel, ins.prob), []).append(k)
    return OutcomeMap(
        d=d,
        const=np.array([r.outcome for r in records], dtype=np.int64),
        qudits=np.array([r.qudit for r in records], dtype=np.int64),
        seqs=np.array([r.seq for r in records], dtype=np.int64),
        deterministic=np.array([r.deterministic for r in records], dtype=bool),
        indptr=np.searchsorted(which, np.arange(len(rows) + 1)),
        slots=slots,
        coeffs=rows[which, slots],
        uniform=np.array(uniform, dtype=np.int64),
        noise=noise,
        noise_groups=[(key, np.array(locs)) for key, locs in groups.items()],
    )


class TestDenseOracle:
    """compile_circuit, which carries only live frame columns and keeps only
    nonzero entries, gives the dense backward pass's map field by field."""

    @staticmethod
    def starts(circuit) -> list:
        """The default start; on odd prime d, a WeylTableau as well."""
        start = _start_tableau(circuit)
        if isinstance(start, WeylTableau):
            return [start]
        return [start, WeylTableau(start.n, start.d)]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 9])
    def test_noisy_reset_corpus(self, d):
        for i in range(8):
            circuit = reset_corpus_circuit(d, np.random.default_rng(1000 * d + i),
                                           (NOISE_KINDS[i % 3], 0.1))
            for start in self.starts(circuit):
                a, b = compile_circuit(circuit, start), dense_compile(circuit, start)
                for f in fields(OutcomeMap):
                    if f.name != "noise_groups":
                        assert np.array_equal(getattr(a, f.name),
                                              getattr(b, f.name)), (i, f.name)
                assert ([(key, locs.tolist()) for key, locs in a.noise_groups] ==
                        [(key, locs.tolist()) for key, locs in b.noise_groups])


class TestRunDigests:
    """run_circuit's outcomes on fixed circuits and seeds, pinned by the
    sha256 of their shape and int64 bytes.  A change to any digest is a
    change to that method's output stream at a seed."""

    @staticmethod
    def digest(outcomes) -> str:
        a = np.ascontiguousarray(outcomes, dtype=np.int64)
        h = hashlib.sha256(f"{a.shape}".encode())
        h.update(a.tobytes())
        return h.hexdigest()

    def test_frames_north_star(self):
        """Three full shards."""
        circuit = TestMapDigests.cases()["north_star"][0]
        shots = 3 * FrameSimulator(circuit).shard_size
        result = run_circuit(circuit, shots, 17, "frames")
        assert self.digest(result.outcomes) == (
            "45c011c7bcffbf2080997d777238ea5925ce5e99b528b22b91b219a8c3a2b6eb")

    def test_tableau_composite_with_resets(self):
        circuit = reset_corpus_circuit(4, np.random.default_rng(404),
                                       ("d", 0.1))
        names = [ins.name for ins in circuit.instructions]
        assert "RESET" in names
        assert any(a == "M" and b != "M" for a, b in zip(names, names[1:]))
        result = run_circuit(circuit, 2000, 19, "tableau")
        assert self.digest(result.outcomes) == (
            "7ad99b9ae1edd02780c396fb7d85e4b25b2f0b01e02434ada353e0225d5eaaab")

    def test_statevector_per_shot(self):
        circuit = reset_corpus_circuit(3, np.random.default_rng(303),
                                       ("d", 0.1))
        result = run_circuit(circuit, 300, 23, "statevector")
        assert self.digest(result.outcomes) == (
            "1cce8831a935e16f1a3bab133e077a7616d4e0567ed766d5648e96d9452306e7")

    def test_statevector_dense(self):
        circuit = build_random_clifford_circuit(4, 5, 40,
                                                np.random.default_rng(5))
        result = run_circuit(circuit, 2000, np.random.SeedSequence(29),
                             "statevector")
        assert self.digest(result.outcomes) == (
            "c277abd3b7dbe0733cf67dac8c9b4d13ee5ce2b9ac690364d2c5a4966acb03ae")

    def test_statevector_dense_composite(self):
        """n=5, d=6, depth 200: the widest shape weyl_validate runs."""
        circuit = build_random_clifford_circuit(5, 6, 200,
                                                np.random.default_rng(6))
        result = run_circuit(circuit, 2000, np.random.SeedSequence(31),
                             "statevector")
        assert self.digest(result.outcomes) == (
            "b5afc26b10ae20f9c6160dd541ac590e75d1e495520c52ae26ba5bc5508be182")


class TestWeylCompilesTheSameMap:
    """On prime d every random outcome has full support, so the map in
    Symphase's gauge does not depend on the tableau that made the reference
    run: Tableau and WeylTableau compile identical maps, with no sampling."""

    @staticmethod
    def cases(name) -> list:
        """(circuit, Tableau start, WeylTableau start) of one corpus."""
        if name == "lrbd":
            code = qutrit_detection_code()
            start = code_initial_tableau(code)
            weyl = WeylTableau(start.n, start.d)
            set_weyl_rows(weyl, [weyl_from_pauli(start.stabilizer(i))
                                 for i in range(start.n)])
            return [(build_lrb_d_circuit(code, depth, 0.05, post),
                     start, weyl)
                    for post in ("all", "x_only") for depth in range(9)]
        if name == "criterion_03":
            circuits = corpus(3, (3, 5, 7), 100, 5, 100)
        elif name == "criterion_04":
            circuits = corpus(4, (3, 5), 20, 6, 200)
        elif name == "reset":
            circuits = [reset_corpus_circuit(d, np.random.default_rng(100 * d + i),
                                             (NOISE_KINDS[i % 3], 0.1))
                        for d in (3, 5, 7) for i in range(12)]
        elif name == "wide":
            # TestWideDimensions's circuits
            circuits = [build_random_clifford_circuit(
                3, d, 40, np.random.default_rng(d), two_qudit_prob=0.5,
                noise=("d", 0.05), mid_measure_prob=0.2, reset_prob=0.1)
                for d in (127, 131)]
        else:
            circuits = [TestMapDigests.cases()["north_star"][0]]
        return [(c, Tableau(c.num_qudits, c.dimension),
                 WeylTableau(c.num_qudits, c.dimension)) for c in circuits]

    @pytest.mark.parametrize("name", ["criterion_03", "criterion_04", "reset",
                                      "lrbd", "wide", "north_star"])
    def test_identical_maps(self, name):
        for k, (circuit, tab, weyl) in enumerate(self.cases(name)):
            a, b = compile_circuit(circuit, tab), compile_circuit(circuit, weyl)
            for f in fields(OutcomeMap):
                if f.name != "noise_groups":
                    assert np.array_equal(getattr(a, f.name),
                                          getattr(b, f.name)), (name, k, f.name)
            assert ([(key, locs.tolist()) for key, locs in a.noise_groups] ==
                    [(key, locs.tolist()) for key, locs in b.noise_groups])


class TestColumns:
    """Array shapes, counts and the per-shot compatibility views."""

    def test_shapes(self):
        circuit = build_ghz_chain(3, 3, measure=True)
        for method in ("tableau", "frames", "statevector"):
            result = run_circuit(circuit, 7, 0, method)
            assert result.outcomes.shape == (7, 3)
            assert result.outcomes.dtype == np.int64
            for column in (result.qudits, result.seqs, result.deterministic):
                assert column.shape == (3,)
            assert result.deterministic.dtype == bool

    def test_records_view(self):
        circuit = build_ghz_chain(2, 3, measure=True)
        result = run_circuit(circuit, 5, 3, "frames")
        rows = result.outcome_tuples()
        assert len(rows) == 5
        for row, shot in zip(rows, result.outcomes):
            assert row == tuple(shot.tolist())
            assert all(type(k) is int for k in row)

    @pytest.mark.parametrize("method", ["tableau", "frames"])
    def test_counts_match_old_tally(self, method):
        circuit = build_random_clifford_circuit(
            5, 3, 80, np.random.default_rng(2), noise=("d", 0.05))
        result = run_circuit(circuit, 2000, 4, method)
        tally = old_tally(result.outcomes.tolist(), 3)
        assert result.counts == tally
        assert list(result.counts) == list(tally)

    def test_counts_of_wide_rows(self):
        rng = np.random.default_rng(6)
        outcomes = rng.integers(0, 3, (500, 45))
        outcomes[:250] = outcomes[250:]
        tally = records_to_counts(outcomes, 3)
        assert sum(tally.values()) == 500
        assert list(tally) == list(old_tally(outcomes.tolist(), 3))
        assert tally == old_tally(outcomes.tolist(), 3)

    def test_counts_with_dashed_keys(self):
        circuit = build_random_clifford_circuit(
            3, 11, 30, np.random.default_rng(7), noise=("d", 0.05))
        result = run_circuit(circuit, 400, 1, "frames")
        assert result.counts == old_tally(result.outcomes.tolist(), 11)
        assert all("-" in key for key in result.counts)

    def test_per_slot_distributions_from_array(self):
        circuit = build_random_clifford_circuit(
            4, 5, 50, np.random.default_rng(3), noise=("d", 0.05))
        result = run_circuit(circuit, 600, 2, "frames")
        from_array = per_slot_distributions(result.outcomes, 5)
        assert len(from_array) == circuit.num_measurements
        for i, dist in enumerate(from_array):
            # label order feeds rb_fidelity's sum, so it must match too
            counts = {}
            for k in result.outcomes[:, i].tolist():
                counts[k] = counts.get(k, 0) + 1
            loop = OutcomeDistribution.from_counts(counts, 5)
            assert list(dist.probs.items()) == list(loop.probs.items())


@pytest.mark.parametrize("shots", [0, -5])
@pytest.mark.parametrize("method", ["tableau", "frames", "statevector"])
def test_nonpositive_shots_rejected(method, shots):
    with pytest.raises(ValueError, match=str(shots)):
        run_circuit(build_ghz_chain(2, 3, measure=True), shots, 0, method)


# -- CLI bytes -----------------------------------------------------------------

def reset_corpus_circuit(d: int, rng, noise=None) -> Circuit:
    """Random gates on 2-5 qudits with mid-circuit M and RESET mixed in.
    noise, a (kind, prob) pair, adds an N1 after every gate on each qudit
    it touches; it draws nothing from rng."""
    n = int(rng.integers(2, 6))
    circuit = Circuit(n, d)
    singles = [g.name for g in GATE_TABLE if g.arity == 1]
    for _ in range(int(rng.integers(20, 80))):
        u = rng.random()
        j = int(rng.integers(n))
        if u < 0.1:
            circuit.add_gate("M", j)
            continue
        if u < 0.18:
            circuit.add_gate("RESET", j)
            continue
        if u < 0.55:
            circuit.add_gate(singles[int(rng.integers(len(singles)))], j)
            touched = (j,)
        else:
            t = (j + 1 + int(rng.integers(n - 1))) % n
            circuit.add_gate(("SUM", "SUM_INV")[int(rng.integers(2))], j, t)
            touched = (j, t)
        if noise is not None:
            for q in touched:
                circuit.add_gate("N1", q, noise_channel=noise[0], prob=noise[1])
    for j in range(n):
        circuit.add_gate("M", j)
    return circuit


def guard_circuit(d: int) -> Circuit:
    """A small member of the long-circuit compile guard's family: 20
    qudits, depth 400, depolarizing noise and mid-circuit measurements."""
    return build_random_clifford_circuit(20, d, 400, np.random.default_rng(1),
                                         noise=("d", 0.001),
                                         mid_measure_prob=0.05)


def syndrome_rounds(rounds: int) -> Circuit:
    """Qutrit repetition-code syndrome rounds: per round, noise on the 11
    data qudits, then each ancilla 11+a reads Z_a Z_(a+1)^-1 and is reset;
    the data qudits are measured at the end.  Every syndrome outcome is
    deterministic, so its frame column stays live back to the start."""
    circuit = Circuit(21, 3)
    for _ in range(rounds):
        for q in range(11):
            circuit.add_gate("N1", q, noise_channel="d", prob=0.001)
        for a in range(10):
            circuit.add_gate("SUM", a, 11 + a)
            circuit.add_gate("SUM_INV", a + 1, 11 + a)
            circuit.add_gate("M", 11 + a)
            circuit.add_gate("RESET", 11 + a)
    for q in range(11):
        circuit.add_gate("M", q)
    return circuit


def reset_circuit() -> Circuit:
    circuit = Circuit(2, 3)
    for name, qudits, kwargs in [("F", (0,), {}), ("SUM", (0, 1), {}),
                                 ("M", (0,), {}),
                                 ("N1", (1,), {"noise_channel": "d",
                                               "prob": 0.2}),
                                 ("RESET", (0,), {}), ("M", (1,), {}),
                                 ("M", (0,), {})]:
        circuit.add_gate(name, *qudits, **kwargs)
    return circuit


def old_output(result, seed: int, out: str) -> str:
    """stdout as the writers built it from per-shot records."""
    rows = result.outcomes.tolist()
    slots = list(zip(result.qudits.tolist(), result.seqs.tolist(),
                     result.deterministic.tolist()))
    if out == "json":
        text = json.dumps({
            "dimension": result.dimension,
            "qudits": result.num_qudits,
            "shots": result.shots,
            "seed": seed,
            "method": result.method,
            "records": [[{"qudit": q, "seq": seq, "deterministic": f,
                          "outcome": k} for (q, seq, f), k in zip(slots, row)]
                        for row in rows],
            "counts": old_tally(rows, result.dimension),
        }, indent=2)
    elif out == "counts":
        text = "\n".join(f"{key} {count}" for key, count in
                         old_tally(rows, result.dimension).items())
    else:
        lines = ["shot,qudit,seq,deterministic,outcome"]
        for s, row in enumerate(rows):
            for (q, seq, f), k in zip(slots, row):
                lines.append(f"{s},{q},{seq},{int(f)},{k}")
        text = "\n".join(lines)
    return text if text.endswith("\n") else text + "\n"


def noisy(n, d, depth, seed):
    return build_random_clifford_circuit(n, d, depth,
                                         np.random.default_rng(seed),
                                         noise=("d", 0.03))


def noiseless(n, d, depth, seed):
    return build_random_clifford_circuit(n, d, depth,
                                         np.random.default_rng(seed))


def wide_circuit() -> Circuit:
    """226 measurement slots, with mid-circuit measurements and noise."""
    return build_random_clifford_circuit(40, 3, 1500, np.random.default_rng(3),
                                         noise=("d", 0.002),
                                         mid_measure_prob=0.1)


def past_shards(circuit, shards: int, rest: int) -> int:
    """shards whole shards of the circuit's sampler and rest shots more."""
    return shards * FrameSimulator(circuit).shard_size + rest


BYTE_CASES = {
    # name: (circuit, method, shots or shots(circuit)); frames crosses shard
    # and text piece boundaries and ends on a partial shard
    "frames": (lambda: noisy(4, 3, 60, 1), "frames",
               lambda c: past_shards(c, 3, 37)),
    "tableau": (lambda: noisy(3, 5, 40, 2), "tableau", 150),
    "weyl_d4": (lambda: noiseless(3, 4, 30, 3), "tableau", 80),
    "statevector_fast": (lambda: build_ghz_chain(2, 3, measure=True),
                         "statevector", 120),
    "statevector_per_shot": (reset_circuit, "statevector", 120),
    "frames_d11": (lambda: noisy(3, 11, 30, 4), "frames", 300),
    # almost every one of its 3000 rows is distinct, so counts has about
    # 3000 dash-separated keys
    "frames_d11_distinct": (lambda: noisy(8, 11, 60, 5), "frames",
                            lambda c: past_shards(c, 1, 270)),
    "wide": (wide_circuit, "tableau", lambda c: past_shards(c, 2, 56)),
    "no_measurements": (lambda: Circuit(2, 3), "frames", 5),
}


@pytest.mark.parametrize("out", ["json", "csv", "counts"])
@pytest.mark.parametrize("case", sorted(BYTE_CASES))
def test_cli_bytes_match_record_writers(case, out, tmp_path, capsys):
    build, method, shots = BYTE_CASES[case]
    circuit = build()
    shots = shots(circuit) if callable(shots) else shots
    path = tmp_path / "circuit.sdim"
    path.write_text(serialize_sdim(circuit))
    seed = 17
    assert cli.main(["run", str(path), "--shots", str(shots), "--seed",
                     str(seed), "--method", method, "--out", out,
                     "--threads", "1"]) == 0
    stdout = capsys.readouterr().out
    expected = run_circuit(circuit, shots, seed, method, threads=1)
    if case == "statevector_fast":
        assert expected.deterministic.tolist() == [False, True]
    old = old_output(expected, seed, out)
    if stdout != old:  # a plain assert would diff megabytes of text
        new_lines, old_lines = stdout.splitlines(), old.splitlines()
        at = next((i for i, pair in enumerate(zip(new_lines, old_lines))
                   if pair[0] != pair[1]), min(len(new_lines), len(old_lines)))
        pytest.fail(f"stdout differs at line {at + 1}: "
                    f"{new_lines[at:at + 1]} != {old_lines[at:at + 1]}")
