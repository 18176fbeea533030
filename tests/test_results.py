"""Columnar SimulationResult: per-slot flags, counts, views and CLI bytes.

The CLI writers stream their text from the outcome array.  The byte tests
rebuild each output the way it used to be written, from the per-shot record
view, and require the streamed text to match it exactly.
"""

import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

import quditsim.frames as frames_module
from quditsim import cli
from quditsim.builders import build_ghz_chain, build_random_clifford_circuit
from quditsim.circuit import Circuit, serialize_sdim
from quditsim.experiments import (OutcomeDistribution, build_lrb_d_circuit,
                                  code_initial_tableau, per_slot_distributions,
                                  qutrit_detection_code)
from quditsim.frames import (FrameSimulator, OutcomeMap, _Layout,
                             _start_tableau, compile_circuit, draw_symbols)
from quditsim.gates import GATE_TABLE
from quditsim.noise import NOISE_KINDS
from quditsim.simulate import (_run_shot, _terminal_measurement_plan,
                               records_to_counts, run_circuit)
from quditsim.statevector import DenseState
from quditsim.tableau import Tableau
from quditsim.weyl import WeylTableau, weyl_from_pauli


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
    return [_run_shot(circuit, new_state(), rng) for _ in range(shots)]


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
        circuit = reset_circuit()
        n, dim = circuit.num_qudits, circuit.dimension
        records = per_shot_records(circuit, 40, 5, lambda: DenseState(n, dim))
        result = run_circuit(circuit, 40, 5, "statevector")
        assert np.array_equal(result.outcomes, record_outcomes(records))
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

    # one buffered row at a time, and chunks of a few rows
    @pytest.mark.parametrize("buffer_entries", [None, 1, 40])
    def test_digests(self, monkeypatch, buffer_entries):
        if buffer_entries is not None:
            monkeypatch.setattr(frames_module, "COMPILE_BUFFER_ENTRIES",
                                buffer_entries)
        digests = {name: self.digest(compile_circuit(
                       circuit, start or _start_tableau(circuit)))
                   for name, (circuit, start) in self.cases().items()}
        assert digests == self.DIGESTS


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
        assert _terminal_measurement_plan(circuit) is None
        result = run_circuit(circuit, 300, 23, "statevector")
        assert self.digest(result.outcomes) == (
            "469349fece4a6163305819b41d82bfa7d4119d97f7e3a777333d2ced3292a6d2")

    def test_statevector_dense(self):
        circuit = build_random_clifford_circuit(4, 5, 40,
                                                np.random.default_rng(5))
        assert _terminal_measurement_plan(circuit) is not None
        result = run_circuit(circuit, 2000, np.random.SeedSequence(29),
                             "statevector")
        assert self.digest(result.outcomes) == (
            "c277abd3b7dbe0733cf67dac8c9b4d13ee5ce2b9ac690364d2c5a4966acb03ae")


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
            weyl._set_rows([weyl_from_pauli(start.stabilizer(i))
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


BYTE_CASES = {
    # name: (circuit, method, shots); frames crosses chunk boundaries
    "frames": (lambda: noisy(4, 3, 60, 1), "frames", 4 * cli.CHUNK_SHOTS + 37),
    "tableau": (lambda: noisy(3, 5, 40, 2), "tableau", 150),
    "weyl_d4": (lambda: noiseless(3, 4, 30, 3), "tableau", 80),
    "statevector_fast": (lambda: build_ghz_chain(2, 3, measure=True),
                         "statevector", 120),
    "statevector_per_shot": (reset_circuit, "statevector", 120),
    "frames_d11": (lambda: noisy(3, 11, 30, 4), "frames", 300),
    "no_measurements": (lambda: Circuit(2, 3), "frames", 5),
}


@pytest.mark.parametrize("out", ["json", "csv", "counts"])
@pytest.mark.parametrize("case", sorted(BYTE_CASES))
def test_cli_bytes_match_record_writers(case, out, tmp_path, capsys):
    build, method, shots = BYTE_CASES[case]
    circuit = build()
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
