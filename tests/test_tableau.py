"""Tests for the odd-prime destabilizer/stabilizer tableau."""

import hashlib

import numpy as np
import pytest

from quditsim.builders import build_deutsch_jozsa, build_random_clifford_circuit
from quditsim.circuit import Circuit
from quditsim.errors import DimensionError, ShapeError
from quditsim.pauli import Dimension, PauliString
from quditsim.simulate import run_circuit
from quditsim.statevector import DenseState, stabilizer_check
from quditsim.tableau import Tableau
from quditsim.weyl import WeylTableau

SINGLE_GATES = ["X", "Z", "X_INV", "Z_INV", "F", "F_INV", "P", "P_INV"]
INVERSE_OF = {"X": "X_INV", "Z": "Z_INV", "F": "F_INV", "P": "P_INV",
              "X_INV": "X", "Z_INV": "Z", "F_INV": "F", "P_INV": "P",
              "SUM": "SUM_INV", "SUM_INV": "SUM"}


def random_gate_walk(tab, rng, depth):
    """Apply depth random gates, returning the gate list."""
    gates = []
    for _ in range(depth):
        if tab.n > 1 and rng.random() < 0.25:
            a, b = rng.choice(tab.n, size=2, replace=False)
            name, qs = "SUM", (int(a), int(b))
        else:
            name, qs = str(rng.choice(SINGLE_GATES)), (int(rng.integers(tab.n)),)
        tab.apply_gate(name, *qs)
        gates.append((name, qs))
    return gates


def dense_twin(n, d, gates):
    state = DenseState(n, d)
    for name, qs in gates:
        state.apply_gate(name, *qs)
    return state


class TestInit:
    """Fresh tableau layout."""

    def test_two_qutrit_block_form(self):
        tab = Tableau(2, 3)
        expected = np.array([
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
        ])
        assert np.array_equal(tab.to_array(), expected)

    def test_single_qudit_rows(self):
        tab = Tableau(1, 5)
        assert tab.destabilizer(0) == PauliString.single(1, Dimension(5), 0, x=1)
        assert tab.stabilizer(0) == PauliString.single(1, Dimension(5), 0, z=1)

    def test_rejects_empty_register(self):
        with pytest.raises(ShapeError):
            Tableau(0, 3)

    def test_rejects_non_odd_prime(self):
        for d in (2, 4, 6, 9):
            with pytest.raises(DimensionError):
                Tableau(1, d)

    def test_invariants_at_init(self):
        Tableau(4, 7).check_invariants()


class TestGateRules:
    """Golden single-step tableau updates at d=3."""

    def test_fourier_on_qudit_zero(self):
        tab = Tableau(2, 3)
        tab.apply_gate("F", 0)
        expected = np.array([
            [0, 0, 1, 0, 0],
            [0, 1, 0, 0, 0],
            [2, 0, 0, 0, 0],
            [0, 0, 0, 1, 0],
        ])
        assert np.array_equal(tab.to_array(), expected)

    def test_x_touches_only_phases(self):
        tab = Tableau(2, 3)
        tab.apply_gate("F", 0)
        before = tab.to_array()
        tab.apply_gate("X", 1)
        after = tab.to_array()
        assert np.array_equal(before[:, :-1], after[:, :-1])
        assert after[3, 4] == 2
        assert after[0, 4] == after[1, 4] == after[2, 4] == 0

    def test_second_fourier(self):
        tab = Tableau(2, 3)
        tab.apply_gate("F", 0)
        tab.apply_gate("X", 1)
        tab.apply_gate("F", 1)
        expected = np.array([
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [2, 0, 0, 0, 0],
            [0, 2, 0, 0, 2],
        ])
        assert np.array_equal(tab.to_array(), expected)

    def test_gate_then_inverse_restores(self):
        rng = np.random.default_rng(5)
        for name in SINGLE_GATES:
            tab = Tableau(3, 5)
            random_gate_walk(tab, rng, 12)
            before = tab.to_array().copy()
            tab.apply_gate(name, 1)
            tab.apply_gate(INVERSE_OF[name], 1)
            assert np.array_equal(tab.to_array(), before), name
        tab = Tableau(3, 5)
        random_gate_walk(tab, rng, 12)
        before = tab.to_array().copy()
        tab.apply_gate("SUM", 0, 2)
        tab.apply_gate("SUM_INV", 0, 2)
        assert np.array_equal(tab.to_array(), before)

    def test_index_out_of_range(self):
        tab = Tableau(2, 3)
        with pytest.raises(ShapeError):
            tab.apply_gate("F", 2)
        with pytest.raises(ShapeError):
            tab.apply_gate("SUM", 0, 0)

    def test_pairing_preserved_by_gates(self):
        rng = np.random.default_rng(17)
        for d in (3, 5, 7):
            tab = Tableau(4, d)
            random_gate_walk(tab, rng, 60)
            tab.check_invariants()


class TestGateOracle:
    """Tableau evolution tracks the dense state exactly."""

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_stabilize_dense_state(self, d, seed):
        rng = np.random.default_rng(seed)
        tab = Tableau(3, d)
        gates = random_gate_walk(tab, rng, 25)
        state = dense_twin(3, d, gates)
        assert stabilizer_check(tab, state)

    @pytest.mark.parametrize("d", [3, 5])
    def test_each_generator_rule(self, d):
        # one gate at a time, from a scrambled start
        rng = np.random.default_rng(d)
        for name in SINGLE_GATES:
            tab = Tableau(2, d)
            gates = random_gate_walk(tab, rng, 10)
            tab.apply_gate(name, 0)
            state = dense_twin(2, d, gates + [(name, (0,))])
            assert stabilizer_check(tab, state), name


class TestMeasurement:
    """Algorithm behavior of measure_z."""

    def test_fresh_register_deterministic_zero(self):
        rng = np.random.default_rng(0)
        tab = Tableau(3, 5)
        for j in range(3):
            rec = tab.measure_z(j, rng)
            assert rec.deterministic and rec.outcome == 0

    def test_fourier_state_random_uniform(self):
        rng = np.random.default_rng(1)
        counts = np.zeros(3, dtype=np.int64)
        for _ in range(900):
            tab = Tableau(1, 3)
            tab.apply_gate("F", 0)
            rec = tab.measure_z(0, rng)
            assert not rec.deterministic
            counts[rec.outcome] += 1
        assert (np.abs(counts / 900 - 1 / 3) < 0.08).all()

    def test_remeasurement_repeats(self):
        rng = np.random.default_rng(2)
        for seed in range(40):
            tab = Tableau(3, 3)
            random_gate_walk(tab, np.random.default_rng(seed), 30)
            first = tab.measure_z(1, rng)
            second = tab.measure_z(1, rng)
            assert second.deterministic
            assert second.outcome == first.outcome

    def test_x_shifts_outcome(self):
        rng = np.random.default_rng(3)
        tab = Tableau(1, 5)
        tab.apply_gate("X", 0)
        tab.apply_gate("X", 0)
        rec = tab.measure_z(0, rng)
        assert rec.deterministic and rec.outcome == 2

    def test_pairing_preserved_by_measurement(self):
        rng = np.random.default_rng(4)
        for seed in range(25):
            tab = Tableau(4, 3)
            random_gate_walk(tab, np.random.default_rng(seed), 40)
            tab.measure_z(int(rng.integers(4)), rng)
            tab.check_invariants()

    def test_post_state_stabilizes_collapsed_vector(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            tab = Tableau(3, 3)
            gates = random_gate_walk(tab, rng, 20)
            state = dense_twin(3, 3, gates)
            rec = tab.measure_z(1, rng)
            state.project(1, rec.outcome)
            assert stabilizer_check(tab, state)

    def test_stabilizer_check_rejects_a_wrong_state(self):
        gates = [("F", (0,)), ("SUM", (0, 1))]
        tab = Tableau(2, 3)
        for name, qs in gates:
            tab.apply_gate(name, *qs)
        assert stabilizer_check(tab, dense_twin(2, 3, gates))
        assert not stabilizer_check(tab, DenseState(2, 3))
        with pytest.raises(ShapeError, match="disagree on shape"):
            stabilizer_check(tab, DenseState(3, 3))

    @pytest.mark.parametrize("d", [3, 4])
    def test_stabilizer_check_needs_a_destabilizer_tableau(self, d):
        with pytest.raises(DimensionError, match="destabilizer Tableau"):
            stabilizer_check(WeylTableau(2, d), DenseState(2, d))


def measured_ghz():
    """GHZ pair at d=3 after M 1 with outcome 0: destabilizers X X and
    X^2 I, stabilizers I Z and Z^2 Z."""
    tab = Tableau(2, 3)
    tab.apply_gate("F", 0)
    tab.apply_gate("SUM", 0, 1)
    tab.measure_z(1)
    tab.check_invariants()
    return tab


def _stabilizers_anticommute(tab):
    tab.X[3], tab.Z[3] = [0, 1], [0, 0]  # X_1 against stabilizer Z_1


def _destabilizers_anticommute(tab):
    tab.X[1], tab.Z[1] = [0, 0], [1, 0]  # Z_0 against destabilizer X X


def _destabilizer_scaled_by_two(tab):
    tab.X[0] = tab.X[0] * 2 % 3  # (X X)^2 pairs with Z_1 by exponent 2


class TestInvariantChecks:
    """check_invariants names each kind of corruption it finds."""

    @pytest.mark.parametrize("corrupt, match", [
        (_stabilizers_anticommute, "stabilizer rows do not mutually commute"),
        (_destabilizers_anticommute, "destabilizer rows do not mutually commute"),
        (_destabilizer_scaled_by_two, "stabilizer/destabilizer pairing is broken"),
    ], ids=["stabilizers", "destabilizers", "pairing"])
    def test_tableau(self, corrupt, match):
        tab = measured_ghz()
        corrupt(tab)
        with pytest.raises(ShapeError, match=match):
            tab.check_invariants()

    def test_weyl(self):
        tab = WeylTableau(2, 4)
        tab.check_invariants()
        tab.coords[1] = [0, 0, 1, 0]  # X_0 against generator Z_0
        with pytest.raises(ShapeError, match="generators do not commute"):
            tab.check_invariants()


class TestRowAccess:
    """stabilizer(i) and destabilizer(k) read their own block for an
    integer index in [0, n), and refuse any other index."""

    @pytest.mark.parametrize("block, index", [
        ("destabilizer", 2), ("destabilizer", 3), ("destabilizer", -1),
        ("stabilizer", -1), ("stabilizer", 2), ("stabilizer", 1.0),
    ])
    def test_rejected(self, block, index):
        tab = Tableau(2, 3)
        tab.apply_gate("F", 0)
        with pytest.raises(ShapeError,
                           match=rf"{block} index must be an integer in \[0, 2\)"):
            getattr(tab, block)(index)

    def test_rows_come_from_their_block(self):
        tab = measured_ghz()
        arr = tab.to_array()
        for k in range(2):
            assert tab.destabilizer(np.int64(k)).encode_block().tolist() == \
                arr[k].tolist()
            assert tab.stabilizer(np.int64(k)).encode_block().tolist() == \
                arr[2 + k].tolist()


class TestPauliErrorExponents:
    """apply_pauli_error takes integer exponents of any kind, reduced mod d,
    and keeps the phases int64."""

    MAKERS = {"tableau": lambda: Tableau(2, 3), "weyl": lambda: WeylTableau(2, 4)}

    def make(self, kind):
        tab = self.MAKERS[kind]()
        tab.apply_gate("F", 0)
        tab.apply_gate("SUM", 0, 1)
        return tab

    @pytest.mark.parametrize("kind", list(MAKERS))
    @pytest.mark.parametrize("a, b", [(2.0, 1), (1, np.float64(2.0)),
                                      (np.int64(2), np.int32(1)),
                                      (3 ** 60 + 1, -(3 ** 60) - 1)],
                             ids=["float", "numpy_float", "numpy_int", "huge"])
    def test_integers_of_any_kind(self, kind, a, b):
        tab, ref = self.make(kind), self.make(kind)
        tab.apply_pauli_error(0, a, b)
        ref.apply_pauli_error(0, int(a) % tab.d, int(b) % tab.d)
        assert tab.r.dtype == np.int64 and np.array_equal(tab.r, ref.r)


class TestGHZWorkedExample:
    """GHZ pair at d=3: the canonical measurement walk-through."""

    def build(self):
        tab = Tableau(2, 3)
        tab.apply_gate("F", 0)
        tab.apply_gate("SUM", 0, 1)
        return tab

    def test_pre_measurement_tableau(self):
        expected = np.array([
            [0, 0, 1, 0, 0],
            [0, 1, 0, 0, 0],
            [2, 2, 0, 0, 0],
            [0, 0, 2, 1, 0],
        ])
        assert np.array_equal(self.build().to_array(), expected)

    def test_measurement_rewrites_rows(self):
        rng = np.random.default_rng(8)
        tab = self.build()
        rec = tab.measure_z(1, rng)
        assert not rec.deterministic
        arr = tab.to_array()
        # destabilizer 0 receives the old stabilizer row X^2 X^2, scaled to
        # (X^2 X^2)^2 = X X so that it pairs with Z_1 by exponent 1
        assert arr[0].tolist() == [1, 1, 0, 0, 0]
        # stabilizer 0 is the phased Z_1 insertion for the sampled outcome
        assert arr[2].tolist() == [0, 0, 0, 1, (-rec.outcome) % 3]
        # stabilizer 1 = Z_0^2 Z_1 commutes with Z_1 and is untouched
        assert arr[3].tolist() == [0, 0, 2, 1, 0]
        tab.check_invariants()

    def test_follow_up_is_deterministic_equal(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            tab = self.build()
            first = tab.measure_z(1, rng)
            second = tab.measure_z(0, rng)
            assert second.deterministic
            assert second.outcome == first.outcome

    def test_ghz_stabilizers(self):
        tab = self.build()
        d = Dimension(3)
        assert tab.stabilizer(0) == PauliString(d, [2, 2], [0, 0], 0)
        assert tab.stabilizer(1) == PauliString(d, [0, 0], [2, 1], 0)
        state = DenseState(2, 3)
        state.apply_gate("F", 0)
        state.apply_gate("SUM", 0, 1)
        assert stabilizer_check(tab, state)


class TestWalkDigest:
    """to_array after every step of a seeded walk of gates and
    measurements, pinned by its sha256 digest.  It is the one check of the
    destabilizer phase that a random measurement leaves: P^u keeps P's
    read-out phase, and d = 5 and 7 reach pivots with u^2 != 1 and
    x.z != 0, where the stored phase has to move for that."""

    DIGESTS = {
        3: "fdd84aeb167119cef18b140ba9d20fbac7c359d9b9f27a2699e08528382ac2ad",
        5: "2da7e81ee1e3abba30cdb0ca9b587674c134a06e417f92641423eb7316187433",
        7: "fd5883c217bee11cef5ef6dff31c64cfd31fe58d7cc441a785682c855b96602c",
    }

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_every_step_of_a_walk(self, d):
        rng = np.random.default_rng(d)
        tab = Tableau(4, d)
        digest = hashlib.sha256()
        for _ in range(200):
            if rng.random() < 0.2:
                tab.measure_z(int(rng.integers(4)), rng)
            else:
                random_gate_walk(tab, rng, 1)
            digest.update(tab.to_array().tobytes())
        assert digest.hexdigest() == self.DIGESTS[d]


class TestGaussianOracle:
    """Independent deterministic-outcome computation."""

    def test_fresh_qudit(self):
        tab = Tableau(2, 3)
        flag, outcome = tab.deterministic_outcome_gaussian(0)
        assert flag and outcome == 0

    def test_fourier_state_random(self):
        tab = Tableau(1, 3)
        tab.apply_gate("F", 0)
        flag, _ = tab.deterministic_outcome_gaussian(0)
        assert not flag

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_agrees_with_measure_z(self, d):
        rng = np.random.default_rng(d)
        for seed in range(60):
            tab = Tableau(3, d)
            random_gate_walk(tab, np.random.default_rng(seed + 1000 * d), 30)
            j = int(rng.integers(3))
            flag, outcome = tab.deterministic_outcome_gaussian(j)
            rec = tab.measure_z(j, rng)
            assert rec.deterministic == flag
            if flag:
                assert rec.outcome == outcome

    @pytest.mark.parametrize("d", [3, 1048573])
    def test_agrees_with_measure_z_on_wide_registers(self, d):
        """12 qudits, up to the largest prime dimension: the prefix-sum
        cross term of a deterministic outcome stays exact in int64."""
        rng = np.random.default_rng(d)
        tab = Tableau(12, d)
        random_gate_walk(tab, rng, 200)
        deterministic = 0
        for j in rng.integers(12, size=60).tolist():
            flag, outcome = tab.deterministic_outcome_gaussian(j)
            rec = tab.measure_z(j, rng)
            assert rec.deterministic == flag
            if flag:
                assert rec.outcome == outcome
                deterministic += 1
            random_gate_walk(tab, rng, 2)
        assert deterministic >= 10

    def test_never_mutates(self):
        tab = Tableau(2, 3)
        tab.apply_gate("F", 0)
        tab.apply_gate("SUM", 0, 1)
        before = tab.to_array().copy()
        tab.deterministic_outcome_gaussian(1)
        assert np.array_equal(tab.to_array(), before)


def loop_outcome(tab, j):
    """Deterministic outcome by multiplying stabilizer powers one by one."""
    d, n = tab.d, tab.n
    y = [int(x) for x in tab.X[:n, j]]
    prod = PauliString.identity(n, tab.dimension)
    for k in range(n):
        prod = prod * tab.stabilizer(k).pow(y[k])
    return (-prod.r) % d


class TestDeterministicPhaseSum:
    """measure_z's vectorized phase sum equals the row-by-row product."""

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_matches_loop(self, d):
        rng = np.random.default_rng(100 + d)
        checked = scaled = 0
        for seed in range(40):
            tab = Tableau(4, d)
            for _ in range(6):
                random_gate_walk(tab, rng, 8)
                j = int(rng.integers(4))
                if not tab.X[4:, j].any():
                    want = loop_outcome(tab, j)
                    rec = tab.copy().measure_z(j, rng)
                    assert rec.deterministic and rec.outcome == want
                    checked += 1
                rec = tab.measure_z(j, rng)
                # a random measurement whose pivot swaps in as a proper power
                scaled += not rec.deterministic and tab.pivot[0][j] != 1
        assert checked > 20 and scaled > 5


class TestWidePrimePhases:
    """Phase sums on a wide prime, where a product of four residues would
    pass 2^63."""

    def test_repeated_measurements_agree(self):
        """Each qudit measured twice reads the same outcome twice, on
        Tableau and on WeylTableau alike."""
        d, n = 65537, 4
        gates = build_random_clifford_circuit(n, d, 40, np.random.default_rng(22))
        circuit = Circuit(n, d)
        for ins in gates.instructions:
            if ins.name != "M":
                circuit.add_gate(ins.name, *ins.qudits)
        for _ in range(2):
            for j in range(n):
                circuit.add_gate("M", j)
        tab = run_circuit(circuit, 3, 22, "tableau")
        weyl = run_circuit(circuit, 3, 22, "tableau",
                           initial_tableau=WeylTableau(n, d))
        assert tab.deterministic[n:].all()
        assert np.array_equal(tab.outcomes[:, :n], tab.outcomes[:, n:])
        assert np.array_equal(tab.outcomes, weyl.outcomes)


class TestDeterministicOracleEquality:
    """Deterministic outcomes equal the dense-state expectation."""

    @pytest.mark.parametrize("d", [3, 5])
    def test_three_way_agreement(self, d):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            tab = Tableau(3, d)
            gates = random_gate_walk(tab, rng, 25)
            state = dense_twin(3, d, gates)
            j = int(rng.integers(3))
            flag, outcome = tab.deterministic_outcome_gaussian(j)
            probs = state.outcome_distribution(j)
            if flag:
                assert probs[outcome] == pytest.approx(1.0, abs=1e-9)
            else:
                assert np.count_nonzero(probs > 1e-9) > 1


class TestReset:
    """RESET returns the qudit to |0>."""

    def test_reset_then_measure_zero(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            tab = Tableau(3, 3)
            random_gate_walk(tab, np.random.default_rng(seed), 25)
            tab.reset(1, rng)
            rec = tab.measure_z(1, rng)
            assert rec.deterministic and rec.outcome == 0
            tab.check_invariants()


class TestPauliError:
    """Injected errors check their qudit index."""

    @pytest.mark.parametrize("j", [-1, 2])
    def test_index_range(self, j):
        tab = Tableau(2, 3)
        with pytest.raises(ShapeError, match="out of range for n=2"):
            tab.apply_pauli_error(j, 1, 0)
        assert not tab.r.any()


class TestFromStabilizersRejects:
    """from_stabilizers refuses rows that do not fix one state."""

    @staticmethod
    def single(n, d=3, **exponents):
        return PauliString.single(n, Dimension(d), 0, **exponents)

    @pytest.mark.parametrize("case, match", [
        ("empty", "at least one stabilizer"),
        ("count", r"exactly n=2 stabilizers, got 1"),
        ("mixed_n", "disagree on qudit count or dimension"),
        ("mixed_d", "disagree on qudit count or dimension"),
        ("non_commuting", "do not commute"),
        ("dependent", "not independent"),
    ])
    def test_rejected(self, case, match):
        z0, x0 = self.single(2, z=1), self.single(2, x=1)
        rows = {
            "empty": [],
            "count": [z0],
            "mixed_n": [z0, self.single(3, z=1)],
            "mixed_d": [z0, self.single(2, d=5, z=1)],
            "non_commuting": [z0, x0],
            "dependent": [z0, self.single(2, z=2)],
        }[case]
        with pytest.raises(ShapeError, match=match):
            Tableau.from_stabilizers(rows)


class TestFromStabilizersRoundTrip:
    """A tableau rebuilt from the stabilizers of an arbitrary state fixes
    the same state: its destabilizers may differ, its outcomes may not."""

    @staticmethod
    def walk(tab, rng, depth):
        """Random gates with a measurement of a random qudit after about
        one gate in six; returns the (deterministic, outcome) records."""
        records = []
        for _ in range(depth):
            random_gate_walk(tab, rng, 1)
            if rng.random() < 1 / 6:
                rec = tab.measure_z(int(rng.integers(tab.n)), rng)
                records.append((rec.deterministic, rec.outcome))
        return records

    @pytest.mark.parametrize("d", [3, 5, 7, 65537])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_round_trip(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        tab = Tableau(n, d)
        self.walk(tab, rng, 12 * n)
        rebuilt = Tableau.from_stabilizers([tab.stabilizer(i) for i in range(n)])
        rebuilt.check_invariants()
        for block in ("X", "Z", "r"):
            assert np.array_equal(getattr(rebuilt, block)[n:],
                                  getattr(tab, block)[n:])
        for j in range(n):
            a, b = tab.copy().measure_z(j), rebuilt.copy().measure_z(j)
            assert (a.qudit, a.deterministic, a.outcome) == \
                   (b.qudit, b.deterministic, b.outcome)
        # the same later gates and measurements read the same records
        seed = int(rng.integers(2 ** 32))
        assert self.walk(tab, np.random.default_rng(seed), 12 * n) == \
               self.walk(rebuilt, np.random.default_rng(seed), 12 * n)
        assert np.array_equal(tab.to_array()[n:], rebuilt.to_array()[n:])

    @pytest.mark.parametrize("d", [3, 5, 7, 65537])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_computational_basis_is_the_fresh_tableau(self, n, d):
        zs = [PauliString.single(n, Dimension(d), j, z=1) for j in range(n)]
        rebuilt = Tableau.from_stabilizers(zs)
        fresh = Tableau(n, d)
        assert np.array_equal(rebuilt.to_array(), fresh.to_array())


class TestIntegerOperands:
    """Non-integer qudit counts, indices and exponents fail with ShapeError
    before any array is touched."""

    CASES = {
        "tableau_count": lambda: Tableau(2.5, 3),
        "weyl_count": lambda: WeylTableau(2.5, 4),
        "dense_count": lambda: DenseState(2.5, 3),
        "measure": lambda: Tableau(2, 3).measure_z(1.5),
        "reset": lambda: Tableau(2, 3).reset(1.5),
        "pauli_error": lambda: Tableau(2, 3).apply_pauli_error(1.5, 1, 0),
        "x_exponent": lambda: Tableau(2, 3).apply_pauli_error(0, 0.5, 0),
        "z_exponent": lambda: Tableau(2, 3).apply_pauli_error(0, 0, "x"),
        "weyl_x_exponent": lambda: WeylTableau(2, 4).apply_pauli_error(0, 2.5, 0),
        "weyl_z_exponent": lambda: WeylTableau(2, 4).apply_pauli_error(0, 0, None),
        "pauli_power": lambda: PauliString(Dimension(3), [2, 0], [0, 0]).pow(1.5),
        "gate": lambda: Tableau(2, 3).apply_gate("F", 1.0),
        "sum": lambda: Tableau(2, 3).apply_gate("SUM", 0, np.float64(1)),
        "weyl_measure": lambda: WeylTableau(2, 4).measure_z(1.5),
        "weyl_gate": lambda: WeylTableau(2, 4).apply_gate("P", 0.0),
        "dense_gate": lambda: DenseState(2, 3).apply_gate("F", 1.0),
        "dense_measure": lambda: DenseState(2, 3).measure_z(
            1.5, np.random.default_rng(0)),
        "dense_pauli_error": lambda: DenseState(2, 3).apply_pauli_error(
            0.5, 1, 0),
        "constant_value": lambda: build_deutsch_jozsa(3, True, 2.5),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_rejected(self, case):
        with pytest.raises(ShapeError, match="must be an integer"):
            self.CASES[case]()

    def test_integers_of_any_kind_pass(self):
        tab = Tableau(np.int64(2), 3)
        tab.apply_gate("SUM", np.int64(0), 1)
        assert tab.measure_z(np.int32(1)).qudit == 1
        assert Tableau(2.0, 3).n == 2


class TestOperationCounters:
    """Cost-model instrumentation."""

    def test_gate_log_is_linear(self):
        tab = Tableau(6, 3)
        tab.apply_gate("F", 0)
        assert tab.gate_op_log[-1] == 2 * 6
        tab.apply_gate("SUM", 0, 1)
        assert tab.gate_op_log[-1] == 4 * 6

    def test_measure_log_is_quadratic(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 8):
            tab = Tableau(n, 3)
            for j in range(n):
                tab.apply_gate("F", j)
            tab.measure_z(0, rng)
            assert tab.measure_op_log[-1] <= 8 * n * n

    def test_logs_grow_per_call(self):
        rng = np.random.default_rng(1)
        tab = Tableau(2, 3)
        tab.apply_gate("F", 0)
        tab.apply_gate("X", 1)
        tab.measure_z(0, rng)
        assert len(tab.gate_op_log) == 2
        assert len(tab.measure_op_log) == 1
