"""Tests for the circuit IR and the SDIM text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsim.circuit import (
    GATE_ALIASES,
    GATE_ARITY,
    Circuit,
    Instruction,
    MeasurementRecord,
    parse_sdim,
    serialize_sdim,
)
from quditsim.errors import ParseError, ShapeError


class TestCircuitBuild:
    """Programmatic construction."""

    def test_gate_arity_checked(self):
        c = Circuit(2, 3)
        c.add_gate("H", 0)
        c.add_gate("SUM", 0, 1)
        with pytest.raises(ShapeError):
            c.add_gate("H", 0, 1)
        with pytest.raises(ShapeError):
            c.add_gate("SUM", 0)

    def test_indices_validated(self):
        c = Circuit(2, 3)
        with pytest.raises(ShapeError):
            c.add_gate("X", 5)
        with pytest.raises(ShapeError):
            c.add_gate("SUM", 1, 1)

    def test_fractional_qudit_count_rejected(self):
        with pytest.raises(ShapeError, match="qudit count must be an integer"):
            Circuit(2.5, 3)
        for n in (2.0, np.int64(2)):
            assert type(Circuit(n, 3).num_qudits) is int

    def test_fractional_qudit_index_rejected(self):
        """1.7 is refused at its operand; integral floats, numpy integers
        and the parser's integer strings name their qudit."""
        c = Circuit(2, 3)
        with pytest.raises(ShapeError, match="qudit index must be an integer") as exc:
            c.add_gate("M", 1.7)
        assert exc.value.operand == 1
        for q in (1.0, np.int64(1), "1"):
            c.add_gate("M", q)
        assert [ins.qudits for ins in c.instructions] == [(1,)] * 3

    def test_aliases_normalized(self):
        c = Circuit(2, 3)
        c.add_gate("H", 0)
        c.add_gate("CNOT", 0, 1)
        names = [ins.name for ins in c.instructions]
        assert names == ["F", "SUM"]
        assert GATE_ALIASES["CNOT"] == "SUM"
        assert GATE_ARITY["SUM"] == 2

    def test_noise_args_required(self):
        c = Circuit(1, 3)
        c.add_gate("N1", 0, noise_channel="d", prob=0.1)
        with pytest.raises(ShapeError):
            c.add_gate("N1", 0)
        with pytest.raises(ShapeError):
            c.add_gate("N1", 0, noise_channel="q", prob=0.1)
        with pytest.raises(ShapeError):
            c.add_gate("N1", 0, noise_channel="d", prob=1.5)

    def test_noise_probability_required(self):
        with pytest.raises(ShapeError):
            Circuit(1, 3).add_gate("N1", 0, noise_channel="d")

    def test_num_measurements(self):
        c = Circuit(2, 3)
        c.add_gate("M", 0)
        c.add_gate("RESET", 1)
        c.add_gate("M", 1)
        assert c.num_measurements == 2

    def test_copy_is_independent(self):
        c = Circuit(1, 3)
        c.add_gate("X", 0)
        c2 = c.copy()
        c2.add_gate("M", 0)
        assert len(c.instructions) == 1
        assert len(c2.instructions) == 2


class TestMeasurementRecord:
    """Record value type."""

    def test_fields(self):
        rec = MeasurementRecord(qudit=1, seq=0, deterministic=True, outcome=2)
        assert rec.qudit == 1 and rec.seq == 0
        assert rec.deterministic and rec.outcome == 2

    def test_frozen(self):
        rec = MeasurementRecord(0, 0, False, 1)
        with pytest.raises(Exception):
            rec.outcome = 0


class TestParse:
    """SDIM text parsing."""

    def test_deutsch_jozsa_identity_program(self):
        text = "DIM 3\nQUDITS 2\nH 0\nX 1\nH 1\nCNOT 0 1\nH_INV 0\nM 0\n"
        c = parse_sdim(text)
        assert int(c.dimension) == 3
        assert c.num_qudits == 2
        names = [ins.name for ins in c.instructions]
        assert names == ["F", "X", "F", "SUM", "F_INV", "M"]

    def test_noise_line(self):
        c = parse_sdim("DIM 3\nQUDITS 1\nN1 0 d 0.01\nM 0\n")
        noise = c.instructions[0]
        assert noise.name == "N1"
        assert noise.noise_channel == "d"
        assert noise.prob == pytest.approx(0.01)

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_sdim("DIM 1\nQUDITS 1\n")
        assert err.value.line == 1

    def test_comments_and_blank_lines(self):
        text = "# header\nDIM 3\n\nQUDITS 1  # width\nX 0 # shift\nM 0\n"
        c = parse_sdim(text)
        assert [ins.name for ins in c.instructions] == ["X", "M"]

    def test_missing_trailing_newline_ok(self):
        c = parse_sdim("DIM 3\nQUDITS 1\nM 0")
        assert c.num_measurements == 1

    def test_unknown_gate_diagnostics(self):
        with pytest.raises(ParseError) as err:
            parse_sdim("DIM 3\nQUDITS 1\nBOGUS 0\n")
        assert err.value.line == 3
        assert err.value.column == 1

    def test_bad_arity_diagnostics(self):
        with pytest.raises(ParseError) as err:
            parse_sdim("DIM 3\nQUDITS 2\nSUM 0\n")
        assert err.value.line == 3

    def test_out_of_range_index(self):
        with pytest.raises(ParseError):
            parse_sdim("DIM 3\nQUDITS 1\nX 4\n")

    def test_header_order_enforced(self):
        with pytest.raises(ParseError):
            parse_sdim("QUDITS 1\nDIM 3\n")
        with pytest.raises(ParseError):
            parse_sdim("DIM 3\nX 0\n")

    @pytest.mark.parametrize("line, column", [
        ("BOGUS 0", 1),        # unknown name
        ("SUM 0", 1),          # wrong arity
        ("X 0 1", 1),
        ("X 4", 3),            # index out of range
        ("SUM 0 5", 7),
        ("N1 4 d 0.1", 4),
        ("SUM 1 1", 7),        # operands not distinct
        ("N1 0 q 0.5", 6),     # bad channel
        ("N1 0 d 1.5", 8),     # probability out of range
        ("N1 0 d -0.1", 8),
        ("X a", 3),            # non-integer index
        ("SUM 0 b", 7),
    ])
    def test_error_position(self, line, column):
        with pytest.raises(ParseError) as err:
            parse_sdim("DIM 3\nQUDITS 2\n" + line + "\n")
        assert (err.value.line, err.value.column) == (3, column)

    @pytest.mark.parametrize("text, position, match", [
        ("DIM 3 4\nQUDITS 1\n", (1, 1), "DIM takes exactly one value"),
        ("DIM x\nQUDITS 1\n", (1, 5), "dimension must be an integer"),
        ("DIM 2000000\nQUDITS 1\n", (1, 5), "2000000"),
        ("DIM 3\nQUDITS 1\nN1 0 d\n", (3, 1),
         "N1 takes qudit, channel and probability"),
        ("# only a comment\nDIM 3\n", (1, 1), "missing QUDITS header"),
    ], ids=["two_values", "not_integer", "too_large", "short_n1",
            "no_qudits"])
    def test_header_and_n1_errors(self, text, position, match):
        with pytest.raises(ParseError, match=match) as err:
            parse_sdim(text)
        assert (err.value.line, err.value.column) == position

    def test_bad_probability(self):
        with pytest.raises(ParseError):
            parse_sdim("DIM 3\nQUDITS 1\nN1 0 d 1.5\n")
        with pytest.raises(ParseError):
            parse_sdim("DIM 3\nQUDITS 1\nN1 0 q 0.5\n")


class TestRoundTrip:
    """parse(serialize(c)) == c."""

    SINGLE = [name for name, k in GATE_ARITY.items()
              if k == 1 and name not in ("N1",)]

    def test_simple_round_trip(self):
        c = Circuit(3, 5)
        c.add_gate("F", 0)
        c.add_gate("SUM", 0, 2)
        c.add_gate("N1", 1, noise_channel="p", prob=0.25)
        c.add_gate("RESET", 1)
        c.add_gate("M", 2)
        assert parse_sdim(serialize_sdim(c)) == c

    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 4, 5, 7]),
           st.integers(1, 5), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_random_round_trip(self, seed, d, n, depth):
        rng = np.random.default_rng(seed)
        c = Circuit(n, d)
        for _ in range(depth):
            roll = rng.random()
            if roll < 0.7 or n == 1:
                c.add_gate(str(rng.choice(self.SINGLE)),
                           int(rng.integers(n)))
            elif roll < 0.85:
                a, b = rng.choice(n, size=2, replace=False)
                c.add_gate("SUM", int(a), int(b))
            else:
                c.add_gate("N1", int(rng.integers(n)),
                           noise_channel=str(rng.choice(["f", "p", "d"])),
                           prob=float(np.round(rng.random(), 6)))
        assert parse_sdim(serialize_sdim(c)) == c

    @given(st.text(max_size=200))
    @settings(max_examples=120, deadline=None)
    def test_parser_never_crashes(self, text):
        # arbitrary input either parses or raises ParseError, nothing else
        try:
            parse_sdim(text)
        except ParseError as err:
            assert err.line >= 1


class TestInstruction:
    """Instruction display."""

    def test_str_forms(self):
        assert str(Instruction("SUM", (0, 1))) == "SUM 0 1"
        assert str(Instruction("N1", (2,), noise_channel="d",
                               prob=0.125)) == "N1 2 d 0.125"
