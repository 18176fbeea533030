"""Circuit representation and the SDIM text format.

An SDIM file is line oriented: a DIM header, a QUDITS header, then one
instruction per line.  '#' starts a comment.  Gate lines use the canonical
names of gates.py; H/H_INV and CNOT/CNOT_INV are accepted as aliases of
F/F_INV and SUM/SUM_INV on input and normalized on output.

    DIM 3
    QUDITS 2
    F 0          # Fourier gate
    SUM 0 1      # control first
    N1 0 d 0.1   # single-qudit noise: f=flip, p=phase, d=depolarizing
    M 0
    RESET 1

Parse errors carry 1-based line and column of the offending token.
round trip: parse_sdim(serialize_sdim(c)) equals c on (qudits, dimension,
instructions); metadata is emitted as comments and not recovered.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DimensionError, ParseError, ShapeError, integral
from .gates import GATE_ALIASES, GATE_ARITY, check_qudits, operand_error
from .noise import NOISE_KINDS
from .pauli import Dimension, _as_dimension

_ONE_QUDIT_OPS = ("M", "RESET", "N1")


@dataclass(frozen=True)
class Instruction:
    """One circuit step: a gate, M, RESET, or N1 with its channel and rate."""

    name: str
    qudits: tuple
    noise_channel: str = None
    prob: float = None

    def __str__(self) -> str:
        body = " ".join(str(q) for q in self.qudits)
        if self.name == "N1":
            return f"N1 {body} {self.noise_channel} {self.prob!r}"
        return f"{self.name} {body}"


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement result.

    seq is the 0-based position of the measurement in program order, so
    sequence numbers are strictly increasing per qudit.  deterministic is
    true when the outcome was fully fixed by the state (given all earlier
    outcomes of the same shot).
    """

    qudit: int
    seq: int
    deterministic: bool
    outcome: int


def _convert(kind, value, operand: int, what: str):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise operand_error(f"{what}, got {value!r}", operand) from None


class Circuit:
    """An ordered list of instructions on num_qudits qudits of dimension d."""

    def __init__(self, num_qudits: int, dimension):
        dim = _as_dimension(dimension)
        num_qudits = integral(num_qudits, "qudit count", ShapeError, minimum=1)
        self.num_qudits = num_qudits
        self.dimension = dim
        self.instructions: list[Instruction] = []
        self.metadata: dict = {}

    def add_gate(self, name: str, *qudits: int, noise_channel: str = None,
                 prob: float = None) -> "Circuit":
        """Append an instruction; accepts gate names, aliases, M, RESET, N1.

        Qudits are converted with integral(), probabilities with float().
        A rejected instruction raises ShapeError whose operand attribute
        indexes the token at fault in SDIM order: 0 for the name, then the
        qudits, the noise channel and the probability.
        """
        name = GATE_ALIASES.get(name, name)
        if name not in GATE_ARITY and name not in _ONE_QUDIT_OPS:
            raise operand_error(f"unknown instruction name {name!r}", 0)
        arity = GATE_ARITY.get(name, 1)
        if len(qudits) == arity:  # else check_qudits reports the arity first
            qudits = tuple(_convert(integral, q, k, "qudit index must be an integer")
                           for k, q in enumerate(qudits, 1))
        check_qudits(name, arity, qudits, self.num_qudits)
        if name == "N1":
            if noise_channel not in NOISE_KINDS:
                raise operand_error(
                    f"noise channel must be one of {NOISE_KINDS}, "
                    f"got {noise_channel!r}", 2)
            prob = _convert(float, prob, 3, "noise probability must be a number")
            if not 0.0 <= prob <= 1.0:
                raise operand_error(
                    f"noise probability {prob} outside [0, 1]", 3)
        elif noise_channel is not None or prob is not None:
            raise operand_error(f"{name} does not take noise arguments", 0)
        self.instructions.append(Instruction(name, qudits, noise_channel, prob))
        return self

    @property
    def num_measurements(self) -> int:
        return sum(1 for ins in self.instructions if ins.name == "M")

    def copy(self) -> "Circuit":
        out = Circuit(self.num_qudits, self.dimension)
        out.instructions = list(self.instructions)
        out.metadata = dict(self.metadata)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.num_qudits == other.num_qudits
                and self.dimension.d == other.dimension.d
                and self.instructions == other.instructions)

    def __repr__(self) -> str:
        return (f"Circuit(n={self.num_qudits}, d={self.dimension.d}, "
                f"{len(self.instructions)} instructions)")


def serialize_sdim(circuit: Circuit, include_metadata: bool = True) -> str:
    lines = []
    if include_metadata:
        lines += [f"# {key}: {value}" for key, value in circuit.metadata.items()]
    lines.append(f"DIM {circuit.dimension.d}")
    lines.append(f"QUDITS {circuit.num_qudits}")
    lines += [str(ins) for ins in circuit.instructions]
    return "\n".join(lines) + "\n"


def _tokens_with_columns(line: str):
    code = line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", code)]


def _parse_int(token: str, line_no: int, col: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, col, f"{what} must be an integer, got {token!r}")


def parse_sdim(text: str) -> Circuit:
    """Parse SDIM text into a Circuit; raises ParseError with line/column."""
    dim = None
    circuit = None
    saw_any = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        toks = _tokens_with_columns(line)
        if not toks:
            continue
        saw_any = True
        (head, head_col) = toks[0]
        if circuit is None:
            key, what, low = (("DIM", "dimension", 2) if dim is None
                              else ("QUDITS", "qudit count", 1))
            if head != key:
                raise ParseError(line_no, head_col, f"expected {key} header, got {head!r}")
            if len(toks) != 2:
                raise ParseError(line_no, head_col, f"{key} takes exactly one value")
            value = _parse_int(toks[1][0], line_no, toks[1][1], what)
            if value < low:
                raise ParseError(line_no, toks[1][1], f"{what} must be >= {low}, got {value}")
            if dim is not None:
                circuit = Circuit(value, dim)
                continue
            try:
                dim = Dimension(value)
            except DimensionError as exc:
                raise ParseError(line_no, toks[1][1], str(exc))
            continue

        operands = [tok for tok, _ in toks[1:]]
        channel = prob = None
        if head == "N1":
            if len(operands) < 3:
                raise ParseError(line_no, head_col,
                                 "N1 takes qudit, channel and probability")
            *operands, channel, prob = operands
        try:
            circuit.add_gate(head, *operands, noise_channel=channel, prob=prob)
        except ShapeError as exc:
            col = toks[min(exc.operand, len(toks) - 1)][1]
            raise ParseError(line_no, col, str(exc))
    if circuit is None:
        if saw_any:
            raise ParseError(1, 1, "missing QUDITS header")
        raise ParseError(1, 1, "empty input: missing DIM header")
    return circuit
