"""Qudit stabilizer circuit simulation.

Exact Clifford tableau evolution and measurement for odd prime dimensions,
a Weyl-operator path for every other dimension (including qubits), dense
statevector cross-checking, probabilistic Pauli noise, Pauli-frame Monte
Carlo sampling, and validation/benchmarking experiments, all behind one
circuit representation with a plain text format.
"""

from .builders import (build_bernstein_vazirani, build_deutsch_jozsa,
                       build_ghz_chain, build_local_gate_test,
                       build_random_clifford_circuit,
                       expected_deutsch_jozsa_outcome)
from .circuit import (Circuit, Instruction, MeasurementRecord, parse_sdim,
                      serialize_sdim)
from .errors import (BlockFormatError, DimensionError, MemoryCapError,
                     ParseError, PauliMatchError, QuditSimError, ShapeError,
                     SupportMismatchError)
from .experiments import (DetectionCode, OutcomeDistribution, RBConfig,
                          build_rb_circuit, build_syndrome_gadget,
                          channel_distribution_test, code_initial_tableau,
                          qutrit_detection_code, rb_fidelity, run_lrb_d,
                          run_rb, tvd, validate_backend_pair)
from .frames import FrameSimulator, outcome_law, reference_run
from .noise import error_distribution, sample_error
from .pauli import Dimension, PauliString, is_prime
from .simulate import METHODS, SimulationResult, run_circuit
from .snf import (SNFResult, integer_determinant, kernel_integer, kernel_mod,
                  smith_normal_form, solve_integer, solve_mod)
from .statevector import (DEFAULT_AMPLITUDE_CAP, DenseState, conjugate_pauli,
                          gate_matrix, pauli_matrix, stabilizer_check)
from .tableau import Tableau
from .weyl import WeylTableau

__version__ = "0.1.0"

__all__ = [
    "BlockFormatError", "Circuit", "DEFAULT_AMPLITUDE_CAP", "DenseState",
    "DetectionCode", "Dimension", "DimensionError", "FrameSimulator",
    "Instruction", "METHODS", "MeasurementRecord", "MemoryCapError",
    "OutcomeDistribution", "ParseError", "PauliMatchError", "PauliString",
    "QuditSimError", "RBConfig", "SNFResult", "ShapeError",
    "SimulationResult", "SupportMismatchError", "Tableau", "WeylTableau",
    "build_bernstein_vazirani", "build_deutsch_jozsa", "build_ghz_chain",
    "build_local_gate_test", "build_random_clifford_circuit",
    "build_rb_circuit", "build_syndrome_gadget",
    "channel_distribution_test", "code_initial_tableau", "conjugate_pauli",
    "error_distribution", "expected_deutsch_jozsa_outcome", "gate_matrix",
    "integer_determinant", "is_prime", "kernel_integer", "kernel_mod",
    "outcome_law", "parse_sdim", "pauli_matrix", "qutrit_detection_code",
    "rb_fidelity", "reference_run", "run_circuit", "run_lrb_d", "run_rb",
    "sample_error", "serialize_sdim", "smith_normal_form", "solve_integer",
    "solve_mod", "stabilizer_check", "tvd", "validate_backend_pair",
    "__version__",
]
