"""Validation and benchmarking procedures built on the simulators.

Four groups of tools:

- outcome distributions and total variation distance, with a backend
  cross-validation harness that compares per-measurement marginals;
- single-qudit noise channel distribution tests against closed-form
  references;
- randomized benchmarking on one qudit: random generator-set Clifford
  sequences, noiseless inversion, omega-weighted fidelity, and a log-linear
  decay fit;
- a five-qutrit distance-2 detection code with syndrome-extraction gadgets
  and a logical benchmarking variant: rounds of Pauli noise on the encoded
  state, postselected on clean syndromes.

Every experiment returns its report as a dict and writes no files; the
command line (cli.py) writes the CSV and manifest files.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .circuit import Circuit
from .errors import DimensionError, ShapeError, SupportMismatchError, integral
from .frames import _outcome_laws, compile_circuit
from .gates import GATES, SINGLE_QUDIT_GATES
from .pauli import Dimension, PauliString, _as_dimension
from .simulate import _check_method_pair, run_circuit
from .tableau import Tableau


# -- distributions and TVD -----------------------------------------------------

@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities per outcome label (ints) or per outcome tuple."""

    d: int
    probs: dict

    def __post_init__(self):
        total = 0.0
        for label, p in self.probs.items():
            if p < -1e-12:
                raise ShapeError(f"negative probability {p} at label {label!r}")
            total += p
        if self.probs and abs(total - 1.0) > 1e-9:
            raise ShapeError(f"probabilities sum to {total}, not 1")

    @classmethod
    def from_counts(cls, counts: dict, d: int) -> "OutcomeDistribution":
        total = sum(counts.values())
        if total <= 0:
            raise ShapeError("counts are empty")
        return cls(d, {k: v / total for k, v in counts.items() if v})

    def prob(self, label) -> float:
        return self.probs.get(label, 0.0)


def _label_formats(dist: OutcomeDistribution) -> set:
    kinds = set()
    for label in dist.probs:
        if isinstance(label, tuple):
            kinds.add(("tuple", len(label)))
        elif isinstance(label, (int, np.integer)):
            kinds.add(("scalar",))
        else:
            raise SupportMismatchError(f"unsupported label type {type(label)!r}")
    return kinds


def tvd(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Total variation distance: half the L1 difference over the label union."""
    if p.d != q.d:
        raise SupportMismatchError(f"dimension mismatch: {p.d} vs {q.d}")
    fp, fq = _label_formats(p), _label_formats(q)
    if fp and fq and fp != fq:
        raise SupportMismatchError(f"label formats differ: {fp} vs {fq}")
    labels = set(p.probs) | set(q.probs)
    return 0.5 * sum(abs(p.prob(k) - q.prob(k)) for k in labels)


def per_slot_distributions(outcomes, d: int) -> list:
    """One empirical OutcomeDistribution per column of a (shots, M) outcome
    array.  Labels keep the order of their first appearance."""
    outs = np.asarray(outcomes, dtype=np.int64)
    if len(outs) == 0:
        return []
    dists = []
    for column in outs.T:
        labels, first, counts = np.unique(column, return_index=True,
                                          return_counts=True)
        order = np.argsort(first)
        dists.append(OutcomeDistribution.from_counts(
            dict(zip(labels[order].tolist(), counts[order].tolist())), d))
    return dists


def mean_slot_tvd(outcomes_a, outcomes_b, d: int) -> float:
    """Mean per-slot TVD between two outcome arrays with the same slots."""
    da = per_slot_distributions(outcomes_a, d)
    db = per_slot_distributions(outcomes_b, d)
    if len(da) != len(db):
        raise SupportMismatchError(
            f"outcome shapes differ: {len(da)} vs {len(db)} slots")
    scores = [tvd(a, b) for a, b in zip(da, db)]
    return float(np.mean(scores)) if scores else 0.0


def validate_backend_pair(circuits, method_a: str, method_b: str, shots: int,
                          threshold: float, seed=None,
                          threads: int = None) -> dict:
    """Compare two backends on a circuit corpus by per-slot marginal TVD.

    Each circuit is sampled once per backend with independent derived seeds;
    its score is the mean TVD across measurement slots, compared against the
    threshold.  The mean is used rather than the max because at finite shot
    budgets the max over many uniform slots sits on the sampling noise floor
    even for identical distributions, while any real propagation bug corrupts
    most slots and moves the mean far above any plausible threshold.
    A pair that names one sampler twice (tableau and frames) raises
    ValueError, since it passes whatever that sampler does.
    """
    _check_method_pair(method_a, method_b)
    if len(circuits) == 0:
        raise ShapeError("validate_backend_pair needs at least one circuit")
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(2 * len(circuits))
    rows = []
    for i, circuit in enumerate(circuits):
        res_a = run_circuit(circuit, shots, children[2 * i], method_a,
                            threads=threads)
        res_b = run_circuit(circuit, shots, children[2 * i + 1], method_b,
                            threads=threads)
        score = mean_slot_tvd(res_a.outcomes, res_b.outcomes,
                              circuit.dimension.d)
        rows.append({
            "index": i,
            "family": circuit.metadata.get("family", ""),
            "dimension": circuit.dimension.d,
            "qudits": circuit.num_qudits,
            "tvd": score,
            "passed": bool(score < threshold),
        })
    return {
        "method_a": method_a,
        "method_b": method_b,
        "shots": shots,
        "threshold": threshold,
        "circuits": len(circuits),
        "per_circuit": rows,
        "max_tvd": max(r["tvd"] for r in rows),
        "all_passed": all(r["passed"] for r in rows),
    }


# -- channel distribution tests ------------------------------------------------

_KIND_ALIASES = {"flip": "f", "phase": "p", "depolarizing": "d",
                 "f": "f", "p": "p", "d": "d"}


def _channel_kind(kind: str) -> str:
    """The one-letter channel code for a channel name or alias."""
    if kind not in _KIND_ALIASES:
        raise ShapeError(f"noise channel must be one of {tuple(_KIND_ALIASES)}, "
                         f"got {kind!r}")
    return _KIND_ALIASES[kind]


def channel_reference_distribution(kind: str, d: int, p: float) -> OutcomeDistribution:
    """Closed-form outcome distribution for one channel event on |0>."""
    kind = _channel_kind(kind)
    if kind == "d":
        q0 = (1 - p) + (d - 1) * p / (d * d - 1)
        qk = d * p / (d * d - 1)
    else:
        q0 = 1 - p
        qk = p / (d - 1)
    probs = {0: q0}
    for k in range(1, d):
        probs[k] = qk
    return OutcomeDistribution(d, probs)


def build_channel_test_circuit(kind: str, d, p: float) -> Circuit:
    """One channel event on |0>, read out in the basis where it shows."""
    kind = _channel_kind(kind)
    circuit = Circuit(1, d)
    if kind == "p":
        # a phase kick is invisible to Z readout; conjugate into the X basis
        circuit.add_gate("F", 0)
        circuit.add_gate("N1", 0, noise_channel=kind, prob=p)
        circuit.add_gate("F_INV", 0)
    else:
        circuit.add_gate("N1", 0, noise_channel=kind, prob=p)
    circuit.add_gate("M", 0)
    return circuit


def channel_distribution_test(kind: str, d, p: float, shots: int, seed=None,
                              method: str = "tableau",
                              threshold: float = 0.02) -> dict:
    """Empirical channel outcome distribution versus its closed form."""
    dim = _as_dimension(d)
    circuit = build_channel_test_circuit(kind, dim, p)
    result = run_circuit(circuit, shots, seed, method)
    empirical = per_slot_distributions(result.outcomes, dim.d)[0]
    reference = channel_reference_distribution(kind, dim.d, p)
    score = tvd(empirical, reference)
    return {
        "kind": _KIND_ALIASES[kind],
        "dimension": dim.d,
        "prob": p,
        "shots": shots,
        "method": method,
        "empirical": {k: empirical.prob(k) for k in range(dim.d)},
        "reference": {k: reference.prob(k) for k in range(dim.d)},
        "tvd": score,
        "threshold": threshold,
        "passed": bool(score < threshold),
    }


# -- randomized benchmarking ---------------------------------------------------

@dataclass(frozen=True)
class RBConfig:
    """Single-qudit benchmarking run: depths, corpus size, shots, error rate."""

    d: int
    depths: tuple
    circuits_per_depth: int
    shots: int
    p: float

    def __post_init__(self):
        depths = tuple(integral(D, "depth", ShapeError, minimum=0)
                       for D in self.depths)
        if len(depths) == 0:
            raise ShapeError("depths must not be empty")
        object.__setattr__(self, "depths", depths)
        for name in ("circuits_per_depth", "shots"):
            object.__setattr__(self, name, integral(getattr(self, name), name,
                                                    ShapeError, minimum=1))
        try:
            object.__setattr__(self, "p", float(self.p))
        except (TypeError, ValueError):
            raise ShapeError(f"p must be a number, got {self.p!r}") from None
        if not 0.0 <= self.p <= 1.0:
            raise ShapeError("p must lie in [0, 1]")


def rb_fidelity(dist: OutcomeDistribution) -> float:
    """Modulus of the omega-weighted outcome sum, in [0, 1]."""
    omega = np.exp(2j * np.pi / dist.d)
    total = 0j
    for label, p in dist.probs.items():
        if not isinstance(label, (int, np.integer)) or not 0 <= label < dist.d:
            raise ShapeError(f"labels must lie in 0..{dist.d - 1}, got {label!r}")
        total += p * omega ** int(label)
    return float(min(abs(total), 1.0))


def build_rb_circuit(d, depth: int, p: float, rng: np.random.Generator) -> Circuit:
    """depth random generator gates with a channel event after each, the
    noiseless reversed-inverse block, one more channel event, and a readout."""
    depth = integral(depth, "depth", ShapeError, minimum=0)
    circuit = Circuit(1, d)
    names = [str(g) for g in rng.choice(SINGLE_QUDIT_GATES, size=depth)]
    for name in names:
        circuit.add_gate(name, 0)
        circuit.add_gate("N1", 0, noise_channel="d", prob=p)
    for name in reversed(names):
        circuit.add_gate(GATES[name].inverse, 0)
    circuit.add_gate("N1", 0, noise_channel="d", prob=p)
    circuit.add_gate("M", 0)
    circuit.metadata["family"] = f"rb_d{_as_dimension(d).d}_depth{depth}"
    return circuit


def _fit_decay(depths, means):
    """Log-linear least squares of f(D) = B * alpha^D on positive means,
    which needs two distinct depths."""
    usable = [(D, m) for D, m in zip(depths, means)
              if m is not None and m > 1e-3]
    distinct = len({D for D, _ in usable})
    if distinct < 2:
        return {"ok": False, "alpha": None, "B": None,
                "reason": f"only {distinct} usable depths"}
    xs = np.array([D for D, _ in usable], dtype=float)
    ys = np.log(np.array([m for _, m in usable], dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    return {"ok": True, "alpha": float(np.exp(slope)),
            "B": float(np.exp(intercept)), "reason": ""}


def _sweep(cfg: RBConfig, seed, sampler, score) -> list:
    """Per depth, (depth, scores of its cfg.circuits_per_depth circuits).

    sampler(depth) returns the depth's sample(build_seed, run_seed) for
    one circuit's cfg.shots shots.  Each circuit spawns two seed
    children, samples with them, and is scored as score(sample) before
    the next is sampled.
    """
    ss = np.random.SeedSequence(seed)

    def one(sample):
        return score(sample(*ss.spawn(2)))

    return [(depth, [one(sample) for _ in range(cfg.circuits_per_depth)])
            for depth in cfg.depths for sample in (sampler(depth),)]


def _depth_row(depth: int, fidelities) -> dict:
    """depth with the mean fidelity and its standard error; both are None
    without fidelities, and the error is 0.0 with one."""
    arr = np.array(fidelities)
    return {
        "depth": depth,
        "mean_fidelity": float(arr.mean()) if len(arr) else None,
        "stderr": float(arr.std(ddof=1) / math.sqrt(len(arr)))
        if len(arr) > 1 else (0.0 if len(arr) else None),
    }


def run_rb(cfg: RBConfig, seed=None, method: str = "frames",
           threads: int = None) -> dict:
    """Mean fidelity per depth plus a decay fit f(D) = B * alpha^D."""
    sweep = _sweep(
        cfg, seed, lambda depth: lambda build_seed, run_seed: run_circuit(
            build_rb_circuit(cfg.d, depth, cfg.p, np.random.Generator(
                np.random.PCG64(build_seed))), cfg.shots, run_seed,
            method, threads=threads).outcomes,
        lambda outcomes: rb_fidelity(per_slot_distributions(outcomes, cfg.d)[0]))
    per_depth = [{**_depth_row(depth, fidelities), "survivor_fraction": 1.0,
                  "fidelities": [float(f) for f in fidelities]}
                 for depth, fidelities in sweep]
    fit = _fit_decay([row["depth"] for row in per_depth],
                     [row["mean_fidelity"] for row in per_depth])
    return {
        "experiment": "rb",
        "config": asdict(cfg),
        "seed": seed,
        "method": method,
        "per_depth": per_depth,
        "alpha": fit["alpha"],
        "B": fit["B"],
        "fit_ok": fit["ok"],
        "fit_reason": fit["reason"],
    }


# -- detection code ------------------------------------------------------------

@dataclass(frozen=True)
class DetectionCode:
    """A stabilizer detection code on n data qudits with one logical qudit."""

    n: int
    d: int
    stabilizers: tuple
    logical_x: PauliString
    logical_z: PauliString

    def __post_init__(self):
        fields = [(f"stabilizers[{i}]", g)
                  for i, g in enumerate(self.stabilizers)]
        for name, p in fields + [("logical_x", self.logical_x),
                                 ("logical_z", self.logical_z)]:
            if p.n != self.n or p.dimension.d != self.d:
                raise ShapeError(
                    f"{name} acts on {p.n} qudits of dimension "
                    f"{p.dimension.d}, but the code has n={self.n}, d={self.d}")
        for i, gi in enumerate(self.stabilizers):
            for gj in self.stabilizers[i + 1:]:
                c = gi.commutation_exponent(gj)
                if c != 0:
                    raise ShapeError(f"stabilizers do not commute (exponent {c})")
            if self.logical_x.commutation_exponent(gi) != 0 or \
               self.logical_z.commutation_exponent(gi) != 0:
                raise ShapeError("logical operators must commute with stabilizers")
        if self.logical_x.commutation_exponent(self.logical_z) % self.d != 1:
            raise ShapeError("logical pair must satisfy c(Lx, Lz) = 1")


def qutrit_detection_code() -> DetectionCode:
    """Five-qutrit distance-2 detection code on data qudits 0..4: two Z-type
    and two X-type stabilizers, logical X = X^2 I I X^2 I and logical
    Z = Z I Z I I."""
    zero = [0] * 5

    def z_string(z):
        return PauliString(Dimension(3), zero, z)

    def x_string(x):
        return PauliString(Dimension(3), x, zero)

    stabilizers = (z_string([1, -1, 0, -1, 0]), z_string([0, 1, 1, 0, -1]),
                   x_string([1, 1, -1, 0, 0]), x_string([0, -1, 0, 1, -1]))
    return DetectionCode(5, 3, stabilizers, x_string([2, 0, 0, 2, 0]),
                         z_string([1, 0, 1, 0, 0]))


def _pauli_power_gates(circuit: Circuit, gate: str, inv: str, power: int,
                       d: int, *qudits) -> None:
    """Append gate^power on qudits, or inv^(d - power) when that is shorter."""
    power %= d
    name, count = (gate, power) if power <= d - power else (inv, d - power)
    for _ in range(count):
        circuit.add_gate(name, *qudits)


def build_syndrome_gadget(pauli: PauliString, ancilla: int = None) -> Circuit:
    """Non-destructive eigenvalue-exponent readout of a Pauli Q = w^r X^x Z^z.

    The ancilla (default: one fresh qudit appended after the data register)
    is prepared with F, controls Q, is rotated back with F_INV and measured;
    on an eigenstate of Q with eigenvalue w^s it reads s, and the data
    state is untouched.  The controlled Pauli sum_k |k><k| (x) Q^k is
    written factor by factor in closed form.  On qudit q with factor
    X^a Z^b, in this order:

    - controlled Z^b is SUM(anc, q)^b conjugated by the Fourier gate
      (F_INV q, the SUM power, F q);
    - controlled X^a is SUM(anc, q)^a;
    - P^(ab) on the ancilla, because these two give X^(ak) Z^(bk) on
      control value k, while (X^a Z^b)^k = w^(ab k(k-1)/2) X^(ak) Z^(bk)
      and P = diag(w^(k(k-1)/2)).

    Z^r on the ancilla then adds the phase w^(rk).  Every power is written
    as gate^m or as the inverse gate^(d-m), whichever is shorter.
    """
    dim = pauli.dimension
    if not dim.is_odd_prime:
        raise DimensionError(
            f"syndrome gadgets require an odd prime dimension, got d={dim.d}")
    d, n = dim.d, pauli.n
    anc = n if ancilla is None else integral(ancilla, "ancilla", ShapeError)
    if anc < n:
        raise ShapeError(f"ancilla index {anc} collides with the data register")
    circuit = Circuit(anc + 1, dim)
    circuit.add_gate("F", anc)
    for q in range(n):
        a, b = int(pauli.x[q]), int(pauli.z[q])
        if b % d:
            circuit.add_gate("F_INV", q)
            _pauli_power_gates(circuit, "SUM", "SUM_INV", b, d, anc, q)
            circuit.add_gate("F", q)
        _pauli_power_gates(circuit, "SUM", "SUM_INV", a, d, anc, q)
        _pauli_power_gates(circuit, "P", "P_INV", a * b, d, anc)
    _pauli_power_gates(circuit, "Z", "Z_INV", int(pauli.r), d, anc)
    circuit.add_gate("F_INV", anc)
    circuit.add_gate("M", anc)
    circuit.metadata["family"] = f"syndrome_gadget_{pauli}"
    return circuit


# -- logical benchmarking with detection ---------------------------------------

def _pad_pauli(p: PauliString, n: int) -> PauliString:
    x = np.zeros(n, dtype=np.int64)
    z = np.zeros(n, dtype=np.int64)
    x[:p.n] = p.x
    z[:p.n] = p.z
    return PauliString(p.dimension, x, z, int(p.r))


def code_initial_tableau(code: DetectionCode) -> Tableau:
    """Logical |0> of the code, plus one ancilla in |0>, as a tableau."""
    n = code.n + 1
    stabs = [_pad_pauli(g, n) for g in code.stabilizers]
    stabs.append(_pad_pauli(code.logical_z, n))
    anc_z = np.zeros(n, dtype=np.int64)
    anc_z[code.n] = 1
    stabs.append(PauliString(Dimension(code.d), np.zeros(n, dtype=np.int64),
                             anc_z))
    return Tableau.from_stabilizers(stabs)


def _selected_stabilizers(code: DetectionCode, postselect: str) -> tuple:
    """The stabilizers whose syndromes postselect reads: all of them, or
    the X-type ones."""
    if postselect == "all":
        return code.stabilizers
    if postselect == "x_only":
        return tuple(s for s in code.stabilizers if not s.z.any())
    raise ShapeError(f"postselect must be 'all' or 'x_only', got {postselect!r}")


def build_lrb_d_circuit(code: DetectionCode, depth: int, p: float,
                        postselect: str = "all") -> Circuit:
    """depth + 1 rounds of one depolarizing event per data qudit, syndrome
    gadgets on the chosen stabilizers (ancilla reset before each) and a data
    readout.  It holds no logical gates: a logical Pauli passes a Pauli
    channel up to a phase, so logical Pauli layers would cancel."""
    selected = _selected_stabilizers(code, postselect)
    depth = integral(depth, "depth", ShapeError, minimum=0)
    n = code.n
    circuit = Circuit(n + 1, code.d)
    for _ in range(depth + 1):
        for q in range(n):
            circuit.add_gate("N1", q, noise_channel="d", prob=p)
    for stab in selected:
        circuit.add_gate("RESET", n)
        for ins in build_syndrome_gadget(stab, ancilla=n).instructions:
            circuit.add_gate(ins.name, *ins.qudits)
    for q in range(n):
        circuit.add_gate("M", q)
    circuit.metadata["family"] = f"lrbd_depth{depth}_{postselect}"
    return circuit


def run_lrb_d(cfg: RBConfig, code: DetectionCode = None, seed=None,
              postselect: str = "all", threads: int = None) -> dict:
    """Postselected logical fidelity and survivor fraction per depth.

    The code may be any odd-prime DetectionCode whose logical Z is Z-type.
    Shots whose selected syndromes (every stabilizer's for "all", the
    X-type stabilizers' for "x_only") are all zero survive; each circuit's
    fidelity is computed on the survivors' logical readout (the logical-Z
    weighted sum of data outcomes), and is missing without survivors.
    Every noise round precedes the gadgets, so the sweep compiles the
    depth-0 circuit once: with each noise location listed D + 1 times, its
    map gives depth D's exact law of (selected syndromes, logical readout)
    (frames.outcome_law) bit for bit, and one pass over its symbols gives
    every depth's (frames._outcome_laws): time and memory are flat in depth.
    A circuit's shots are one multinomial draw from that law, so stderr is
    shot noise only.  exact_survivor_fraction and exact_fidelity are the
    infinite-shot values; the sampled fidelity, a modulus, is biased upward
    at finite shots.  threads is checked but changes nothing.
    """
    if code is None:
        code = qutrit_detection_code()
    if cfg.d != code.d:
        raise DimensionError(f"config d={cfg.d} does not match code d={code.d}")
    if code.logical_z.x.any():
        raise ShapeError("the data readout is in the Z basis, so logical Z "
                         "must be Z-type")
    if threads is not None:
        integral(threads, "threads", minimum=1)
    num_syndromes = len(_selected_stabilizers(code, postselect))
    # rows: each selected syndrome, then the logical readout
    projection = np.eye(num_syndromes + 1, num_syndromes + code.n,
                        dtype=np.int64)
    projection[-1, num_syndromes:] = code.logical_z.z

    def score(weights, total):
        """(survivor fraction, fidelity or None) of clean-syndrome weights
        per logical value, out of total."""
        kept = weights.sum()
        if kept == 0:
            return 0.0, None
        return float(kept / total), rb_fidelity(
            OutcomeDistribution(code.d, dict(enumerate(weights / kept))))

    omap = compile_circuit(build_lrb_d_circuit(code, 0, cfg.p, postselect),
                           code_initial_tableau(code))
    # per depth, P(clean syndromes, logical value) per value
    clean = {depth: law.reshape(-1)[:code.d] for depth, law in zip(
        cfg.depths, _outcome_laws(omap, projection, [D + 1 for D in cfg.depths]))}

    def sampler(depth):
        pvals = np.r_[clean[depth], max(0.0, 1.0 - clean[depth].sum())]
        return lambda _, run_seed: np.random.default_rng(
            run_seed).multinomial(cfg.shots, pvals)[:code.d]

    per_depth = []
    for depth, scores in _sweep(cfg, seed, sampler,
                                lambda counts: score(counts, cfg.shots)):
        fidelities = [f for _, f in scores if f is not None]
        exact_fraction, exact_fidelity = score(clean[depth], 1.0)
        per_depth.append({
            **_depth_row(depth, fidelities),
            "survivor_fraction": float(np.mean([frac for frac, _ in scores])),
            "surviving_circuits": len(fidelities),
            "exact_survivor_fraction": exact_fraction,
            "exact_fidelity": exact_fidelity,
        })
    return {
        "experiment": "lrbd",
        "config": asdict(cfg),
        "seed": seed,
        "postselect": postselect,
        "per_depth": per_depth,
    }
