"""Workload inputs, runners and output checks.

Every input is generated from the benchmark seed with quditsim's public
builders; the program under test only ever sees the generated inputs.
Nothing here imports quditsim at module level, so a fresh interpreter pays
for that import inside the set-up interval it reports.
"""

from __future__ import annotations

import hashlib
import json
import math

WORKLOADS = ("cli_frames_json", "lrbd", "tableau_noisy", "weyl_validate")

# Every API call and CLI invocation gets this explicit frame-sampler thread
# count; SDIM_THREADS is removed from every child's environment.
THREADS = 1

# Sizes per mode.  "full" is the benchmark; "smoke" is for the benchmark's
# own tests and only has to exercise every code path quickly.
SIZES = {
    "full": {
        # north-star circuit: `quditsim gen random --n 6 --d 3 --depth 200
        # --noise-prob 0.01`, 450 instructions at seed 1
        "north_star": (6, 3, 200, 0.01),
        "cli_shots": 50_000,
        "cli_check_shots": 600,
        "tableau_shots": 1500,
        "lrbd_depths": (0, 4, 8, 12, 16, 20),
        "lrbd_circuits": 10,
        "lrbd_shots": 20_000,
        "lrbd_p": 0.02,
        "weyl_circuits": 6,
        "weyl_shots": 150,
        "weyl_depth": 200,
    },
    "smoke": {
        "north_star": (3, 3, 20, 0.05),
        "cli_shots": 300,
        "cli_check_shots": 200,
        "tableau_shots": 20,
        "lrbd_depths": (0, 4),
        "lrbd_circuits": 2,
        "lrbd_shots": 500,
        "lrbd_p": 0.02,
        "weyl_circuits": 2,
        "weyl_shots": 50,
        "weyl_depth": 8,
    },
}

# validate_backend_pair's pass threshold on mean per-slot TVD, the CLI default
WEYL_TVD_THRESHOLD = 0.2
# the CLI-versus-tableau marginal check allows this many times the expected
# TVD between two samples of the same distribution
TVD_FLOOR_FACTOR = 4.0


def seeded_rng(seed: int):
    """The generator `quditsim gen` builds from its --seed."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def north_star_circuit(seed: int, size: dict):
    from quditsim import build_random_clifford_circuit

    n, d, depth, p = size["north_star"]
    return build_random_clifford_circuit(n, d, depth, seeded_rng(seed),
                                         noise=("d", p))


def sdim_text(circuit) -> str:
    """SDIM text exactly as `quditsim gen` writes it to stdout."""
    from quditsim import serialize_sdim

    text = serialize_sdim(circuit)
    return text if text.endswith("\n") else text + "\n"


def cli_argv(sdim_path: str, seed: int, size: dict) -> list:
    return ["run", sdim_path, "--method", "frames",
            "--shots", str(size["cli_shots"]), "--seed", str(seed),
            "--out", "json", "--threads", str(THREADS)]


def weyl_corpus(seed: int, size: dict) -> list:
    """Noiseless random Clifford circuits on composite d.

    d alternates 4, 6 and n cycles 2..5, in a fixed order, all at one depth;
    only the gates come from the seed.  The Weyl cost of an n = 5, d = 6
    circuit varied with its gates by a coefficient of variation of 0.14 at
    depth 60 and 0.06 at depth 200, where the gates have scrambled the
    state, so the corpus is deep and gives no circuit a larger depth than
    another.
    """
    from quditsim import build_random_clifford_circuit

    rng = seeded_rng(seed)
    return [build_random_clifford_circuit(2 + i % 4, (4, 6)[i % 2],
                                          size["weyl_depth"], rng)
            for i in range(size["weyl_circuits"])]


def lrbd_config(size: dict):
    from quditsim import RBConfig

    return RBConfig(d=3, depths=size["lrbd_depths"],
                    circuits_per_depth=size["lrbd_circuits"],
                    shots=size["lrbd_shots"], p=size["lrbd_p"])


# -- in-process workloads ------------------------------------------------------
#
# prepare() builds the inputs (set-up, untimed); run() is the timed region;
# check() inspects the output outside it.  Each returns plain data.

def prepare(workload: str, seed: int, size: dict) -> dict:
    if workload == "tableau_noisy":
        return {"circuit": north_star_circuit(seed, size)}
    if workload == "lrbd":
        from quditsim import qutrit_detection_code

        return {"cfg": lrbd_config(size), "code": qutrit_detection_code()}
    if workload == "weyl_validate":
        return {"corpus": weyl_corpus(seed, size)}
    raise ValueError(f"{workload} does not run in-process")


def run(workload: str, seed: int, size: dict, inputs: dict):
    """Call the workload's public entry point through its module attribute,
    so a traced run goes through the installed wrapper."""
    import quditsim.experiments as experiments
    import quditsim.simulate as simulate

    if workload == "tableau_noisy":
        return simulate.run_circuit(inputs["circuit"], size["tableau_shots"],
                                    seed, method="tableau", threads=THREADS)
    if workload == "lrbd":
        return experiments.run_lrb_d(inputs["cfg"], inputs["code"], seed=seed,
                                     postselect="all", threads=THREADS)
    return experiments.validate_backend_pair(
        inputs["corpus"], "tableau", "statevector", shots=size["weyl_shots"],
        threshold=WEYL_TVD_THRESHOLD, seed=seed, threads=THREADS)


def shots_done(workload: str, size: dict) -> int:
    if workload == "cli_frames_json":
        return size["cli_shots"]
    if workload == "tableau_noisy":
        return size["tableau_shots"]
    if workload == "lrbd":
        return (len(size["lrbd_depths"]) * size["lrbd_circuits"]
                * size["lrbd_shots"])
    return size["weyl_circuits"] * size["weyl_shots"] * 2


def check(workload: str, size: dict, output) -> tuple[list, str]:
    """(list of (check name, passed), digest of the output).  The parent
    requires one digest across all repetitions at one seed."""
    if workload == "tableau_noisy":
        total = sum(output.counts.values())
        return ([("counts_sum_to_shots", total == size["tableau_shots"])],
                _digest(output.counts))
    if workload == "lrbd":
        rows = output["per_depth"]
        checks = [("every_depth_reported",
                   [row["depth"] for row in rows] == list(size["lrbd_depths"]))]
        for row in rows:
            frac, fid = row["survivor_fraction"], row["mean_fidelity"]
            checks.append((f"depth{row['depth']}_survivors_in_(0,1]",
                           0.0 < frac <= 1.0))
            checks.append((f"depth{row['depth']}_fidelity_in_[0,1]",
                           fid is not None and 0.0 <= fid <= 1.0))
        return checks, _digest(output)
    return [("all_passed", output["all_passed"] is True)], _digest(output)


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# -- CLI output checks ---------------------------------------------------------

def slot_counts(outcomes_by_shot, d: int) -> list:
    """Per-slot outcome counts from an iterable of per-shot outcome lists."""
    slots = None
    for shot in outcomes_by_shot:
        if slots is None:
            slots = [[0] * d for _ in shot]
        for i, k in enumerate(shot):
            slots[i][k] += 1
    return slots or []


def tvd_noise_floor(pooled: list, n1: int, n2: int) -> float:
    """Expected TVD between two independent samples (sizes n1, n2) of one
    categorical distribution, by the normal approximation to each count."""
    total = sum(pooled)
    var = 1.0 / n1 + 1.0 / n2
    return 0.5 * sum(math.sqrt(2.0 / math.pi)
                     * math.sqrt((c / total) * (1 - c / total) * var)
                     for c in pooled)


def marginal_check(cli_doc: dict, sdim: str, seed: int, size: dict) -> tuple:
    """Mean per-slot TVD of the CLI's frames sample against a tableau
    sample of the same circuit, and the bound it must stay under."""
    from quditsim import parse_sdim, run_circuit

    circuit = parse_sdim(sdim)
    d = circuit.dimension.d
    n_check = size["cli_check_shots"]
    ref = run_circuit(circuit, n_check, seed + 1, method="tableau",
                      threads=THREADS)
    cli_slots = slot_counts(([r["outcome"] for r in shot]
                             for shot in cli_doc["records"]), d)
    ref_slots = slot_counts(ref.outcome_tuples(), d)
    n_cli = len(cli_doc["records"])
    scores, floors = [], []
    for a, b in zip(cli_slots, ref_slots):
        scores.append(0.5 * sum(abs(x / n_cli - y / n_check)
                                for x, y in zip(a, b)))
        floors.append(tvd_noise_floor([x + y for x, y in zip(a, b)],
                                      n_cli, n_check))
    if not scores or len(cli_slots) != len(ref_slots):
        return math.inf, 0.0
    return (sum(scores) / len(scores),
            TVD_FLOOR_FACTOR * sum(floors) / len(floors))
