"""Smoke tests of the benchmark itself: tiny sizes, one second per run.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload):
    out = last_json(bench("--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", "0", "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {"shots_per_s", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    out = last_json(bench("--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", "1", "--smoke"))
    assert out["correct"]
    assert list(out["metrics"]) == [name for name, _ in tracing.LAYER_METRICS]
    assert out["metrics"]["trace.other_s"]["value"] >= 0


def test_default_seed_matches_cli_gen():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    gen = subprocess.run([sys.executable, "-m", "quditsim", "gen", "random",
                          "--n", "6", "--d", "3", "--depth", "200", "--seed", "1",
                          "--noise-prob", "0.01"], env=env, capture_output=True,
                         check=True)
    circuit = workloads.north_star_circuit(1, workloads.SIZES["full"])
    assert workloads.sdim_text(circuit).encode() == gen.stdout
    assert len(circuit.instructions) == 450


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    per_name, covered = tracer.summary()
    total, own, calls = per_name["outer"]
    assert per_name["inner"][2] == 2 and calls == 1
    assert own == pytest.approx(total - per_name["inner"][0])
    assert covered == pytest.approx(total)


def test_calibrator_takes_its_bursts_out_of_a_region():
    cal = speed.Calibrator().start()
    start = time.monotonic()
    while time.monotonic() - start < 0.3:
        pass
    end = time.monotonic()
    cal.stop()
    region = cal.region(start, end)
    assert region["bursts"] >= speed.MIN_SAMPLES
    assert 0 < region["cal_s"] < end - start
    assert speed.reference_seconds(end - start, region) == pytest.approx(
        (end - start - region["cal_s"]) / region["slowdown"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lrbd", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
