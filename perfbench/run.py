"""quditsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

NAME is one of the workloads in perfbench/README.md, or "all" to run the
four in turn.  Run it from anywhere; it works on the checkout that holds
this file, importing quditsim from its src/ directory.

Each repetition runs in a fresh child process, one after another, with
SDIM_THREADS removed and an explicit thread count of 1.  Repetitions start
until --seconds have passed (at least three, or two traced and two
untraced with --trace 1).  --trace 0 reports the end-to-end metrics,
median over repetitions: shots_per_s, peak_rss_mb (the child's own
rusage, from os.wait4), setup_s.  Times are in reference seconds, corrected
for the machine's speed by perfbench/speed.py; the raw wall figures are
printed in parentheses.  --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics of perfbench/tracing.py.
Output checks run outside the timed regions; failed checks over checks
attempted is the fail rate.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  Lines before it give quartiles and sample counts;
the full record, with machine info, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_REPS = 3
MIN_TRACED_REPS = 2
SETUP_REPS = 3  # set-up children per run for the CLI workload
RUN_LIMIT_S = 150.0  # no repetition may start or run past this, per run

END_TO_END = (("shots_per_s", "shots/s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SDIM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(workloads.THREADS)
    return env


def spawn(argv: list, stdout_path: Path, deadline: float,
          spec: dict = None) -> dict:
    """Run argv to completion; its exit code, wall seconds and peak RSS.

    spec, when given, is appended to argv as JSON with the spawn stamp.
    Peak RSS is this child's own ru_maxrss from os.wait4, not the
    RUSAGE_CHILDREN high-water mark of every child so far."""
    with open(stdout_path, "wb") as out, open(OUT / "stderr.log", "ab") as err:
        if spec is not None:
            argv = [*argv, json.dumps(dict(spec, spawned=time.monotonic()))]
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "proc_wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0}


def spawn_child(spec: dict, stdout_path: Path, deadline: float) -> dict:
    """Run perfbench/child.py on spec and merge the result it wrote."""
    result_path = OUT / f"{spec['workload']}.child.json"
    result_path.unlink(missing_ok=True)
    rep = spawn([sys.executable, str(HERE / "child.py")], stdout_path,
                deadline, dict(spec, out=str(result_path)))
    if result_path.exists():
        rep.update(json.loads(result_path.read_text()))
    return rep


def raw_wall(region: dict) -> float:
    """A region's wall seconds without the calibration bursts in it."""
    return region["wall_s"] - region.get("cal_s", 0.0)


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class WorkloadRun:
    """One run of one workload: set-up, repetitions, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size_name = "smoke" if smoke else "full"
        self.size = workloads.SIZES[self.size_name]
        self.tag = f"{workload}-seed{seed}-{self.size_name}"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.sdim = OUT / f"{self.tag}.sdim"
        self.setups: list[dict] = []  # set-up regions of untraced children
        self.reps: list[dict] = []
        self.checks: list[tuple] = []
        self.marginal = None

    def spec(self, mode: str, traced: bool, rep: int) -> dict:
        run_id = f"{self.tag}-rep{rep}"
        return {"mode": mode, "workload": self.workload, "seed": self.seed,
                "size": self.size, "trace": int(traced), "sdim": str(self.sdim),
                "run_id": run_id,
                "spans": str(OUT / "spans" / f"{self.workload}-rep{rep}.npz")}

    # -- phases ----------------------------------------------------------------

    def setup_cli(self) -> None:
        for i in range(SETUP_REPS):
            rep = spawn_child(self.spec("setup", False, i), Path(os.devnull),
                              self.deadline)
            self.checks.append(("setup_exit_status", rep["rc"] == 0))
            if rep["rc"] == 0:
                self.setups.append(rep["setup"])

    def cli_stdout(self, k: int) -> Path:
        return OUT / f"{self.tag}-{'first' if k == 0 else 'last'}.out.json"

    def one_rep(self, k: int, traced: bool) -> dict:
        cli = self.workload == "cli_frames_json"
        stdout = self.cli_stdout(k) if cli else Path(os.devnull)
        rep = spawn_child(self.spec("rep", traced, k), stdout, self.deadline)
        rep["traced"] = traced
        if rep["rc"] != 0:
            return rep
        if cli:
            # the timed region is the whole child process
            rep["timed"] = dict(rep.get("life", {}), wall_s=rep["proc_wall_s"])
            rep["digest"] = file_digest(stdout)
            if traced and "layers" in rep:
                rep["layers"]["trace.other_s"] = (rep["proc_wall_s"]
                                                  - rep["covered_s"])
        elif not traced and "setup" in rep:
            self.setups.append(rep["setup"])
        if "timed" in rep:
            rep["wall_s"] = raw_wall(rep["timed"])
            if not traced:
                rep["ref_s"] = speed.reference_seconds(rep["timed"]["wall_s"],
                                                       rep["timed"])
        return rep

    def measure(self) -> None:
        started = time.monotonic()
        min_reps = 2 * MIN_TRACED_REPS if self.trace else MIN_REPS
        while True:
            k = len(self.reps)
            now = time.monotonic()
            typical = (statistics.median(r["proc_wall_s"] for r in self.reps)
                       if self.reps else 0.0)
            if k >= min_reps and now - started + typical > self.seconds:
                break
            if now + typical > self.deadline:
                break
            self.reps.append(self.one_rep(k, traced=self.trace and k % 2 == 1))

    def check_outputs(self) -> None:
        ok = [r for r in self.reps if r["rc"] == 0]
        for rep in self.reps:
            self.checks.append(("exit_status", rep["rc"] == 0))
            self.checks.extend(tuple(c) for c in rep.get("checks", ()))
        digests = [r["digest"] for r in ok if r.get("digest")]
        for digest in digests[1:]:
            self.checks.append(("same_output_at_one_seed", digest == digests[0]))
        if self.workload == "cli_frames_json" and ok and self.reps[0]["rc"] == 0:
            self.check_cli_document(self.cli_stdout(0))

    def check_cli_document(self, path: Path) -> None:
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            self.checks.append(("json_parses", False))
            return
        self.checks.append(("json_parses", True))
        # a malformed document fails the check that reads it
        try:
            total = sum(doc["counts"].values())
        except (KeyError, TypeError, AttributeError):
            total = None
        self.checks.append(("counts_sum_to_shots",
                            total == self.size["cli_shots"]))
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        try:
            score, bound = workloads.marginal_check(
                doc, self.sdim.read_text(), self.seed, self.size)
        except (KeyError, TypeError, IndexError):
            score, bound = float("inf"), 0.0
        self.marginal = {"mean_slot_tvd": score, "bound": bound}
        self.checks.append(("marginals_match_tableau", score <= bound))

    # -- results ---------------------------------------------------------------

    def good_reps(self) -> list:
        return [r for r in self.reps if r["rc"] == 0 and "wall_s" in r]

    def uncalibrated(self) -> dict:
        """Raw wall-clock figures and the slowdowns that convert them."""
        shots = workloads.shots_done(self.workload, self.size)
        plain = [r for r in self.good_reps() if not r["traced"]]
        return {"shots_per_wall_s": ([shots / r["wall_s"] for r in plain],
                                     "shots/s"),
                "setup_wall_s": ([raw_wall(s) for s in self.setups], "s"),
                "slowdown": ([r["timed"]["slowdown"] for r in plain], "ratio")}

    def samples(self) -> dict:
        """Per-metric samples from the successful repetitions."""
        good = self.good_reps()
        shots = workloads.shots_done(self.workload, self.size)
        if not self.trace:
            return {"shots_per_s": [shots / r["ref_s"] for r in good],
                    "peak_rss_mb": [r["rss_mb"] for r in good],
                    "setup_s": [speed.reference_seconds(s["wall_s"], s)
                                for s in self.setups]}
        traced = [r for r in good if r["traced"] and "layers" in r]
        plain = [r for r in good if not r["traced"]]
        overhead = ([statistics.median(r["wall_s"] for r in traced)
                     - statistics.median(r["wall_s"] for r in plain)]
                    if traced and plain else [])
        return {name: overhead if name == "trace.overhead_s"
                else [r["layers"][name] for r in traced]
                for name, _ in tracing.LAYER_METRICS}

    def execute(self) -> dict:
        if self.workload == "cli_frames_json":
            self.setup_cli()
        if self.workload != "cli_frames_json" or self.setups:
            self.measure()
        self.check_outputs()
        return self.report()

    def report(self) -> dict:
        units = dict(tracing.LAYER_METRICS if self.trace else END_TO_END)
        stats = {name: summarize(values, units[name])
                 for name, values in self.samples().items()}
        raw = {name: summarize(values, unit)
               for name, (values, unit) in self.uncalibrated().items()}
        failed = sum(1 for _, ok in self.checks if not ok)
        return {"workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "trace": int(self.trace),
                "size": self.size_name, "threads": workloads.THREADS,
                "machine": machine_info(), "stats": stats,
                "uncalibrated": raw,
                "attempted": len(self.checks), "failed": failed,
                "failed_checks": sorted({n for n, ok in self.checks if not ok}),
                "marginal_check": self.marginal,
                "reps": [{k: v for k, v in r.items() if k != "checks"}
                         for r in self.reps]}


def summarize(values: list, unit: str) -> dict:
    if not values:
        return {"unit": unit, "n": 0}
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(values)}


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def print_summary(report: dict) -> None:
    att, failed = report["attempted"], report["failed"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']}"
          f" size={report['size']} threads={report['threads']}"
          f" machine={json.dumps(report['machine'], sort_keys=True)}")
    rows = list(report["stats"].items())
    rows += [(f"({name})", s) for name, s in report["uncalibrated"].items()]
    for name, s in rows:
        if s["n"]:
            print(f"  {name:30s} median {s['median']:.6g} {s['unit']}"
                  f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
        else:
            print(f"  {name:30s} no samples")
    print(f"  {'fail_rate':30s} {failed / att if att else 0.0:.6g} ratio"
          f"  ({failed} failed of {att} checks)"
          + (f" failed: {report['failed_checks']}" if failed else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through spawn(), which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "quditsim" / "__init__.py").is_file():
        print(f"perfbench: no quditsim sources under {SRC}", file=sys.stderr)
        return 2
    (OUT / "spans").mkdir(parents=True, exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = WorkloadRun(name, args.seed, args.seconds, bool(args.trace),
                             args.smoke).execute()
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}"
               f"-{report['size']}.json").write_text(json.dumps(report, indent=2))
        print_summary(report)
        reports.append(report)

    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        for name, s in report["stats"].items():
            if not s["n"]:
                print(f"perfbench: {report['workload']}: no samples for {name}",
                      file=sys.stderr)
                return 1
            metrics[prefix + name] = {"value": s["median"], "unit": s["unit"]}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
