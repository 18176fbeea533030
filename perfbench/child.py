"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds mode ("setup" or "rep"), workload, seed, size, trace, out
(where the result JSON goes), spawned (the parent's time.monotonic() just
before it started this process), spans and run_id (traced runs), and sdim
(CLI workload).

An untraced child runs a speed.Calibrator from its first line to its end,
and reports, for each region it times, the wall seconds and the bursts in
it.  A traced child installs the tracing wrappers instead and reports raw
times.  In-process workloads: set up, run the timed region, check the
output.  CLI workload: "setup" writes the SDIM file; "rep" calls
quditsim.cli.main, its stdout being the parent's output file, and the timed
region is this whole process, which the parent times.

The set-up region runs from the parent's spawn stamp to the end of input
building.  Both ends read CLOCK_MONOTONIC, which on Linux is shared by all
processes, so it includes interpreter start and the import of quditsim.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import speed


def main(spec: dict, cal: speed.Calibrator) -> int:
    import workloads

    workload, seed, size = spec["workload"], spec["seed"], spec["size"]
    traced = bool(spec["trace"])
    if traced:
        import tracing

        tracer = tracing.Tracer()
    result = {}
    regions = {}  # name -> (start, end) on time.monotonic()
    code = 0

    if workload == "cli_frames_json" and spec["mode"] == "setup":
        circuit = workloads.north_star_circuit(seed, size)
        Path(spec["sdim"]).write_bytes(workloads.sdim_text(circuit).encode())
        regions["setup"] = (spec["spawned"], time.monotonic())
    elif workload == "cli_frames_json":
        import quditsim.cli as cli

        if traced:
            tracing.install(tracer)
        code = cli.main(workloads.cli_argv(spec["sdim"], seed, size))
        sys.stdout.flush()
        regions["life"] = (spec["spawned"], time.monotonic())
    else:
        inputs = workloads.prepare(workload, seed, size)
        regions["setup"] = (spec["spawned"], time.monotonic())
        if traced:
            tracing.install(tracer)
        started = time.monotonic()
        output = workloads.run(workload, seed, size, inputs)
        regions["timed"] = (started, time.monotonic())
        result["checks"], result["digest"] = workloads.check(workload, size,
                                                             output)

    if not traced:
        cal.stop()
    for name, (start, end) in regions.items():
        result[name] = dict(cal.region(start, end) if not traced else {},
                            wall_s=end - start)
    if traced:
        wall = result["timed"]["wall_s"] if "timed" in result else 0.0
        result["layers"], result["covered_s"] = tracing.layer_metrics(tracer,
                                                                      wall)
        tracer.save(spec["spans"], spec["run_id"])
    Path(spec["out"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    SPEC = json.loads(sys.argv[1])
    CAL = speed.Calibrator()
    if not SPEC["trace"]:
        CAL.start()
    sys.exit(main(SPEC, CAL))
