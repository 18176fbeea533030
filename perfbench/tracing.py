"""Timing spans around the calls into quditsim's layers.

The wrappers are installed from the benchmark's side, nothing under src/
changes.  Each name is patched where its caller looks it up: a function
imported by name into another module (``from .snf import solve_mod``) is
replaced in that module, a method on its class.

Spans live in memory as flat int64 rows (name id, start ns, end ns, parent
row) and are written out once, when the repetition ends.  The wrappers'
own cost lands in the caller's self time and in ``trace.overhead_s``.
Single-threaded use only: the parent of a span is the top of one stack.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict

# Per-layer metrics with their units, in report order.
LAYER_METRICS = (
    ("cli.serialize_s", "s"),
    ("circuit.parse_s", "s"),
    ("simulate.records_s", "s"),
    ("simulate.counts_s", "s"),
    ("frames.reference_s", "s"),
    ("frames.run_s", "s"),
    ("frames.propagate_s", "s"),
    ("frames.shards", "count"),
    ("frames.slot_updates", "count"),
    ("noise.batch_s", "s"),
    ("noise.batch_draws", "count"),
    ("noise.batch_fired", "count"),
    ("noise.batch_fire_ratio", "ratio"),
    ("noise.scalar_s", "s"),
    ("noise.scalar_calls", "count"),
    ("noise.scalar_fired", "count"),
    ("tableau.gate_s", "s"),
    ("tableau.gate_calls", "count"),
    ("tableau.measure_s", "s"),
    ("tableau.measure_calls", "count"),
    ("tableau.measure_random_ratio", "ratio"),
    ("tableau.pauli_error_s", "s"),
    ("tableau.from_stabilizers_s", "s"),
    ("weyl.gate_s", "s"),
    ("weyl.measure_s", "s"),
    ("weyl.measure_calls", "count"),
    ("snf.solve_mod_s", "s"),
    ("snf.solve_mod_calls", "count"),
    ("snf.kernel_mod_s", "s"),
    ("snf.solves_per_measure", "ratio"),
    ("statevector.s", "s"),
    ("experiments.tvd_s", "s"),
    ("experiments.build_s", "s"),
    ("experiments.postselect_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.other_s", "s"),
)


class Tracer:
    """Records one span per wrapped call, plus counters set by hooks."""

    def __init__(self):
        self.names: list[str] = []
        self.rows = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """Timed wrapper of fn.  before(args) runs untimed ahead of the call
        and its result goes to after(counts, args, out, token), which runs
        untimed once the span has closed."""
        nid = len(self.names)
        self.names.append(name)
        rows, stack, counts = self.rows, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            row = len(rows) // 4
            rows.extend((nid, 0, 0, stack[-1] if stack else -1))
            stack.append(row)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows[4 * row + 1] = start
                rows[4 * row + 2] = end
            if after is not None:
                after(counts, args, out, token)
            return out

        return traced

    def summary(self):
        """Per span name: (total seconds, self seconds, calls); and the
        seconds covered by top-level spans."""
        import numpy as np

        table = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, 4)
        nid, start, end, parent = table.T
        dur = (end - start) / 1e9
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(table))
        own = dur - child
        k = len(self.names)
        per_name = {
            name: (float(total), float(selft), int(calls))
            for name, total, selft, calls in zip(
                self.names,
                np.bincount(nid, weights=dur, minlength=k),
                np.bincount(nid, weights=own, minlength=k),
                np.bincount(nid, minlength=k))
        }
        return per_name, float(dur[~nested].sum())

    def save(self, path, run_id: str) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), run_id=np.array(run_id),
                 columns=np.array(["name", "start_ns", "end_ns", "parent"]),
                 spans=np.frombuffer(self.rows, dtype=np.int64).reshape(-1, 4))


def _count_batch(counts, args, out, token):
    a, b = out
    counts["noise.batch_draws"] += len(a)
    counts["noise.batch_fired"] += int(((a != 0) | (b != 0)).sum())


def _count_scalar(counts, args, out, token):
    counts["noise.scalar_fired"] += out != (0, 0)


def _count_tableau_measure(counts, args, out, token):
    counts["tableau.measure_random"] += not out.deterministic


def _count_frames_run(counts, args, out, token):
    sim, shots = args[0], args[1]
    counts["frames.shards"] += -(-int(shots) // sim.shard_size)
    counts["frames.slot_updates"] += sim.op_count - token


def install(tracer: Tracer) -> None:
    """Patch quditsim's layer entry points with tracer's wrappers."""
    import quditsim
    import quditsim.cli as cli
    import quditsim.experiments as experiments
    import quditsim.frames as frames
    import quditsim.simulate as simulate
    import quditsim.weyl as weyl
    from quditsim import DenseState, FrameSimulator, Tableau, WeylTableau

    def patch(owners, attr, name, **hooks):
        wrapped = tracer.wrap(name, getattr(owners[0], attr), **hooks)
        for owner in owners:
            setattr(owner, attr, wrapped)

    patch([cli], "main", "cli.main")
    patch([cli], "parse_sdim", "circuit.parse_sdim")
    patch([simulate, cli, experiments, quditsim], "run_circuit",
          "simulate.run_circuit")
    patch([simulate], "records_to_counts", "simulate.records_to_counts")
    patch([FrameSimulator], "__init__", "frames.FrameSimulator.__init__")
    patch([FrameSimulator], "run", "frames.FrameSimulator.run",
          before=lambda args: args[0].op_count, after=_count_frames_run)
    patch([frames], "sample_error_batch", "noise.sample_error_batch",
          after=_count_batch)
    patch([simulate], "sample_error", "noise.sample_error",
          after=_count_scalar)
    patch([Tableau], "apply_gate", "tableau.Tableau.apply_gate")
    patch([Tableau], "measure_z", "tableau.Tableau.measure_z",
          after=_count_tableau_measure)
    patch([Tableau], "apply_pauli_error", "tableau.Tableau.apply_pauli_error")
    Tableau.from_stabilizers = classmethod(tracer.wrap(
        "tableau.Tableau.from_stabilizers",
        Tableau.__dict__["from_stabilizers"].__func__))
    patch([WeylTableau], "apply_gate", "weyl.WeylTableau.apply_gate")
    patch([WeylTableau], "measure_z", "weyl.WeylTableau.measure_z")
    patch([weyl], "solve_mod", "snf.solve_mod")
    patch([weyl], "kernel_mod", "snf.kernel_mod")
    for attr, fn in list(vars(DenseState).items()):
        if inspect.isfunction(fn) and (attr == "__init__"
                                       or not attr.startswith("_")):
            patch([DenseState], attr, f"statevector.DenseState.{attr}")
    patch([experiments, quditsim], "run_lrb_d", "experiments.run_lrb_d")
    patch([experiments], "build_lrb_d_circuit",
          "experiments.build_lrb_d_circuit")
    patch([experiments, quditsim], "code_initial_tableau",
          "experiments.code_initial_tableau")
    patch([experiments], "mean_slot_tvd", "experiments.mean_slot_tvd")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict, float]:
    """Per-layer metrics of one traced repetition (without trace.overhead_s,
    which needs the untraced runs) and the seconds its top-level spans
    cover.  trace.other_s is wall_s minus that coverage."""
    per_name, covered = tracer.summary()
    counts = tracer.counts

    def total(name):
        return per_name[name][0]

    def own(name):
        return per_name[name][1]

    def calls(name):
        return per_name[name][2]

    batch_s = total("noise.sample_error_batch")
    run_s = total("frames.FrameSimulator.run")
    weyl_measures = calls("weyl.WeylTableau.measure_z")
    m = {
        "cli.serialize_s": own("cli.main"),
        "circuit.parse_s": total("circuit.parse_sdim"),
        "simulate.records_s": own("simulate.run_circuit"),
        "simulate.counts_s": total("simulate.records_to_counts"),
        "frames.reference_s": total("frames.FrameSimulator.__init__"),
        "frames.run_s": run_s,
        "frames.propagate_s": run_s - batch_s,
        "frames.shards": counts["frames.shards"],
        "frames.slot_updates": counts["frames.slot_updates"],
        "noise.batch_s": batch_s,
        "noise.batch_draws": counts["noise.batch_draws"],
        "noise.batch_fired": counts["noise.batch_fired"],
        "noise.batch_fire_ratio": _ratio(counts["noise.batch_fired"],
                                         counts["noise.batch_draws"]),
        "noise.scalar_s": total("noise.sample_error"),
        "noise.scalar_calls": calls("noise.sample_error"),
        "noise.scalar_fired": counts["noise.scalar_fired"],
        "tableau.gate_s": total("tableau.Tableau.apply_gate"),
        "tableau.gate_calls": calls("tableau.Tableau.apply_gate"),
        "tableau.measure_s": total("tableau.Tableau.measure_z"),
        "tableau.measure_calls": calls("tableau.Tableau.measure_z"),
        "tableau.measure_random_ratio": _ratio(
            counts["tableau.measure_random"],
            calls("tableau.Tableau.measure_z")),
        "tableau.pauli_error_s": total("tableau.Tableau.apply_pauli_error"),
        "tableau.from_stabilizers_s": total("tableau.Tableau.from_stabilizers"),
        "weyl.gate_s": total("weyl.WeylTableau.apply_gate"),
        "weyl.measure_s": total("weyl.WeylTableau.measure_z"),
        "weyl.measure_calls": weyl_measures,
        "snf.solve_mod_s": total("snf.solve_mod"),
        "snf.solve_mod_calls": calls("snf.solve_mod"),
        "snf.kernel_mod_s": total("snf.kernel_mod"),
        "snf.solves_per_measure": _ratio(calls("snf.solve_mod"),
                                         weyl_measures),
        # DenseState methods call each other; self times add up without
        # double counting
        "statevector.s": sum(v[1] for k, v in per_name.items()
                             if k.startswith("statevector.")),
        "experiments.tvd_s": total("experiments.mean_slot_tvd"),
        "experiments.build_s": (total("experiments.build_lrb_d_circuit")
                                + total("experiments.code_initial_tableau")),
        "experiments.postselect_s": own("experiments.run_lrb_d"),
        "trace.other_s": wall_s - covered,
    }
    return m, covered
