"""Command-line front end.

Commands:

    quditsim run FILE --shots N --seed S [--method M] [--out FMT]
    quditsim gen KIND [kind flags]
    quditsim validate --pairs A,B --circuits N --shots N --seed S ...
    quditsim rb --depths LIST --circuits N --shots N --p P --seed S ...
    quditsim lrbd --depths LIST --circuits N --shots N --p P --seed S ...

Exit codes: 0 success, 2 circuit parse error, 4 usage error, 5 file I/O
error, 6 memory cap exceeded, 7 internal error.  Results go to stdout;
wall-clock timing and diagnostics go to stderr so identical inputs and
seeds produce byte-identical output.  run writes each outcome block of
simulate.stream_circuit as it comes, in pieces of at most PIECE_RECORDS
records, and counts from a running Tally.  The library calls return
reports; this module writes every file: validate, rb and lrbd open --csv
and --manifest (stdout's JSON text) before the run and fill them after it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from contextlib import nullcontext
from functools import partial

import numpy as np

from .builders import (build_bernstein_vazirani, build_deutsch_jozsa,
                       build_ghz_chain, build_local_gate_test,
                       build_random_clifford_circuit)
from .circuit import parse_sdim, serialize_sdim
from .errors import MemoryCapError, ParseError, ShapeError
from .experiments import (RBConfig, qutrit_detection_code, run_lrb_d, run_rb,
                          validate_backend_pair)
from .pauli import Dimension
from .simulate import (METHODS, Tally, _check_method_pair,  # noqa: F401
                       run_circuit, stream_circuit)  # perfbench patches cli.run_circuit

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_USAGE = 4
EXIT_IO = 5
EXIT_MEMORY = 6
EXIT_INTERNAL = 7

# --out json|csv writes the text of at most this many records at a time
PIECE_RECORDS = 1 << 12


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures remapped from exit 2 to exit 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _usage_error(message: str) -> SystemExit:
    print(f"quditsim: error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _threads_from(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("SDIM_THREADS")
    if env is None:
        return None
    try:
        threads = int(env)
    except ValueError:
        threads = 0  # rejected below
    if threads < 1:
        raise _usage_error(f"SDIM_THREADS must be a positive integer, got {env!r}")
    return threads


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _depths(text: str) -> tuple:
    try:
        depths = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad depth list {text!r}")
    if not depths:
        raise argparse.ArgumentTypeError("depth list is empty")
    return depths


def _slot_text(slots, d: int, render) -> np.ndarray:
    """render(slot, qudit, seq, flag, outcome) for every slot of slots
    (qudits, seqs, deterministic) and every outcome value, flattened so that
    entry i * d + k is slot i at outcome k."""
    rows = zip(*(column.tolist() for column in slots))
    return np.array([render(i, q, s, f, k) for i, (q, s, f) in enumerate(rows)
                     for k in range(d)], dtype=object)


def _pieces(blocks, d: int, tally=None, empty: int = 0):
    """(first record, text table indices) per piece of at most PIECE_RECORDS
    records, over the outcome blocks in shot order, each block added to
    tally if one is given.  Slot i at outcome k is table entry i * d + k; a
    shot of no slots holds `empty` records, each entry 0."""
    first = 0
    for block in blocks:
        if tally is not None:
            tally.add(block)
        index = ((block + np.arange(block.shape[1]) * d).ravel() if block.size
                 else np.zeros(len(block) * empty, dtype=np.int64))
        for lo in range(0, len(index), PIECE_RECORDS):
            yield first + lo, index[lo:lo + PIECE_RECORDS]
        first += len(index)


def _write_json(args, circuit, slots, blocks) -> None:
    """The json.dumps(doc, indent=2) text of the run, written piece by piece;
    each record's text is prebuilt once per slot and outcome value, and
    counts, the last field, comes from the tally once every piece is out."""
    d, m = circuit.dimension.d, len(slots[0])
    tally = Tally(d)

    def halves(counts):
        doc = dict(dimension=d, qudits=circuit.num_qudits, shots=args.shots,
                   seed=args.seed, method=args.method, records=[], counts=counts)
        return json.dumps(doc, indent=2).split('"records": []', 1)

    def render(i, q, s, f, k):
        opening = ",\n    [" if i == 0 else ","
        closing = "\n    ]" if i == m - 1 else ""
        return (f'{opening}\n      {{\n        "qudit": {q},\n'
                f'        "seq": {s},\n'
                f'        "deterministic": {json.dumps(f)},\n'
                f'        "outcome": {k}\n      }}{closing}')

    table = (_slot_text(slots, d, render) if m
             else np.array([",\n    []"], dtype=object))
    out = sys.stdout
    out.write(halves({})[0] + '"records": [')
    for first, index in _pieces(blocks, d, tally, empty=1):
        text = "".join(table[index].tolist())
        out.write(text[1:] if first == 0 else text)
    out.write("\n  ]" + halves(tally.counts())[1] + "\n")


def _write_csv(slots, blocks, d: int) -> None:
    """One line per record, written piece by piece."""
    table = _slot_text(slots, d, lambda i, q, s, f, k: f",{q},{s},{int(f)},{k}\n")
    out = sys.stdout
    out.write("shot,qudit,seq,deterministic,outcome\n")
    for first, index in _pieces(blocks, d):
        shot = np.arange(first, first + len(index)) // len(slots[0])
        lines = np.empty((len(index), 2), dtype=object)
        lines[:, 0] = np.array([str(s) for s in range(shot[0], shot[-1] + 1)],
                               dtype=object)[shot - shot[0]]
        lines[:, 1] = table[index]
        out.write("".join(lines.ravel().tolist()))


def _decode(data: bytes) -> str:
    """data as UTF-8 text; a ParseError, at the line and column that
    parse_sdim would give it, for the first byte that is not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(len(lines), len(lines[-1]), f"invalid UTF-8 byte "
                         f"0x{data[exc.start]:02x}") from None


def _cmd_run(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        circuit = parse_sdim(_decode(data))
    except ParseError as exc:
        print(f"parse error at line {exc.line}, column {exc.column}: "
              f"{exc.message}", file=sys.stderr)
        return EXIT_PARSE
    threads = _threads_from(args)
    started = time.perf_counter()
    *slots, blocks = stream_circuit(circuit, shots=args.shots, seed=args.seed,
                                    method=args.method, threads=threads)
    if args.out == "json":
        _write_json(args, circuit, slots, blocks)
    elif args.out == "counts":
        tally = Tally(circuit.dimension.d)
        for block in blocks:
            tally.add(block)
        _emit("\n".join(f"{key} {count}"
                        for key, count in tally.counts().items()))
    else:
        _write_csv(slots, blocks, circuit.dimension.d)
    print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.kind == "dj":
        circuit = build_deutsch_jozsa(args.d, constant=args.oracle == "constant",
                                      constant_value=args.value)
    elif args.kind == "bv":
        if not args.secret or any(not ch.isdigit() or int(ch) >= args.d
                                  for ch in args.secret):
            raise _usage_error(f"--secret must be a string of digits below "
                               f"d={args.d}, got {args.secret!r}")
        circuit = build_bernstein_vazirani(args.d, args.secret)
    elif args.kind == "ghz":
        circuit = build_ghz_chain(args.n, args.d, measure=args.measure)
    elif args.kind == "local":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed)))
        circuit = build_local_gate_test(args.n, d=args.d, depth=args.depth,
                                        rng=rng)
    else:  # random
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed)))
        noise = ("d", args.noise_prob) if args.noise_prob > 0 else None
        circuit = build_random_clifford_circuit(args.n, args.d, args.depth, rng,
                                                noise=noise)
    _emit(serialize_sdim(circuit))
    return EXIT_OK


def _csv_rows(report: dict) -> list:
    """A header and one row per circuit (validate) or per depth (rb, lrbd);
    depth rows give values to ten decimals, blank where missing."""
    if "per_circuit" in report:
        rows = report["per_circuit"]
        return [list(rows[0])] + [list(row.values()) for row in rows]
    columns = ["depth", "mean_fidelity", "stderr", "survivor_fraction"]
    return [columns] + [
        [row["depth"]] + ["" if row[c] is None else f"{row[c]:.10f}"
                          for c in columns[1:]]
        for row in report["per_depth"]]


def _cmd_report(command, args) -> int:
    """Run command(args, threads); overwrite --csv and --manifest with its
    report as CSV rows and JSON, print the elapsed time to stderr and the
    JSON to stdout.  The files are opened to append first: an unwritable
    path fails before the run, and a failed run leaves them as they were."""
    threads = _threads_from(args)
    manifest = getattr(args, "manifest", None)
    with (open(args.csv, "a", newline="") if args.csv else nullcontext()) as table, \
            (open(manifest, "a") if manifest else nullcontext()) as saved:
        started = time.perf_counter()
        report = command(args, threads)
        elapsed = time.perf_counter() - started
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if table:
            table.truncate(0)
            csv.writer(table).writerows(_csv_rows(report))
        if saved:
            saved.truncate(0)
            saved.write(text)
    print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_validate(args, threads) -> dict:
    method_a, method_b = args.pairs
    dims = args.d
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed)))
    circuits = []
    for i in range(args.circuits):
        d = dims[i % len(dims)]
        n = int(rng.integers(1, args.max_qudits + 1))
        depth = int(rng.integers(1, args.max_depth + 1))
        noise = ("d", args.noise_prob) if args.noise_prob > 0 else None
        circuits.append(build_random_clifford_circuit(n, d, depth, rng,
                                                      noise=noise))
    return validate_backend_pair(circuits, method_a, method_b,
                                 shots=args.shots, threshold=args.threshold,
                                 seed=args.seed, threads=threads)


def _cmd_rb(args, threads) -> dict:
    cfg = RBConfig(d=args.d, depths=args.depths,
                   circuits_per_depth=args.circuits, shots=args.shots,
                   p=args.p)
    return run_rb(cfg, seed=args.seed, method=args.method, threads=threads)


def _cmd_lrbd(args, threads) -> dict:
    code = qutrit_detection_code()
    cfg = RBConfig(d=code.d, depths=args.depths,
                   circuits_per_depth=args.circuits, shots=args.shots,
                   p=args.p)
    try:
        return run_lrb_d(cfg, code, seed=args.seed, threads=threads,
                         postselect=args.postselect.replace("-", "_"))
    except ShapeError as exc:  # a depth too large to count its events
        raise _usage_error(str(exc)) from None


def _methods_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2 or any(p not in METHODS for p in parts):
        raise argparse.ArgumentTypeError(
            f"expected two of {METHODS} separated by a comma, got {text!r}")
    try:
        _check_method_pair(*parts)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return parts


def _dim_list(text: str):
    try:
        dims = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}")
    if not dims or any(not 2 <= d <= Dimension.MAX for d in dims):
        raise argparse.ArgumentTypeError(f"dimensions must lie in [2, {Dimension.MAX}]")
    return dims


def build_parser() -> _Parser:
    parser = _Parser(prog="quditsim",
                     description="Qudit stabilizer circuit simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate an SDIM circuit file")
    run.add_argument("file")
    run.add_argument("--shots", type=int, default=1)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--method", choices=METHODS, default="tableau")
    run.add_argument("--out", choices=("json", "counts", "csv"),
                     default="json")
    run.add_argument("--threads", type=int, default=None)

    gen = sub.add_parser("gen", help="emit a builder circuit as SDIM text")
    gensub = gen.add_subparsers(dest="kind", required=True)
    dj = gensub.add_parser("dj")
    dj.add_argument("--d", type=int, required=True)
    dj.add_argument("--oracle", choices=("constant", "identity"),
                    default="constant")
    dj.add_argument("--value", type=int, default=0)
    bv = gensub.add_parser("bv")
    bv.add_argument("--d", type=int, required=True)
    bv.add_argument("--secret", required=True)
    ghz = gensub.add_parser("ghz")
    ghz.add_argument("--n", type=int, required=True)
    ghz.add_argument("--d", type=int, required=True)
    ghz.add_argument("--measure", action="store_true")
    local = gensub.add_parser("local")
    local.add_argument("--n", type=int, default=7)
    local.add_argument("--d", type=int, required=True)
    local.add_argument("--depth", type=int, required=True)
    local.add_argument("--seed", type=int, required=True)
    rand = gensub.add_parser("random")
    rand.add_argument("--n", type=int, required=True)
    rand.add_argument("--d", type=int, required=True)
    rand.add_argument("--depth", type=int, required=True)
    rand.add_argument("--seed", type=int, required=True)
    rand.add_argument("--noise-prob", type=float, default=0.0)

    val = sub.add_parser("validate", help="cross-validate two backends")
    val.add_argument("--pairs", "--methods", dest="pairs", type=_methods_pair,
                     default=["tableau", "statevector"])
    val.add_argument("--circuits", type=int, default=100)
    val.add_argument("--shots", type=int, default=800)
    val.add_argument("--threshold", type=float, default=0.2)
    val.add_argument("--d", type=_dim_list, default=[3, 5, 7])
    val.add_argument("--max-qudits", type=int, default=5)
    val.add_argument("--max-depth", type=int, default=100)
    val.add_argument("--noise-prob", type=float, default=0.0)
    val.add_argument("--seed", type=int, required=True)
    val.add_argument("--csv", default=None)
    val.add_argument("--threads", type=int, default=None)

    bench = _Parser(add_help=False)
    bench.add_argument("--depths", type=_depths, default=(0, 4, 8, 12, 16, 20))
    bench.add_argument("--circuits", type=int, default=30)
    bench.add_argument("--shots", type=int, default=10000)
    bench.add_argument("--p", type=float, required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--csv", default=None)
    bench.add_argument("--manifest", default=None)
    bench.add_argument("--threads", type=int, default=None)

    rb = sub.add_parser("rb", parents=[bench],
                        help="single-qudit randomized benchmarking")
    rb.add_argument("--d", type=int, default=3)
    rb.add_argument("--method", choices=METHODS, default="frames")

    lrbd = sub.add_parser("lrbd", parents=[bench],
                          help="logical benchmarking with error detection")
    lrbd.add_argument("--postselect", choices=("all", "x-only", "x_only"),
                      default="all")

    return parser


def _check_values(args) -> None:
    """Reject option values that the library would refuse, as usage errors."""
    for attr in ("shots", "threads", "circuits", "max_qudits", "max_depth",
                 "n"):
        value = getattr(args, attr, None)
        if value is not None and value < 1:
            raise _usage_error(f"--{attr.replace('_', '-')} must be >= 1, "
                               f"got {value}")
    d = getattr(args, "d", None)
    if isinstance(d, int) and d < 2:  # validate's --d list checks itself
        raise _usage_error(f"--d must be >= 2, got {d}")
    if isinstance(d, int) and d > Dimension.MAX:
        raise _usage_error(f"--d must be <= {Dimension.MAX}, got {d}")
    for attr in ("depth", "seed"):
        value = getattr(args, attr, None)
        if value is not None and value < 0:
            raise _usage_error(f"--{attr} must be >= 0, got {value}")
    value = getattr(args, "value", None)
    if value is not None and not 0 <= value < d:
        raise _usage_error(f"--value must lie in [0, {d}), got {value}")
    for attr in ("p", "noise_prob"):
        value = getattr(args, attr, None)
        if value is not None and not 0.0 <= value <= 1.0:
            raise _usage_error(f"--{attr.replace('_', '-')} must lie in "
                               f"[0, 1], got {value}")
    threshold = getattr(args, "threshold", None)
    if threshold is not None and not 0.0 < threshold <= 1.0:
        raise _usage_error(f"--threshold must lie in (0, 1], got {threshold}")
    depths = getattr(args, "depths", ())
    if any(depth < 0 for depth in depths):
        raise _usage_error(f"--depths must be >= 0, got "
                           f"{','.join(map(str, depths))}")


_COMMANDS = {"run": _cmd_run, "gen": _cmd_gen,
             "validate": partial(_cmd_report, _cmd_validate),
             "rb": partial(_cmd_report, _cmd_rb),
             "lrbd": partial(_cmd_report, _cmd_lrbd)}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_values(args)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except MemoryCapError as exc:
        print(f"memory cap exceeded: {exc}", file=sys.stderr)
        return EXIT_MEMORY
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # noqa: BLE001 - last-resort exit code mapping
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
