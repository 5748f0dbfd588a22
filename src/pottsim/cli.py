"""Command-line front end: solve, bench, ablate, landscape, detune, gen.

Every emitted report embeds the full effective configuration (gains, step,
schedule, seeds), so rerunning with the same inputs, numpy build and CPU
dispatch target reproduces it byte-for-byte; `--jobs` only changes wall
time, never the result.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .dynamics import DynamicsParams, IntegrationDivergedError, ShilSchedule
from .graph_io import DimacsError, gen_planted, parse_dimacs, planted_sidecar, write_dimacs
from .oracle import enumerate_landscape
from .solver import (
    TABLE_CHUNK_ROWS,
    AblationMode,
    detune_protocol_params,
    detune_sweep,
    effective_config,
    report_csv,
    report_json,
    solve_multi,
    table_text,
)

DEFAULT_DELTAS = "0,10,-10,30,-30,80,-80,150,-150,300,-300"
BENCH_COLUMNS = ("benchmark", "iterations", "mean_cycles", "num_converged",
                 "avg_accuracy", "best_accuracy")


def _add_dynamics_flags(p: argparse.ArgumentParser):
    """Each flag's dest is the DynamicsParams or ShilSchedule field it sets."""
    p.add_argument("--kc", type=float, default=None, dest="coupling_gain", metavar="KC",
                   help="coupling gain")
    p.add_argument("--ks", type=float, default=None, dest="shil_gain_max", metavar="KS",
                   help="peak SHIL gain")
    p.add_argument("--n-phases", type=int, default=None, help="number of lattice phases N")
    p.add_argument("--dt", type=float, default=None, help="integrator step (cycles)")
    p.add_argument("--t-max", type=float, default=None, help="horizon (cycles)")
    p.add_argument("--t-on", type=float, default=None, help="SHIL activation time (cycles)")
    p.add_argument("--ramp", type=float, default=None, help="SHIL ramp duration (cycles)")
    p.add_argument("--noise", type=float, default=None, dest="noise_amplitude", metavar="NOISE",
                   help="noise amplitude")
    p.add_argument("--detune", type=float, default=None, dest="detuning", metavar="DETUNE",
                   help="SHIL detuning rate (rad/cycle)")


def _add_run_flags(p: argparse.ArgumentParser, default_iters: int = 100):
    p.add_argument("--iters", type=int, default=default_iters, help="number of restarts")
    p.add_argument("--seed", type=int, default=0, help="base seed (run i uses seed base+i)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    p.add_argument("--out", type=Path, default=None, help="output path (stdout if omitted)")


def _build_settings(args, base: DynamicsParams | None = None) -> tuple[DynamicsParams, ShilSchedule]:
    def given(cls) -> dict:
        values = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)}
        return {name: val for name, val in values.items() if val is not None}

    base = base if base is not None else DynamicsParams()
    return dataclasses.replace(base, **given(DynamicsParams)), ShilSchedule(**given(ShilSchedule))


def _write_chunks(path: Path, chunks: Iterable[str]):
    with path.open("w") as fh:
        fh.writelines(chunks)


def _write_atomic(files: dict[Path, Iterable[str]]):
    """Write each file's text chunks through a temp file in its directory, and
    rename the temp files over their paths only once all of them are written,
    so a failed write leaves every existing file untouched."""
    tmps: dict[Path, Path] = {}
    try:
        for path, chunks in files.items():
            if path.exists() and not path.is_file():
                # a pipe or device such as /dev/stdout must be written, not replaced
                _write_chunks(path, chunks)
                continue
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            tmps[tmp] = path
            try:
                _write_chunks(tmp, chunks)
            except OSError as exc:
                raise OSError(f"{path}: {exc.strerror or exc}") from exc
        for tmp, path in tmps.items():
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def _emit(chunks: Iterable[str], out: Path | None):
    """Write text chunks to `out`, or to stdout as they come.  A reader that
    closes stdout early (`| head`) ends the output quietly: the command goes on
    and exits as it would have."""
    if out is not None:
        _write_atomic({out: chunks})
        return
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now writes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_solve(args) -> int:
    graph = parse_dimacs(args.file.read_text())
    params, schedule = _build_settings(args)
    report = solve_multi(
        graph, params, schedule, args.iters, args.seed,
        benchmark=args.file.stem, jobs=args.jobs, mode=getattr(args, "mode", None),
    )
    _emit([report_json(report) if args.format == "json" else report_csv(report)], args.out)
    return 0


def _cmd_bench(args) -> int:
    files = sorted(args.directory.glob("*.col"), key=lambda p: p.name)
    if not files:
        raise ValueError(f"no .col files in {args.directory}")
    params, schedule = _build_settings(args)
    rows = []
    for path in files:
        graph = parse_dimacs(path.read_text())
        r = solve_multi(graph, params, schedule, args.iters, args.seed,
                        benchmark=path.stem, jobs=args.jobs)
        rows.append((r.benchmark, r.num_runs, r.mean_cycles, r.num_converged,
                     r.avg_accuracy, r.best_accuracy))
    cfg = effective_config(params, schedule, args.iters, args.seed)
    _emit(table_text({"params": cfg}, BENCH_COLUMNS, rows, args.format), args.out)
    return 0


def _cmd_landscape(args) -> int:
    graph = parse_dimacs(args.file.read_text())
    scape = enumerate_landscape(graph, args.n_phases)
    head = table_text({"benchmark": args.file.stem, "n_phases": args.n_phases},
                      ("index", "energy"), ())
    _emit(itertools.chain(head, _energy_chunks(scape.energies)), args.out)
    print(
        f"{args.file.stem}: {scape.n_states} states, min energy {scape.min_energy:.6g}, "
        f"{scape.num_global_minima} global minima, {scape.num_local_minima} local minima",
        file=sys.stderr,
    )
    return 0


def _energy_chunks(energies: np.ndarray) -> Iterator[str]:
    """The `index,energy` rows of sorted energies as table_text writes them,
    TABLE_CHUNK_ROWS to a chunk.  Each run of equal energies is formatted once;
    runs are cut where the bits change, since -0.0 and 0.0 print differently."""
    bits = energies.view(np.int64)
    cuts = (np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()
    chunk, room = [], TABLE_CHUNK_ROWS
    for a, b in zip([0, *cuts], [*cuts, len(energies)]):
        cell = f",{float(energies[a])}\n"
        while a < b:
            n = min(b - a, room)
            chunk.append(cell.join(map(str, range(a, a + n))) + cell)
            a, room = a + n, room - n
            if room == 0:
                yield "".join(chunk)
                chunk, room = [], TABLE_CHUNK_ROWS
    if chunk:
        yield "".join(chunk)


def _cmd_detune(args) -> int:
    graph = parse_dimacs(args.file.read_text())
    params, schedule = _build_settings(args, base=detune_protocol_params())
    if params.detuning != 0:
        # each run's rate comes from --deltas, so the header must not claim another
        raise ValueError("detune sets each run's detuning from --deltas; --detune must be 0")
    deltas = [float(tok) for tok in args.deltas.split(",") if tok.strip()]
    sweep = detune_sweep(graph, params, schedule, deltas, args.iters,
                         base_seed=args.seed, jobs=args.jobs)
    cfg = effective_config(params, schedule, args.iters, args.seed)
    _emit(table_text({"benchmark": args.file.stem, "params": cfg},
                     ("delta", "mean_deviation_deg"), sweep, args.format), args.out)
    return 0


def _cmd_gen(args) -> int:
    sidecar = args.out.with_suffix(".json")
    if sidecar == args.out:
        raise ValueError(f"--out {args.out} is also the path of its .json sidecar; "
                         "give the graph another suffix, such as .col")
    instance = gen_planted(args.n, args.m, args.k, args.seed)
    _write_atomic({
        args.out: [write_dimacs(instance.graph)],
        sidecar: [planted_sidecar(instance) + "\n"],
    })
    print(
        f"wrote {args.out} ({args.n} vertices, {args.m} edges, "
        f"{args.k}-colorable by construction, seed {args.seed})",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pottsim",
        description="Coupled-oscillator Potts machine simulator for graph K-coloring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="multi-restart solve of one DIMACS .col file")
    p.add_argument("file", type=Path)
    _add_run_flags(p)
    _add_dynamics_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="solve every .col file in a directory, emit a summary")
    p.add_argument("directory", type=Path)
    _add_run_flags(p)
    _add_dynamics_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("ablate", help="solve with one subsystem disabled")
    p.add_argument("file", type=Path)
    p.add_argument("--mode", required=True, choices=[m.value for m in AblationMode])
    _add_run_flags(p)
    _add_dynamics_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("landscape", help="enumerate the full lattice energy landscape")
    p.add_argument("file", type=Path)
    p.add_argument("--n-phases", type=int, default=3)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_landscape)

    p = sub.add_parser("detune", help="lattice-deviation sweep over SHIL detuning rates")
    p.add_argument("file", type=Path)
    p.add_argument("--deltas", default=DEFAULT_DELTAS,
                   help="comma-separated detuning rates (rad/cycle)")
    _add_run_flags(p, default_iters=10)
    _add_dynamics_flags(p)
    p.set_defaults(func=_cmd_detune, format="csv")

    p = sub.add_parser("gen", help="generate a planted K-colorable instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (DimacsError, IntegrationDivergedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
