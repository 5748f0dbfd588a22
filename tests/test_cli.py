from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from pottsim import (DynamicsParams, ShilSchedule, cli, gen_planted, parse_dimacs, solver,
                     write_dimacs)
from pottsim.potts import Coloring, accuracy
from pottsim.cli import main
from pottsim.solver import detune_protocol_params, effective_config, table_text

from conftest import BENCH_DIR, random_colorable_graph
from helpers import edge_set


@pytest.fixture
def tiny_col(tmp_path):
    graph = random_colorable_graph(12, 24, seed=1)
    path = tmp_path / "tiny.col"
    path.write_text(write_dimacs(graph))
    return path


@pytest.fixture
def k3_col(tmp_path):
    path = tmp_path / "k3.col"
    path.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    return path


@pytest.fixture
def seven_col(tmp_path):
    # `gen --n 7 --m 10 --k 3 --seed 0`; at --n-phases 7 its landscape has
    # 823 543 rows, at 10 the 10^7 rows of the enumeration guard
    path = tmp_path / "g7.col"
    path.write_text("p edge 7 10\n" + "".join(
        f"e {u} {v}\n" for u, v in ((1, 2), (1, 3), (1, 7), (2, 4), (2, 5), (2, 6), (2, 7),
                                    (3, 5), (3, 6), (3, 7))))
    return path


def pottsim_process(*argv: str, code: str = "from pottsim.cli import entrypoint; entrypoint()",
                    **popen) -> subprocess.Popen:
    """A fresh Python process running `code` with argv, on this tree's src/."""
    env = {**os.environ, "PYTHONPATH": str(BENCH_DIR.parent / "src")}
    return subprocess.Popen([sys.executable, "-c", code, *map(str, argv)], env=env, **popen)


FAST_FLAGS = ["--iters", "3", "--seed", "0", "--t-max", "15"]


POOL_MODULES = """
import sys
from pottsim.cli import main
assert main(sys.argv[1:]) == 0
print(sorted({"multiprocessing", "concurrent.futures.process"} & set(sys.modules)))
"""


class TestSolveCommand:
    def test_serial_solve_never_imports_the_pool(self, tiny_col, tmp_path):
        serial, pooled = tmp_path / "jobs1.json", tmp_path / "jobs2.json"
        proc = pottsim_process("solve", tiny_col, *FAST_FLAGS, "--jobs", "1", "--out", serial,
                               code=POOL_MODULES, stdout=subprocess.PIPE, text=True)
        assert proc.communicate()[0] == "[]\n"
        assert proc.returncode == 0
        # a fresh process imports the pool for its first batch, to the same bytes
        proc = pottsim_process("solve", tiny_col, *FAST_FLAGS, "--jobs", "2", "--out", pooled,
                               code=POOL_MODULES, stdout=subprocess.PIPE, text=True)
        assert proc.communicate()[0] == "['concurrent.futures.process', 'multiprocessing']\n"
        assert proc.returncode == 0
        assert pooled.read_bytes() == serial.read_bytes()

    def test_writes_json_report(self, tiny_col, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["solve", str(tiny_col), *FAST_FLAGS, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["benchmark"] == "tiny"
        assert doc["params"]["iterations"] == 3
        assert {"avg_accuracy", "best_accuracy"} <= set(doc["aggregate"])

    def test_csv_format(self, tiny_col, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["solve", str(tiny_col), *FAST_FLAGS, "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "seed,accuracy,delta_energy,vector_energy,cycles"
        assert len(lines) == 2 + 3

    def test_stdout_when_no_out(self, tiny_col, capsys):
        rc = main(["solve", str(tiny_col), *FAST_FLAGS])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["benchmark"] == "tiny"

    def test_rerun_is_bit_identical(self, tiny_col, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", str(tiny_col), *FAST_FLAGS, "--out", str(out1)])
        main(["solve", str(tiny_col), *FAST_FLAGS, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_do_not_change_output(self, tiny_col, tmp_path):
        # detune runs all deltas on one pool and regroups the results by delta
        for command, extra in (("solve", []), ("detune", ["--deltas", "0,30,-300"])):
            out1, out2 = tmp_path / f"{command}1.out", tmp_path / f"{command}2.out"
            argv = [command, str(tiny_col), *FAST_FLAGS, *extra]
            assert main([*argv, "--jobs", "1", "--out", str(out1)]) == 0
            assert main([*argv, "--jobs", "2", "--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()

    def test_report_regenerates_from_embedded_config(self, tiny_col, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", str(tiny_col), *FAST_FLAGS, "--out", str(out1)])
        cfg = json.loads(out1.read_text())["params"]
        dyn, sched = cfg["dynamics"], cfg["schedule"]
        argv = [
            "solve", str(tiny_col),
            "--iters", str(cfg["iterations"]),
            "--seed", str(cfg["base_seed"]),
            "--kc", str(dyn["coupling_gain"]),
            "--ks", str(dyn["shil_gain_max"]),
            "--n-phases", str(dyn["n_phases"]),
            "--noise", str(dyn["noise_amplitude"]),
            "--detune", str(dyn["detuning"]),
            "--dt", str(dyn["dt"]),
            "--t-max", str(dyn["t_max"]),
            "--t-on", str(sched["t_on"]),
            "--ramp", str(sched["ramp"]),
            "--out", str(out2),
        ]
        assert main(argv) == 0
        assert out1.read_bytes() == out2.read_bytes()


# Every dynamics flag with a value distinct from each other; together they
# set every field of a report's dynamics and schedule blocks.
FLAG_FIELDS = [
    ("--kc", "0.7", "dynamics", "coupling_gain"),
    ("--ks", "1.3", "dynamics", "shil_gain_max"),
    ("--n-phases", "4", "dynamics", "n_phases"),
    ("--dt", "0.01", "dynamics", "dt"),
    ("--t-max", "3", "dynamics", "t_max"),
    ("--t-on", "1", "schedule", "t_on"),
    ("--ramp", "0.25", "schedule", "ramp"),
    ("--noise", "0.03", "dynamics", "noise_amplitude"),
    ("--detune", "0.2", "dynamics", "detuning"),
]


class TestFlagsSetTheirFields:
    @staticmethod
    def params_of(command, target, extra, tmp_path):
        """The params block of a one-restart report run with every flag in FLAG_FIELDS
        that `command` accepts."""
        flags = [tok for flag, value, _, _ in FLAG_FIELDS
                 if command != "detune" or flag != "--detune" for tok in (flag, value)]
        out = tmp_path / f"{command}.out"
        argv = [command, str(target), *extra, *flags, "--iters", "1", "--out", str(out)]
        assert main(argv) == 0
        text = out.read_text()
        if command == "detune":
            return json.loads(text.split("\n")[0][2:])["params"]
        return json.loads(text)["params"]

    @pytest.mark.parametrize("command, extra", [
        ("solve", []), ("ablate", ["--mode", "full"]), ("bench", []), ("detune", ["--deltas", "0"]),
    ])
    def test_each_flag_sets_exactly_its_field(self, tiny_col, tmp_path, command, extra):
        target = tiny_col.parent if command == "bench" else tiny_col
        params = self.params_of(command, target, extra, tmp_path)
        fields = [(block, name, val) for block in ("dynamics", "schedule")
                  for name, val in params[block].items()]
        flagged = set()
        for flag, value, block, field in FLAG_FIELDS:
            if command == "detune" and flag == "--detune":
                continue
            holders = [(b, name) for b, name, val in fields if val == float(value)]
            assert holders == [(block, field)], flag
            flagged.add((block, field))
        # and every embedded field is one of them (detune's --detune must stay 0)
        skipped = {("dynamics", "detuning")} if command == "detune" else set()
        assert flagged == {(b, name) for b, name, _ in fields} - skipped

    def test_ablation_mode_is_not_the_schedule_mode(self, tiny_col, tmp_path):
        params = self.params_of("ablate", tiny_col, ["--mode", "sync_only"], tmp_path)
        assert params["mode"] == "sync_only"
        assert "mode" not in params["schedule"]


class TestBenchCommand:
    def test_summary_over_directory(self, tmp_path):
        bench = tmp_path / "suite"
        bench.mkdir()
        for name, seed in (("b_one", 3), ("a_two", 4)):
            graph = random_colorable_graph(10, 18, seed=seed)
            (bench / f"{name}.col").write_text(write_dimacs(graph))
        out = tmp_path / "summary.json"
        rc = main(["bench", str(bench), *FAST_FLAGS, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [row["benchmark"] for row in doc["rows"]] == ["a_two", "b_one"]
        for row in doc["rows"]:
            assert {"iterations", "mean_cycles", "avg_accuracy", "best_accuracy"} <= set(row)

    def test_csv_summary(self, tmp_path):
        bench = tmp_path / "suite"
        bench.mkdir()
        (bench / "x.col").write_text(write_dimacs(random_colorable_graph(10, 18, seed=3)))
        out = tmp_path / "summary.csv"
        rc = main(["bench", str(bench), *FAST_FLAGS, "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1].startswith("benchmark,iterations,mean_cycles")

    def test_empty_directory_errors(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        rc = main(["bench", str(empty), "--out", str(tmp_path / "s.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestAblateCommand:
    def test_mode_none(self, tiny_col, tmp_path):
        out = tmp_path / "a.json"
        rc = main(["ablate", str(tiny_col), "--mode", "none", "--iters", "20",
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["mode"] == "none"

    def test_mode_is_required(self, tiny_col):
        assert main(["ablate", str(tiny_col)]) == 2


class TestLandscapeCommand:
    def test_k3_landscape_csv(self, k3_col, tmp_path):
        out = tmp_path / "l.csv"
        rc = main(["landscape", str(k3_col), "--n-phases", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# ")  # embedded config
        assert lines[1] == "index,energy"
        assert len(lines) == 29  # config + header + 27 states
        assert float(lines[2].split(",")[1]) == pytest.approx(-1.5)

    def test_energy_chunks_are_the_table_rows(self, monkeypatch):
        # runs of equal energies cross chunk ends; -0.0 and 0.0 are one value
        # to the sort but print differently
        energies = np.sort(np.repeat([-1.5, -0.0, 0.0, 0.1, 2.0], [9, 3, 2, 1, 20]))
        monkeypatch.setattr(cli, "TABLE_CHUNK_ROWS", 7)
        chunks = list(cli._energy_chunks(energies))
        assert [c.count("\n") for c in chunks] == [7, 7, 7, 7, 7]
        head, = table_text({}, ("index", "energy"), ())
        table, = table_text({}, ("index", "energy"), enumerate(energies.tolist()))
        assert head + "".join(chunks) == table

    def test_guard_size_streams_in_bounded_memory(self, seven_col):
        # 10^7 rows (266 MB) into a digest: the same bytes as the table built
        # as one string, at a peak RSS near the enumeration's own (about 135 MB)
        code = ("import resource, sys\nfrom pottsim.cli import main\nrc = main(sys.argv[1:])\n"
                "sys.stdout.flush()\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
                "sys.exit(rc)")
        proc = pottsim_process("landscape", seven_col, "--n-phases", "10", code=code,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        digest = hashlib.sha256()
        for block in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(block)
        err = proc.stderr.read().decode()
        assert proc.wait() == 0, err
        assert digest.hexdigest() == \
            "7570f46742723583f1d034eb1b8aa09db8616fcca13598c010c3be5ff74ad959"
        peak_mb = int(err.split()[-1]) / 1024
        assert peak_mb < 400

    def test_failed_streamed_write_leaves_no_file(self, seven_col, capsys, monkeypatch):
        out = seven_col.parent / "l.csv"
        real_write = cli._write_chunks

        def fail_after_one_chunk(path, chunks):
            def first_chunk_then_full():
                yield next(iter(chunks))
                raise OSError("no space left on device")
            real_write(path, first_chunk_then_full())

        monkeypatch.setattr(cli, "_write_chunks", fail_after_one_chunk)
        rc = main(["landscape", str(seven_col), "--n-phases", "7", "--out", str(out)])
        assert rc == 1
        assert f"error: {out}: no space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in seven_col.parent.iterdir()) == ["g7.col"]

    def test_reader_closing_early_ends_quietly(self, seven_col):
        # the table is written a chunk at a time, so later chunks meet the
        # closed pipe; the command exits 0 and prints no error or traceback
        proc = pottsim_process("landscape", seven_col, "--n-phases", "7",
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b'# {"benchmark": "g7", "n_phases": 7}\n'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 0
        assert err == ("g7: 823543 states, min energy -7.48523, 112 global minima, "
                       "196 local minima\n")

    @pytest.mark.parametrize("n_phases", ["0", "1", "-2"])
    def test_fewer_than_two_phases_rejected(self, k3_col, tmp_path, capsys, n_phases):
        out = tmp_path / "l.csv"
        rc = main(["landscape", str(k3_col), "--n-phases", n_phases, "--out", str(out)])
        assert rc == 1
        assert "error: n_phases must be >= 2" in capsys.readouterr().err
        assert not out.exists()


class TestDetuneCommand:
    def test_sweep_csv(self, tiny_col, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["detune", str(tiny_col), "--deltas", "0,200", "--iters", "2",
                   "--t-max", "10", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "delta,mean_deviation_deg"
        assert len(lines) == 4
        assert float(lines[2].split(",")[1]) < float(lines[3].split(",")[1])

    def test_format_json_holds_the_csv_rows(self, tiny_col, tmp_path):
        argv = ["detune", str(tiny_col), "--deltas", "0,200", "--iters", "1", "--t-max", "2"]
        outs = {}
        for name, extra in (("default", []), ("csv", ["--format", "csv"]),
                            ("json", ["--format", "json"])):
            outs[name] = tmp_path / f"{name}.out"
            assert main([*argv, *extra, "--out", str(outs[name])]) == 0
        assert outs["default"].read_bytes() == outs["csv"].read_bytes()
        lines = outs["csv"].read_text().split("\n")
        doc = json.loads(outs["json"].read_text())
        assert set(doc) == {"benchmark", "params", "rows"}
        assert {"benchmark": doc["benchmark"], "params": doc["params"]} == json.loads(lines[0][2:])
        assert doc["rows"] == [{"delta": float(delta), "mean_deviation_deg": float(dev)}
                               for delta, dev in (line.split(",") for line in lines[2:-1])]
        assert len(doc["rows"]) == 2

    @pytest.mark.parametrize("deltas", ["0,inf", "0,nan"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_non_finite_rate_rejected_before_any_block(self, tiny_col, tmp_path, capsys,
                                                       monkeypatch, deltas, jobs):
        # the sweep checks its rates itself: no block, not even the first, runs
        calls = []
        monkeypatch.setattr(solver, "_detune_task", lambda block: calls.append(block) or [])
        out = tmp_path / "d.csv"
        rc = main(["detune", str(tiny_col), "--deltas", deltas, "--iters", "2", "--t-max", "2",
                   "--jobs", jobs, "--out", str(out)])
        assert rc == 1
        assert "detuning must be finite" in capsys.readouterr().err
        assert not out.exists()
        assert calls == []

    def test_detune_flag_must_be_zero(self, tiny_col, tmp_path, capsys):
        # the sweep sets each run's rate from --deltas, so a nonzero --detune
        # would be ignored yet recorded in the header
        argv = ["detune", str(tiny_col), "--deltas", "0,200", "--iters", "1", "--t-max", "2"]
        out = tmp_path / "d.csv"
        assert main([*argv, "--detune", "5", "--out", str(out)]) == 1
        assert "--deltas" in capsys.readouterr().err
        assert not out.exists()
        # 0 is what every detune header records, so a report still regenerates
        plain, zero = tmp_path / "plain.csv", tmp_path / "zero.csv"
        assert main([*argv, "--out", str(plain)]) == 0
        header = json.loads(plain.read_text().split("\n")[0][2:])
        detuning = str(header["params"]["dynamics"]["detuning"])
        assert main([*argv, "--detune", detuning, "--out", str(zero)]) == 0
        assert plain.read_bytes() == zero.read_bytes()


FAST_CONFIG = effective_config(DynamicsParams(t_max=15.0), ShilSchedule(), 3, 0)
RUN_COLUMNS = ["seed", "accuracy", "delta_energy", "vector_energy", "cycles"]
BENCH_COLUMNS = ["benchmark", "iterations", "mean_cycles", "num_converged",
                 "avg_accuracy", "best_accuracy"]
DETUNE_FLAGS = ["--iters", "1", "--deltas", "0,30", "--t-max", "2"]
DETUNE_HEAD = {"benchmark": "tiny", "params": effective_config(
    dataclasses.replace(detune_protocol_params(), t_max=2.0), ShilSchedule(), 1, 0)}


@pytest.mark.parametrize("argv, fmt, head, columns, num_rows", [
    (["solve", "{col}", *FAST_FLAGS], "csv", {"benchmark": "tiny", "params": FAST_CONFIG},
     RUN_COLUMNS, 3),
    (["ablate", "{col}", "--mode", "none", *FAST_FLAGS], "csv",
     {"benchmark": "tiny", "params": {**FAST_CONFIG, "mode": "none"}}, RUN_COLUMNS, 3),
    (["bench", "{dir}", *FAST_FLAGS], "csv", {"params": FAST_CONFIG}, BENCH_COLUMNS, 1),
    (["bench", "{dir}", *FAST_FLAGS], "json", {"params": FAST_CONFIG}, BENCH_COLUMNS, 1),
    (["detune", "{col}", *DETUNE_FLAGS], "csv", DETUNE_HEAD, ["delta", "mean_deviation_deg"], 2),
    (["detune", "{col}", *DETUNE_FLAGS], "json", DETUNE_HEAD, ["delta", "mean_deviation_deg"], 2),
    (["landscape", "{k3}", "--n-phases", "3"], None, {"benchmark": "k3", "n_phases": 3},
     ["index", "energy"], 27),
], ids=["solve-csv", "ablate-none-csv", "bench-csv", "bench-json", "detune-csv", "detune-json",
        "landscape"])
def test_every_table_speaks_one_dialect(tmp_path, argv, fmt, head, columns, num_rows):
    # CSV: `# ` + the head as JSON, the column names, one line per row, a None
    # cell empty.  JSON: the head's keys and one {column: value} per row.
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "tiny.col").write_text(write_dimacs(random_colorable_graph(12, 24, seed=1)))
    (tmp_path / "k3.col").write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    paths = {"{col}": suite / "tiny.col", "{dir}": suite, "{k3}": tmp_path / "k3.col"}
    out = tmp_path / "table.out"
    argv = [str(paths.get(tok, tok)) for tok in argv]
    assert main([*argv, *(["--format", fmt] if fmt else []), "--out", str(out)]) == 0
    text = out.read_text()
    if fmt == "json":
        doc = json.loads(text)
        rows = doc.pop("rows")
        assert doc == head
        assert all(list(row) == columns for row in rows)
        assert len(rows) == num_rows
        return
    lines = text.split("\n")
    assert lines[0].startswith("# ") and json.loads(lines[0][2:]) == head
    assert lines[1].split(",") == columns
    assert lines[-1] == "" and len(lines[2:-1]) == num_rows
    cells = [line.split(",") for line in lines[2:-1]]
    assert all(len(row) == len(columns) for row in cells)
    if argv[0] == "ablate":
        # mode none scores the initial states, so no run has a cycle count
        assert [row[-1] for row in cells] == [""] * num_rows


class TestGenCommand:
    def test_generates_instance_and_sidecar(self, tmp_path):
        out = tmp_path / "rnd.col"
        rc = main(["gen", "--n", "40", "--m", "80", "--k", "3", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
        graph = parse_dimacs(out.read_text())
        assert (graph.num_vertices, graph.num_edges) == (40, 80)
        sidecar = json.loads(out.with_suffix(".json").read_text())
        planted = Coloring(np.array(sidecar["planted"]), sidecar["k"])
        assert accuracy(graph, planted) == 1.0
        # determinism: library call with the same seed gives the same graph
        assert edge_set(gen_planted(40, 80, 3, 5).graph) == edge_set(graph)

    def test_failed_sidecar_write_keeps_old_pair(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "rnd.col"
        sidecar = out.with_suffix(".json")
        out.write_bytes(b"old graph\n")
        sidecar.write_bytes(b"old sidecar\n")
        real_write = cli._write_chunks

        def failing_sidecar(path, chunks):
            if path.name.startswith(f".{sidecar.name}."):
                raise OSError("no space left on device")
            return real_write(path, chunks)

        monkeypatch.setattr(cli, "_write_chunks", failing_sidecar)
        rc = main(["gen", "--n", "40", "--m", "80", "--seed", "5", "--out", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert out.read_bytes() == b"old graph\n"
        assert sidecar.read_bytes() == b"old sidecar\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rnd.col", "rnd.json"]

    def test_out_may_not_be_its_own_sidecar(self, tmp_path, capsys):
        rc = main(["gen", "--n", "10", "--m", "12", "--seed", "1",
                   "--out", str(tmp_path / "inst.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_rejected(self, tmp_path, capsys):
        rc = main(["gen", "--n", "10", "--m", "12", "--seed", "-1",
                   "--out", str(tmp_path / "g.col")])
        assert rc == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_infeasible_request_errors(self, tmp_path, capsys):
        rc = main(["gen", "--n", "4", "--m", "7", "--k", "2", "--seed", "1",
                   "--out", str(tmp_path / "x.col")])
        assert rc == 1
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "x.col").exists()


class TestErrors:
    def test_unknown_flag(self, tiny_col):
        assert main(["solve", str(tiny_col), "--bogus"]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path / "absent.col"), "--iters", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "detune"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_negative_seed_rejected(self, tiny_col, tmp_path, capsys, command, jobs):
        out = tmp_path / "r.out"
        rc = main([command, str(tiny_col), "--seed", "-1", "--iters", "2", "--t-max", "2",
                   "--jobs", jobs, "--out", str(out)])
        assert rc == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_parameter_leaves_no_partial_report(self, tiny_col, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(["solve", str(tiny_col), "--dt", "-0.5", "--out", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, rc", [
        (["solve", "--ks", "60"], 1),      # dt * n_phases * K_s = 0.02 * 3 * 60 = 3.6
        (["detune", "--deltas", "0"], 0),  # the detune protocol: 0.008 * 3 * 60 = 1.44
        (["solve"], 0),                    # the defaults: 0.02 * 3 * 2 = 0.12
    ], ids=["unstable", "detune-protocol", "defaults"])
    def test_rk4_bound_checked_before_running(self, tiny_col, tmp_path, capsys, argv, rc):
        out = tmp_path / "r.out"
        cmd, *flags = argv
        assert main([cmd, str(tiny_col), *flags, "--iters", "1", "--t-max", "2",
                     "--out", str(out)]) == rc
        if rc:
            assert "stability limit 2.78" in capsys.readouterr().err
        assert out.exists() == (rc == 0)

    @pytest.mark.parametrize("flags", [
        ["--t-on", "nan"], ["--t-on", "inf"], ["--ramp", "inf"], ["--dt", "inf", "--ks", "0"],
        ["--dt", "1e-320"],
    ], ids=["t-on-nan", "t-on-inf", "ramp-inf", "dt-inf", "dt-step-count-inf"])
    def test_non_finite_schedule_or_step_rejected(self, tiny_col, tmp_path, capsys, flags):
        out = tmp_path / "r.json"
        rc = main(["solve", str(tiny_col), *flags, "--iters", "1", "--out", str(out)])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_coupling_unstable_run_fails_by_its_seed(self, tmp_path, capsys):
        # K_c = 40 passes the pre-run RK4 bound (it reads only K_s), but the
        # couplings make every step overshoot on flat_200: its Lyapunov value
        # rises within the first cycles while the phases stay finite
        out = tmp_path / "r.json"
        rc = main(["solve", str(BENCH_DIR / "flat_200_479-1.col"), "--kc", "40",
                   "--iters", "1", "--seed", "7", "--t-max", "5", "--out", str(out)])
        assert rc == 1
        assert "run with seed 7: Lyapunov value rose" in capsys.readouterr().err
        assert not out.exists()

    def test_ramp_free_onset_is_not_a_divergence(self, tmp_path):
        # with --ramp 0 the SHIL well switches on whole at t_on = 5, a
        # checkpoint time, and may raise the Lyapunov value there; the flow
        # itself is stable
        out = tmp_path / "r.json"
        rc = main(["solve", str(BENCH_DIR / "flat_200_479-1.col"), "--ramp", "0",
                   "--iters", "4", "--out", str(out)])
        assert rc == 0
        assert out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tiny_col, tmp_path, capsys, jobs):
        out = tmp_path / "r.json"
        rc = main(["solve", str(tiny_col), "--iters", "1", "--jobs", jobs, "--out", str(out)])
        assert rc == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_write_keeps_existing_out_file(self, tiny_col, tmp_path, capsys, monkeypatch):
        out = tmp_path / "r.json"
        out.write_text("old report\n")
        real_write = cli._write_chunks

        def partial_write(path, chunks):
            real_write(path, ["".join(chunks)[:10]])
            raise OSError("no space left on device")

        def failed_replace(src, dst):
            raise OSError("rename failed")

        for owner, attr, fail in ((cli, "_write_chunks", partial_write),
                                  (os, "replace", failed_replace)):
            with monkeypatch.context() as m:
                m.setattr(owner, attr, fail)
                rc = main(["solve", str(tiny_col), *FAST_FLAGS, "--out", str(out)])
            assert rc == 1
            assert "error:" in capsys.readouterr().err
            assert out.read_text() == "old report\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "tiny.col"]

    @pytest.mark.parametrize("command", ["solve", "gen"])
    def test_failed_write_names_the_out_path(self, tiny_col, tmp_path, capsys, command):
        out = tmp_path / "missing" / ("r.json" if command == "solve" else "g.col")
        argv = (["solve", str(tiny_col), *FAST_FLAGS] if command == "solve"
                else ["gen", "--n", "12", "--m", "20"])
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(out) in err and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.col"]

    def test_out_may_name_a_pipe(self, tiny_col, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        rc = main(["solve", str(tiny_col), *FAST_FLAGS, "--out", str(fifo)])
        reader.join(timeout=60)
        assert rc == 0
        assert json.loads(got[0])["benchmark"] == "tiny"
        assert fifo.is_fifo()

    def test_malformed_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 2 1\ne 9 1\n")
        rc = main(["solve", str(bad), "--iters", "1"])
        assert rc == 1
        assert "out of range" in capsys.readouterr().err
