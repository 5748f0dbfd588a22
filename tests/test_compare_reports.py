from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from pottsim import write_dimacs
from pottsim.cli import main

from conftest import random_colorable_graph

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
compare_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_reports)


@pytest.fixture
def report_dirs(tmp_path):
    """Two directories holding the same solve report and detune sweep."""
    col = tmp_path / "tiny.col"
    col.write_text(write_dimacs(random_colorable_graph(12, 24, seed=1)))
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        assert main(["solve", str(col), "--iters", "3", "--seed", "0", "--t-max", "15",
                     "--out", str(d / "solve.json")]) == 0
        assert main(["detune", str(col), "--iters", "1", "--deltas", "0,30", "--t-max", "2",
                     "--out", str(d / "detune.csv")]) == 0
    return old, new


def edit_runs(path: Path, field: str, change):
    doc = json.loads(path.read_text())
    doc["runs"][0][field] = change(doc["runs"][0][field])
    path.write_text(json.dumps(doc, indent=2) + "\n")


def test_identical_reports_pass(report_dirs, capsys):
    assert compare_reports.main([str(d) for d in report_dirs]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [r.split(" | ")[0] for r in rows] == ["| detune.csv", "| solve.json"]
    assert all(r.endswith("| yes | yes | 0 | yes |") for r in rows)


def test_roundoff_in_vector_energy_prints_but_passes(report_dirs, capsys):
    old, new = report_dirs
    edit_runs(new / "solve.json", "vector_energy", lambda x: x + 1e-12)
    assert compare_reports.main([str(old), str(new)]) == 0
    row = [r for r in capsys.readouterr().out.splitlines() if "solve.json" in r][0]
    assert "| yes | no | 1e-12 | no |" in row


@pytest.mark.parametrize("field, change", [("accuracy", lambda x: x / 2),
                                           ("delta_energy", lambda x: x + 1),
                                           ("cycles", lambda x: 49.5)])
def test_changed_discrete_value_fails(report_dirs, capsys, field, change):
    old, new = report_dirs
    edit_runs(new / "solve.json", field, change)
    assert compare_reports.main([str(old), str(new)]) == 1
    assert "| solve.json | 3 | NO |" in capsys.readouterr().out


def test_missing_report_fails(report_dirs, capsys):
    old, new = report_dirs
    (new / "detune.csv").unlink()
    assert compare_reports.main([str(old), str(new)]) == 1
    assert "detune.csv | missing in" in capsys.readouterr().out


@pytest.fixture
def table_dirs(tmp_path):
    """Two directories holding every table pottsim writes, in each format it offers."""
    suite = tmp_path / "suite"
    suite.mkdir()
    col = suite / "tiny.col"
    col.write_text(write_dimacs(random_colorable_graph(6, 8, seed=1)))
    fast = ["--iters", "2", "--t-max", "5"]
    commands = {
        "solve": ["solve", str(col), *fast],
        "none": ["ablate", str(col), "--mode", "none", *fast],
        "bench": ["bench", str(suite), *fast],
        "detune": ["detune", str(col), "--iters", "1", "--deltas", "0,30", "--t-max", "2"],
    }
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        for name, argv in commands.items():
            for fmt in ("json", "csv"):
                assert main([*argv, "--format", fmt, "--out", str(d / f"{name}.{fmt}")]) == 0
        assert main(["landscape", str(col), "--out", str(d / "landscape.csv")]) == 0
    return old, new


def test_every_table_is_read(table_dirs, capsys):
    old, _ = table_dirs
    assert compare_reports.main([str(d) for d in table_dirs]) == 0
    rows = {r.split(" | ")[0][2:]: r for r in capsys.readouterr().out.splitlines()[2:]}
    assert sorted(rows) == sorted(p.name for p in old.iterdir())
    for name in ("solve", "none", "bench", "detune"):
        # the CSV form of a table reads as the same records as its JSON form
        assert compare_reports.records(old / f"{name}.csv") == compare_reports.records(old / f"{name}.json")
    for name in ("solve.csv", "detune.json", "landscape.csv"):
        assert rows[name].endswith("| yes | yes | 0 | yes |")
    assert rows["bench.csv"].endswith("| 1 | yes | - | - | yes |")
    assert all(cycles is None for (_, _, _, cycles), _ in compare_reports.records(old / "none.csv"))
    index, energy = zip(*compare_reports.records(old / "landscape.csv"))
    assert list(index) == [(i,) for i in range(3 ** 6)]
    assert all(isinstance(e, float) for e in energy)


def test_detune_json_deviation_is_a_real_value(table_dirs, capsys):
    old, new = table_dirs
    path = new / "detune.json"
    doc = json.loads(path.read_text())
    doc["rows"][1]["mean_deviation_deg"] += 1e-9
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert compare_reports.main([str(old), str(new)]) == 0
    row = [r for r in capsys.readouterr().out.splitlines() if "detune.json" in r][0]
    assert "| 2 | yes | no | 1e-09 | no |" in row


@pytest.mark.parametrize("name, line, cell", [("bench.csv", 2, 4), ("solve.csv", 3, 1),
                                              ("landscape.csv", 4, 0)])
def test_changed_csv_discrete_value_fails(table_dirs, capsys, name, line, cell):
    old, new = table_dirs
    path = new / name
    lines = path.read_text().split("\n")
    cells = lines[line].split(",")
    cells[cell] = "7" if cells[cell] != "7" else "8"
    lines[line] = ",".join(cells)
    path.write_text("\n".join(lines))
    assert compare_reports.main([str(old), str(new)]) == 1
    row = [r for r in capsys.readouterr().out.splitlines() if f"| {name} |" in r][0]
    assert "| NO |" in row
