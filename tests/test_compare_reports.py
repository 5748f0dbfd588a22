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
