from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from pottsim.cli import build_parser

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "identity_outputs.py"
spec = importlib.util.spec_from_file_location("identity_outputs", SCRIPT)
identity_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity_outputs)


def test_every_command_parses(tmp_path, capsys):
    cmds = identity_outputs.commands(tmp_path)
    names = [name for name, _, _ in cmds]
    assert len(set(names)) == len(names), "each command needs its own file names"
    for name, argv, _ in cmds:
        if "--help" in argv:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 0, name
            continue
        args = build_parser().parse_args(argv)
        path = getattr(args, "file", None) or getattr(args, "directory", None)
        if path is not None and path.parent == tmp_path:  # written under DEST by the script
            assert path.name in identity_outputs.GRAPHS, name
        elif path is not None:
            assert (identity_outputs.ROOT / path).exists(), name
    capsys.readouterr()
