"""CLI paths beyond the main suite: parse errors at their line, a failing
--check, and the installed entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symcut.brute import BruteResult
from symcut.cli import main, run
from instance_texts import TRIANGLE_TEXT

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text(TRIANGLE_TEXT)
    return str(path)


@pytest.mark.parametrize("kind,text,message", [
    ("graph", "3 2\n1 2 3\n2 3\n", "edge line must be 'u v w'"),
    ("hypergraph", "3 2\n2 2 1 2\n4\n", "hyperedge line must be 'w k v1 ... vk'"),
], ids=["graph", "hypergraph"])
def test_malformed_item_line_is_reported_at_its_line(tmp_path, capsys, kind, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["mincut", str(path), "--kind", kind]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and message in err


def test_check_exits_1_when_enumeration_disagrees(triangle_file, capsys, monkeypatch):
    monkeypatch.setattr("symcut.cli.brute_min_bipartition",
                        lambda oracle, n: BruteResult(0b001, 0))
    assert main(["mincut", triangle_file, "--check", "--json"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["lambda"] == 3
    assert report["check"] == {"ran": True, "ok": False, "expected": 0}
    assert "error: value 3 != enumerated 0" in captured.err


def test_module_entry_point_solves_a_file(triangle_file):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "symcut.cli", "mincut", triangle_file,
                           "--json"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["lambda"] == 3


def test_run_exits_with_the_command_status(triangle_file, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["symcut", "mincut", triangle_file])
    with pytest.raises(SystemExit) as exit_info:
        run()
    assert exit_info.value.code == 0
    assert "lambda=3 S={3}" in capsys.readouterr().out
