"""`tools/startup_phases.py` times the phases of the README examples, each
in fresh interpreters, with nothing of perfbench."""

import ast
import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "startup_phases.py"
spec = importlib.util.spec_from_file_location("startup_phases", TOOL)
startup_phases = importlib.util.module_from_spec(spec)
spec.loader.exec_module(startup_phases)


def test_prints_one_line_per_example(capsys):
    # one run each of a human example and a --json one with '--'
    assert startup_phases.main(["--runs", "1", "zs-atoms-1", "quat-verify-1-json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["zs-atoms-1", "quat-verify-1-json"]
    for line in lines:
        words = line.split()
        assert words[1:-1:2] == startup_phases.PHASES and words[-1] == "ms"
        assert all(float(ms) > 0 for ms in words[2:-1:2])


def test_refuses_an_unknown_example(capsys):
    with pytest.raises(SystemExit):
        startup_phases.main(["--runs", "1", "zs-atoms-9"])
    assert "no such example: zs-atoms-9" in capsys.readouterr().err


def test_imports_nothing_of_perfbench():
    tree = ast.parse(TOOL.read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.split(".")[0] in {"perfbench", "run", "traced", "launcher"}
                   for name in names)
