"""``tools/code_lines.py`` counts the lines that hold code: no docstrings,
comments or blank lines, and every line of a statement split over lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


def area(r):
    """Function docstring."""
    # a comment line
    return (math.pi
            * r * r)


TEXT = """a string that is not a docstring
counts on both lines"""
'''


def _load():
    spec = importlib.util.spec_from_file_location("pdmpval_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, def, the two lines of the return, the two lines of TEXT
    assert _load().code_lines(SNIPPET) == 6


def test_cli_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert _load().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["6", "1", "7"]
    assert lines[-1].split()[1] == "total"
