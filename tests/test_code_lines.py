"""The code-line counter of tools/code_lines.py: what counts as a code line."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


class C:
    """Class docstring."""

    x = """a string that is not a docstring,
    over two lines"""

    def f(self):
        # a comment line
        """Still the docstring: comments are not statements."""
        return (1 +
                2)
'''


def test_docstrings_comments_and_blanks_do_not_count():
    # import, class, x (two lines), def, return (two lines).
    assert code_lines.code_lines(SAMPLE) == 7


def test_main_prints_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "8\n"
