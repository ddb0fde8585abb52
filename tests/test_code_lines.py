"""``scripts/code_lines.py``: which lines of a module count as code."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("code_lines", Path(__file__).parent.parent / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment on its own line
import os  # a comment after code


class Limits:
    """Class docstring."""

    most = 3
    """Attribute docstring."""

    def check(self, x):
        """Function docstring,

        with a blank line inside.
        """
        # an indented comment
        if x > self.most:
            raise ValueError(
                "a message "
                "over two lines"
            )


async def wait():
    """Async function docstring."""


MESSAGE = """first line

third line"""
'''

COUNTED = [
    "import os  # a comment after code",
    "class Limits:",
    "most = 3",
    '"""Attribute docstring."""',
    "def check(self, x):",
    "if x > self.most:",
    "raise ValueError(",
    '"a message "',
    '"over two lines"',
    ")",
    "async def wait():",
    'MESSAGE = """first line',
    'third line"""',
]


def test_code_lines_skips_docstrings_blanks_and_comments_and_counts_every_other_line():
    assert code_lines.code_lines(SOURCE) == len(COUNTED)


def test_code_lines_counts_each_module_and_the_total(tmp_path, capsys):
    package = tmp_path / "src" / "tieset"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SOURCE)
    (package / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    n = len(COUNTED)
    assert capsys.readouterr().out == f"{n:5d}  a.py\n    1  b.py\n{n + 1:5d}  total\n"
