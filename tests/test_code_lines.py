"""The code-line counter of ``tools/code_lines.py`` on a small snippet."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SNIPPET = '''"""Module docstring,
two lines."""

# a comment line
import math  # a trailing comment


class A:
    """Class docstring."""

    x = """not a docstring:
    an assigned string"""

    def f(self, y):
        """Function docstring,

        three lines."""
        return math.sqrt(
            y)
'''


def test_counts_code_lines_only():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # import, class, the two lines of x, def, and the two of return
    assert module.code_lines(SNIPPET) == 7
