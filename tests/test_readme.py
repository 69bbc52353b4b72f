"""README's python examples run as they are written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_every_python_block_of_the_readme_runs():
    blocks = python_blocks()
    assert blocks
    printed = []
    for code in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, str(README), "exec"), {"__name__": "readme"})
        printed.append(out.getvalue())
    detect = [text for code, text in zip(blocks, printed) if '"detect"' in code]
    assert detect and detect[0].splitlines()[-1] == "[5, 9]"
    select = [text for code, text in zip(blocks, printed) if "target=" in code]
    assert select and select[0].splitlines() == [
        "(2, 5, 4, 10)", "True", "target 0.75 unreachable; all 10 nodes achieve 0.70666"
    ]
