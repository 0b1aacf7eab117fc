"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def expected_output(code: str) -> list:
    """Per `print`, its trailing comment, or the comment line right after it."""
    lines = code.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        if "  # " in line:
            expected.append(line.split("  # ", 1)[1].strip())
        else:
            assert lines[i + 1].startswith("# "), f"no expected value for {line!r}"
            expected.append(lines[i + 1][2:].strip())
    return expected


def test_library_example_prints_its_commented_values():
    code = library_example()
    expected = expected_output(code)
    assert len(expected) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
