"""The python examples of README.md run and print what their comments say.

Each ``print(...)`` line of an example ends in a ``# value`` comment; the
value, up to a ``;`` that starts a remark, is the line the example must
print.  A change to the library that makes an example stale fails here."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def commented_values(code):
    """The value in the comment of each print line, in order."""
    lines = [line for line in code.splitlines() if line.startswith("print(")]
    assert all("#" in line for line in lines)
    return [line.split("#", 1)[1].split(";")[0].strip() for line in lines]


def test_readme_has_two_examples():
    assert len(EXAMPLES) == 2


@pytest.mark.parametrize("code", EXAMPLES,
                         ids=[f"example-{i}" for i in range(len(EXAMPLES))])
def test_example_prints_its_comments(code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == commented_values(code)
