import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

#: first zero of the Bessel function J0, where tunneling is suppressed
J0_FIRST_ZERO = 2.404825557695773


def library_example() -> str:
    """The python block under the README's "## Library example" heading."""
    section = README.read_text().split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library example"
    return match.group(1)


def test_library_example_runs_as_written():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    # both the landscape and the eigenstate density peak at site 1
    assert lines[0] == "1 1"
    assert float(lines[1]) == pytest.approx(J0_FIRST_ZERO, abs=0.02)
