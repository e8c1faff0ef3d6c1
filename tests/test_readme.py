"""The README's Python API example runs and prints what it documents."""
import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def api_example() -> str:
    text = README.read_text()
    section = text[text.index("## Python API") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_api_example():
    block = api_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    closure, roots, escape = out.getvalue().splitlines()

    classification, period = closure.split()
    assert classification == "closed"
    assert abs(float(period) - 7.416298709186563) < 1e-12

    got = [complex(z) for z in re.findall(r"\(([^)]*)\)", roots)]
    expected = [complex((2 * k + 1) * math.pi, s) for k in (-2, -1, 0, 1) for s in (-1.0, 1.0)]
    assert len(got) == len(expected)
    assert all(abs(a - b) < 1e-12 for a, b in zip(got, expected))

    assert abs(float(escape) - 1.9753644322886177) < 1e-12
    # the documented output is the printed one
    assert f"# → {escape}\n" in block
