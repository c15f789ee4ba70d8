"""The README's Library block runs as printed."""

import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section):
    text = README.read_text()
    # from the heading up to the next one
    body = text[text.index(f"\n## {section}\n") + 1:].split("\n## ")[0]
    start = body.index("```python\n") + len("```python\n")
    return body[start:body.index("```", start)]


def test_library_block_runs():
    code = _python_block("Library")
    assert "operator_spectrum(g, t=1.0)" in code
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(code, "README.md#Library", "exec"), {})
