"""The README's ``python`` blocks run against the library as it is."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 2
    namespace: dict = {}
    printed = []
    for i, block in enumerate(blocks, 1):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(compile(block, f"README.md python block {i}", "exec"), namespace)
        printed.append([float(line) for line in out.getvalue().split()])
    (decomp_err, vector_err), (acc,) = printed
    assert decomp_err <= 1e-9 and vector_err <= 1e-6
    assert 0.9 <= acc <= 1.0
