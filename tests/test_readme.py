"""The python examples in README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_python_blocks_run():
    assert BLOCKS
    for code in BLOCKS:
        exec(compile(code, str(README), "exec"), {})
