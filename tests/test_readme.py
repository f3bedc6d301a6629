"""The README's Library example runs as written."""

import re
from pathlib import Path

import frozen
from replica import to_sig_digits

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_computes_pi():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert to_sig_digits(namespace["pi"], 1000) == frozen.PI[:1001]
