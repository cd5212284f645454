"""The README's library sketch runs against the package as it is."""

import re
from pathlib import Path

from periproj import element_str

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs():
    # the sketch imports only names the package still exports, and the gate
    # it names is the one the exact backend returns
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(blocks[0], ns)
    assert element_str(ns["spec"], ns["backend"].project(ns["P"], ns["x"])) == "t^1 u^2"
