"""The README's library sketch runs against the package as it is, and its
backend table lists the methods the backends have."""

import inspect
import re
from pathlib import Path

from periproj import BfsBackend, ExactBackend, element_str

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs():
    # the sketch imports only names the package still exports, and the gate
    # it names is the one the exact backend returns
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(blocks[0], ns)
    assert element_str(ns["spec"], ns["backend"].project(ns["P"], ns["x"])) == "t^1 u^2"


def test_readme_backend_table_lists_backend_methods():
    # the first column of each row names its methods as `name(args)`
    table = README.read_text().split("| method | answer |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split(" | ", 1)[0] for line in table.splitlines() if line.startswith("| `")]
    listed = sorted(re.findall(r"`(\w+)\(", "".join(rows)))
    for cls in (ExactBackend, BfsBackend):
        public = [n for n, v in vars(cls).items() if inspect.isfunction(v) and n[0] != "_"]
        assert listed == sorted(public), cls.__name__
