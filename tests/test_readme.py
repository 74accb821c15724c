"""The README's library example runs as written and does what it says."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The one python block under the README's "Library example" heading."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "the library example is one python block"
    return blocks[0]


def test_library_example_makes_an_order_three_cat(capsys):
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    order, leakage, norm = capsys.readouterr().out.split()
    second = namespace["second"]
    assert int(order) == second.symmetry.order == 3
    assert float(leakage) == second.leakage <= 0.02
    assert float(norm) == pytest.approx(1.0, abs=1e-2)
