import re
from pathlib import Path

import senserate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert len(set(senserate.__all__)) == len(senserate.__all__)
    for name in senserate.__all__:
        assert hasattr(senserate, name), name


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    namespace = {}
    exec(block.group(1), namespace)
    assert namespace["report"].passed
    assert namespace["result"].monte_carlo is not None
