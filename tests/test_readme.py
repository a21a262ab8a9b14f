"""README's "Library use" section runs as written and names only entry points
that exist."""
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text()
    start = text.index("\n## Library use\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_library_use_code_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", library_section(), re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        # later blocks use the names earlier ones define, as a reader's session would
        exec(compile(block, str(README), "exec"), namespace)


def test_library_use_names_only_existing_entry_points():
    names = set(re.findall(r"`(camplan(?:\.\w+)+)", library_section()))
    assert "camplan.sweep_points" in names
    for name in sorted(names):
        try:
            importlib.import_module(name)
        except ModuleNotFoundError:
            module, attr = name.rsplit(".", 1)
            assert hasattr(importlib.import_module(module), attr), name
