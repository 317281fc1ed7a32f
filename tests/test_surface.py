"""The declared public surface is the one the README documents, and no larger."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import aibt

README = Path(__file__).resolve().parents[1] / "README.md"


def _names_in_code(text: str) -> set[str]:
    """Every identifier inside an inline code span or a fenced block."""
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.DOTALL)
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_declared_public_names_are_in_the_readme():
    """Each name in a submodule's ``__all__``, and each public name of ``aibt`` itself, is code in the README."""
    documented = _names_in_code(README.read_text(encoding="utf-8"))
    declared = set()
    for info in pkgutil.iter_modules(aibt.__path__):
        if info.name != "__main__":  # running it is its only content
            module = importlib.import_module(f"aibt.{info.name}")
            declared |= {(module.__name__, name) for name in module.__all__}
    exported = {n for n, v in vars(aibt).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    declared |= {("aibt", name) for name in exported}
    missing = sorted(f"{module}.{name}" for module, name in declared if name not in documented)
    assert not missing, f"declared public but not in the README: {missing}"
