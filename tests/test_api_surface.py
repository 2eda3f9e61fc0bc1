import ast
import inspect
from pathlib import Path

import qclock

ROOT = Path(__file__).resolve().parents[1]


def _names_used_outside_tests() -> set[str]:
    """Every ast.Name id and ast.Attribute attr in the library modules, demos and benchmark."""
    files = [p for p in (ROOT / "src" / "qclock").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_outside_tests():
    used = _names_used_outside_tests()
    public = [name for name in qclock.__all__ if not inspect.ismodule(getattr(qclock, name))]
    callerless = sorted(name for name in public if name not in used)
    assert callerless == [], f"public names that only tests use: {callerless}"
