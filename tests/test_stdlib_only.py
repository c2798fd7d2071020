"""The package needs nothing beyond the standard library at run time.

The test environment installs extra packages, so an accidental import of one
of them in the package would still run here; this test reads the imports
from the source instead.
"""

import ast
import sys
from pathlib import Path

import wellpoised

SOURCES = sorted(Path(wellpoised.__file__).resolve().parent.glob("*.py"))


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module) for every absolute import in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_every_absolute_import_is_from_the_standard_library():
    assert len(SOURCES) >= 8
    outside = [
        f"{path.name}:{line}: {module}"
        for path in SOURCES
        for line, module in absolute_imports(path)
        if module not in sys.stdlib_module_names
    ]
    assert outside == []
