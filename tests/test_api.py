import ast
import sys
from pathlib import Path

import cyclecover


def test_all_names_resolve_once():
    names = cyclecover.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(cyclecover, name)]
    assert missing == []


def test_runtime_is_stdlib_only_and_single_process():
    # every absolute import of the package is a standard-library module, and
    # none of them starts threads or processes
    root = Path(cyclecover.__file__).parent
    imported = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert imported, "no module parsed"
    assert imported <= sys.stdlib_module_names
    assert not imported & {"threading", "multiprocessing", "concurrent", "subprocess"}
