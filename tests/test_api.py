import ast
import re
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


def test_private_names_in_the_readme_are_defined():
    # a backticked `_name` or `module._name` in README.md names a function,
    # class or variable defined in that module (any module without a prefix)
    root = Path(cyclecover.__file__).parent
    defined = {}
    for path in root.glob("*.py"):
        names = defined.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    everywhere = set().union(*defined.values())
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    refs = re.findall(r"`(?:(\w+)\.)?(_[A-Za-z]\w*)", readme)
    assert refs, "no private name found"
    stale = [f"{mod}.{name}" if mod else name for mod, name in refs
             if name not in defined.get(mod, everywhere)]
    assert stale == []
