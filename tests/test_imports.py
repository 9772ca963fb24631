"""`import hafnet` needs numpy alone: the tools and references that only the
tests use (scipy, hypothesis, pytest, tests/reference.py) stay out of src,
and the process pool that only a multi-process run uses is not loaded. And
no module in src imports a name it never reads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import importlib.util, json, sys
import hafnet
print(json.dumps({
    "loaded": sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "hypothesis", "pytest", "reference"}),
    "reference_importable": importlib.util.find_spec("reference") is not None,
    "pool": sorted({"concurrent.futures.process", "multiprocessing"} & set(sys.modules)),
}))
"""


def test_import_hafnet_loads_no_test_only_module(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"loaded": [], "reference_importable": False, "pool": []}


#: Module-level imports that nothing in their module reads, kept on purpose:
#: perfbench's tracer test reads `baselines.dual_value`, to check that a
#: name imported into another module sees the wrapper too.
_KEPT_IMPORTS = {("baselines", "dual_value")}


def _names_read(tree: ast.AST) -> set:
    """Every name the tree reads, in code and in string annotations."""
    nodes = list(ast.walk(tree))
    notes = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign))]
    notes += [n.returns for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    for note in filter(None, notes):
        for part in ast.walk(note):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= _names_read(ast.parse(part.value, mode="eval"))
    return names


def _module_imports(tree: ast.Module):
    """(bound name, line) of each import in the module body, also under a
    module-level `if` such as `if TYPE_CHECKING:`."""
    body = list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, ast.If):
            body += node.body + node.orelse
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_src_has_no_unused_module_level_import():
    # `__init__` is the package's public API: what it imports, it exports
    unused = []
    for path in sorted((ROOT / "src" / "hafnet").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = _names_read(tree)
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _module_imports(tree)
            if name not in read and (path.stem, name) not in _KEPT_IMPORTS
        ]
    assert unused == []
