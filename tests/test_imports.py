"""`import hafnet` needs numpy alone: the tools and references that only the
tests use (scipy, hypothesis, pytest, tests/reference.py) stay out of src."""

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
}))
"""


def test_import_hafnet_loads_no_test_only_module(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"loaded": [], "reference_importable": False}
