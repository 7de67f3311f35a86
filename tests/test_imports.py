"""The library imports no scipy: a fresh interpreter that imports jackdiv
and every submodule has no scipy module loaded."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import importlib, pkgutil, sys
import jackdiv
names = sorted(m.name for m in pkgutil.iter_modules(jackdiv.__path__))
for name in names:
    importlib.import_module("jackdiv." + name)
print(",".join(names))
print(",".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_no_scipy_after_importing_every_submodule():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout.splitlines()
    imported = out[0].split(",")
    assert {"cli", "verify", "wishart", "hypergeom", "special", "jack", "core"} <= set(imported)
    assert out[1] == ""
