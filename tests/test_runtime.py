"""The runtime imports nothing outside the standard library.

A fresh interpreter without site packages imports ``symcut`` and every
submodule and runs ``symcut verify --random 2``, which exercises every
order builder and queue; every top-level module it then holds, other than
``symcut`` itself, must be a standard-library module.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

STDLIB_ONLY_RUN = """
import contextlib, importlib, io, pkgutil, sys
import symcut
from symcut import cli

for info in pkgutil.iter_modules(symcut.__path__):
    importlib.import_module(f"symcut.{info.name}")
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(["verify", "--random", "2"])
if status != 0:
    raise SystemExit(f"verify exited {status}")
top = {name.partition(".")[0] for name in sys.modules}
print(" ".join(sorted(top - set(sys.stdlib_module_names) - {"symcut", "__main__"})))
"""


def test_runtime_imports_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # -S: no site packages, so nothing is imported on the library's behalf
    # and a third-party import would fail outright
    result = subprocess.run([sys.executable, "-S", "-c", STDLIB_ONLY_RUN],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"
