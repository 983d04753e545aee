"""Import cost: the package and its CLI load numpy, and scipy only on use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import hdwhite

SRC = Path(hdwhite.__file__).resolve().parent.parent

LOADED = """
import json, sys
import hdwhite, hdwhite.cli
print(json.dumps({"file": hdwhite.__file__, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_importing_the_package_and_cli_loads_no_scipy():
    # A fresh interpreter, since this one has imported scipy for other tests.
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    done = subprocess.run(
        [sys.executable, "-c", LOADED], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert Path(got["file"]).resolve() == Path(hdwhite.__file__).resolve()
    assert got["scipy"] == []
