"""Runtime dependencies: the package and every CLI command run on numpy alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import hdwhite

SRC = Path(hdwhite.__file__).resolve().parent.parent

# Blocks scipy before hdwhite is imported, so that any scipy import in the
# package raises ImportError, then runs each command line given in argv[1].
BLOCKED = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
import hdwhite, hdwhite.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(hdwhite.cli.main(argv))
print(json.dumps({"file": hdwhite.__file__, "codes": codes}))
"""


def _write_inputs(tmp_path):
    rng = np.random.default_rng(1)
    np.savetxt(tmp_path / "panel.csv", rng.standard_normal((30, 4)), delimiter=",")
    np.savetxt(tmp_path / "a0.csv", np.eye(4), delimiter=",")
    np.savetxt(tmp_path / "a1.csv", 0.3 * np.eye(4), delimiter=",")
    t, p = 60, 4
    factors = np.column_stack([rng.standard_normal((t, 3)), np.full(t, 0.01)])
    returns = factors[:, :3] @ rng.standard_normal((3, p)) + rng.standard_normal((t, p))
    for name, header, rows in (("returns.csv", "date,a0,a1,a2,a3", returns),
                               ("factors.csv", "date,market_excess,smb,hml,rf", factors)):
        lines = [header] + [f"d{i:03d}," + ",".join(map(repr, row.tolist()))
                            for i, row in enumerate(rows)]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    for kind, scenario in (("size", "null-i"), ("power", "var1")):
        config = {"kind": kind, "scenarios": [scenario], "n": 30, "p": 4, "K": 1,
                  "replications": 3, "master_seed": 1}
        if kind == "power":
            config["m"] = [2]
        (tmp_path / f"{kind}.json").write_text(json.dumps(config))


def _fresh_python(*argv):
    """Run ``python -c argv...`` in a fresh interpreter that imports this checkout's hdwhite."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return subprocess.run(
        [sys.executable, "-c", *argv], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )


def test_importing_the_cli_loads_no_executor():
    # run_jobs starts its helper processes itself; concurrent.futures is
    # imported only where a helper that died is reported.
    done = _fresh_python("import sys, hdwhite.cli; print('concurrent' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_importing_the_package_and_cli_loads_no_scipy(tmp_path):
    _write_inputs(tmp_path)
    d = str(tmp_path)
    commands = [
        ["test", "--input", f"{d}/panel.csv", "--K", "2"],
        ["size", "--config", f"{d}/size.json", "--workers", "1", "--out", f"{d}/size.csv"],
        ["power", "--config", f"{d}/power.json", "--workers", "1", "--out", f"{d}/power.csv"],
        ["power-theory", "--a0", f"{d}/a0.csv", "--a1", f"{d}/a1.csv", "--n", "100"],
        ["residual-test", "--returns", f"{d}/returns.csv", "--factors", f"{d}/factors.csv",
         "--window", "30", "--K", "2"],
    ]
    # A fresh interpreter, since this one has imported scipy for other tests.
    done = _fresh_python(BLOCKED, json.dumps(commands))
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert Path(got["file"]).resolve() == Path(hdwhite.__file__).resolve()
    assert got["codes"] == [0] * len(commands), done.stderr
