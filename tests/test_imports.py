"""The import graph stays small: scipy contributes only ``scipy.linalg``.

A fresh interpreter imports hbortho and runs ``verify`` and an f64 ``basis``
in process, so modules that the commands import late are counted too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, json, sys
import hbortho
import hbortho.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [hbortho.cli.main(["verify"]),
             hbortho.cli.main(["basis", "--symbol", "0;(1,1,1)", "--n", "8", "--precision", "f64"])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy."))}))
"""

HEAVY = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize", "scipy.ndimage", "scipy.fft")


def test_no_heavy_scipy_subpackages():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    report = json.loads(out.stdout)
    assert report["codes"] == [0, 0]
    loaded = [m for m in report["scipy"] if ".".join(m.split(".")[:2]) in HEAVY]
    assert loaded == []
