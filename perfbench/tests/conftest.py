import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

if "hbortho" not in sys.modules:
    run.load_program(BENCH.parent / "src")
