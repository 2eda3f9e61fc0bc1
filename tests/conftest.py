"""Let child interpreters started by the CLI tests import the same qclock.

``pythonpath = ["src"]`` in pyproject.toml only reaches this process, so the
source directory of the imported package is also put on PYTHONPATH.
"""
import os
from pathlib import Path

import qclock

_SRC = str(Path(qclock.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
