"""A fresh ``import hamtg.lab`` loads no standard module it does not need.

A one-shot ``hamtg solve`` spends much of its wall time importing the
package, and each module below costs milliseconds to load: ``dataclasses``
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and ``uuid`` pulls
in ``platform``.  The package's value types derive from ``gf2._Value``
instead, and the cache writer names its temp file from ``os.urandom``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hamtg

SRC = Path(hamtg.__file__).resolve().parent.parent
NEWLY_LOADED = """\
import json, sys
before = set(sys.modules)
import hamtg.lab
print(json.dumps(sorted(set(sys.modules) - before)))
"""
AVOIDED = {"dataclasses", "inspect", "ast", "uuid", "platform"}


def test_package_import_loads_none_of_the_avoided_modules():
    proc = subprocess.run(
        [sys.executable, "-c", NEWLY_LOADED],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = set(json.loads(proc.stdout))
    assert "hamtg.lab" in loaded and "hamtg.liftbasis" in loaded
    assert sorted(loaded & AVOIDED) == []
