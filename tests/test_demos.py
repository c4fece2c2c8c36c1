"""Byte-for-byte replay of the demo scripts (tests/golden/demos/*.out).

The demos print modulus and generator coefficient tuples, embeddings and
"g^k" text: the public surface of ``FieldElement`` over the int kernels.
Each recorded file is the script's stdout; re-record one with
``PYTHONPATH=src python demos/NAME.py > tests/golden/demos/NAME.out`` only
when an output change is intended.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEMOS = sorted(name[:-3] for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo + ".py")],
                         env=env, check=True, capture_output=True).stdout
    with open(os.path.join(ROOT, "tests", "golden", "demos", demo + ".out"), "rb") as fh:
        assert out == fh.read()
