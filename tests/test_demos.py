"""The six demos' output, frozen.

Each demo runs as its own process with the package on PYTHONPATH and one
BLAS thread, and the sha256 of its stdout and stderr, interleaved as they
are written, must not move.  Together they take a few seconds.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_predictions.py": "1736883e4ff704984242208fe7f35d0438ce6b547735011bc249aa72c501c88d",
    "02_series.py": "30ca1b3eda5bc016e863e30f782381c00af7f19134e239d2831d3e292dbc8c64",
    "03_oracle.py": "34d239efaf192d9c31a6917e9ed93fba48dbd5c6f430296cd2e3d7e9c315851d",
    "04_plane_secant_lines.py": "49e98fa54e03769d0bf9c4887c80b07690d67b35a621c491e0a848a4d4510d39",
    "05_families.py": "9b69401df61cc44753e2000671dc57da257c4e39be1bacb9f53181e65200ad95",
    "06_sweep.py": "3b1cf0437afad8b2548b672da85c763bbf29bc4f05f5da80d2318c1d3d111c52",
}


def test_every_demo_is_frozen():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout.decode(errors="replace")[-2000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
