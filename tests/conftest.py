"""Shared test setup.

Child interpreters started by the CLI tests must import the same qclock:
``pythonpath = ["src"]`` in pyproject.toml only reaches this process, so the
source directory of the imported package is also put on PYTHONPATH.
"""
import os
from pathlib import Path

import numpy as np
import pytest

import qclock
from qclock import ClockSystem, DensityMatrix, QuantumChannel, ladder_hamiltonian

_SRC = str(Path(qclock.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def non_cp_coherence_map():
    """(clock, map, H) with a d=3 ladder map that scales every coherence by 1.2.

    The map is trace preserving and covariant but not CP (Choi eigenvalue
    -0.2), and it raises the clock's timing information from 0.8 to 1.108.
    """
    d = 3
    scale = np.full((d, d), 1.2, dtype=complex)
    np.fill_diagonal(scale, 1.0)
    choi = np.zeros((d, d, d, d), dtype=complex)  # axes (i, a, j, b)
    idx = np.arange(d)
    choi[idx[:, None], idx[:, None], idx, idx] = scale
    flat = np.full((d, d), 1.0 / d, dtype=complex)
    h = ladder_hamiltonian(d, 1.0)
    clock = ClockSystem(DensityMatrix(0.5 * flat + 0.5 * np.eye(d) / d), h)
    return clock, QuantumChannel(d, d, choi.reshape(d * d, d * d)), h
