import json
import math

import numpy as np
import pytest

from qclock import ValidationError, equal_superposition_clock, random_channel, sweep
from qclock import fileio


def test_matrix_round_trip_full_precision():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    doc = json.loads(json.dumps(fileio.matrix_to_json(mat)))
    back = fileio.matrix_from_json(doc)
    assert np.array_equal(back, mat)


def test_rectangular_matrix_round_trip():
    mat = np.arange(6.0).reshape(3, 2) + 0.5j
    doc = fileio.matrix_to_json(mat)
    assert doc["dim"] == 3
    assert np.array_equal(fileio.matrix_from_json(doc), mat)


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(ValidationError):
        fileio.matrix_from_json({"re": [[1.0]]})
    with pytest.raises(ValidationError):
        fileio.matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})


def test_clock_round_trip():
    clock = equal_superposition_clock(3, 0.5)
    back = fileio.clock_from_json(json.loads(json.dumps(fileio.clock_to_json(clock))))
    assert np.array_equal(back.state.entries, clock.state.entries)
    assert np.array_equal(back.hamiltonian.entries, clock.hamiltonian.entries)


def test_channel_round_trip():
    channel = random_channel(2, 3, 2, seed=5)
    back = fileio.channel_from_json(json.loads(json.dumps(fileio.channel_to_json(channel))))
    assert back.dim_in == 2 and back.dim_out == 3
    assert np.array_equal(back.choi, channel.choi)


def test_density_from_json_validates_state():
    bad = fileio.matrix_to_json(np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        fileio.density_from_json(bad)


def test_json_safe_replaces_nonfinite():
    doc = {"a": math.inf, "b": [-math.inf, math.nan, 1.5], "c": "x"}
    safe = fileio.json_safe(doc)
    assert safe == {"a": "inf", "b": ["-inf", "nan", 1.5], "c": "x"}
    json.dumps(safe)  # strictly serializable


def test_sweep_csv_shape_and_summary_row():
    cfg = {
        "experiment": "monotonicity",
        "samples": 3,
        "dim": 2,
        "dim_out": 2,
    }
    result = sweep(cfg, seed=9)
    text = fileio.sweep_to_csv(result)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[:14] == [
        "sample_id",
        "seed",
        "dim_in",
        "dim_out1",
        "dim_out2",
        "f_in",
        "f1",
        "f2",
        "e2",
        "lhs",
        "rhs",
        "margin",
        "satisfied",
        "covariance_residual",
    ]
    assert len(lines) == 1 + 3 + 1  # header, rows, summary
    assert lines[-1].startswith("summary,")
    # numeric cells parse back at full precision
    first = lines[1].split(",")
    f_in = float(first[5])
    assert f_in == result.rows[0]["f_in"]


def test_sweep_json_mirrors_rows():
    cfg = {"experiment": "monotonicity", "samples": 2, "dim": 2}
    result = sweep(cfg, seed=4)
    doc = fileio.sweep_to_json(result)
    assert doc["summary"]["rows"] == 2
    assert doc["rows"][0]["f_in"] == result.rows[0]["f_in"]
    json.dumps(fileio.json_safe(doc))
