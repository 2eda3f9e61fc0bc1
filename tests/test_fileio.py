import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclock import (
    ClockError,
    ValidationError,
    cli,
    covariant_twirl,
    equal_superposition_clock,
    ladder_hamiltonian,
    random_channel,
    random_density,
    random_hamiltonian,
    sweep,
    total_hamiltonian,
)
from qclock import fileio
from reference import json_safe, stdlib_dumps


def test_matrix_round_trip_full_precision():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    doc = json.loads(fileio.dumps(fileio.matrix_to_json(mat)))
    back = fileio.matrix_from_json(doc)
    assert np.array_equal(back, mat)


def test_matrix_document_round_trip_is_bit_exact():
    edge = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16, 1e-7, 0.1, -1.7976931348623157e308]
    rng = np.random.default_rng(3)
    re = np.concatenate([edge, rng.standard_normal(16 - len(edge))]).reshape(4, 4)
    im = rng.permutation(re.ravel()).reshape(4, 4) * 1e-3
    mat = np.empty((4, 4), dtype=complex)  # re + 1j * im would turn -0.0 into 0.0
    mat.real, mat.imag = re, im
    text = fileio.dumps(fileio.matrix_to_json(mat))
    back = fileio.matrix_from_json(json.loads(text))
    assert back.shape == (4, 4)
    for part, expected in ((back.real, re), (back.imag, im)):
        assert np.array_equal(part.view(np.int64), expected.view(np.int64))
    assert fileio.dumps(fileio.matrix_to_json(back)) == text


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
    back = fileio.clock_from_json(json.loads(fileio.dumps(fileio.clock_to_json(clock))))
    assert np.array_equal(back.state.entries, clock.state.entries)
    assert np.array_equal(back.hamiltonian.entries, clock.hamiltonian.entries)


def test_channel_round_trip():
    channel = random_channel(2, 3, 2, seed=5)
    back = fileio.channel_from_json(json.loads(fileio.dumps(fileio.channel_to_json(channel))))
    assert back.dim_in == 2 and back.dim_out == 3
    assert np.array_equal(back.choi, channel.choi)


def test_density_from_json_validates_state():
    bad = fileio.matrix_to_json(np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        fileio.density_from_json(bad)


def test_json_safe_replaces_nonfinite():
    doc = {"a": math.inf, "b": [-math.inf, math.nan, 1.5], "c": "x"}
    safe = json_safe(doc)
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
    json.dumps(json_safe(doc))


# --- fileio.dumps writes the stdlib's bytes -------------------------------


def _write(path, doc) -> str:
    path.write_text(fileio.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Input files for one call of every document-writing subcommand."""
    root = tmp_path_factory.mktemp("cli_inputs")
    clock = equal_superposition_clock(4, 1.0)
    h_one = ladder_hamiltonian(2, 1.0)
    broadcast = covariant_twirl(random_channel(4, 4, 2, seed=8), clock.hamiltonian, total_hamiltonian(h_one, h_one))
    # a 2-dim common block plus a line in a random real basis: distinguishable
    u = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))[0]
    rho_a = u @ np.array([[0.3, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.4]]) @ u.T
    rho_b = u @ np.array([[0.5, 0.2, 0.0], [0.2, 0.4, 0.0], [0.0, 0.0, 0.1]]) @ u.T
    nan_state = {"dim": 2, "re": [[0.5, math.nan], [math.nan, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    files = {
        "clock": fileio.clock_to_json(clock),
        "channel": fileio.channel_to_json(random_channel(4, 6, 2, seed=3)),
        "h_in": fileio.matrix_to_json(random_hamiltonian(4, seed=1).entries),
        "h_out": fileio.matrix_to_json(random_hamiltonian(6, seed=2).entries),
        "state": fileio.matrix_to_json(random_density(4, 2, seed=5).entries),
        "a": fileio.matrix_to_json(rho_a),
        "b": fileio.matrix_to_json(rho_b),
        "broadcast": fileio.channel_to_json(broadcast),
        "h_one": fileio.matrix_to_json(h_one.entries),
        "sweep": {"experiment": "copy_bound", "samples": 2, "dim_in": 4, "dim_out1": 2, "dim_out2": 2},
    }
    paths = {name: _write(root / f"{name}.json", doc) for name, doc in files.items()}
    # spelled with JSON's NaN literal: the string "nan" is not a number, so it never reaches the Hermitian check
    nan_clock = {"state": nan_state, "hamiltonian": fileio.matrix_to_json(np.diag([0.0, 1.0]))}
    (root / "nan_clock.json").write_text(json.dumps(nan_clock))
    paths["nan_clock"] = str(root / "nan_clock.json")
    return paths


CLI_DOCUMENTS = {
    "twirl": lambda f: ["twirl", "--channel", f["channel"], "--hamiltonian-in", f["h_in"], "--hamiltonian-out", f["h_out"]],
    "qfi": lambda f: ["qfi", "--clock", f["clock"]],
    "apply": lambda f: ["apply", "--channel", f["channel"], "--state", f["state"]],
    "evolve": lambda f: ["evolve", "--clock", f["clock"], "--time", "0.7"],
    "decompose": lambda f: ["decompose", "--state-a", f["a"], "--state-b", f["b"], "--seed", "9"],
    "copy-bound": lambda f: [
        "copy-bound", "--clock", f["clock"], "--channel", f["broadcast"],
        "--hamiltonian-one", f["h_one"], "--hamiltonian-two", f["h_one"],
    ],
    "sweep": lambda f: ["sweep", "--config", f["sweep"], "--seed", "1", "--format", "json"],
}


def _handler_doc(argv):
    args = cli._build_parser().parse_args(argv)
    return args.handler(args)


@pytest.mark.parametrize("command", sorted(CLI_DOCUMENTS))
def test_cli_documents_are_the_stdlib_bytes(cli_inputs, tmp_path, command):
    argv = CLI_DOCUMENTS[command](cli_inputs)
    doc = _handler_doc(argv)
    expected = stdlib_dumps(doc)
    assert fileio.dumps(doc) == expected
    out = tmp_path / "out.json"
    assert cli.run([*argv, "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected


def test_cli_documents_cover_the_heavy_fields(cli_inputs):
    docs = {command: _handler_doc(argv(cli_inputs)) for command, argv in CLI_DOCUMENTS.items()}
    assert docs["twirl"]["choi"]["dim"] == 24
    assert docs["qfi"]["sld"]["dim"] == 4
    assert docs["decompose"]["witness_projector"] is not None
    assert set(docs["copy-bound"]["uncertainty"]) >= {"lhs", "rhs", "satisfied"}
    assert len(docs["sweep"]["rows"]) == 2


def test_error_document_with_nonfinite_detail_is_the_stdlib_bytes(cli_inputs, capsys):
    argv = ["qfi", "--clock", cli_inputs["nan_clock"]]
    with pytest.raises(ClockError) as info:
        _handler_doc(argv)
    exc = info.value
    doc = {"code": exc.code, "message": exc.message, "detail": exc.detail}
    assert math.isnan(doc["detail"]["deviation"])
    assert cli.run(argv) == 2
    assert capsys.readouterr().out == stdlib_dumps(doc)
    infinite = {**doc, "detail": {"deviation": math.inf, "bound": -math.inf, "trace": [math.nan, 1.0]}}
    assert fileio.dumps(infinite) == stdlib_dumps(infinite)
    assert '"-inf"' in fileio.dumps(infinite)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1e-7, 0.1, 1.5, math.nan, math.inf, -math.inf]
floats = st.sampled_from(EDGE_FLOATS) | st.floats()
scalars = (
    floats
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text()
    | floats.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
)
documents = st.recursive(
    scalars | st.lists(floats),
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(st.text(), children),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(documents)
def test_dumps_is_the_stdlib_bytes(doc):
    assert fileio.dumps(doc) == stdlib_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"rows": [], "summary": {}},
        [[], [[]], {"": ()}],
        "caf\u00e9 \u2713 \"quoted\"\n",
        {"\u00e9t\u00e9": [1, 2.0, None, True, False]},
        {"1": 2.0, "null": "x"},
        [1.0, 2, 3.0],
        [np.float64(0.25), np.float64(math.nan), np.float32(0.1), np.int64(-7)],
    ],
)
def test_dumps_edge_documents_are_the_stdlib_bytes(doc):
    assert fileio.dumps(doc) == stdlib_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"a": np.zeros(2)},
        [1.0, np.bool_(True)],
        {"x": {"y": [np.arange(3)]}},
        {"z": 1j},
    ],
)
def test_unsupported_objects_raise_the_stdlib_error(doc):
    with pytest.raises(TypeError) as expected:
        stdlib_dumps(doc)
    with pytest.raises(TypeError) as got:
        fileio.dumps(doc)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("doc", [{1: 2.0}, {"a": {None: "x"}}, [{1.5: True}]])
def test_non_str_keys_raise_instead_of_being_coerced(doc):
    with pytest.raises(TypeError, match="keys must be str"):
        fileio.dumps(doc)
