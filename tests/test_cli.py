import argparse
import importlib
import io
import json
import math
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from qclock import bounds, cli, distinguish, fileio
from qclock import (
    ClockSystem,
    DensityMatrix,
    QuantumChannel,
    common_invariant_decomposition,
    equal_superposition_clock,
    identity_channel,
    is_covariant,
    ladder_hamiltonian,
    pairwise_commuting,
    random_channel,
    random_density,
    random_hamiltonian,
    covariant_twirl,
    total_hamiltonian,
)
from reference import json_safe


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def write_json(path, doc):
    path.write_text(json.dumps(json_safe(doc)))
    return str(path)


@pytest.fixture
def plus_clock_file(tmp_path):
    plus = np.full((2, 2), 0.5, dtype=complex)
    doc = {
        "state": fileio.matrix_to_json(plus),
        "hamiltonian": fileio.matrix_to_json(np.diag([0.0, 1.0])),
    }
    return write_json(tmp_path / "clock.json", doc)


def test_qfi_subcommand_plus_fixture(plus_clock_file):
    code, out = run_cli(["qfi", "--clock", plus_clock_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["fisher_info"] == pytest.approx(1.0, abs=1e-10)
    sld = fileio.matrix_from_json(doc["sld"])
    assert np.abs(sld - np.array([[0.0, -1j], [1j, 0.0]])).max() <= 1e-10


def test_evolve_time_zero_echoes_state(plus_clock_file):
    code, out = run_cli(["evolve", "--clock", plus_clock_file, "--time", "0"])
    assert code == 0
    state = fileio.matrix_from_json(json.loads(out))
    assert np.abs(state - np.full((2, 2), 0.5)).max() <= 1e-14


def test_moments_subcommand(plus_clock_file):
    code, out = run_cli(["moments", "--clock", plus_clock_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["mean"] == pytest.approx(0.5)
    assert doc["std_dev"] == pytest.approx(0.5)


def test_make_state_gaussian_reports_realized_spread(tmp_path):
    ham = write_json(
        tmp_path / "h.json", fileio.matrix_to_json(np.diag(np.arange(16.0)))
    )
    code, out = run_cli(
        ["make-state", "--kind", "gaussian", "--hamiltonian", ham, "--mean", "7.5", "--sigma", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["realized_std_dev"] - 2.0) / 2.0 <= 0.05
    fileio.clock_from_json(doc)  # parses as a clock file


def test_make_state_equal_superposition(tmp_path):
    code, out = run_cli(["make-state", "--kind", "equal-superposition", "--levels", "4", "--quantum", "1"])
    assert code == 0
    clock = fileio.clock_from_json(json.loads(out))
    assert clock.dim == 4


def test_make_state_missing_flag_is_validation_error():
    code, out = run_cli(["make-state", "--kind", "gaussian"])
    assert code == 2
    assert json.loads(out)["code"] == "config"


def test_make_state_random_requires_seed_and_reproduces(tmp_path):
    code, out1 = run_cli(["make-state", "--kind", "random-density", "--dim", "4", "--rank", "2", "--seed", "7"])
    assert code == 0
    _, out2 = run_cli(["make-state", "--kind", "random-density", "--dim", "4", "--rank", "2", "--seed", "7"])
    assert out1 == out2
    code, out = run_cli(["make-state", "--kind", "random-density", "--dim", "4", "--rank", "2"])
    assert code == 2


def test_make_state_random_kinds_feed_other_subcommands(tmp_path):
    # the random kinds write bare Matrix documents, the format every state and Hamiltonian reader takes
    paths = {name: str(tmp_path / f"{name}.json") for name in ("a", "b", "h")}
    for name, seed in (("a", "7"), ("b", "8")):
        argv = ["make-state", "--kind", "random-density", "--dim", "4", "--rank", "2", "--seed", seed]
        assert run_cli(argv + ["--output", paths[name]])[0] == 0
    assert run_cli(["make-state", "--kind", "random-hamiltonian", "--dim", "4", "--seed", "9", "--output", paths["h"]])[0] == 0
    expected = fileio.matrix_to_json(random_density(4, 2, seed=7).entries)
    assert Path(paths["a"]).read_text() == fileio.dumps(expected)
    ch = write_json(tmp_path / "ch.json", fileio.channel_to_json(random_channel(4, 3, 2, seed=10)))

    code, out = run_cli(["decompose", "--state-a", paths["a"], "--state-b", paths["b"], "--seed", "5"])
    assert code == 0, out
    assert "distinguishable" in json.loads(out)
    code, out = run_cli(["broadcastable", "--states", paths["a"], paths["b"]])
    assert code == 0, out
    code, out = run_cli(["apply", "--channel", ch, "--state", paths["a"]])
    assert code == 0, out
    assert fileio.matrix_from_json(json.loads(out)).shape == (3, 3)
    code, out = run_cli(["make-state", "--kind", "gaussian", "--hamiltonian", paths["h"], "--mean", "0", "--sigma", "1"])
    assert code == 0, out
    assert fileio.clock_from_json(json.loads(out)).dim == 4


def test_check_channel_and_twirl_pipeline(tmp_path):
    h_in = random_hamiltonian(2, seed=1)
    h_out = random_hamiltonian(2, seed=2)
    ch_path = write_json(tmp_path / "ch.json", fileio.channel_to_json(random_channel(2, 2, 2, seed=3)))
    hin_path = write_json(tmp_path / "hin.json", fileio.matrix_to_json(h_in.entries))
    hout_path = write_json(tmp_path / "hout.json", fileio.matrix_to_json(h_out.entries))

    code, out = run_cli(["check-channel", "--channel", ch_path, "--hamiltonian-in", hin_path, "--hamiltonian-out", hout_path])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"cp_violation", "tp_violation", "ok", "covariance"}
    assert doc["ok"]
    assert not doc["covariance"]["is_covariant"]

    twirled_path = str(tmp_path / "twirled.json")
    code, _ = run_cli(["twirl", "--channel", ch_path, "--hamiltonian-in", hin_path, "--hamiltonian-out", hout_path, "--output", twirled_path])
    assert code == 0
    code, out = run_cli(["check-channel", "--channel", twirled_path, "--hamiltonian-in", hin_path, "--hamiltonian-out", hout_path])
    doc = json.loads(out)
    assert doc["ok"] and doc["covariance"]["is_covariant"]


def test_apply_subcommand(tmp_path):
    ch_path = write_json(tmp_path / "ch.json", fileio.channel_to_json(random_channel(2, 3, 2, seed=4)))
    rho_path = write_json(tmp_path / "rho.json", fileio.matrix_to_json(random_density(2, 2, seed=5).entries))
    code, out = run_cli(["apply", "--channel", ch_path, "--state", rho_path])
    assert code == 0
    state = fileio.matrix_from_json(json.loads(out))
    assert abs(np.trace(state).real - 1.0) <= 1e-10


def test_decompose_subcommand_diagonal_pair(tmp_path):
    a = write_json(tmp_path / "a.json", fileio.matrix_to_json(np.diag([0.5, 0.5])))
    b = write_json(tmp_path / "b.json", fileio.matrix_to_json(np.diag([0.7, 0.3])))
    code, out1 = run_cli(["decompose", "--state-a", a, "--state-b", b, "--seed", "5"])
    assert code == 0
    doc = json.loads(out1)
    assert doc["distinguishable"]
    proj = fileio.matrix_from_json(doc["witness_projector"])
    assert np.abs(proj @ proj - proj).max() <= 1e-10
    _, out2 = run_cli(["decompose", "--state-a", a, "--state-b", b, "--seed", "5"])
    assert out1 == out2


def test_decompose_document_matches_library_report(tmp_path):
    # a 2-dim block plus a line, in a random real basis
    u = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))[0]
    rho_a = u @ np.array([[0.3, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.4]]) @ u.T
    rho_b = u @ np.array([[0.5, 0.2, 0.0], [0.2, 0.4, 0.0], [0.0, 0.0, 0.1]]) @ u.T
    a = write_json(tmp_path / "a.json", fileio.matrix_to_json(rho_a))
    b = write_json(tmp_path / "b.json", fileio.matrix_to_json(rho_b))
    code, out = run_cli(["decompose", "--state-a", a, "--state-b", b, "--seed", "9"])
    assert code == 0
    report = common_invariant_decomposition(
        *(fileio.density_from_json(json.loads((tmp_path / f).read_text())) for f in ("a.json", "b.json")),
        seed=9,
    )
    cols = report.subspaces[report.witness_index]
    proj = cols @ cols.conj().T
    expected = {
        "subspaces": [fileio.matrix_to_json(s) for s in report.subspaces],
        "traces_a": list(report.traces_a),
        "traces_b": list(report.traces_b),
        "distinguishable": True,
        "witness_index": report.witness_index,
        "witness_projector": fileio.matrix_to_json((proj + proj.conj().T) / 2),
    }
    assert json.loads(out) == json.loads(json.dumps(json_safe(expected)))


def test_broadcastable_subcommand(tmp_path):
    a = write_json(tmp_path / "a.json", fileio.matrix_to_json(np.diag([0.5, 0.5])))
    b = write_json(tmp_path / "b.json", fileio.matrix_to_json(np.diag([0.7, 0.3])))
    code, out = run_cli(["broadcastable", "--states", a, b])
    assert code == 0
    doc = json.loads(out)
    assert doc["commuting"] and doc["max_commutator"] <= 1e-12


@pytest.mark.parametrize("coupling", [2e-10, 3e-10])
def test_broadcastable_verdict_matches_pairwise_commuting(tmp_path, coupling):
    # max_commutator is 0.4 * coupling: 8e-11 and 1.2e-10, either side of COMMUTE_TOL
    family = [DensityMatrix(np.diag([0.7, 0.3])), DensityMatrix(np.array([[0.5, coupling], [coupling, 0.5]]))]
    paths = [write_json(tmp_path / f"s{k}.json", fileio.matrix_to_json(s.entries)) for k, s in enumerate(family)]
    code, out = run_cli(["broadcastable", "--states", *paths])
    assert code == 0
    doc = json.loads(out)
    assert doc["commuting"] is pairwise_commuting(family)
    assert doc["commuting"] is (coupling < 2.5e-10)
    assert (doc["max_commutator"] <= distinguish.COMMUTE_TOL) is doc["commuting"]


def test_broadcastable_dimension_mismatch_exits_2(tmp_path):
    a = write_json(tmp_path / "a.json", fileio.matrix_to_json(np.eye(2) / 2))
    b = write_json(tmp_path / "b.json", fileio.matrix_to_json(np.eye(3) / 3))
    code, out = run_cli(["broadcastable", "--states", a, b])
    assert code == 2
    assert json.loads(out)["code"] == "dimension-mismatch"


def test_orthogonal_times_subcommand():
    code, out = run_cli(["orthogonal-times", "--levels", "4", "--quantum", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["times"] == pytest.approx([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert doc["max_overlap"] <= 1e-10


def test_copy_bound_and_monotonicity_subcommands(tmp_path):
    clock = equal_superposition_clock(4, 1.0)
    h1 = ladder_hamiltonian(2, 1.0)
    h2 = ladder_hamiltonian(2, 1.0)
    broadcast = covariant_twirl(
        random_channel(4, 4, 2, seed=8), clock.hamiltonian, total_hamiltonian(h1, h2)
    )
    clock_path = write_json(tmp_path / "clock.json", fileio.clock_to_json(clock))
    ch_path = write_json(tmp_path / "b.json", fileio.channel_to_json(broadcast))
    h1_path = write_json(tmp_path / "h1.json", fileio.matrix_to_json(h1.entries))
    h2_path = write_json(tmp_path / "h2.json", fileio.matrix_to_json(h2.entries))

    code, out = run_cli(["copy-bound", "--clock", clock_path, "--channel", ch_path, "--hamiltonian-one", h1_path, "--hamiltonian-two", h2_path])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "f_in", "f1", "f2", "e2", "e2_unshifted", "lhs", "rhs", "margin", "satisfied",
        "covariance_residual", "uncertainty",
    ]
    assert list(doc["uncertainty"]) == ["dt_in", "dt1", "dt2", "lhs", "rhs", "satisfied"]
    assert doc["satisfied"]
    assert doc["uncertainty"]["satisfied"]

    # single-output channel for monotonicity
    h_out = ladder_hamiltonian(4, 1.0)
    mono_ch = covariant_twirl(random_channel(4, 4, 2, seed=9), clock.hamiltonian, h_out)
    mono_path = write_json(tmp_path / "mono.json", fileio.channel_to_json(mono_ch))
    hout_path = write_json(tmp_path / "hout.json", fileio.matrix_to_json(h_out.entries))
    code, out = run_cli(["monotonicity", "--clock", clock_path, "--channel", mono_path, "--hamiltonian-out", hout_path])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["f_in", "f_out", "covariance_residual", "holds"]
    assert doc["holds"]


def test_copy_bound_noncovariant_exits_2(tmp_path):
    clock = equal_superposition_clock(4, 1.0)
    clock_path = write_json(tmp_path / "clock.json", fileio.clock_to_json(clock))
    ch_path = write_json(tmp_path / "raw.json", fileio.channel_to_json(random_channel(4, 4, 2, seed=10)))
    h1_path = write_json(tmp_path / "h1.json", fileio.matrix_to_json(ladder_hamiltonian(2, 1.0).entries))
    code, out = run_cli(["copy-bound", "--clock", clock_path, "--channel", ch_path, "--hamiltonian-one", h1_path, "--hamiltonian-two", h1_path])
    assert code == 2
    doc = json.loads(out)
    assert doc["code"] == "precondition"
    assert "covariant_twirl" in doc["message"]


def test_copy_bound_gate_agrees_with_check_channel(tmp_path):
    # a residual of ~3e-9 sits between 1e-9 and 1e-8: both commands must call it not covariant
    clock = equal_superposition_clock(3, 1.0)
    h = ladder_hamiltonian(2, 1.0)
    h_total = total_hamiltonian(h, h)
    raw = random_channel(3, 4, 2, seed=12)
    twirled = covariant_twirl(raw, clock.hamiltonian, h_total)
    eps = 3e-9 / is_covariant(raw, clock.hamiltonian, h_total).residual
    mixed = QuantumChannel(3, 4, (1 - eps) * twirled.choi + eps * raw.choi)
    assert 2e-9 < is_covariant(mixed, clock.hamiltonian, h_total).residual < 4e-9
    clock_path = write_json(tmp_path / "clock.json", fileio.clock_to_json(clock))
    ch_path = write_json(tmp_path / "mixed.json", fileio.channel_to_json(mixed))
    h_path = write_json(tmp_path / "h.json", fileio.matrix_to_json(h.entries))
    hin_path = write_json(tmp_path / "hin.json", fileio.matrix_to_json(clock.hamiltonian.entries))
    htot_path = write_json(tmp_path / "htot.json", fileio.matrix_to_json(h_total.entries))

    code, out = run_cli(["check-channel", "--channel", ch_path, "--hamiltonian-in", hin_path, "--hamiltonian-out", htot_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and not doc["covariance"]["is_covariant"]
    code, out = run_cli(["copy-bound", "--clock", clock_path, "--channel", ch_path, "--hamiltonian-one", h_path, "--hamiltonian-two", h_path])
    assert code == 2
    assert json.loads(out)["code"] == "precondition"


def test_monotonicity_non_cp_map_exits_2(tmp_path, non_cp_coherence_map):
    clock, channel, h = non_cp_coherence_map
    clock_path = write_json(tmp_path / "clock.json", fileio.clock_to_json(clock))
    ch_path = write_json(tmp_path / "map.json", fileio.channel_to_json(channel))
    h_path = write_json(tmp_path / "h.json", fileio.matrix_to_json(h.entries))
    code, out = run_cli(["monotonicity", "--clock", clock_path, "--channel", ch_path, "--hamiltonian-out", h_path])
    assert code == 2
    doc = json.loads(out)
    assert doc["code"] == "precondition"
    assert "not CPTP" in doc["message"]


def test_invalid_matrix_exits_2(tmp_path):
    bad = write_json(tmp_path / "bad.json", fileio.matrix_to_json(np.eye(2)))
    clock_doc = {"state": json.loads((tmp_path / "bad.json").read_text()), "hamiltonian": fileio.matrix_to_json(np.eye(2))}
    clock_path = write_json(tmp_path / "clock.json", clock_doc)
    code, out = run_cli(["qfi", "--clock", clock_path])
    assert code == 2
    assert json.loads(out)["code"] == "invalid-matrix"


def test_non_finite_clock_file_exits_2(tmp_path):
    # json.load accepts NaN, so the matrix check must reject it
    clock_path = tmp_path / "nan.json"
    state = {"dim": 2, "re": [[0.5, math.nan], [math.nan, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    clock_path.write_text(json.dumps({"state": state, "hamiltonian": fileio.matrix_to_json(np.diag([0.0, 1.0]))}))
    for command in ("qfi", "moments"):
        code, out = run_cli([command, "--clock", str(clock_path)])
        assert code == 2
        assert json.loads(out)["code"] == "invalid-matrix"


def _exits_invalid_matrix(argv, match):
    code, out = run_cli(argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["code"] == "invalid-matrix"
    assert match in doc["message"]


@pytest.fixture
def identity_channel_file(tmp_path):
    return write_json(tmp_path / "id.json", fileio.channel_to_json(identity_channel(2)))


def test_matrix_with_ragged_rows_exits_2(tmp_path, identity_channel_file):
    state = write_json(tmp_path / "s.json", {"dim": 2, "re": [[0.5, 0.0], [0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]})
    _exits_invalid_matrix(["apply", "--channel", identity_channel_file, "--state", state], "matrices of numbers")


@pytest.mark.parametrize("entry", ["a", "0.5", "nan", True], ids=["letter", "numeric-string", "nan-string", "bool"])
def test_matrix_with_a_string_entry_exits_2(tmp_path, identity_channel_file, entry):
    # NumPy would read "0.5" as 0.5, "nan" as NaN and true as 1.0
    state = write_json(tmp_path / "s.json", {"dim": 2, "re": [[0.5, entry], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]})
    _exits_invalid_matrix(["apply", "--channel", identity_channel_file, "--state", state], "matrices of numbers")


@pytest.mark.parametrize("dim_in", ["x", 2.7, True], ids=["string", "float", "bool"])
def test_channel_with_a_non_integer_dimension_exits_2(tmp_path, dim_in):
    # 2.7 used to be truncated to 2 and true read as 1
    doc = fileio.channel_to_json(identity_channel(2))
    channel = write_json(tmp_path / "ch.json", dict(doc, dim_in=dim_in))
    _exits_invalid_matrix(["check-channel", "--channel", channel], "'dim_in' must be an integer")


@pytest.mark.parametrize(
    "name, content, match",
    [
        ("", None, "Is a directory"),
        ("latin1.json", '{"r\xe9": 1}'.encode("latin-1"), "not UTF-8"),
        ("missing.json", None, "No such file"),
    ],
    ids=["directory", "not-utf8", "missing"],
)
def test_an_input_that_cannot_be_read_exits_2(tmp_path, capsys, name, content, match):
    # a directory or undecodable bytes used to exit 1 with code internal-error
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    _exits_invalid_matrix(["qfi", "--clock", str(path)], match)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flag", ["--hamiltonian-in", "--hamiltonian-out"])
def test_check_channel_with_one_hamiltonian_is_a_config_error_before_reading(tmp_path, flag):
    # the flag pair is checked before the channel file is read
    h = write_json(tmp_path / "h.json", fileio.matrix_to_json(np.diag([0.0, 1.0])))
    code, out = run_cli(["check-channel", "--channel", str(tmp_path / "missing.json"), flag, h])
    assert code == 2
    doc = json.loads(out)
    assert doc["code"] == "config"
    assert "must be given together" in doc["message"]


def test_an_output_in_a_missing_directory_exits_2(tmp_path, capsys):
    # the FileNotFoundError used to escape run() with a traceback and no error document
    target = tmp_path / "missing_dir" / "x.json"
    _exits_invalid_matrix(["orthogonal-times", "--levels", "3", "--quantum", "1", "--output", str(target)], "cannot write")
    assert capsys.readouterr().err == ""
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--state-a", "a.json", "--state-b", "b.json", "--seed", "-1"],
        ["sweep", "--config", "cfg.json", "--seed", "-1"],
        ["make-state", "--kind", "random-density", "--dim", "2", "--rank", "1", "--seed", "-1"],
    ],
    ids=["decompose", "sweep", "make-state"],
)
def test_negative_seed_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.run(argv)
    assert info.value.code == 64
    assert "non-negative" in capsys.readouterr().err


def test_reused_parser_leaks_no_state_between_runs(tmp_path):
    # an explicit --format in one run must not become the default of the next
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "monotonicity", "samples": 2, "dim": 2})
    cli._build_parser.cache_clear()
    first = run_cli(["sweep", "--config", cfg, "--seed", "3"])
    override = run_cli(["sweep", "--config", cfg, "--seed", "3", "--format", "csv"])
    again = run_cli(["sweep", "--config", cfg, "--seed", "3"])
    assert first[0] == override[0] == 0
    assert json.loads(first[1])["summary"]["all_satisfied"]
    assert override[1].startswith("sample_id,")
    assert again == first


def _subcommands():
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize(
    "command, flag",
    [
        ("qfi", "--cutoff"),
        ("check-channel", "--tol"),
        ("twirl", "--freq-tol"),
        ("decompose", "--tol"),
        ("broadcastable", "--tol"),
    ],
)
def test_tolerance_flags_do_not_exist(tmp_path, plus_clock_file, command, flag):
    # every threshold is a constant, so no subcommand can re-decide a verdict
    ch = write_json(tmp_path / "ch.json", fileio.channel_to_json(random_channel(2, 2, 2, seed=3)))
    h = write_json(tmp_path / "h.json", fileio.matrix_to_json(np.diag([0.0, 1.0])))
    a = write_json(tmp_path / "a.json", fileio.matrix_to_json(np.diag([0.5, 0.5])))
    b = write_json(tmp_path / "b.json", fileio.matrix_to_json(np.diag([0.7, 0.3])))
    argv = {
        "qfi": ["qfi", "--clock", plus_clock_file],
        "check-channel": ["check-channel", "--channel", ch],
        "twirl": ["twirl", "--channel", ch, "--hamiltonian-in", h, "--hamiltonian-out", h],
        "decompose": ["decompose", "--state-a", a, "--state-b", b, "--seed", "5"],
        "broadcastable": ["broadcastable", "--states", a, b],
    }[command]
    assert run_cli(argv)[0] == 0
    with pytest.raises(SystemExit) as info:
        cli.run(argv + [flag, "1e-6"])
    assert info.value.code == 64
    assert flag not in _subcommands()[command].format_help()


def test_check_channel_and_monotonicity_agree_on_a_barely_non_cp_map(tmp_path, non_cp_coherence_map):
    # weight 2e-7 of the non-CP map leaves a cp violation of 4e-8, above the CPTP tolerance
    clock, channel, h = non_cp_coherence_map
    eps = 2e-7
    mixed = QuantumChannel(3, 3, (1 - eps) * identity_channel(3).choi + eps * channel.choi)
    clock_path = write_json(tmp_path / "clock.json", fileio.clock_to_json(clock))
    ch_path = write_json(tmp_path / "mixed.json", fileio.channel_to_json(mixed))
    h_path = write_json(tmp_path / "h.json", fileio.matrix_to_json(h.entries))
    code, out = run_cli(["check-channel", "--channel", ch_path, "--hamiltonian-in", h_path, "--hamiltonian-out", h_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["cp_violation"] == pytest.approx(4e-8, rel=1e-3)
    assert not doc["ok"] and doc["covariance"]["is_covariant"]
    code, out = run_cli(["monotonicity", "--clock", clock_path, "--channel", ch_path, "--hamiltonian-out", h_path])
    assert code == 2
    assert "not CPTP" in json.loads(out)["message"]


def test_qfi_and_monotonicity_report_the_same_information(tmp_path):
    # pair sums of 3e-7 sit just above the SLD cutoff, where a different cutoff would change F
    rho = random_density(3, 3, seed=13).entries
    _, vecs = np.linalg.eigh(rho)
    rho = (vecs * [1e-7, 2e-7, 1 - 3e-7]) @ vecs.conj().T
    clock = ClockSystem(DensityMatrix(rho), ladder_hamiltonian(3, 1.0))
    clock_path = write_json(tmp_path / "clock.json", fileio.clock_to_json(clock))
    ch_path = write_json(tmp_path / "id.json", fileio.channel_to_json(identity_channel(3)))
    h_path = write_json(tmp_path / "h.json", fileio.matrix_to_json(clock.hamiltonian.entries))
    code, qfi_out = run_cli(["qfi", "--clock", clock_path])
    assert code == 0
    code, mono_out = run_cli(["monotonicity", "--clock", clock_path, "--channel", ch_path, "--hamiltonian-out", h_path])
    assert code == 0
    assert json.loads(qfi_out)["fisher_info"] == json.loads(mono_out)["f_in"]


def test_unknown_flag_exits_64(plus_clock_file, capsys):
    with pytest.raises(SystemExit) as info:
        cli.run(["qfi", "--clock", plus_clock_file, "--bogus"])
    assert info.value.code == 64


def test_unknown_subcommand_exits_64():
    with pytest.raises(SystemExit) as info:
        cli.run(["frobnicate"])
    assert info.value.code == 64


def test_no_subcommand_exits_64():
    assert cli.run([]) == 64


def test_sweep_csv_reproducible(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"experiment": "copy_bound", "samples": 4, "dim_in": 3, "dim_out1": 2, "dim_out2": 2},
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(["sweep", "--config", cfg, "--seed", "1", "--output", str(out1)])[0] == 0
    assert run_cli(["sweep", "--config", cfg, "--seed", "1", "--output", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("sample_id,seed,dim_in,dim_out1,dim_out2,f_in,f1,f2,e2,lhs,rhs,margin,satisfied,covariance_residual")


def test_sweep_workers_flag_is_a_usage_error(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "monotonicity", "samples": 1, "dim": 2})
    with pytest.raises(SystemExit) as info:
        cli.run(["sweep", "--config", cfg, "--seed", "1", "--workers", "2"])
    assert info.value.code == 64


@pytest.mark.parametrize("field, value", [("kraus_rank", "2"), ("energy_scales", ["a"]), ("energy_quantum", "x")])
def test_sweep_bad_config_value_exits_2(tmp_path, field, value):
    cfg = {"experiment": "copy_bound", "samples": 1, "dim_in": 2, "dim_out1": 2, "dim_out2": 2, field: value}
    code, out = run_cli(["sweep", "--config", write_json(tmp_path / "cfg.json", cfg), "--seed", "1"])
    assert code == 2
    doc = json.loads(out)
    assert doc["code"] == "config" and f"'{field}'" in doc["message"]


def test_readme_sweep_configs_are_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```")[0] for b in readme.split("```json\n")[1:]]
    configs = [json.loads(b) for b in blocks if '"experiment"' in b]
    assert [cfg["experiment"] for cfg in configs] == ["copy_bound", "monotonicity"]
    for cfg in configs:
        bounds._normalize_config(cfg)


def test_sweep_json_format_on_stdout(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "monotonicity", "samples": 3, "dim": 2})
    code, out = run_cli(["sweep", "--config", cfg, "--seed", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["all_satisfied"] is True


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for line in readme.splitlines() if line.startswith("qclock ")]
    parser = cli._build_parser()
    assert {parser.parse_args(shlex.split(line)[1:]).command for line in lines} == set(_subcommands())


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```")[0] for b in readme.split("```python\n")[1:]]
    assert blocks
    for code in blocks:
        # conftest.py puts the package's source directory on PYTHONPATH
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


def test_readme_module_table_names_exist():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [line.split("|")[1:3] for line in readme.splitlines() if line.startswith("| `qclock.")]
    assert len(rows) == 7
    for module_cell, contents in rows:
        module = importlib.import_module(module_cell.strip().strip("`"))
        for name in re.findall(r"`([^`]+)`", contents):
            assert hasattr(module, name), f"README names {module.__name__}.{name}, which does not exist"


def test_readme_tolerances_name_constants_of_that_value():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    conventions = readme.split("\n## Conventions\n")[1].split("\n## ")[0]
    pairs = re.findall(r"`([^`]+)`\s+\(`(\w+)\.(\w+)`\)", conventions)
    assert len(pairs) == 10
    for value, module_name, name in pairs:
        module = importlib.import_module(f"qclock.{module_name}")
        assert hasattr(module, name), f"README names {module_name}.{name}, which does not exist"
        assert getattr(module, name) == float(value), f"README gives {module_name}.{name} as {value}"


def test_console_entry_point_runs_in_subprocess(plus_clock_file):
    proc = subprocess.run(
        [sys.executable, "-m", "qclock.cli", "qfi", "--clock", plus_clock_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["fisher_info"] == pytest.approx(1.0, abs=1e-10)
