"""Tests of the benchmark itself: determinism, the verifier, tracing, smoke runs.

    python3 -m pytest perfbench -q
"""
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tracing
import verify
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.fixture(scope="module")
def qc():
    return run.import_qclock()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(qc, name, tmp_path):
    builds = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        (tmp_path / sub).mkdir()
        builds.append(WORKLOADS[name](qc, seed, str(tmp_path / sub)).inputs())
    assert same(builds[0], builds[1])
    assert not same(builds[0], builds[2])


def test_verifier_flags_flipped_satisfied(qc, tmp_path):
    call = WORKLOADS["sweep_d16"](qc, 5, str(tmp_path)).call(0)
    result = call.run()
    assert call.check(result).problems == []
    result.rows[0]["satisfied"] = False
    assert any("not satisfied" in p for p in call.check(result).problems)


def test_verifier_flags_non_cptp_and_unmatched_choi(qc, tmp_path):
    wl = WORKLOADS["cli_small"](qc, 5, str(tmp_path))
    twirled = wl.twirled[0]
    assert verify.twirled_choi(twirled, wl.h_in, wl.h_out, raw=wl.raw[0]) == []
    assert verify.twirled_choi(twirled, wl.h_in, wl.h_out, raw=wl.raw[1]) != []
    assert any("not CPTP" in p for p in verify.twirled_choi(1.01 * twirled, wl.h_in, wl.h_out))
    assert any("mismatched" in p for p in verify.twirled_choi(wl.raw[0], wl.h_in, wl.h_out))

    k = wl.cycle.index("twirl")
    call = wl.call(k)
    code = call.run()
    assert call.check(code).problems == []
    out = Path(tmp_path) / "out_twirl.json"
    doc = json.loads(out.read_text())
    doc["choi"]["re"][0][0] += 0.5
    doc["choi"]["re"][1][1] -= 0.5
    out.write_text(json.dumps(doc))
    assert call.check(code).problems != []


def test_verifier_flags_wrong_decompose_verdict(qc, tmp_path):
    wl = WORKLOADS["decompose"](qc, 5, str(tmp_path))
    for kind in ("nd_8", "cid_8"):
        for k in [i for i, c in enumerate(wl.cycle) if c == kind]:
            for v in range(wl.PAIRS):
                call = wl.call(k + v * len(wl.cycle))
                result = call.run()
                assert call.check(result).problems == []
                if kind == "nd_8":
                    verdict, projector = result
                    wrong = (not verdict, projector)
                    assert call.check(wrong).problems != []
    a = wl.pairs[8][1][0]
    assert verify.witness(None, a, a, truth=True, verdict=False) != []


def test_reference_mismatch_is_flagged():
    assert verify.against_reference({"f1": 1.0, "extra": 3}, {"f1": 1.0}) == []
    assert verify.against_reference({"f1": 1.0 + 1e-6}, {"f1": 1.0}) != []
    assert verify.against_reference({}, {"f1": 1.0}) != []


def test_tracer_wraps_every_binding_and_restores(qc):
    original = qc.channels.is_covariant
    t = tracing.Tracer(qc)
    t.install()
    try:
        assert qc.bounds.is_covariant is qc.channels.is_covariant is qc.is_covariant
        assert qc.channels.is_covariant is not original
        h = qc.ladder_hamiltonian(2, 1.0)
        qc.is_covariant(qc.identity_channel(2), h, h)
    finally:
        t.uninstall()
    assert qc.bounds.is_covariant is original and qc.channels.is_covariant is original
    labels = {s[0]: s[3] for s in t.spans}
    children = [s for s in t.spans if s[3] == "channels.apply_to_matrix"]
    assert len(children) == 8 and all(labels[s[1]] == "channels.is_covariant" for s in children)
    self_ns = sum(v[1] for v in tracing.layer_times(t.spans).values())
    assert self_ns == sum(s[5] - s[4] for s in t.spans if s[1] == -1)


def _main(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run.main(args) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_verification(name):
    result = _main(["--workload", name, "--seed", str(run.DEFAULT_SEED), "--seconds", "0.3"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_run(name):
    result = _main(["--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", "1"])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["trace.accounted_frac"]["value"] >= 0.9
