"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is seeded and finishes in seconds at dims 2-16.
"""
import io
import json
import math
import subprocess
import sys
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from qclock import (
    ClockSystem,
    DensityMatrix,
    cli,
    common_invariant_decomposition,
    conserved_block_traces,
    covariant_twirl,
    energy_moments,
    equal_superposition_clock,
    evolve,
    fileio,
    gaussian_delay_family,
    gaussian_energy_pure_state,
    classical_fisher,
    is_covariant,
    ladder_hamiltonian,
    monotonicity_check,
    moving_gaussian_family,
    nondisturbing_distinguishable,
    orthogonal_times,
    pairwise_commuting,
    qfi,
    random_channel,
    random_density,
    random_hamiltonian,
    sweep,
    validate_cptp,
    apply_channel,
)
from reference import lyapunov_fisher, random_observable, rayleigh


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {label}: PASS", flush=True)


def random_clock(dim, rank, seed):
    rng = np.random.default_rng(seed)
    return ClockSystem(random_density(dim, rank, rng), random_hamiltonian(dim, rng))


def test_criterion_1_pure_state_qfi_identity():
    with criterion("criterion 1 (pure states: F = 4 * energy spread^2)"):
        for i in range(50):
            dim = 4 + i % 13  # dims 4..16
            h = random_hamiltonian(dim, seed=100 + i)
            span = float(h.eigenvalues[-1] - h.eigenvalues[0])
            mean = float(h.eigenvalues[0]) + span * (0.3 + 0.05 * (i % 9))
            sigma = span * (0.08 + 0.04 * (i % 6))
            clock = ClockSystem(gaussian_energy_pure_state(h, mean, sigma), h)
            spread = energy_moments(clock).std_dev
            f = qfi(clock).fisher_info
            assert abs(f - 4.0 * spread**2) / max(1.0, f) <= 1e-8, (i, f, spread)


def test_criterion_2_reference_oracle_agreement():
    with criterion("criterion 2 (an independent Lyapunov solve agrees with the SLD value)"):
        for i in range(25):
            dim = 2 + i % 7  # dims 2..8
            rank = 1 + i % dim
            clock = random_clock(dim, rank, seed=200 + i)
            f = qfi(clock).fisher_info
            reference = lyapunov_fisher(clock)
            if f > 1e-12:
                assert abs(reference - f) <= 1e-4 * f, (i, reference, f)
            else:
                assert abs(reference) <= 1e-8, (i, reference, f)

            # 100 random trial observables never beat the closed form
            rng = np.random.default_rng(500 + i)
            for _ in range(100):
                assert rayleigh(clock, random_observable(rng, dim)) <= f + 1e-8


def test_criterion_3_classical_gaussian_families():
    with criterion("criterion 3 (classical Gaussian-delay and moving-signal values)"):
        delay = gaussian_delay_family(delay_std=0.5, grid_min=-5, grid_max=5, points=2001)
        f_delay = classical_fisher(delay, t=0.0, dt=1e-4)
        assert abs(f_delay - 4.0) / 4.0 <= 0.01, f_delay

        moving = moving_gaussian_family(
            velocity=2.0, position_std=1.0, grid_min=-8, grid_max=8, points=2001
        )
        f_moving = classical_fisher(moving, t=0.0, dt=1e-4)
        assert abs(f_moving - 4.0) / 4.0 <= 0.01, f_moving


def test_criterion_4_covariance_machinery():
    with criterion("criterion 4 (twirl yields CPTP covariant channels; commuting diagram)"):
        for i in range(100):
            din = 2 + i % 3
            dout = 2 + (i // 3) % 3
            rank = max(1 + i % 3, -(-din // dout))  # ensure an isometry exists
            h_in = random_hamiltonian(din, seed=1000 + i)
            h_out = random_hamiltonian(dout, seed=2000 + i)
            raw = random_channel(din, dout, rank, seed=3000 + i)
            twirled = covariant_twirl(raw, h_in, h_out)

            report = validate_cptp(twirled)
            assert report.ok, (i, report)
            cov = is_covariant(twirled, h_in, h_out)
            assert cov.is_covariant, (i, cov.residual)

            again = covariant_twirl(twirled, h_in, h_out)
            assert np.abs(again.choi - twirled.choi).max() <= 1e-12, i

            clock = ClockSystem(random_density(din, din, seed=4000 + i), h_in)
            for t in np.linspace(-2.5, 2.5, 20):
                first = apply_channel(twirled, evolve(clock, t)).entries
                second = evolve(
                    ClockSystem(apply_channel(twirled, clock.state), h_out), t
                ).entries
                assert np.abs(first - second).max() <= 1e-8, (i, t)


def test_criterion_5_quasi_order_monotonicity():
    with criterion("criterion 5 (covariant channels never increase timing information)"):
        informative = 0
        for i in range(100):
            dim = 2 + i % 3
            dim_out = 2 + (i // 2) % 3
            rng = np.random.default_rng(5000 + i)
            if i % 2 == 0:
                h_in = ladder_hamiltonian(dim, 1.0)
                h_out = ladder_hamiltonian(dim_out, 1.0)
            else:
                h_in = random_hamiltonian(dim, rng)
                h_out = random_hamiltonian(dim_out, rng)
            clock = ClockSystem(random_density(dim, 1 + i % dim, rng), h_in)
            rank = max(2, -(-dim // dim_out))
            channel = covariant_twirl(random_channel(dim, dim_out, rank, rng), h_in, h_out)
            report = monotonicity_check(clock, channel, h_out)
            assert report.holds, (i, report.f_in, report.f_out)
            if report.f_out > 1e-6:
                informative += 1
        assert informative >= 10, informative  # the check must not be vacuous


def test_criterion_6_copy_bound_monte_carlo():
    with criterion("criterion 6 (copy bound holds; rhs falls with energy scale)"):
        base = {
            "experiment": "copy_bound",
            "samples": 50,
            "dim_in": 4,
            "dim_out1": 2,
            "dim_out2": 2,
            "kraus_rank": 2,
        }
        equal = sweep(dict(base, clock="equal_superposition"), seed=601)
        rand = sweep(dict(base, clock="random"), seed=602)
        rows = equal.rows + rand.rows
        assert len(rows) == 100
        assert all(row["satisfied"] for row in rows)
        assert min(row["margin"] for row in rows) >= -1e-8
        finite = [row for row in rows if math.isfinite(row["margin"])]
        assert len(finite) >= 20, len(finite)  # bound exercised non-trivially

        scaled = sweep(
            dict(base, samples=8, energy_scales=[1.0, 2.0, 4.0, 8.0]), seed=603
        )
        by_sample = {}
        for row in scaled.rows:
            by_sample.setdefault(row["sample_id"], []).append(
                (row["energy_scale"], row["rhs"])
            )
        for sample_id, pairs in by_sample.items():
            rhs_values = [rhs for _, rhs in sorted(pairs)]
            assert all(a > b for a, b in zip(rhs_values, rhs_values[1:])), sample_id


def test_criterion_7_nondisturbing_distinguishability():
    with criterion("criterion 7 (block-trace criterion and conserved block weights)"):
        rho1 = DensityMatrix(np.diag([0.5, 0.5]))
        rho2 = DensityMatrix(np.diag([0.7, 0.3]))
        flag, proj = nondisturbing_distinguishable(rho1, rho2, seed=0)
        assert flag
        for rho in (rho1, rho2):
            assert np.abs(proj @ rho.entries - rho.entries @ proj).max() <= 1e-9
        gap = abs(np.trace(proj @ (rho1.entries - rho2.entries)).real)
        assert gap > 1e-9

        rng = np.random.default_rng(4)
        generic1 = random_density(3, 3, rng)
        generic2 = random_density(3, 3, rng)
        report = common_invariant_decomposition(generic1, generic2, seed=4)
        assert not report.distinguishable
        assert len(report.subspaces) == 1

        for i in range(20):
            clock = random_clock(2 + i % 4, 1 + i % 2, seed=700 + i)
            times = np.random.default_rng(800 + i).uniform(-4, 4, size=10)
            assert conserved_block_traces(clock, times).max_deviation <= 1e-9, i


def test_criterion_8_orthogonal_times():
    with criterion("criterion 8 (equal-superposition clocks at derived orthogonal times)"):
        for n in (2, 3, 4, 8):
            for quantum in (0.5, 1.0, 2.0):
                times = orthogonal_times(n, quantum)
                clock = equal_superposition_clock(n, quantum)
                states = [evolve(clock, float(t)) for t in times]
                for k in range(n):
                    for l in range(k + 1, n):
                        overlap_sq = np.trace(states[k].entries @ states[l].entries).real
                        assert abs(overlap_sq) <= (1e-10) ** 2 + 1e-14, (n, quantum, k, l)
                assert pairwise_commuting(states), (n, quantum)


def _cli_bytes(argv):
    buf = io.StringIO()
    code = None
    with redirect_stdout(buf):
        code = cli.run(argv)
    assert code == 0, (argv, buf.getvalue())
    return buf.getvalue()


def test_criterion_9_reproducibility(tmp_path):
    with criterion("criterion 9 (seeded subcommands are byte-identical across runs)"):
        seeded_argvs = [
            ["make-state", "--kind", "random-density", "--dim", "4", "--rank", "2", "--seed", "7"],
            ["make-state", "--kind", "random-hamiltonian", "--dim", "3", "--seed", "9"],
        ]
        for argv in seeded_argvs:
            assert _cli_bytes(argv) == _cli_bytes(argv), argv

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(fileio.matrix_to_json(np.diag([0.5, 0.5]))))
        b.write_text(json.dumps(fileio.matrix_to_json(np.diag([0.7, 0.3]))))
        argv = ["decompose", "--state-a", str(a), "--state-b", str(b), "--seed", "5"]
        assert _cli_bytes(argv) == _cli_bytes(argv)

        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "copy_bound",
                    "samples": 6,
                    "dim_in": 3,
                    "dim_out1": 2,
                    "dim_out2": 2,
                }
            )
        )
        outputs = []
        for name in ("r1.csv", "r2.csv"):
            path = tmp_path / name
            _cli_bytes(["sweep", "--config", str(cfg), "--seed", "1", "--output", str(path)])
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

        json_runs = {
            _cli_bytes(["sweep", "--config", str(cfg), "--seed", "1", "--format", "json"])
            for _ in range(2)
        }
        assert len(json_runs) == 1

        # cross-process determinism of a seeded subcommand
        argv = [sys.executable, "-m", "qclock.cli", "make-state", "--kind",
                "random-density", "--dim", "4", "--rank", "2", "--seed", "7"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
