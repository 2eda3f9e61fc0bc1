import math

import numpy as np
import pytest

from qclock import (
    ClockSystem,
    ConfigError,
    CopyBoundReport,
    DensityMatrix,
    Hamiltonian,
    PreconditionError,
    append_state,
    apply_channel,
    copy_bound_check,
    covariant_twirl,
    depolarizing_channel,
    equal_superposition_clock,
    evolution_channel,
    is_covariant,
    ladder_hamiltonian,
    monotonicity_check,
    qfi,
    random_channel,
    random_density,
    random_hamiltonian,
    sweep,
    time_uncertainty_check,
    total_hamiltonian,
    validate_cptp,
)
from qclock.bounds import CSV_COLUMNS, EXTRA_COLUMNS


def plus_clock():
    plus = np.full((2, 2), 0.5, dtype=complex)
    return ClockSystem(DensityMatrix(plus), Hamiltonian(np.diag([0.0, 1.0])))


def twirled_broadcast(clock, h1, h2, kraus_rank, seed):
    raw = random_channel(clock.dim, h1.dim * h2.dim, kraus_rank, seed)
    return covariant_twirl(raw, clock.hamiltonian, total_hamiltonian(h1, h2))


# ---------------------------------------------------------------------------
# copy bound
# ---------------------------------------------------------------------------


def test_copy_bound_append_stationary_state():
    # second output carries no timing information: lhs is infinite
    clock = plus_clock()
    h2 = Hamiltonian(np.diag([1.0, 2.0]))
    sigma = DensityMatrix(np.diag([0.7, 0.3]))
    report = copy_bound_check(clock, append_state(sigma, dim_in=2), clock.hamiltonian, h2)
    assert report.f_in == pytest.approx(1.0, abs=1e-10)
    assert report.f1 == pytest.approx(report.f_in, abs=1e-10)
    assert report.f2 <= 1e-12
    assert math.isinf(report.lhs)
    assert report.satisfied


def test_copy_bound_stationary_input_clock():
    # F = 0 input: rhs is infinite; covariance forbids creating timing
    # information, so both outputs must be stationary too
    clock = ClockSystem(DensityMatrix(np.eye(2) / 2), Hamiltonian(np.diag([0.0, 1.0])))
    h1 = Hamiltonian(np.diag([0.0, 1.0]))
    h2 = Hamiltonian(np.diag([0.0, 2.0]))
    broadcast = depolarizing_channel(2, 4)
    report = copy_bound_check(clock, broadcast, h1, h2)
    assert report.f_in <= 1e-12
    assert report.f1 <= report.f_in + 1e-8
    assert report.f2 <= report.f_in + 1e-8
    assert report.satisfied


def test_total_hamiltonian_builds_its_decomposition_without_eigh(monkeypatch):
    h1, h2 = random_hamiltonian(3, seed=71), ladder_hamiltonian(4, 0.5)
    calls = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    total = total_hamiltonian(h1, h2)
    assert calls == []
    sums = np.add.outer(h1.eigenvalues, h2.eigenvalues).reshape(-1)
    assert np.array_equal(total.eigenvalues, np.sort(sums, kind="stable"))
    assert np.abs(total.eigenvalues - eigh(total.entries)[0]).max() <= 1e-12
    u = total.eigenvectors
    assert np.abs(u.conj().T @ u - np.eye(12)).max() <= 1e-12
    assert np.abs(total.entries @ u - u * total.eigenvalues).max() <= 1e-12
    assert np.array_equal(
        total.entries, np.kron(h1.entries, np.eye(4)) + np.kron(np.eye(3), h2.entries)
    )


@pytest.mark.parametrize("seed", range(3))
def test_ladder_twirl_is_unchanged_by_the_factored_decomposition(seed):
    h_in = ladder_hamiltonian(8, 1.0)
    total = total_hamiltonian(ladder_hamiltonian(3, 1.0), ladder_hamiltonian(3, 1.0))
    by_eigh = Hamiltonian(total.entries)
    assert np.array_equal(total.eigenvalues, by_eigh.eigenvalues)
    raw = random_channel(8, 9, 2, seed=seed)
    assert np.array_equal(
        covariant_twirl(raw, h_in, total).choi, covariant_twirl(raw, h_in, by_eigh).choi
    )


def test_copy_bound_monte_carlo_equal_superposition():
    clock = equal_superposition_clock(4, 1.0)
    h1 = ladder_hamiltonian(2, 1.0)
    h2 = ladder_hamiltonian(2, 1.0)
    finite = 0
    for seed in range(20):
        broadcast = twirled_broadcast(clock, h1, h2, kraus_rank=2, seed=seed)
        report = copy_bound_check(clock, broadcast, h1, h2)
        assert report.margin >= -1e-8
        if math.isfinite(report.margin):
            finite += 1
    assert finite > 0  # ladder outputs keep some broadcasts informative


def test_copy_bound_rejects_noncovariant_channel():
    clock = equal_superposition_clock(3, 1.0)
    h1 = random_hamiltonian(2, seed=31)
    h2 = random_hamiltonian(2, seed=32)
    raw = random_channel(3, 4, 2, seed=33)
    with pytest.raises(PreconditionError, match="covariant_twirl"):
        copy_bound_check(clock, raw, h1, h2)


def test_copy_bound_energy_shift_gauge_invariance():
    clock = equal_superposition_clock(3, 1.0)
    h1 = ladder_hamiltonian(2, 1.0)
    h2 = ladder_hamiltonian(2, 1.0)
    broadcast = twirled_broadcast(clock, h1, h2, kraus_rank=2, seed=40)
    report = copy_bound_check(clock, broadcast, h1, h2)
    h1_shifted = Hamiltonian(h1.entries + 3.0 * np.eye(2))
    h2_shifted = Hamiltonian(h2.entries - 1.5 * np.eye(2))
    shifted = copy_bound_check(clock, broadcast, h1_shifted, h2_shifted)
    assert shifted.e2 == pytest.approx(report.e2, abs=1e-9)
    assert shifted.f1 == pytest.approx(report.f1, abs=1e-9)
    assert shifted.f2 == pytest.approx(report.f2, abs=1e-9)
    if math.isfinite(report.margin):
        assert shifted.margin == pytest.approx(report.margin, abs=1e-9)
    assert shifted.satisfied == report.satisfied
    assert shifted.e2_unshifted != pytest.approx(report.e2_unshifted, abs=1e-3)


# ---------------------------------------------------------------------------
# uncertainty form
# ---------------------------------------------------------------------------


def test_uncertainty_check_hand_values():
    report = CopyBoundReport(
        f_in=4.0,
        f1=2.0,
        f2=2.0,
        e2=10.0,
        e2_unshifted=10.0,
        lhs=1.0,
        rhs=0.7,
        margin=0.3,
        satisfied=True,
        covariance_residual=0.0,
    )
    unc = time_uncertainty_check(report)
    assert unc.dt_in == pytest.approx(0.5)
    assert unc.dt1 == pytest.approx(1.0 / np.sqrt(2.0))
    assert unc.dt2 == pytest.approx(1.0 / np.sqrt(2.0))
    assert unc.lhs == pytest.approx(1.0)
    assert unc.rhs == pytest.approx(0.7)
    assert unc.satisfied


def test_uncertainty_check_symmetric_case_bound():
    # equal split: (dt1)^2 >= dt^2 + 1/e2
    clock = equal_superposition_clock(4, 1.0)
    h1 = ladder_hamiltonian(2, 1.0)
    h2 = ladder_hamiltonian(2, 1.0)
    for seed in range(20):
        report = copy_bound_check(
            clock, twirled_broadcast(clock, h1, h2, kraus_rank=2, seed=seed), h1, h2
        )
        unc = time_uncertainty_check(report)
        if abs(report.f1 - report.f2) <= 1e-6 and report.f1 > 1e-12:
            assert unc.dt1**2 >= unc.dt_in**2 + 1.0 / report.e2 - 1e-8


def test_uncertainty_check_unbounded_branch():
    report = CopyBoundReport(
        f_in=1.0,
        f1=1.0,
        f2=0.0,
        e2=5.0,
        e2_unshifted=5.0,
        lhs=math.inf,
        rhs=2.4,
        margin=math.inf,
        satisfied=True,
        covariance_residual=0.0,
    )
    unc = time_uncertainty_check(report)
    assert math.isinf(unc.dt2)
    assert unc.satisfied


def test_uncertainty_verdict_matches_copy_bound_verdict():
    clock = equal_superposition_clock(4, 1.0)
    h1 = ladder_hamiltonian(2, 1.0)
    h2 = ladder_hamiltonian(2, 1.0)
    for seed in range(20):
        report = copy_bound_check(
            clock, twirled_broadcast(clock, h1, h2, kraus_rank=2, seed=seed), h1, h2
        )
        unc = time_uncertainty_check(report)
        assert unc.lhs == report.lhs
        assert unc.rhs == report.rhs
        assert unc.satisfied is report.satisfied


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------


def test_monotonicity_unitary_channel_preserves_f():
    rng = np.random.default_rng(50)
    h = random_hamiltonian(3, rng)
    clock = ClockSystem(random_density(3, 2, rng), h)
    report = monotonicity_check(clock, evolution_channel(h, 0.9), h)
    assert report.holds
    assert report.f_out == pytest.approx(report.f_in, abs=1e-10 * max(1.0, report.f_in))


def test_monotonicity_depolarizing_kills_f():
    clock = equal_superposition_clock(3, 1.0)
    h_out = random_hamiltonian(3, seed=51)
    report = monotonicity_check(clock, depolarizing_channel(3), h_out)
    assert report.f_out <= 1e-12
    assert report.holds


def test_monotonicity_monte_carlo_twirled_channels():
    informative = 0
    for seed in range(20):
        rng = np.random.default_rng(600 + seed)
        h_in = ladder_hamiltonian(3, 1.0)
        h_out = ladder_hamiltonian(3, 1.0)
        clock = ClockSystem(random_density(3, 1 + seed % 3, rng), h_in)
        channel = covariant_twirl(random_channel(3, 3, 2, rng), h_in, h_out)
        report = monotonicity_check(clock, channel, h_out)
        assert report.holds
        if report.f_out > 1e-3:
            informative += 1
    assert informative > 5  # shared ladder spectra keep outputs ticking


def test_monotonicity_composition_never_recovers_f():
    # two covariant stages: the second output is no better than the first
    rng = np.random.default_rng(77)
    h = ladder_hamiltonian(3, 1.0)
    clock = ClockSystem(random_density(3, 2, rng), h)
    ch1 = covariant_twirl(random_channel(3, 3, 2, rng), h, h)
    ch2 = covariant_twirl(random_channel(3, 3, 2, rng), h, h)
    first = monotonicity_check(clock, ch1, h)
    mid_clock = ClockSystem(apply_channel(ch1, clock.state), h)
    second = monotonicity_check(mid_clock, ch2, h)
    assert second.f_out <= first.f_out + 1e-8
    assert second.f_out <= first.f_in + 1e-8


def test_monotonicity_rejects_noncovariant_channel():
    clock = equal_superposition_clock(3, 1.0)
    with pytest.raises(PreconditionError):
        monotonicity_check(clock, random_channel(3, 3, 2, seed=5), random_hamiltonian(3, seed=5))


def test_monotonicity_rejects_covariant_non_cp_map(non_cp_coherence_map):
    # the map raises F, so judging it would report a false violation
    clock, channel, h = non_cp_coherence_map
    assert validate_cptp(channel).cp_violation == pytest.approx(0.2)
    assert is_covariant(channel, h, h).residual == 0.0
    f_out = qfi(ClockSystem(apply_channel(channel, clock.state), h)).fisher_info
    assert qfi(clock).fisher_info == pytest.approx(0.8)
    assert f_out == pytest.approx(1.108, abs=1e-3)
    with pytest.raises(PreconditionError, match="not CPTP"):
        monotonicity_check(clock, channel, h)


def test_both_checks_share_one_precondition(non_cp_coherence_map):
    # the same non-CP map, with a trivial second output, fails the copy bound
    # with the monotonicity check's message
    clock, channel, h = non_cp_coherence_map
    with pytest.raises(PreconditionError) as mono:
        monotonicity_check(clock, channel, h)
    with pytest.raises(PreconditionError) as copy:
        copy_bound_check(clock, channel, h, Hamiltonian(np.zeros((1, 1))))
    assert copy.value.message == mono.value.message


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

COPY_CFG = {
    "experiment": "copy_bound",
    "samples": 6,
    "dim_in": 3,
    "dim_out1": 2,
    "dim_out2": 2,
    "kraus_rank": 2,
}

MONO_CFG = {"experiment": "monotonicity", "samples": 8, "dim": 3, "dim_out": 3}


def test_sweep_copy_bound_all_satisfied():
    result = sweep(COPY_CFG, seed=1)
    assert result.summary["all_satisfied"]
    assert result.summary["min_margin"] >= -1e-8
    assert len(result.rows) == 6
    assert [row["sample_id"] for row in result.rows] == list(range(6))


def test_sweep_deterministic_per_seed():
    a = sweep(COPY_CFG, seed=1)
    b = sweep(COPY_CFG, seed=1)
    assert a.rows == b.rows
    c = sweep(COPY_CFG, seed=2)
    assert c.rows != a.rows


def test_sweep_monotonicity_reproducible():
    first = sweep(MONO_CFG, seed=3)
    second = sweep(MONO_CFG, seed=3)
    assert first.rows == second.rows
    assert first.summary == second.summary


def test_sweep_row_k_is_the_one_sample_sweep_at_seed_plus_k():
    # sweep_d16 in perfbench runs one-sample sweeps on consecutive seeds
    cfg = dict(COPY_CFG, samples=4, clock="equal_superposition")
    rows = sweep(cfg, seed=5).rows
    for k, row in enumerate(rows):
        (single,) = sweep(dict(cfg, samples=1), seed=5 + k).rows
        assert row["sample_id"] == k and single["sample_id"] == 0
        assert {**row, "sample_id": 0} == single


def test_copy_bound_sweep_row_builds_its_total_hamiltonian_once(monkeypatch):
    from qclock import bounds

    built = []
    build = bounds.total_hamiltonian
    monkeypatch.setattr(bounds, "total_hamiltonian", lambda *hs: built.append(1) or build(*hs))
    cfg = dict(COPY_CFG, samples=1, clock="equal_superposition", energy_scales=[0.5, 3.0])
    rows = sweep(cfg, seed=4).rows
    assert len(rows) == len(built) == 2
    # each row is copy_bound_check's report on the same twirled channel
    monkeypatch.undo()
    raw = random_channel(3, 4, 2, np.random.default_rng(4))
    for row, lam in zip(rows, [0.5, 3.0]):
        clock = equal_superposition_clock(3, lam)
        h = ladder_hamiltonian(2, lam)
        broadcast = covariant_twirl(raw, clock.hamiltonian, total_hamiltonian(h, h))
        report = copy_bound_check(clock, broadcast, h, h)
        fields = ("f_in", "f1", "f2", "e2", "margin", "covariance_residual")
        assert {k: row[k] for k in fields} == {k: getattr(report, k) for k in fields}


def test_sweep_monotonicity_summary():
    result = sweep(MONO_CFG, seed=5)
    assert result.summary["min_margin"] >= -1e-8
    assert all(row["satisfied"] for row in result.rows)
    assert all(row["f1"] <= row["f_in"] + 1e-8 for row in result.rows)


def test_sweep_rows_share_one_layout():
    columns = list(CSV_COLUMNS + EXTRA_COLUMNS)
    for row in sweep(dict(COPY_CFG, energy_scales=[0.5, 1.0]), seed=2).rows:
        assert list(row) == columns
        assert None not in row.values()
    for row in sweep(MONO_CFG, seed=2).rows:
        assert list(row) == columns
        assert [row[k] for k in ("dim_out2", "f2", "e2", "energy_scale")] == [None] * 4
        assert row["margin"] == row["f_in"] - row["f1"]
        assert (row["lhs"], row["rhs"]) == (row["f_in"], row["f1"])


def test_sweep_energy_scale_rhs_decreases():
    cfg = dict(COPY_CFG, samples=3, energy_scales=[1.0, 2.0, 4.0, 8.0])
    result = sweep(cfg, seed=7)
    by_sample = {}
    for row in result.rows:
        by_sample.setdefault(row["sample_id"], []).append((row["energy_scale"], row["rhs"]))
    for rows in by_sample.values():
        rhs_values = [rhs for _, rhs in sorted(rows)]
        assert all(a > b for a, b in zip(rhs_values, rhs_values[1:]))


def test_sweep_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="experiment"):
        sweep({"samples": 3}, seed=1)
    with pytest.raises(ConfigError, match="dim_in"):
        sweep({"experiment": "copy_bound", "samples": 3}, seed=1)
    with pytest.raises(ConfigError, match="samples"):
        sweep({"experiment": "monotonicity", "dim": 3}, seed=1)
    with pytest.raises(ConfigError, match="seed"):
        sweep(MONO_CFG)


@pytest.mark.parametrize(
    "cfg, field",
    [
        (dict(COPY_CFG, energy_scales=[0]), "energy_scales"),
        (dict(COPY_CFG, energy_scales=[-1.0]), "energy_scales"),
        (dict(COPY_CFG, energy_scales=[math.inf]), "energy_scales"),
        (dict(COPY_CFG, energy_scales=["a"]), "energy_scales"),
        (dict(COPY_CFG, energy_scales=[True]), "energy_scales"),
        (dict(COPY_CFG, energy_scales=[]), "energy_scales"),
        (dict(COPY_CFG, energy_scales=1.0), "energy_scales"),
        (dict(COPY_CFG, energy_quantum=0), "energy_quantum"),
        (dict(COPY_CFG, clock="random", energy_quantum=0), "energy_quantum"),
        (dict(COPY_CFG, energy_quantum=math.nan), "energy_quantum"),
        (dict(COPY_CFG, energy_quantum=10**400), "energy_quantum"),
        (dict(COPY_CFG, energy_quantum="x"), "energy_quantum"),
        (dict(COPY_CFG, kraus_rank="2"), "kraus_rank"),
        (dict(COPY_CFG, kraus_rank=True), "kraus_rank"),
        (dict(COPY_CFG, kraus_rank=0), "kraus_rank"),
        (dict(COPY_CFG, clock="gaussian"), "clock"),
        (dict(MONO_CFG, dim_out="3"), "dim_out"),
        (dict(MONO_CFG, dim_out=0), "dim_out"),
        (dict(MONO_CFG, kraus_rank=1.5), "kraus_rank"),
        (dict(MONO_CFG, experiment=["monotonicity"]), "experiment"),
    ],
)
def test_sweep_config_rejects_bad_values_by_field(cfg, field):
    # a zero energy would give rows with F1 = 0 that all "satisfy" the bound
    with pytest.raises(ConfigError, match=f"'{field}'"):
        sweep(cfg, seed=1)


def test_sweep_config_accepts_integer_energies():
    cfg = dict(COPY_CFG, samples=1, energy_quantum=1, energy_scales=[0.5, 1, 2])
    rows = sweep(cfg, seed=1).rows
    assert [row["energy_scale"] for row in rows] == [0.5, 1.0, 2.0]
    assert all(type(row["energy_scale"]) is float for row in rows)
    assert rows == sweep(dict(cfg, energy_quantum=1.0, energy_scales=[0.5, 1.0, 2.0]), seed=1).rows


@pytest.mark.parametrize("cfg", [COPY_CFG, MONO_CFG])
def test_sweep_rejects_random_hamiltonians(cfg):
    # generic spectra share no Bohr frequencies: every twirled row would have F1 = 0
    with pytest.raises(ConfigError, match="Bohr frequencies"):
        sweep(dict(cfg, hamiltonians="random"), seed=1)


def test_sweep_reads_no_seed_from_the_config():
    with pytest.raises(ConfigError, match="seed"):
        sweep(dict(MONO_CFG, seed=3))
    assert sweep(dict(MONO_CFG, seed=3), seed=4).rows == sweep(MONO_CFG, seed=4).rows


@pytest.mark.parametrize("clock", ["equal_superposition", "random"])
def test_sweep_energy_scales_are_a_units_check(clock):
    # H -> lam H scales F and <E^2> by lam^2 and every reciprocal by 1/lam^2
    cfg = dict(COPY_CFG, samples=1, clock=clock, energy_scales=[0.5, 1.0, 3.0])
    rows = {row["energy_scale"]: row for row in sweep(cfg, seed=1).rows}
    base = rows[1.0]
    assert base["f1"] > 1e-3 and base["f2"] > 1e-3
    for lam, row in rows.items():
        for key in ("f_in", "f1", "e2"):
            assert row[key] / lam**2 == pytest.approx(base[key], rel=1e-9)
        assert row["margin"] * lam**2 == pytest.approx(base["margin"], rel=1e-9)


def test_sweep_random_clock_copy_bound():
    cfg = dict(COPY_CFG, clock="random", samples=5)
    result = sweep(cfg, seed=11)
    assert result.summary["all_satisfied"]


def test_qfi_scales_quadratically_with_energy():
    # supports the energy-sweep reading: F(lam H) = lam^2 F(H)
    clock = equal_superposition_clock(4, 1.0)
    f1 = qfi(clock).fisher_info
    scaled = ClockSystem(clock.state, Hamiltonian(2.0 * clock.hamiltonian.entries))
    assert qfi(scaled).fisher_info == pytest.approx(4.0 * f1, rel=1e-10)


def test_copy_bound_with_one_dimensional_second_output():
    clock = equal_superposition_clock(3, 1.0)
    h1 = ladder_hamiltonian(3, 1.0)
    h2 = Hamiltonian(np.array([[0.7]]))
    for seed in range(5):
        broadcast = covariant_twirl(
            random_channel(3, 3, 2, seed), clock.hamiltonian, total_hamiltonian(h1, h2)
        )
        report = copy_bound_check(clock, broadcast, h1, h2)
        assert report.satisfied
        assert report.f2 <= 1e-12  # a 1-dim signal cannot tick
