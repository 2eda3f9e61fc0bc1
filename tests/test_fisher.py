import math

import numpy as np
import pytest

from qclock import (
    ClassicalSignalFamily,
    ClockSystem,
    DensityMatrix,
    DomainError,
    Hamiltonian,
    SupportError,
    ValidationError,
    classical_fisher,
    energy_moments,
    evolve,
    gaussian_delay_family,
    gaussian_energy_pure_state,
    moving_gaussian_family,
    qfi,
    random_density,
    random_hamiltonian,
    rho_dot,
    time_uncertainty,
)
from qclock.fisher import F_FLOOR
from qclock.states import TRACE_TOL
from reference import lyapunov_fisher, random_observable, rayleigh


def plus_clock():
    plus = np.full((2, 2), 0.5, dtype=complex)
    return ClockSystem(DensityMatrix(plus), Hamiltonian(np.diag([0.0, 1.0])))


def random_clock(dim, rank, seed):
    rng = np.random.default_rng(seed)
    return ClockSystem(random_density(dim, rank, rng), random_hamiltonian(dim, rng))


# ---------------------------------------------------------------------------
# rho_dot
# ---------------------------------------------------------------------------


def test_rho_dot_vanishes_for_commuting_state():
    h = Hamiltonian(np.diag([0.0, 1.0, 2.0]))
    clock = ClockSystem(DensityMatrix(np.diag([0.5, 0.3, 0.2])), h)
    assert np.abs(rho_dot(clock)).max() <= 1e-15


def test_rho_dot_plus_state_hand_value():
    expected = 0.5 * np.array([[0.0, -1j], [1j, 0.0]])
    assert np.abs(rho_dot(plus_clock()) - expected).max() <= 1e-14


def test_rho_dot_hermitian_traceless():
    clock = random_clock(5, 3, seed=9)
    rdot = rho_dot(clock)
    assert np.abs(rdot - rdot.conj().T).max() <= 1e-12
    assert abs(np.trace(rdot)) <= 1e-12


# ---------------------------------------------------------------------------
# qfi via the SLD
# ---------------------------------------------------------------------------


def test_qfi_plus_state_hand_values():
    result = qfi(plus_clock())
    assert result.fisher_info == pytest.approx(1.0, abs=1e-12)
    expected_sld = np.array([[0.0, -1j], [1j, 0.0]])
    assert np.abs(result.sld - expected_sld).max() <= 1e-10


def test_qfi_maximally_mixed_is_zero():
    clock = ClockSystem(DensityMatrix(np.eye(3) / 3), random_hamiltonian(3, seed=4))
    assert qfi(clock).fisher_info <= 1e-12


def test_qfi_pure_state_identity_from_energy_spread():
    for seed in range(5):
        h = random_hamiltonian(6, seed=20 + seed)
        state = gaussian_energy_pure_state(h, mean=0.0, sigma=0.8)
        clock = ClockSystem(state, h)
        spread = energy_moments(clock).std_dev
        f = qfi(clock).fisher_info
        assert abs(f - 4.0 * spread**2) / max(1.0, f) <= 1e-8


def test_qfi_time_translation_invariant():
    clock = random_clock(4, 2, seed=12)
    f0 = qfi(clock).fisher_info
    for t in (0.4, -1.3, 2.7):
        ft = qfi(ClockSystem(evolve(clock, t), clock.hamiltonian)).fisher_info
        assert abs(ft - f0) <= 1e-8 * max(1.0, f0)


def test_qfi_sld_solves_lyapunov_on_support():
    clock = random_clock(5, 3, seed=31)
    result = qfi(clock)
    rho = clock.state.entries
    sld = result.sld
    residual = 0.5 * (rho @ sld + sld @ rho) - rho_dot(clock)
    p, v = np.linalg.eigh(rho)
    r_eig = v.conj().T @ residual @ v
    keep = (p[:, None] + p[None, :]) > 1e-12
    assert np.abs(r_eig[keep]).max() <= 1e-8
    assert np.abs(sld - sld.conj().T).max() <= 1e-10
    # F = tr(rho_dot L) consistency
    assert result.fisher_info == pytest.approx(
        np.trace(rho_dot(clock) @ sld).real, abs=1e-8
    )
    assert result.fisher_info >= -1e-10


def test_qfi_kernel_dim_counts_rank_deficiency():
    clock = random_clock(4, 2, seed=13)
    assert qfi(clock).kernel_dim == 4  # two zero eigenvalues -> 2x2 kernel block
    full = random_clock(4, 4, seed=13)
    assert qfi(full).kernel_dim == 0


def test_qfi_zero_iff_stationary():
    stationary = ClockSystem(
        DensityMatrix(np.diag([0.6, 0.4])), Hamiltonian(np.diag([0.0, 1.0]))
    )
    assert np.abs(rho_dot(stationary)).max() <= 1e-10
    assert qfi(stationary).fisher_info <= 1e-12
    moving = plus_clock()
    assert np.abs(rho_dot(moving)).max() > 1e-10
    assert qfi(moving).fisher_info > 1e-10


def test_qfi_convex_under_mixing():
    rng = np.random.default_rng(44)
    for _ in range(5):
        h = random_hamiltonian(4, rng)
        rho1 = random_density(4, 2, rng)
        rho2 = random_density(4, 4, rng)
        lam = rng.uniform(0.2, 0.8)
        mix = DensityMatrix(lam * rho1.entries + (1 - lam) * rho2.entries)
        f_mix = qfi(ClockSystem(mix, h)).fisher_info
        f1 = qfi(ClockSystem(rho1, h)).fisher_info
        f2 = qfi(ClockSystem(rho2, h)).fisher_info
        assert f_mix <= lam * f1 + (1 - lam) * f2 + 1e-8


# ---------------------------------------------------------------------------
# cross-check against the test-only Lyapunov solve and Rayleigh quotient
# ---------------------------------------------------------------------------


def test_reference_plus_state():
    assert lyapunov_fisher(plus_clock()) == pytest.approx(1.0, abs=1e-12)


def test_reference_zero_for_commuting_clock():
    clock = ClockSystem(DensityMatrix(np.diag([0.7, 0.3])), Hamiltonian(np.diag([0.0, 1.0])))
    assert lyapunov_fisher(clock) == 0.0
    rng = np.random.default_rng(2)
    assert all(rayleigh(clock, random_observable(rng, 2)) == 0.0 for _ in range(20))


def test_reference_matches_qfi_on_random_mixed_clock():
    clock = random_clock(4, 2, seed=3)
    f = qfi(clock).fisher_info
    assert abs(lyapunov_fisher(clock) - f) <= 1e-10 * f


def test_random_observables_never_exceed_qfi():
    clock = random_clock(3, 3, seed=6)
    f = qfi(clock).fisher_info
    rng = np.random.default_rng(99)
    for _ in range(100):
        assert rayleigh(clock, random_observable(rng, 3)) <= f + 1e-8


def test_rayleigh_quotient_at_the_sld_equals_qfi():
    clock = random_clock(4, 3, seed=21)
    result = qfi(clock)
    assert rayleigh(clock, result.sld) == pytest.approx(result.fisher_info, rel=1e-9)


# ---------------------------------------------------------------------------
# classical families
# ---------------------------------------------------------------------------


def test_classical_gaussian_delay_matches_analytic_value():
    family = gaussian_delay_family(delay_std=0.5, grid_min=-5, grid_max=5, points=2001)
    f = classical_fisher(family, t=0.0, dt=1e-4)
    assert abs(f - 4.0) / 4.0 <= 0.01


@pytest.mark.parametrize("center", [0.0, -0.3])
def test_gaussian_delay_family_is_bit_for_bit_the_delayed_gaussian(center):
    # the density the delay family had before it became the unit-velocity moving family
    delay_std, x = 0.7, np.linspace(-5.0, 5.0, 401)
    family = gaussian_delay_family(delay_std, -5.0, 5.0, 401, center=center)
    for t in (0.0, 0.37, -1.25, 3.0, 1e-9):
        z = np.exp(-0.5 * ((x - center - t) / delay_std) ** 2)
        assert family.density_at(t).tobytes() == (z / z.sum()).tobytes()


def test_classical_time_independent_family_is_zero():
    family = moving_gaussian_family(velocity=0.0, position_std=1.0, grid_min=-1, grid_max=1, points=101)
    assert classical_fisher(family, t=0.0, dt=1e-4) == 0.0


def test_classical_family_rejects_nan_probabilities():
    # NaN fails every comparison, so a check written as "p < 0" would let it through as F = 0
    family = moving_gaussian_family(1.0, 1.0, -5, 5, 101, center=math.nan)
    with pytest.raises(ValidationError):
        classical_fisher(family, 0.0)


@pytest.mark.parametrize("scale, ok", [(0.5, True), (2.0, False)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_classical_family_sum_check_at_the_trace_tolerance(scale, ok, sign):
    family = ClassicalSignalFamily(
        [0.0, 1.0], lambda t: np.array([0.5, 0.5 + sign * scale * TRACE_TOL])
    )
    if ok:
        family.density_at(0.0)
    else:
        with pytest.raises(ValidationError, match="sum to"):
            family.density_at(0.0)


def test_classical_moving_signal_matches_analytic_value():
    family = moving_gaussian_family(
        velocity=2.0, position_std=1.0, grid_min=-8, grid_max=8, points=2001
    )
    f = classical_fisher(family, t=0.0, dt=1e-4)
    assert abs(f - 4.0) / 4.0 <= 0.01


def test_classical_fisher_support_error():
    # narrow pulse on a coarse grid: the shifted distribution leaks onto
    # points where the unshifted one underflowed to zero
    family = gaussian_delay_family(delay_std=1e-3, grid_min=-5, grid_max=5, points=4001)
    with pytest.raises(SupportError):
        classical_fisher(family, t=0.0, dt=0.5)


def test_time_uncertainty_values():
    assert time_uncertainty(4.0) == pytest.approx(0.5)
    assert time_uncertainty(1.0) == pytest.approx(1.0)
    # at or below F_FLOOR the clock carries no timing information
    assert time_uncertainty(0.0) == math.inf
    assert time_uncertainty(F_FLOOR) == math.inf
    for bad in (-1.0, math.nan):
        with pytest.raises(DomainError):
            time_uncertainty(bad)


def test_time_uncertainty_of_gaussian_clock_is_half_inverse_spread():
    h = Hamiltonian(np.diag(np.arange(12.0)))
    state = gaussian_energy_pure_state(h, mean=5.5, sigma=1.5)
    clock = ClockSystem(state, h)
    spread = energy_moments(clock).std_dev
    dt = time_uncertainty(qfi(clock).fisher_info)
    assert dt == pytest.approx(1.0 / (2.0 * spread), rel=1e-8)
