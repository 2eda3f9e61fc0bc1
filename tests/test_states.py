import numpy as np
import pytest

from qclock import states
from qclock import (
    ClockSystem,
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    Hamiltonian,
    QuantumChannel,
    ValidationError,
    energy_moments,
    equal_superposition_clock,
    evolve,
    gaussian_energy_pure_state,
    ladder_hamiltonian,
    qfi,
    random_density,
    random_hamiltonian,
)


def plus_clock():
    plus = np.full((2, 2), 0.5, dtype=complex)
    return ClockSystem(DensityMatrix(plus), Hamiltonian(np.diag([0.0, 1.0])))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        DensityMatrix([[0.5, 0.5 + 0.1j], [0.5 - 0.2j, 0.5]])


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(2))


def test_density_matrix_rejects_negative():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_density_matrix_symmetrizes_float_noise():
    rho = np.array([[0.5, 0.5 + 1e-14j], [0.5 - 1e-14j, 0.5]])
    dm = DensityMatrix(rho)
    assert np.abs(dm.entries - dm.entries.conj().T).max() == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "build",
    [DensityMatrix, Hamiltonian, lambda m: QuantumChannel(1, 2, m)],
    ids=["density", "hamiltonian", "channel"],
)
def test_constructors_reject_non_finite_entries(build, bad):
    # NaN compares False with any tolerance, so the Hermitian check must not pass it
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = mat[1, 0] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        build(mat)


def _bits(mat):
    return np.ascontiguousarray(mat).tobytes()


@pytest.mark.parametrize(
    "layout",
    [lambda m: m, np.asfortranarray, lambda m: np.repeat(np.repeat(m, 2, 0), 2, 1)[::2, ::2]],
    ids=["c-order", "f-order", "strided"],
)
def test_hermitize_matches_the_plain_formula_bit_for_bit(layout):
    rng = np.random.default_rng(12)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    noisy = a + a.conj().T + 1e-14 * rng.standard_normal((40, 40))
    noisy[3, :5] = noisy[:5, 3] = -0.0  # signed zeros must come out as the formula gives them
    mat = layout(noisy)
    adjoint = mat.conj().T
    expected = (mat + adjoint) / 2
    assert _bits(states._hermitize(mat, "m")) == _bits(expected)
    dev, adj = states._hermitian_deviation(mat)
    assert dev == np.abs(mat - adjoint).max()
    assert _bits(adj) == _bits(adjoint)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermitize_rejects_a_non_finite_entry_deep_in_a_large_matrix(bad):
    mat = np.eye(200, dtype=complex)
    mat[190, 60] = mat[60, 190] = bad  # a symmetric pair far from the first rows and the diagonal
    with pytest.raises(ValidationError, match="non-finite") as info:
        states._hermitize(mat, "m")
    assert not np.isfinite(info.value.detail["deviation"])


def test_hermitize_reports_the_plain_deviation():
    rng = np.random.default_rng(13)
    mat = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    with pytest.raises(ValidationError) as info:
        Hamiltonian(mat)
    assert info.value.detail["deviation"] == np.abs(mat - mat.conj().T).max()


def test_hamiltonian_reconstructs_from_cached_decomposition():
    h = random_hamiltonian(6, seed=11)
    rebuilt = (h.eigenvectors * h.eigenvalues) @ h.eigenvectors.conj().T
    assert np.abs(rebuilt - h.entries).max() <= 1e-10
    assert np.all(np.diff(h.eigenvalues) >= 0)
    gram = h.eigenvectors.conj().T @ h.eigenvectors
    assert np.abs(gram - np.eye(6)).max() <= 1e-12


def test_clock_requires_matching_dims():
    with pytest.raises(DimensionMismatchError):
        ClockSystem(DensityMatrix(np.eye(2) / 2), Hamiltonian(np.eye(3)))


def test_clock_names_an_argument_of_the_wrong_type():
    # swapped, the two arguments have matching dims, and only their types tell them apart
    clock = plus_clock()
    with pytest.raises(ValidationError, match="state must be a DensityMatrix, got Hamiltonian"):
        ClockSystem(clock.hamiltonian, clock.state)
    with pytest.raises(ValidationError, match="hamiltonian must be a Hamiltonian, got ndarray"):
        ClockSystem(clock.state, clock.hamiltonian.entries)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_at_time_zero_is_identity():
    clock = plus_clock()
    assert np.abs(evolve(clock, 0.0).entries - clock.state.entries).max() <= 1e-14


def test_evolve_plus_state_half_period():
    # hand matrix exponential: diag(1, e^{-i pi}) sends |+> to |->
    clock = plus_clock()
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    assert np.abs(evolve(clock, np.pi).entries - minus).max() <= 1e-12


def test_evolve_fixes_states_diagonal_in_energy_basis():
    h = random_hamiltonian(4, seed=5)
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    rho = (h.eigenvectors * probs) @ h.eigenvectors.conj().T
    clock = ClockSystem(DensityMatrix(rho), h)
    for t in (0.3, 1.7, -2.2):
        assert np.abs(evolve(clock, t).entries - rho).max() <= 1e-12


def test_evolve_group_law_and_spectrum_preservation():
    rng = np.random.default_rng(2)
    clock = ClockSystem(random_density(5, 3, rng), random_hamiltonian(5, rng))
    for t, s in [(0.3, 0.9), (-1.2, 0.4), (2.0, -3.5)]:
        once = evolve(ClockSystem(evolve(clock, t), clock.hamiltonian), s)
        direct = evolve(clock, t + s)
        assert np.abs(once.entries - direct.entries).max() <= 1e-10
        spec_before = np.linalg.eigvalsh(clock.state.entries)
        spec_after = np.linalg.eigvalsh(direct.entries)
        assert np.abs(spec_before - spec_after).max() <= 1e-10


def test_density_matrix_keeps_eighs_decomposition():
    rho = random_density(6, 4, seed=12)
    w, v = np.linalg.eigh(rho.entries)
    assert rho.eigenvalues.tobytes() == w.tobytes()
    assert rho.eigenvectors.tobytes() == v.tobytes()
    for field in ("entries", "eigenvalues", "eigenvectors"):
        assert not getattr(rho, field).flags.writeable, field


def test_evolve_keeps_the_spectrum_and_rotates_the_eigenvectors():
    rng = np.random.default_rng(13)
    clock = ClockSystem(random_density(5, 3, rng), random_hamiltonian(5, rng))
    rho_t = evolve(clock, 0.8)
    assert np.array_equal(rho_t.eigenvalues, clock.state.eigenvalues)
    rebuilt = (rho_t.eigenvectors * rho_t.eigenvalues) @ rho_t.eigenvectors.conj().T
    assert np.abs(rebuilt - rho_t.entries).max() <= 1e-12
    gram = rho_t.eigenvectors.conj().T @ rho_t.eigenvectors
    assert np.abs(gram - np.eye(5)).max() <= 1e-12


def test_density_matrix_from_a_decomposition_is_still_checked():
    v = np.eye(2, dtype=complex)
    with pytest.raises(ValidationError, match="Hermitian"):
        DensityMatrix._from_decomposition(np.array([[0.5, 0.1], [0.0, 0.5]]), np.array([0.4, 0.6]), v)
    with pytest.raises(ValidationError, match="positive semidefinite"):
        DensityMatrix._from_decomposition(np.diag([1.2, -0.2]), np.array([-0.2, 1.2]), v)
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix._from_decomposition(np.diag([0.7, 0.4]), np.array([0.4, 0.7]), v)


def test_qfi_and_evolve_run_no_eigendecomposition(monkeypatch):
    clock = ClockSystem(random_density(6, 3, seed=14), random_hamiltonian(6, seed=15))
    calls = []

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    qfi(clock)
    qfi(ClockSystem(evolve(clock, 1.3), clock.hamiltonian))
    assert calls == []
    DensityMatrix(clock.state.entries)  # the wrappers do see the constructor's eigh
    assert calls == ["eigh"]


def test_energy_moments_conserved_along_orbit():
    rng = np.random.default_rng(3)
    clock = ClockSystem(random_density(4, 4, rng), random_hamiltonian(4, rng))
    base = energy_moments(clock)
    for t in np.linspace(-2, 2, 7):
        moved = energy_moments(ClockSystem(evolve(clock, t), clock.hamiltonian))
        assert abs(moved.mean - base.mean) <= 1e-10
        assert abs(moved.second_moment - base.second_moment) <= 1e-10


def test_evolve_rejects_non_finite_time():
    with pytest.raises(DomainError):
        evolve(plus_clock(), np.inf)


# ---------------------------------------------------------------------------
# energy moments
# ---------------------------------------------------------------------------


def test_moments_maximally_mixed_qubit():
    clock = ClockSystem(DensityMatrix(np.eye(2) / 2), Hamiltonian(np.diag([0.0, 1.0])))
    m = energy_moments(clock)
    assert m == pytest.approx((0.5, 0.5, 0.5))


def test_moments_eigenstate_has_zero_spread():
    h = random_hamiltonian(3, seed=8)
    psi = h.eigenvectors[:, 1]
    clock = ClockSystem(DensityMatrix(np.outer(psi, psi.conj())), h)
    m = energy_moments(clock)
    e = h.eigenvalues[1]
    assert m.mean == pytest.approx(e, abs=1e-12)
    assert m.second_moment == pytest.approx(e * e, abs=1e-12)
    assert m.std_dev <= 1e-6


def test_moments_equal_superposition_four_levels():
    # direct sums: (1+2+3+4)/4 and (1+4+9+16)/4
    m = energy_moments(equal_superposition_clock(4, 1.0))
    assert m.mean == pytest.approx(2.5, abs=1e-12)
    assert m.second_moment == pytest.approx(7.5, abs=1e-12)
    assert m.std_dev == pytest.approx(np.sqrt(1.25), abs=1e-12)


# ---------------------------------------------------------------------------
# gaussian energy states
# ---------------------------------------------------------------------------


def test_gaussian_state_16_levels_realizes_requested_spread():
    h = Hamiltonian(np.diag(np.arange(16.0)))
    state = gaussian_energy_pure_state(h, mean=7.5, sigma=2.0)
    # oracle: moments computed directly from independently constructed amplitudes
    levels = np.arange(16.0)
    probs = np.exp(-((levels - 7.5) ** 2) / (2 * 2.0**2))
    probs /= probs.sum()
    expected_std = np.sqrt((probs * levels**2).sum() - (probs * levels).sum() ** 2)
    m = energy_moments(ClockSystem(state, h))
    assert m.std_dev == pytest.approx(expected_std, rel=1e-10)
    assert abs(m.std_dev - 2.0) / 2.0 <= 0.05


def test_gaussian_state_is_pure():
    h = random_hamiltonian(9, seed=17)
    state = gaussian_energy_pure_state(h, mean=0.0, sigma=1.0)
    assert state.purity() == pytest.approx(1.0, abs=1e-10)


def test_gaussian_state_single_level():
    h = Hamiltonian(np.array([[2.5]]))
    state = gaussian_energy_pure_state(h, mean=0.0, sigma=0.3)
    assert state.entries[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert energy_moments(ClockSystem(state, h)).std_dev == 0.0


def test_gaussian_state_symmetric_wide_limit():
    h = Hamiltonian(np.diag([0.0, 1.0]))
    state = gaussian_energy_pure_state(h, mean=0.5, sigma=1e6)
    assert np.abs(state.entries - 0.5).max() <= 1e-10


def test_gaussian_state_rejects_bad_sigma():
    with pytest.raises(DomainError):
        gaussian_energy_pure_state(Hamiltonian(np.diag([0.0, 1.0])), 0.5, 0.0)


# ---------------------------------------------------------------------------
# equal superposition clocks
# ---------------------------------------------------------------------------


def test_equal_superposition_ladder_spectrum():
    clock = equal_superposition_clock(4, 0.5)
    assert np.allclose(clock.hamiltonian.eigenvalues, [0.5, 1.0, 1.5, 2.0])
    assert np.abs(clock.state.entries - 0.25).max() <= 1e-14


def test_equal_superposition_single_level_is_stationary():
    clock = equal_superposition_clock(1, 1.0)
    for t in (0.1, 3.0):
        assert np.abs(evolve(clock, t).entries - clock.state.entries).max() <= 1e-14


def test_equal_superposition_two_levels_exact_mean():
    # exact discrete value (n+1)/2 rather than the asymptotic n/2
    m = energy_moments(equal_superposition_clock(2, 1.0))
    assert m.mean == pytest.approx(1.5, abs=1e-12)


# ---------------------------------------------------------------------------
# seeded random generators
# ---------------------------------------------------------------------------


def test_random_density_deterministic_per_seed():
    a = random_density(4, 4, seed=1)
    b = random_density(4, 4, seed=1)
    assert np.array_equal(a.entries, b.entries)


def test_random_density_rank_one_is_pure():
    assert random_density(4, 1, seed=7).purity() == pytest.approx(1.0, abs=1e-10)


def test_random_density_rank_counts_eigenvalues():
    rho = random_density(8, 3, seed=7)
    eigs = np.linalg.eigvalsh(rho.entries)
    assert int(np.sum(eigs > 1e-10)) == 3


def test_random_density_rejects_bad_rank():
    with pytest.raises(DomainError):
        random_density(4, 5, seed=0)
    with pytest.raises(DomainError):
        random_density(4, 0, seed=0)


def test_random_hamiltonian_deterministic_and_hermitian():
    a = random_hamiltonian(5, seed=3)
    b = random_hamiltonian(5, seed=3)
    assert np.array_equal(a.entries, b.entries)
    assert np.abs(a.entries - a.entries.conj().T).max() == 0.0


def test_ladder_hamiltonian_quantum_scaling():
    h = ladder_hamiltonian(3, 2.0)
    assert np.allclose(h.eigenvalues, [2.0, 4.0, 6.0])


@pytest.mark.parametrize("quantum", [1.0, 0.5, -1.0])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_ladder_decomposition_is_eighs_bit_for_bit(n, quantum):
    # the decomposition is read off the diagonal; for quantum -1 eigh returns the reversed basis
    ladder = ladder_hamiltonian(n, quantum)
    reference = Hamiltonian(np.diag(np.arange(1, n + 1) * quantum))
    for field in ("entries", "eigenvalues", "eigenvectors"):
        got, want = getattr(ladder, field), getattr(reference, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
    if quantum < 0 and n > 1:
        assert not np.array_equal(ladder.eigenvectors, np.eye(n))
