import numpy as np
import pytest

from qclock import distinguish
from qclock import (
    ClockSystem,
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    Hamiltonian,
    NumericalDegeneracyError,
    common_invariant_decomposition,
    conserved_block_traces,
    equal_superposition_clock,
    evolve,
    max_commutator,
    nondisturbing_distinguishable,
    orthogonal_times,
    pairwise_commuting,
    random_density,
    random_hamiltonian,
)


def superposition_states_at(n, quantum, times):
    """Equal-superposition clock states evolved to the given times."""
    clock = equal_superposition_clock(n, quantum)
    return [evolve(clock, float(t)) for t in times]


# ---------------------------------------------------------------------------
# common invariant decomposition
# ---------------------------------------------------------------------------


def test_diagonal_pair_splits_into_lines():
    rho1 = DensityMatrix(np.diag([0.5, 0.5]))
    rho2 = DensityMatrix(np.diag([0.7, 0.3]))
    report = common_invariant_decomposition(rho1, rho2, seed=0)
    assert len(report.subspaces) == 2
    assert all(s.shape == (2, 1) for s in report.subspaces)
    assert sorted(np.round(report.traces_a, 12)) == [0.5, 0.5]
    assert sorted(np.round(report.traces_b, 12)) == [0.3, 0.7]
    assert report.distinguishable
    assert report.witness_index is not None


def test_identical_states_never_distinguishable():
    rho = random_density(4, 3, seed=1)
    report = common_invariant_decomposition(rho, rho, seed=1)
    assert not report.distinguishable
    assert report.witness_index is None
    assert np.abs(report.traces_a - report.traces_b).max() <= 1e-12


def test_generic_noncommuting_pair_has_trivial_commutant():
    rng = np.random.default_rng(4)
    rho1 = random_density(3, 3, rng)
    rho2 = random_density(3, 3, rng)
    assert np.abs(rho1.entries @ rho2.entries - rho2.entries @ rho1.entries).max() > 1e-3
    report = common_invariant_decomposition(rho1, rho2, seed=4)
    assert len(report.subspaces) == 1
    assert report.subspaces[0].shape == (3, 3)
    assert report.traces_a[0] == pytest.approx(1.0, abs=1e-9)
    assert report.traces_b[0] == pytest.approx(1.0, abs=1e-9)
    assert not report.distinguishable


def test_decomposition_subspaces_are_certified_invariant():
    rng = np.random.default_rng(7)
    base = random_density(6, 6, rng)
    # build two states diagonal in the same random basis: rich common commutant
    _, v = np.linalg.eigh(base.entries)
    rho1 = DensityMatrix((v * np.array([0.3, 0.3, 0.2, 0.1, 0.05, 0.05])) @ v.conj().T)
    rho2 = DensityMatrix((v * np.array([0.25, 0.25, 0.2, 0.1, 0.1, 0.1])) @ v.conj().T)
    report = common_invariant_decomposition(rho1, rho2, seed=7)
    dim_total = 0
    eye = np.eye(6)
    for s in report.subspaces:
        dim_total += s.shape[1]
        proj = s @ s.conj().T
        for rho in (rho1, rho2):
            assert np.abs((eye - proj) @ rho.entries @ proj).max() <= 1e-9
    assert dim_total == 6
    # the stacked bases are globally orthonormal, not just within subspaces
    stacked = np.hstack(report.subspaces)
    assert np.abs(stacked.conj().T @ stacked - np.eye(6)).max() <= 1e-10
    assert report.traces_a.sum() == pytest.approx(1.0, abs=1e-9)
    assert report.traces_b.sum() == pytest.approx(1.0, abs=1e-9)


def test_decomposition_requires_equal_dims():
    with pytest.raises(DimensionMismatchError):
        common_invariant_decomposition(
            random_density(2, 2, seed=0), random_density(3, 3, seed=0), seed=0
        )


# ---------------------------------------------------------------------------
# non-disturbing distinguishability
# ---------------------------------------------------------------------------


def test_witness_projector_for_diagonal_pair():
    rho1 = DensityMatrix(np.diag([0.5, 0.5]))
    rho2 = DensityMatrix(np.diag([0.7, 0.3]))
    flag, proj = nondisturbing_distinguishable(rho1, rho2, seed=0)
    assert flag
    # a valid witness is diag(1,0) or diag(0,1): commutes with both states,
    # idempotent, expectation gap 0.2
    assert np.abs(proj @ proj - proj).max() <= 1e-10
    for rho in (rho1, rho2):
        assert np.abs(proj @ rho.entries - rho.entries @ proj).max() <= 1e-9
    gap = abs(np.trace(proj @ rho1.entries).real - np.trace(proj @ rho2.entries).real)
    assert gap == pytest.approx(0.2, abs=1e-9)


def test_evolved_full_rank_state_not_distinguishable_from_itself():
    rng = np.random.default_rng(11)
    clock = ClockSystem(random_density(3, 3, rng), random_hamiltonian(3, rng))
    for t in (0.6, 1.9):
        flag, proj = nondisturbing_distinguishable(clock.state, evolve(clock, t), seed=11)
        assert not flag
        assert proj is None


def test_identical_states_flag_false():
    rho = random_density(3, 2, seed=12)
    flag, proj = nondisturbing_distinguishable(rho, rho, seed=12)
    assert not flag and proj is None


# ---------------------------------------------------------------------------
# conserved block traces
# ---------------------------------------------------------------------------


def test_block_traces_conserved_for_random_clock():
    rng = np.random.default_rng(13)
    clock = ClockSystem(random_density(4, 4, rng), random_hamiltonian(4, rng))
    report = conserved_block_traces(clock, [0.0, 0.3, 1.7])
    assert report.max_deviation <= 1e-9
    assert report.conserved


def test_block_traces_equal_superposition_thirds():
    clock = equal_superposition_clock(3, 1.0)
    times = np.random.default_rng(14).uniform(-5, 5, size=10)
    report = conserved_block_traces(clock, times)
    assert report.max_deviation <= 1e-9
    assert np.abs(report.block_traces - 1.0 / 3.0).max() <= 1e-12


def test_block_traces_eigenstate_concentrated():
    h = random_hamiltonian(3, seed=15)
    psi = h.eigenvectors[:, 2]
    clock = ClockSystem(DensityMatrix(np.outer(psi, psi.conj())), h)
    report = conserved_block_traces(clock, [0.0, 1.0, 2.0])
    assert report.max_deviation <= 1e-12
    weights = report.block_traces[0]
    assert weights.max() == pytest.approx(1.0, abs=1e-10)
    assert sorted(weights)[:-1] == pytest.approx([0.0, 0.0], abs=1e-10)


@pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-12, 1e-20])
def test_block_trace_verdict_uses_tol(monkeypatch, tol):
    # the constant is read at call time, for the grouping and the verdict alike
    monkeypatch.setattr(distinguish, "DISTINGUISH_TOL", tol)
    rng = np.random.default_rng(16)
    clock = ClockSystem(random_density(4, 4, rng), random_hamiltonian(4, rng))
    report = conserved_block_traces(clock, [0.0, 0.3, 1.7])
    assert report.conserved == (report.max_deviation <= tol)
    if tol == 1e-20:
        # below the float noise of the evolution: the verdict must say so
        assert report.max_deviation > tol
        assert not report.conserved


def test_block_traces_match_loop_grouping():
    # integer levels with multiplicities, nudged within and beyond tol
    levels = np.array([0.0, 0.0, 1.0, 1.0 + 5e-10, 1.0 + 3e-9, 2.0])
    u = np.linalg.qr(np.random.default_rng(17).standard_normal((6, 6)))[0]
    h = Hamiltonian(u @ np.diag(levels) @ u.T)
    clock = ClockSystem(random_density(6, 6, seed=17), h)
    times = [0.0, 0.4, 2.5]
    report = conserved_block_traces(clock, times)
    w, v = h.eigenvalues, h.eigenvectors
    groups, start = [], 0
    for k in range(1, w.size):
        if w[k] - w[k - 1] > 1e-9:
            groups.append(np.arange(start, k))
            start = k
    groups.append(np.arange(start, w.size))
    assert [g.size for g in groups] == [2, 2, 1, 1]
    expected = [
        [np.trace(v[:, g].conj().T @ evolve(clock, t).entries @ v[:, g]).real for g in groups]
        for t in times
    ]
    assert np.array_equal(report.block_traces, np.array(expected))


def loop_draw_groups(w):
    """Reference grouping of a draw's ascending eigenvalues: split at steps above DRAW_GAP_MARGIN * noise."""
    limit = distinguish.DRAW_GAP_MARGIN * len(w) * np.finfo(float).eps * float(np.abs(w).max())
    groups, start = [], 0
    for k in range(1, w.size):
        if w[k] - w[k - 1] > limit:
            groups.append(np.arange(start, k))
            start = k
    groups.append(np.arange(start, w.size))
    return groups


def drawn_subspace_sizes(monkeypatch, w, rng):
    """Subspace sizes of a flat pair's decomposition whose draw has the eigenvalues w."""
    d = len(w)
    flat = DensityMatrix(np.eye(d) / d)  # the whole Hermitian space is the commutant
    u = random_unitary(rng, d)
    draw_target_first(monkeypatch, u @ np.diag(w) @ u.conj().T, draws=1)
    report = common_invariant_decomposition(flat, flat, seed=0)
    monkeypatch.undo()
    return [s.shape[1] for s in report.subspaces]


@pytest.mark.parametrize("seed", range(4))
def test_eigenvalue_groups_match_loop_definition(monkeypatch, seed):
    # exact ties, and steps of 1e-9 and more, against a limit of ~1e-10
    rng = np.random.default_rng(seed)
    w = np.sort(np.concatenate([
        rng.integers(0, 4, size=8) + rng.choice([0.0, 1e-9, 1e-6], size=8),
        [5.0, 5.0 * (1 + 1e-7), 5.0 * (1 + 3e-7)],
    ]))
    assert drawn_subspace_sizes(monkeypatch, w, rng) == [g.size for g in loop_draw_groups(w)]
    flat = np.sort(np.full(5, 0.2) + 1e-14 * rng.standard_normal(5))
    assert [g.size for g in loop_draw_groups(flat)] == [5]
    assert drawn_subspace_sizes(monkeypatch, flat, rng) == [5]


def per_time_block_traces(clock, times):
    """Reference: evolve the clock to each time on its own and trace each level group's block."""
    w, v = clock.hamiltonian.eigenvalues, clock.hamiltonian.eigenvectors
    groups = np.split(np.arange(w.size), np.flatnonzero(np.diff(w) > distinguish.DISTINGUISH_TOL) + 1)
    return np.array([
        [np.trace(v[:, g].conj().T @ evolve(clock, t).entries @ v[:, g]).real for g in groups]
        for t in times
    ])


@pytest.mark.parametrize("seed", range(6))
def test_stacked_block_traces_match_a_per_time_evolve_loop(seed):
    # integer levels with multiplicities in a random eigenbasis, as in the decompose benchmark
    rng = np.random.default_rng(seed)
    d = 12
    levels = np.sort(rng.integers(0, 5, size=d)).astype(float)
    u = random_unitary(rng, d)
    h = u @ np.diag(levels) @ u.conj().T
    clock = ClockSystem(random_density(d, d, rng), Hamiltonian((h + h.conj().T) / 2))
    times = rng.uniform(0.0, 10.0, size=6)
    report = conserved_block_traces(clock, times)
    loop = per_time_block_traces(clock, times)
    assert report.block_traces.shape == loop.shape
    assert np.abs(report.block_traces - loop).max() <= 1e-14
    spread = float((loop.max(axis=0) - loop.min(axis=0)).max())
    assert report.conserved == (spread <= distinguish.DISTINGUISH_TOL)
    assert report.conserved


def test_block_traces_check_every_evolved_state(monkeypatch):
    from qclock import ValidationError, states

    clock = equal_superposition_clock(3, 1.0)
    with pytest.raises(DomainError, match="time must be finite"):
        conserved_block_traces(clock, [0.0, 1.0, np.nan])
    # the evolved states are still checked as Hermitian at HERMITIAN_TOL
    monkeypatch.setattr(states, "HERMITIAN_TOL", -1.0)
    with pytest.raises(ValidationError, match="not Hermitian"):
        conserved_block_traces(clock, [0.0, 1.0])


def test_block_traces_requires_times():
    clock = equal_superposition_clock(2, 1.0)
    with pytest.raises(DomainError):
        conserved_block_traces(clock, [])


# ---------------------------------------------------------------------------
# broadcastability (pairwise commutation)
# ---------------------------------------------------------------------------


def test_diagonal_states_commute():
    states = [DensityMatrix(np.diag(p)) for p in ([0.5, 0.5], [0.7, 0.3], [0.1, 0.9])]
    assert pairwise_commuting(states)


def test_evolved_state_does_not_commute_with_original():
    clock = equal_superposition_clock(3, 1.0)
    assert not pairwise_commuting([clock.state, evolve(clock, 0.2)])


def test_orthogonal_time_states_commute():
    times = orthogonal_times(4, 1.0)
    states = superposition_states_at(4, 1.0, times)
    assert pairwise_commuting(states)


def loop_max_commutator(states):
    """Reference: max-abs entry of a b - b a over all ordered pairs, diagonal included."""
    mats = [s.entries for s in states]
    return max(float(np.abs(a @ b - b @ a).max()) for a in mats for b in mats)


@pytest.mark.parametrize("spoiled", [False, True])
def test_max_commutator_matches_pairwise_loop(spoiled):
    rng = np.random.default_rng(40)
    q = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    family = [DensityMatrix(q @ np.diag(p) @ q.conj().T) for p in rng.dirichlet(np.ones(5), size=4)]
    if spoiled:
        family[2] = random_density(5, 3, seed=41)
    worst = max_commutator(family)
    assert worst == loop_max_commutator(family)
    assert (worst > 1e-3) is spoiled
    assert pairwise_commuting(family) is not spoiled


def test_max_commutator_needs_two_states_of_one_dimension():
    with pytest.raises(DomainError):
        max_commutator([DensityMatrix(np.eye(2) / 2)])
    with pytest.raises(DimensionMismatchError):
        max_commutator([DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3)])


# ---------------------------------------------------------------------------
# orthogonal times
# ---------------------------------------------------------------------------


def test_orthogonal_times_two_levels():
    times = orthogonal_times(2, 1.0)
    assert np.allclose(times, [0.0, np.pi])


def test_orthogonal_times_four_levels():
    times = orthogonal_times(4, 1.0)
    assert np.allclose(times, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_orthogonal_times_spacing_shrinks_with_energy():
    assert np.allclose(orthogonal_times(2, 2.0), [0.0, np.pi / 2])


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("quantum", [0.5, 1.0, 2.0])
def test_orthogonal_times_brute_force_overlaps(n, quantum):
    # oracle: geometric sum of phases over the ladder spectrum
    times = orthogonal_times(n, quantum)
    energies = np.arange(1, n + 1) * quantum
    amps = np.exp(-1j * np.outer(times, energies)) / np.sqrt(n)
    gram = np.abs(amps.conj() @ amps.T)
    np.fill_diagonal(gram, 0.0)
    assert gram.max() <= 1e-10


def test_noncommuting_block_stays_one_subspace():
    # first factor: both states proportional to the identity (splits freely);
    # second factor: the blocks do not commute, so it must stay whole
    blk = np.array([[0.3, 0.1], [0.1, 0.3]])
    rho1 = DensityMatrix(
        np.block([[np.eye(2) * 0.2, np.zeros((2, 2))], [np.zeros((2, 2)), blk]])
    )
    rho2 = DensityMatrix(
        np.block([[np.eye(2) * 0.05, np.zeros((2, 2))], [np.zeros((2, 2)), np.diag([0.5, 0.4])]])
    )
    report = common_invariant_decomposition(rho1, rho2, seed=3)
    dims = sorted(s.shape[1] for s in report.subspaces)
    assert dims == [1, 1, 2]
    assert report.distinguishable
    # witness is the non-commuting block: largest trace gap 0.9 - 0.6
    gaps = np.abs(report.traces_a - report.traces_b)
    assert gaps.max() == pytest.approx(0.3, abs=1e-9)
    flag, proj = nondisturbing_distinguishable(rho1, rho2, seed=3)
    assert flag
    for rho in (rho1, rho2):
        assert np.abs(proj @ rho.entries - rho.entries @ proj).max() <= 1e-9


# ---------------------------------------------------------------------------
# joint commutant in one state's eigenbasis, against the full-space solve
# ---------------------------------------------------------------------------


def full_space_commutant(a, b):
    """Reference: null space of X -> ([X, a], [X, b]) over all Hermitian X (full SVD).

    A state with a flat spectrum commutes with every X and is left out of the
    map: its rounding noise can lie above a cutoff set by the other state.
    """
    dim = a.shape[0]
    basis = []
    for k in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[k, k] = 1.0
        basis.append(m)
    for k in range(dim):
        for l in range(k + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[k, l] = m[l, k] = 1.0 / np.sqrt(2.0)
            basis.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[k, l] = -1j / np.sqrt(2.0)
            m[l, k] = 1j / np.sqrt(2.0)
            basis.append(m)
    live = []
    for rho in (a, b):
        w = np.linalg.eigvalsh(rho)
        if w[-1] - w[0] > 1e-12 * max(1.0, float(np.abs(w).max())):
            live.append(rho)
    if not live:
        return np.array(basis)
    columns = []
    for m in basis:
        parts = []
        for rho in live:
            c = m @ rho - rho @ m
            parts += [c.real.ravel(), c.imag.ravel()]
        columns.append(np.concatenate(parts))
    _, s, vt = np.linalg.svd(np.array(columns).T)
    null_rows = vt[s <= distinguish.NULLSPACE_RTOL * s[0]]
    return np.tensordot(null_rows, np.array(basis), axes=1)


def loop_eigenvalue_groups(w):
    """Reference grouping of ascending eigenvalues: flat spectra stay whole, else split at gaps."""
    spread = float(w[-1] - w[0])
    if spread <= 1e-12 * max(1.0, float(np.abs(w).max())):
        return [np.arange(w.size)]
    groups, start = [], 0
    for k in range(1, w.size):
        if w[k] - w[k - 1] > 1e-7 * spread:
            groups.append(np.arange(start, k))
            start = k
    groups.append(np.arange(start, w.size))
    return groups


def full_space_decomposition(a, b, seed):
    """Reference decomposition: eigenspaces of one seeded draw from the full-space commutant."""
    mats = full_space_commutant(a, b)
    x = np.tensordot(np.random.default_rng(seed).standard_normal(len(mats)), mats, axes=1)
    w, v = np.linalg.eigh(x)
    groups = loop_eigenvalue_groups(w)
    subspaces = [v[:, g] for g in groups]
    traces_a = np.array([np.trace(s.conj().T @ a @ s).real for s in subspaces])
    traces_b = np.array([np.trace(s.conj().T @ b @ s).real for s in subspaces])
    return len(mats), subspaces, traces_a, traces_b


def assert_matches_full_space(rho1, rho2, seed, unique=False):
    a, b = rho1.entries, rho2.entries
    ref_dim, ref_subspaces, ref_a, ref_b = full_space_decomposition(a, b, seed)
    report = common_invariant_decomposition(rho1, rho2, seed=seed)
    assert report.commutant_dim == ref_dim
    assert len(report.subspaces) == len(ref_subspaces)
    assert np.sort(report.traces_a) == pytest.approx(np.sort(ref_a), abs=1e-9)
    assert np.sort(report.traces_b) == pytest.approx(np.sort(ref_b), abs=1e-9)
    assert report.distinguishable == bool(np.abs(ref_a - ref_b).max() > 1e-9)
    assert report.invariance_residual <= distinguish.INVARIANCE_TOL
    if unique:
        # the finest decomposition is unique: same subspaces, in any order
        projectors = [s @ s.conj().T for s in report.subspaces]
        for s in ref_subspaces:
            p = s @ s.conj().T
            assert min(np.abs(p - q).max() for q in projectors) <= 1e-8
    return report


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(u, m):
    return DensityMatrix(u @ m @ u.conj().T)


def block_diag(*blocks):
    d = sum(len(b) for b in blocks)
    m = np.zeros((d, d), dtype=complex)
    start = 0
    for blk in blocks:
        m[start:start + len(blk), start:start + len(blk)] = blk
        start += len(blk)
    return m


def planted_pair(d, differ):
    """Two states sharing exactly the invariant blocks of sizes [2, d-2] or [2, 3, d-5]."""
    rng = np.random.default_rng([d, differ])
    sizes = [2, d - 2] if d < 6 else [2, 3, d - 5]
    weights = rng.dirichlet(np.ones(len(sizes)))
    blocks_a = [w * random_density(n, n, rng).entries for w, n in zip(weights, sizes)]
    weights_b = np.roll(weights, 1) if differ else weights
    blocks_b = [w * random_density(n, n, rng).entries for w, n in zip(weights_b, sizes)]
    u = random_unitary(rng, d)
    return rotated(u, block_diag(*blocks_a)), rotated(u, block_diag(*blocks_b)), sizes


@pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("differ", [False, True])
def test_planted_blocks_match_full_space(d, differ):
    rho1, rho2, sizes = planted_pair(d, differ)
    report = assert_matches_full_space(rho1, rho2, seed=d, unique=True)
    assert len(report.subspaces) == len(sizes)
    assert report.commutant_dim == len(sizes)
    assert report.distinguishable == differ


def loop_certification(report, rho1, rho2):
    """Reference: invariance residual and block weights, one subspace at a time."""
    eye = np.eye(rho1.dim)
    residual = 0.0
    for s in report.subspaces:
        proj = s @ s.conj().T
        for rho in (rho1.entries, rho2.entries):
            residual = max(residual, float(np.abs((eye - proj) @ rho @ proj).max()))
    traces_a = np.array([np.trace(s.conj().T @ rho1.entries @ s).real for s in report.subspaces])
    traces_b = np.array([np.trace(s.conj().T @ rho2.entries @ s).real for s in report.subspaces])
    return residual, traces_a, traces_b


def assert_certification_matches_loop(report, rho1, rho2):
    residual, traces_a, traces_b = loop_certification(report, rho1, rho2)
    assert abs(report.invariance_residual - residual) <= 1e-15
    assert np.abs(report.traces_a - traces_a).max() <= 1e-15
    assert np.abs(report.traces_b - traces_b).max() <= 1e-15


@pytest.mark.parametrize("d", [8, 12, 16])
@pytest.mark.parametrize("differ", [False, True])
def test_batched_certification_matches_the_loop_formula(d, differ):
    rho1, rho2, sizes = planted_pair(d, differ)
    report = common_invariant_decomposition(rho1, rho2, seed=d)
    assert sorted(s.shape[1] for s in report.subspaces) == sorted(sizes)
    assert_certification_matches_loop(report, rho1, rho2)


def three_planted_blocks():
    """A pair with three planted 2-dim blocks, and a commutant element that nearly merges two.

    The element's eigenvalues on two of the blocks are 1e-9 apart, inside
    1e-7 * spread = 2e-7 yet far above DRAW_GAP_MARGIN times eigh's noise,
    ~4e-11.  Grouping such a draw at a fraction of its spread would merge the
    two blocks, and the merged subspace would still be invariant.
    """
    rng = np.random.default_rng(31)
    sizes = (2, 2, 2)
    u = random_unitary(rng, 6)
    rho1 = rotated(u, block_diag(*[w * random_density(n, n, rng).entries for w, n in zip((0.2, 0.3, 0.5), sizes)]))
    rho2 = rotated(u, block_diag(*[w * random_density(n, n, rng).entries for w, n in zip((0.5, 0.2, 0.3), sizes)]))
    target = u @ np.diag(np.repeat([1.0, 1.0 + 1e-9, 3.0], sizes)) @ u.conj().T
    return rho1, rho2, target


def draw_target_first(monkeypatch, target, draws):
    """Make the first ``draws`` draws of the commutant return ``target``, later ones random.

    Returns a dict whose ``"draws"`` counts the draws made.
    """
    recorded = {"draws": 0}
    commutant_basis, default_rng = distinguish._commutant_basis, np.random.default_rng

    def recording_basis(*args):
        recorded["basis"] = commutant_basis(*args)
        return recorded["basis"]

    class TargetFirst:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, size):
            recorded["draws"] += 1
            if recorded["draws"] > draws:
                return self.rng.standard_normal(size)
            # coordinates of the target, taken into the solved frame, in the orthonormal Hermitian basis
            frame, basis = recorded["basis"]
            return np.einsum("kij,ji->k", basis, frame.conj().T @ target @ frame).real

    monkeypatch.setattr(distinguish, "_commutant_basis", recording_basis)
    monkeypatch.setattr(distinguish.np.random, "default_rng", TargetFirst)
    return recorded


def test_draw_with_two_blocks_closer_than_a_spread_fraction_is_split(monkeypatch):
    # only the first draw is the target; its three blocks are the planted ones
    rho1, rho2, target = three_planted_blocks()
    draw_target_first(monkeypatch, target, draws=1)
    report = common_invariant_decomposition(rho1, rho2, seed=31)
    assert report.commutant_dim == 3
    assert sorted(s.shape[1] for s in report.subspaces) == [2, 2, 2]
    assert report.invariance_residual <= distinguish.INVARIANCE_TOL
    assert_certification_matches_loop(report, rho1, rho2)
    _, u = np.linalg.eigh(target)
    planted = [u[:, k:k + 2] @ u[:, k:k + 2].conj().T for k in (0, 2, 4)]
    for s, p in zip(report.subspaces, planted):
        assert np.abs(s @ s.conj().T - p).max() <= 1e-6


def test_first_draw_nearly_merging_two_blocks_is_certified(monkeypatch):
    # every draw would be the target: one is made, and certified with three blocks
    rho1, rho2, target = three_planted_blocks()
    recorded = draw_target_first(monkeypatch, target, draws=10)
    report = common_invariant_decomposition(rho1, rho2, seed=31)
    assert recorded["draws"] == 1
    assert [s.shape[1] for s in report.subspaces] == [2, 2, 2]
    assert report.invariance_residual <= distinguish.INVARIANCE_TOL


def test_a_draw_off_the_commutant_raises_with_its_residual(monkeypatch):
    # a basis element that does not commute with rho1 mixes its eigenvectors,
    # so the subspaces of the draw are not invariant
    rho1, rho2 = DensityMatrix(np.diag([0.7, 0.2, 0.1])), DensityMatrix(np.diag([0.5, 0.3, 0.2]))
    commutant_basis = distinguish._commutant_basis
    stray = np.zeros((3, 3), dtype=complex)
    stray[0, 1] = stray[1, 0] = 1.0 / np.sqrt(2.0)

    def leaky_basis(*args):
        frame, basis = commutant_basis(*args)
        return frame, np.concatenate([basis, frame.conj().T @ stray[None] @ frame])

    monkeypatch.setattr(distinguish, "_commutant_basis", leaky_basis)
    with pytest.raises(NumericalDegeneracyError) as info:
        common_invariant_decomposition(rho1, rho2, seed=0)
    detail = info.value.detail
    assert list(detail) == ["best_residual", "commutant_dim"]
    assert detail["commutant_dim"] == 4
    assert detail["best_residual"] > distinguish.INVARIANCE_TOL


def test_maximally_mixed_partner_uses_the_other_eigenbasis(monkeypatch):
    d = 6
    rng = np.random.default_rng(21)
    rho1 = rotated(random_unitary(rng, d), np.eye(d) / d)
    rho2 = random_density(d, d, rng)
    shapes = []
    svd = np.linalg.svd

    def recording_svd(m, *args, **kwargs):
        shapes.append(m.shape)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(distinguish.np.linalg, "svd", recording_svd)
    distinguish._commutant_basis(rho1, rho2)
    # d unknowns from the generic spectrum of rho2, not d^2 from the flat rho1
    assert [shape[1] for shape in shapes] == [d]
    monkeypatch.undo()
    report = assert_matches_full_space(rho1, rho2, seed=21, unique=True)
    assert report.commutant_dim == d


@pytest.mark.parametrize("across", [False, True])
def test_degenerate_block_mixed_by_partner(across):
    # rho1 is exactly degenerate on its first three eigenvectors.  rho2 mixes that
    # block generically inside itself (three lines) and the two remaining
    # eigenvectors of rho1 with each other (one plane), or mixes everything
    rng = np.random.default_rng(22)
    p = np.diag([0.25, 0.25, 0.25, 0.15, 0.1])
    mixer = random_density(5, 5, rng).entries if across else block_diag(
        0.6 * random_density(3, 3, rng).entries, 0.4 * random_density(2, 2, rng).entries
    )
    u = random_unitary(rng, 5)
    report = assert_matches_full_space(rotated(u, p), rotated(u, mixer), seed=22, unique=True)
    assert report.commutant_dim == (1 if across else 4)


def test_commuting_pair_with_shared_degeneracies():
    rng = np.random.default_rng(23)
    u = random_unitary(rng, 6)
    rho1 = rotated(u, np.diag([0.2, 0.2, 0.15, 0.15, 0.15, 0.15]))
    rho2 = rotated(u, np.diag([0.1, 0.1, 0.3, 0.3, 0.1, 0.1]))
    report = assert_matches_full_space(rho1, rho2, seed=23)
    # joint blocks of sizes 2, 2, 2 carry full 2x2 matrix algebras
    assert report.commutant_dim == 12
    assert len(report.subspaces) == 6


@pytest.mark.parametrize("degenerate", [False, True])
def test_identical_states_match_full_space(degenerate):
    rng = np.random.default_rng(24)
    rho = (
        rotated(random_unitary(rng, 5), np.diag([0.3, 0.3, 0.2, 0.1, 0.1]))
        if degenerate
        else random_density(5, 5, rng)
    )
    report = assert_matches_full_space(rho, rho, seed=24)
    assert report.commutant_dim == (9 if degenerate else 5)
    assert not report.distinguishable


def eigenbasis_gap(w):
    """Gap below which a state's eigenvalues are solved as one group (see _eigenbasis_blocks)."""
    noise = len(w) * np.finfo(float).eps * np.abs(w).max()
    return distinguish.EIGENBASIS_MARGIN * noise / distinguish.NULLSPACE_RTOL


SPLITS = ["0.5 group gap", "2 group gap", "1e-6", "0.5 eigenbasis gap", "2 eigenbasis gap"]
PARTNERS = ["flat", "mixing", "commuting"]


def split_pair(split, partner):
    """rho1 with two eigenvalues split near a grouping threshold, and a partner of the given kind.

    The split is just below or above 1e-7 * scale, 1e-6 * scale,
    or just below or above the gap at which rho1's eigenbasis solve merges them.
    """
    rng = np.random.default_rng(25)
    u = random_unitary(rng, 4)
    base = np.array([0.4, 0.4, 0.15, 0.05])
    other = {
        "flat": np.eye(4) / 4,
        "mixing": block_diag(0.5 * random_density(2, 2, rng).entries, np.diag([0.3, 0.2])),
        "commuting": np.diag([0.1, 0.2, 0.3, 0.4]),
    }[partner]
    w_other = np.linalg.eigvalsh(other)
    scale = np.hypot(base[0] - base[3], w_other[-1] - w_other[0])
    factor, _, unit = split.partition(" ")
    delta = float(factor) * {
        "group gap": 1e-7 * scale,
        "": scale,
        "eigenbasis gap": eigenbasis_gap(base),
    }[unit]
    p = np.diag(base + np.array([-delta / 2, delta / 2, 0.0, 0.0]))
    return rotated(u, p), rotated(u, other)


@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("partner", PARTNERS)
def test_splitting_near_the_grouping_thresholds(split, partner):
    # the commutant and the decomposition must not notice the thresholds
    report = assert_matches_full_space(*split_pair(split, partner), seed=25, unique=True)
    assert report.commutant_dim == (3 if partner == "mixing" else 4)


def test_flat_partner_is_left_out_of_the_solve():
    # rho1 is split by 6e-10, far below the gap at which its eigenbasis solve
    # splits groups, so both states give 4 unknowns.  I/2 rotated into rho1's
    # eigenbasis carries rounding noise of ~6e-17, far above the cutoff
    # NULLSPACE_RTOL * 6e-10; kept in the map, it cut the diagonal commutant to 1
    rng = np.random.default_rng(27)
    u = random_unitary(rng, 2)
    rho1 = rotated(u, np.diag([0.5 - 3e-10, 0.5 + 3e-10]))
    exact = assert_matches_full_space(rho1, DensityMatrix(np.eye(2) / 2), seed=27)
    # a partner that is I/2 only up to rounding must give the same lines
    rounded = rotated(random_unitary(rng, 2), np.eye(2) / 2)
    assert np.abs(rounded.entries - np.eye(2) / 2).max() > 0
    noisy = assert_matches_full_space(rho1, rounded, seed=27)
    lines = [np.outer(u[:, k], u[:, k].conj()) for k in range(2)]
    for report in (exact, noisy):
        assert report.commutant_dim == 2
        assert [s.shape for s in report.subspaces] == [(2, 1), (2, 1)]
        # a 6e-10 splitting fixes the eigenvectors only to about eps / 6e-10
        for s in report.subspaces:
            assert min(np.abs(s @ s.conj().T - p).max() for p in lines) <= 1e-5


@pytest.mark.parametrize("random_basis", [False, True])
def test_flat_pair_has_the_whole_hermitian_commutant(random_basis):
    d = 5
    u = random_unitary(np.random.default_rng(26), d) if random_basis else np.eye(d)
    flat = rotated(u, np.eye(d) / d)
    report = common_invariant_decomposition(flat, flat, seed=26)
    assert report.commutant_dim == d * d
    assert len(report.subspaces) == d
    assert all(s.shape == (d, 1) for s in report.subspaces)
    assert not report.distinguishable


def test_report_diagnostics_and_witness_projector():
    rho1 = DensityMatrix(np.diag([0.5, 0.5]))
    rho2 = DensityMatrix(np.diag([0.7, 0.3]))
    report = common_invariant_decomposition(rho1, rho2, seed=0)
    assert report.commutant_dim == 2
    eye = np.eye(2)
    residual = max(
        np.abs((eye - s @ s.conj().T) @ rho.entries @ s @ s.conj().T).max()
        for s in report.subspaces
        for rho in (rho1, rho2)
    )
    assert report.invariance_residual == residual
    flag, proj = nondisturbing_distinguishable(rho1, rho2, seed=0)
    assert flag
    assert np.array_equal(proj, report.witness_projector())
    same = common_invariant_decomposition(rho1, rho1, seed=0)
    assert same.witness_projector() is None


def full_commutator_map(rho1, rho2):
    """Reference: the stacked commutator map with all 2 d^2 real rows of each cross commutator."""
    live = [rho for rho in (rho1, rho2) if not distinguish._is_flat(rho.eigenvalues)]
    groupings = [distinguish._eigenbasis_blocks(rho.eigenvalues) for rho in live]
    side = int(np.argmin([(np.bincount(labels) ** 2).sum() for labels in groupings]))
    w, v = live[side].eigenvalues, live[side].eigenvectors
    units, k, l = distinguish._block_hermitian_basis(groupings[side])
    rows = [np.diag(np.abs(w[k] - w[l]))]
    for rho in live[:side] + live[side + 1:]:
        other = v.conj().T @ rho.entries @ v
        cross = (units @ other - other @ units).reshape(len(units), -1)
        rows += [cross.real.T, cross.imag.T]
    scale = np.hypot.reduce([rho.eigenvalues[-1] - rho.eigenvalues[0] for rho in live])
    return np.concatenate(rows), scale


def null_space(stacked, cutoff):
    """Singular values, null-space dimension and projector onto the null space."""
    _, s, vt = np.linalg.svd(stacked)
    null_rows = vt[s <= cutoff]
    return s, len(null_rows), null_rows.T @ null_rows


@pytest.mark.parametrize(
    "pair",
    [("planted", d, differ) for d in (4, 5, 6, 7, 8) for differ in (False, True)]
    + [("split", split, partner) for split in SPLITS for partner in PARTNERS],
    ids=str,
)
def test_upper_triangle_map_matches_the_full_map(monkeypatch, pair):
    # the solve keeps (n + d^2 + d) of the (n + 2 d^2) real rows; the singular
    # values and the null space must be those of the full map
    kind, *args = pair
    rho1, rho2 = planted_pair(*args)[:2] if kind == "planted" else split_pair(*args)
    stacked = []
    qr = np.linalg.qr

    def recording_qr(m, *args, **kwargs):
        stacked.append(m)
        return qr(m, *args, **kwargs)

    monkeypatch.setattr(distinguish.np.linalg, "qr", recording_qr)
    distinguish._commutant_basis(rho1, rho2)
    monkeypatch.undo()
    (half,) = stacked
    full, scale = full_commutator_map(rho1, rho2)
    n, d = full.shape[1], rho1.dim
    assert half.shape == ((n, n) if full.shape == (n, n) else (n + d * d + d, n))
    cutoff = distinguish.NULLSPACE_RTOL * scale
    s_half, dim_half, p_half = null_space(half, cutoff)
    s_full, dim_full, p_full = null_space(full, cutoff)
    assert np.abs(s_half - s_full).max() <= 1e-13 * scale
    assert dim_half == dim_full > 0
    assert np.abs(p_half - p_full).max() <= 1e-12
