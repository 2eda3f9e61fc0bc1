import numpy as np
import pytest

from qclock import channels
from qclock import (
    ClockSystem,
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    Hamiltonian,
    QuantumChannel,
    ValidationError,
    apply_channel,
    apply_to_matrix,
    channel_from_kraus,
    covariant_twirl,
    equal_superposition_clock,
    evolve,
    identity_channel,
    is_covariant,
    kraus_operators,
    ladder_hamiltonian,
    partial_trace,
    random_channel,
    random_density,
    random_hamiltonian,
    sweep,
    total_hamiltonian,
    validate_cptp,
)
from reference import depolarizing_channel, flat_apply_to_matrix, flat_kraus_marginal


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_identity_channel_fixes_states():
    rho = random_density(3, 2, seed=1)
    out = apply_channel(identity_channel(3), rho)
    assert np.abs(out.entries - rho.entries).max() <= 1e-12


def test_unitary_conjugation_channel_matches_evolve():
    h = random_hamiltonian(4, seed=3)
    clock = ClockSystem(random_density(4, 4, seed=4), h)
    s = 0.8
    channel = channel_from_kraus([h.propagator(s)], 4, 4)
    via_channel = apply_channel(channel, clock.state)
    via_evolve = evolve(clock, s)
    assert np.abs(via_channel.entries - via_evolve.entries).max() <= 1e-10


def test_apply_checks_dimensions():
    with pytest.raises(DimensionMismatchError):
        apply_channel(identity_channel(3), random_density(2, 2, seed=0))


def test_apply_preserves_trace_for_cptp_channels():
    for seed in range(5):
        ch = random_channel(3, 4, 2, seed=seed)
        report = validate_cptp(ch)
        assert max(report.cp_violation, report.tp_violation) <= 1e-10
        out = apply_channel(ch, random_density(3, 3, seed=seed + 50))
        assert abs(out.entries.trace().real - 1.0) <= 1e-10


@pytest.mark.parametrize("dims", [(4, 2, 2), (8, 3, 3), (16, 4, 4), (32, 6, 6), "raw"], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_stacked_kraus_products_match_the_flat_products(dims, seed):
    # sum_m K_m X K_m† and sum_m K_m† K_m are summed over the stack; the flat
    # (r*dout, din) products sum in another order, so they agree to rounding
    channel = random_channel(4, 3, 3, seed) if dims == "raw" else ladder_sweep_broadcast(seed, *dims)
    x = random_density(channel.dim_in, 1 + seed, seed).entries
    flat = flat_apply_to_matrix(channel.kraus, x)
    assert np.abs(apply_to_matrix(channel, x) - flat).max() <= 1e-15 * np.abs(flat).max()
    # the marginal is close to the identity, so its scale is 1
    flat_tp = np.abs(flat_kraus_marginal(channel.kraus) - np.eye(channel.dim_in)).max()
    assert abs(validate_cptp(channel).tp_violation - flat_tp) <= 1e-15


# ---------------------------------------------------------------------------
# CPTP validation
# ---------------------------------------------------------------------------


def test_validate_identity_channel():
    report = validate_cptp(identity_channel(2))
    assert report.cp_violation == 0.0
    assert report.tp_violation <= 1e-15
    assert report.ok


def test_validate_scaled_choi_breaks_trace_preservation():
    base = identity_channel(2)
    scaled = QuantumChannel(2, 2, 1.5 * base.choi)
    report = validate_cptp(scaled)
    assert report.tp_violation == pytest.approx(0.5, abs=1e-12)
    assert not report.ok


def test_validate_eigen_surgery_breaks_positivity():
    base = identity_channel(2)
    eigs, vecs = np.linalg.eigh(base.choi)
    assert eigs[0] <= 1e-12  # surgery target: a kernel eigenvector
    v = vecs[:, 0]
    doctored = QuantumChannel(2, 2, base.choi - 0.01 * np.outer(v, v.conj()))
    report = validate_cptp(doctored)
    assert report.cp_violation == pytest.approx(0.01, abs=1e-10)
    assert not report.ok


# ---------------------------------------------------------------------------
# CPTP validation on the decoupled Choi blocks, against a dense eigvalsh
# ---------------------------------------------------------------------------


def ladder_sweep_broadcast(seed, dim_in=16, dim_out1=4, dim_out2=4):
    """Broadcast channel of one ladder copy-bound sweep row, (16,4,4) by default: a twirled rank-2 channel."""
    h_in = equal_superposition_clock(dim_in, 1.0).hamiltonian
    h_out = total_hamiltonian(ladder_hamiltonian(dim_out1, 1.0), ladder_hamiltonian(dim_out2, 1.0))
    return covariant_twirl(random_channel(dim_in, dim_out1 * dim_out2, 2, np.random.default_rng(seed)), h_in, h_out)


def choi_only(channel):
    """The same channel given only by its Choi matrix, so every check takes the Choi-matrix path."""
    return QuantumChannel(channel.dim_in, channel.dim_out, channel.choi)


def bfs_components(pattern):
    """Reference: breadth-first search from each unvisited vertex, one neighbour at a time."""
    n = len(pattern)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue, members = [start], []
        while queue:
            v = queue.pop(0)
            members.append(v)
            for u in range(n):
                if pattern[v, u] and not seen[u]:
                    seen[u] = True
                    queue.append(u)
        components.append(frozenset(members))
    return set(components)


def label_partition(labels):
    return {frozenset(np.flatnonzero(labels == lab).tolist()) for lab in np.unique(labels)}


def assert_matches_dense_spectrum(channel, tol=1e-12):
    """validate_cptp and the block spectra against np.linalg.eigvalsh of the whole Choi matrix."""
    dense = np.linalg.eigvalsh(channel.choi)
    stacks = channels._choi_blocks(channel.choi)
    blockwise = np.sort(np.concatenate([np.linalg.eigvalsh(b).ravel() for _, b in stacks]))
    assert np.abs(blockwise - dense).max() <= tol
    for idx, blocks in stacks:
        for rows, block in zip(idx, blocks):
            assert np.array_equal(block, channel.choi[np.ix_(rows, rows)])
    assert sorted(np.concatenate([idx.ravel() for idx, _ in stacks]).tolist()) == list(
        range(channel.choi.shape[0])
    )
    report = validate_cptp(channel)
    assert report.cp_violation == pytest.approx(max(0.0, -dense[0]), abs=tol)
    assert report.largest_block == max(idx.shape[1] for idx, _ in stacks)
    return report


def test_block_spectrum_of_a_ladder_twirl():
    channel = choi_only(ladder_sweep_broadcast(seed=40))
    assert len(np.unique(channels._pattern_components(channel.choi != 0))) == 22
    report = assert_matches_dense_spectrum(channel)
    assert report.largest_block == 16
    assert report.ok


def test_block_spectrum_of_a_dense_channel():
    channel = choi_only(random_channel(3, 4, 2, seed=41))
    assert np.count_nonzero(channel.choi) == 144
    report = assert_matches_dense_spectrum(channel)
    assert report.largest_block == 12
    assert report.ok


def test_negative_eigenvalue_hidden_in_a_small_block():
    rng = np.random.default_rng(42)
    small = np.diag([-0.01, 0.3])
    u = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]]) * np.exp(0.4j)
    blocks = [
        random_density(3, 3, rng).entries, u @ small @ u.conj().T, random_density(1, 1, rng).entries
    ]
    choi = np.zeros((6, 6), dtype=complex)
    perm = rng.permutation(6)  # interleave the blocks
    start = 0
    for blk in blocks:
        rows = perm[start:start + len(blk)]
        choi[np.ix_(rows, rows)] = blk
        start += len(blk)
    report = assert_matches_dense_spectrum(QuantumChannel(2, 3, choi))
    assert report.cp_violation == pytest.approx(0.01, abs=1e-12)
    assert report.largest_block == 3
    assert not report.ok


def test_chain_pattern_is_joined_transitively():
    # a path through a random ordering: each vertex sees only its two chain
    # neighbours, so only transitive coupling makes it one component
    n = 12
    order = np.random.default_rng(43).permutation(n)
    choi = np.zeros((n, n), dtype=complex)
    choi[order, order] = 2.0
    choi[order[:-1], order[1:]] = -1.0 - 0.5j
    choi[order[1:], order[:-1]] = -1.0 + 0.5j
    report = assert_matches_dense_spectrum(QuantumChannel(3, 4, choi))
    assert report.largest_block == n


def test_tiny_coupling_merges_blocks():
    choi = np.kron(np.eye(2), np.full((3, 3), 1.0 / 3)).astype(complex)
    assert validate_cptp(QuantumChannel(2, 3, choi)).largest_block == 3
    choi[1, 4] = choi[4, 1] = 1e-300
    report = assert_matches_dense_spectrum(QuantumChannel(2, 3, choi))
    assert report.largest_block == 6


@pytest.mark.parametrize("seed", range(8))
def test_pattern_components_match_breadth_first_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    pattern = rng.random((n, n)) < rng.uniform(0.5, 2.5) / n
    pattern |= pattern.T
    pattern[np.diag_indices(n)] = rng.random(n) < 0.5  # some rows are entirely zero
    labels = channels._pattern_components(pattern)
    assert label_partition(labels) == bfs_components(pattern)
    for component in label_partition(labels):
        assert set(labels[sorted(component)]) == {min(component)}


def test_ladder_sweep_row_diagonalises_only_small_blocks(monkeypatch):
    channel = choi_only(ladder_sweep_broadcast(seed=44))
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(channels.np.linalg, "eigvalsh", recording_eigvalsh)
    assert validate_cptp(channel).ok
    assert sizes and max(sizes) <= 16


def recording_hermitize(monkeypatch):
    """Record the shape of every Choi matrix the channels module forms (each one is symmetrized)."""
    formed = []
    hermitize = channels._hermitize

    def recording(mat, what):
        formed.append(np.shape(mat))
        return hermitize(mat, what)

    monkeypatch.setattr(channels, "_hermitize", recording)
    return formed


def test_ladder_sweep_row_forms_no_choi_matrix(monkeypatch):
    formed = recording_hermitize(monkeypatch)
    config = {"experiment": "copy_bound", "samples": 1, "dim_in": 16, "dim_out1": 4, "dim_out2": 4}
    (row,) = sweep(config, seed=7).rows
    assert row["covariance_residual"] <= channels.COVARIANCE_TOL
    assert formed == []


def test_twirling_a_kraus_channel_never_forms_the_raw_choi_matrix(monkeypatch):
    formed = recording_hermitize(monkeypatch)
    raw = random_channel(16, 16, 2, seed=47)
    twirled = covariant_twirl(
        raw,
        ladder_hamiltonian(16, 1.0),
        total_hamiltonian(ladder_hamiltonian(4, 1.0), ladder_hamiltonian(4, 1.0)),
    )
    assert formed == []
    assert twirled.kraus is not None
    assert twirled.choi is twirled.choi
    assert formed == [(256, 256)]


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


def test_unitary_evolution_channel_is_covariant():
    h = random_hamiltonian(3, seed=5)
    channel = channel_from_kraus([h.propagator(0.7)], 3, 3)
    report = is_covariant(channel, h, h)
    assert report.residual <= 1e-10
    assert report.is_covariant


def test_depolarizing_channel_is_covariant_for_any_hamiltonians():
    report = is_covariant(
        depolarizing_channel(3), random_hamiltonian(3, seed=6), random_hamiltonian(3, seed=7)
    )
    assert report.residual <= 1e-12
    assert report.is_covariant


def test_random_channel_generically_not_covariant():
    report = is_covariant(
        random_channel(3, 3, 2, seed=5),
        random_hamiltonian(3, seed=8),
        random_hamiltonian(3, seed=9),
    )
    assert report.residual > 1e-3
    assert not report.is_covariant


# ---------------------------------------------------------------------------
# covariant twirl
# ---------------------------------------------------------------------------


def test_twirl_fixes_already_covariant_channels():
    h = random_hamiltonian(3, seed=10)
    channel = channel_from_kraus([h.propagator(1.3)], 3, 3)
    twirled = covariant_twirl(channel, h, h)
    assert np.abs(twirled.choi - channel.choi).max() <= 1e-10


def test_twirl_random_rectangular_channel():
    h_in = random_hamiltonian(2, seed=11)
    h_out = random_hamiltonian(4, seed=12)
    twirled = covariant_twirl(random_channel(2, 4, 2, seed=11), h_in, h_out)
    assert validate_cptp(twirled).ok
    report = is_covariant(twirled, h_in, h_out)
    assert report.residual <= 1e-9


def test_twirl_is_idempotent():
    h_in = random_hamiltonian(3, seed=13)
    h_out = random_hamiltonian(3, seed=14)
    once = covariant_twirl(random_channel(3, 3, 2, seed=13), h_in, h_out)
    twice = covariant_twirl(once, h_in, h_out)
    assert np.abs(twice.choi - once.choi).max() <= 1e-12


def test_twirled_channel_commutes_with_time_evolution():
    h_in = random_hamiltonian(3, seed=15)
    h_out = random_hamiltonian(3, seed=16)
    channel = covariant_twirl(random_channel(3, 3, 2, seed=15), h_in, h_out)
    clock = ClockSystem(random_density(3, 2, seed=15), h_in)
    for t in np.linspace(-3, 3, 20):
        evolved_first = apply_channel(channel, evolve(clock, t))
        out_clock = ClockSystem(apply_channel(channel, clock.state), h_out)
        evolved_after = evolve(out_clock, t)
        assert np.abs(evolved_first.entries - evolved_after.entries).max() <= 1e-8


# ---------------------------------------------------------------------------
# covariance and twirl against dense per-definition references
# ---------------------------------------------------------------------------


def _reference_residual(channel, h_in, h_out):
    """max over matrix units E_ij of |G(i[H_in, E_ij]) - i[H_out, G(E_ij)]|."""
    din, dout = channel.dim_in, channel.dim_out
    c4 = channel.choi.reshape(din, dout, din, dout)
    hin, hout = h_in.entries, h_out.entries
    residual = 0.0
    for i in range(din):
        for j in range(din):
            unit = np.zeros((din, din), dtype=complex)
            unit[i, j] = 1.0
            lhs = np.einsum("iajb,ij->ab", c4, 1j * (hin @ unit - unit @ hin))
            img = np.einsum("iajb,ij->ab", c4, unit)
            rhs = 1j * (hout @ img - img @ hout)
            residual = max(residual, float(np.abs(lhs - rhs).max()))
    return residual


def _reference_twirl(channel, h_in, h_out, freq_tol=1e-9):
    """Dense Kronecker formula; pairwise masking equals class masking on these spectra."""
    w = np.kron(h_in.eigenvectors.conj(), h_out.eigenvectors)
    c_eig = w.conj().T @ channel.choi @ w
    nu = (h_out.eigenvalues[None, :] - h_in.eigenvalues[:, None]).reshape(-1)
    mask = np.abs(nu[:, None] - nu[None, :]) <= freq_tol
    return w @ (c_eig * mask) @ w.conj().T


@pytest.mark.parametrize("din,dout", [(3, 5), (4, 6), (5, 3)])
def test_covariance_residual_matches_per_unit_definition(din, dout):
    for seed in range(3):
        channel = random_channel(din, dout, 2, seed=seed)
        h_in = random_hamiltonian(din, seed=100 + seed)
        h_out = Hamiltonian(1.7 * random_hamiltonian(dout, seed=200 + seed).entries)
        expected = _reference_residual(channel, h_in, h_out)
        report = is_covariant(channel, h_in, h_out)
        assert expected > 1e-3
        assert abs(report.residual - expected) <= 1e-12
        assert not report.is_covariant


def test_covariance_residual_is_the_commutator_deviation_bit_for_bit():
    channel = choi_only(ladder_sweep_broadcast(seed=49))
    h_in = ladder_hamiltonian(16, 1.0)
    h_out = total_hamiltonian(ladder_hamiltonian(4, 1.0), ladder_hamiltonian(4, 1.0))
    c = channel.choi
    kc = channels._kron_rows(None, h_out.entries, c) - channels._kron_rows(h_in.entries.T, None, c)
    assert is_covariant(channel, h_in, h_out).residual == np.abs(kc - kc.conj().T).max()


def test_covariance_residual_matches_per_unit_definition_on_twirled_channels():
    h_in = ladder_hamiltonian(3, 1.0)
    h_out = ladder_hamiltonian(5, 1.0)
    channel = covariant_twirl(random_channel(3, 5, 2, seed=7), h_in, h_out)
    report = is_covariant(channel, h_in, h_out)
    assert abs(report.residual - _reference_residual(channel, h_in, h_out)) <= 1e-12
    assert report.is_covariant


@pytest.mark.parametrize(
    "h_in,h_out",
    [
        (ladder_hamiltonian(3, 1.0), ladder_hamiltonian(5, 1.0)),
        (ladder_hamiltonian(4, 0.5), ladder_hamiltonian(6, 0.5)),
        (random_hamiltonian(4, seed=31), random_hamiltonian(6, seed=32)),
    ],
    ids=["ladder-3-5", "ladder-4-6", "random-4-6"],
)
def test_twirl_matches_dense_kronecker_formula(h_in, h_out):
    channel = random_channel(h_in.dim, h_out.dim, 2, seed=h_in.dim)
    twirled = covariant_twirl(channel, h_in, h_out)
    expected = _reference_twirl(channel, h_in, h_out)
    assert np.abs(twirled.choi - expected).max() <= 1e-12
    report = validate_cptp(twirled)
    assert max(report.cp_violation, report.tp_violation) <= 1e-10
    again = covariant_twirl(twirled, h_in, h_out)
    assert np.abs(again.choi - twirled.choi).max() <= 1e-12


def test_covariance_and_twirl_check_hamiltonian_dimensions():
    channel = random_channel(3, 5, 2, seed=1)
    h3, h5 = ladder_hamiltonian(3, 1.0), ladder_hamiltonian(5, 1.0)
    for h_in, h_out in [(h5, h3), (h3, h3), (h5, h5)]:
        with pytest.raises(DimensionMismatchError):
            is_covariant(channel, h_in, h_out)
        with pytest.raises(DimensionMismatchError):
            covariant_twirl(channel, h_in, h_out)


def test_channel_rejects_non_hermitian_choi():
    choi = identity_channel(2).choi.copy()
    choi[0, 1] += 1e-6
    with pytest.raises(ValidationError) as info:
        QuantumChannel(2, 2, choi)
    assert info.value.code == "invalid-matrix"
    assert info.value.detail["deviation"] == pytest.approx(1e-6)


# ---------------------------------------------------------------------------
# the Kraus-form gate against the Choi-matrix gate
# ---------------------------------------------------------------------------


def _ladder_3_2_2():
    """(raw, twirled, h_in, h_out) at (3, 2, 2) on ladders: 10 twirled operators, 2 raw."""
    h_in = ladder_hamiltonian(3, 1.0)
    h_out = total_hamiltonian(ladder_hamiltonian(2, 1.0), ladder_hamiltonian(2, 1.0))
    raw = random_channel(3, 4, 2, seed=12)
    return raw, covariant_twirl(raw, h_in, h_out), h_in, h_out


def _mixture(target):
    """Kraus set sqrt(1-eps)*twirled + sqrt(eps)*raw whose Choi covariance residual is ~target."""
    raw, twirled, h_in, h_out = _ladder_3_2_2()
    eps = target / is_covariant(choi_only(raw), h_in, h_out).residual
    ops = np.concatenate([np.sqrt(1 - eps) * twirled.kraus, np.sqrt(eps) * raw.kraus])
    return channel_from_kraus(ops, 3, 4), h_in, h_out


def _raw():
    raw, _, h_in, h_out = _ladder_3_2_2()
    return raw, h_in, h_out


def _scaled(factor):
    _, twirled, h_in, h_out = _ladder_3_2_2()
    return channel_from_kraus(factor * twirled.kraus, 3, 4), h_in, h_out


def _unitary_mix_of_homogeneous_operators():
    """Covariant, but each operator mixes the frequency classes of the twirled set."""
    _, twirled, h_in, h_out = _ladder_3_2_2()
    rng = np.random.default_rng(50)
    r = len(twirled.kraus)
    q, _ = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
    return channel_from_kraus(np.einsum("mn,nab->mab", q, twirled.kraus), 3, 4), h_in, h_out


def _generic_twirl():
    """Twirl on generic spectra: 9 classes of one operator each, so the factor is kept."""
    h_in, h_out = random_hamiltonian(3, seed=51), random_hamiltonian(3, seed=52)
    return covariant_twirl(random_channel(3, 3, 1, seed=53), h_in, h_out), h_in, h_out


CERTIFICATE_CASES = {
    "ladder-16-16": lambda: (
        ladder_sweep_broadcast(seed=54),
        ladder_hamiltonian(16, 1.0),
        total_hamiltonian(ladder_hamiltonian(4, 1.0), ladder_hamiltonian(4, 1.0)),
    ),
    "ladder-3-4": lambda: _ladder_3_2_2()[1:],
    "generic-twirl-3-3": _generic_twirl,
    "raw-3-4": _raw,
    # more operators than the 4 Choi entries, kept all the same
    "five-ops-2-2": lambda: (
        random_channel(2, 2, 5, seed=56),
        ladder_hamiltonian(2, 1.0),
        ladder_hamiltonian(2, 1.0),
    ),
    **{
        f"mixture-{t:g}": (lambda t=t: _mixture(t))
        for t in (1e-12, 1e-10, 3e-10, 9e-10, 1.1e-9, 3e-9, 1e-8)
    },
    **{
        f"scaled-{f!r}": (lambda f=f: _scaled(f))
        for f in (1 + 1e-6, 1 - 1e-6, 1 + 1e-12, 1 - 1e-12)
    },
    "unitary-mix": _unitary_mix_of_homogeneous_operators,
}


@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_kraus_gate_gives_the_choi_gate_verdicts(case):
    channel, h_in, h_out = CERTIFICATE_CASES[case]()
    assert channel.kraus is not None
    reference = choi_only(channel)
    cptp, choi_cptp = validate_cptp(channel), validate_cptp(reference)
    assert cptp.ok == choi_cptp.ok
    assert (cptp.cp_violation, cptp.largest_block) == (0.0, 0)
    assert abs(cptp.tp_violation - choi_cptp.tp_violation) <= 1e-15
    cov, choi_cov = is_covariant(channel, h_in, h_out), is_covariant(reference, h_in, h_out)
    assert cov.is_covariant == choi_cov.is_covariant
    assert cov.residual >= choi_cov.residual
    rng = np.random.default_rng(55)
    d = channel.dim_in
    general = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for x in (random_density(d, 2, rng).entries, general):
        assert np.abs(apply_to_matrix(channel, x) - apply_to_matrix(reference, x)).max() <= 1e-13


def test_the_certificate_accepts_twirls_and_falls_back_on_mixed_frequencies():
    _, twirled, h_in, h_out = _ladder_3_2_2()
    for channel in (twirled, _mixture(1e-12)[0]):
        bound = channels._kraus_covariance_bound(channel.kraus, h_in.entries, h_out.entries)
        assert bound <= channels.COVARIANCE_TOL
        assert is_covariant(channel, h_in, h_out).is_covariant
        assert channel._choi is None  # accepted without forming the Choi matrix
    mixed, h_in, h_out = _unitary_mix_of_homogeneous_operators()
    assert channels._kraus_covariance_bound(mixed.kraus, h_in.entries, h_out.entries) > 1e-3
    report = is_covariant(mixed, h_in, h_out)
    assert report.is_covariant
    assert report.residual == is_covariant(choi_only(mixed), h_in, h_out).residual


def test_the_mixture_band_straddles_the_covariance_tolerance():
    verdicts = {t: is_covariant(*_mixture(t)).is_covariant for t in (1e-12, 9e-10, 1.1e-9, 1e-8)}
    assert verdicts == {1e-12: True, 9e-10: True, 1.1e-9: False, 1e-8: False}


def test_scaled_kraus_sets_fail_trace_preservation_by_the_scaling():
    for factor, ok in ((1 + 1e-6, False), (1 - 1e-6, False), (1 + 1e-12, True), (1 - 1e-12, True)):
        report = validate_cptp(_scaled(factor)[0])
        assert report.tp_violation == pytest.approx(abs(factor**2 - 1), rel=1e-3)
        assert report.ok == ok


def _twirl_case(din, dout, h_in, h_out, seed):
    return covariant_twirl(random_channel(din, dout, 2, seed=seed), h_in, h_out), h_in, h_out


def _proportional_to_identity():
    """H = c 1 on both sides: every frequency is 0, so the twirl has one class."""
    return _twirl_case(3, 4, Hamiltonian(2.5 * np.eye(3)), Hamiltonian(-0.5 * np.eye(4)), 62)


CLASS_FORM_CASES = {
    "ladder-16-4-4": lambda: (
        ladder_sweep_broadcast(seed=60),
        ladder_hamiltonian(16, 1.0),
        total_hamiltonian(ladder_hamiltonian(4, 1.0), ladder_hamiltonian(4, 1.0)),
    ),
    "ladder-3-2-2": lambda: _ladder_3_2_2()[1:],
    # generic spectra share no frequency, so each class holds one entry
    "generic-3-4": lambda: _twirl_case(
        3, 4, random_hamiltonian(3, seed=63), random_hamiltonian(4, seed=64), 61
    ),
    "identity-3-4": _proportional_to_identity,
}


@pytest.mark.parametrize("case", CLASS_FORM_CASES)
def test_the_class_form_agrees_with_its_operators_and_its_choi_matrix(case):
    channel, h_in, h_out = CLASS_FORM_CASES[case]()
    classes = len(channel._classes.sizes)
    assert classes == {"identity-3-4": 1, "generic-3-4": 12}.get(case, classes)
    rng = np.random.default_rng(65)
    d = channel.dim_in
    general = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    xs = (random_density(d, 2, rng).entries, general)
    outs = [apply_to_matrix(channel, x) for x in xs]
    tp, cov = validate_cptp(channel), is_covariant(channel, h_in, h_out)
    # checked and applied on the class form alone
    assert channel._kraus is None and channel._choi is None
    assert (tp.cp_violation, tp.largest_block) == (0.0, 0)
    dense = channel_from_kraus(channel.kraus, channel.dim_in, channel.dim_out)
    reference = choi_only(channel)
    for twin in (dense, reference):
        for x, out in zip(xs, outs):
            assert np.abs(out - apply_to_matrix(twin, x)).max() <= 1e-13
        assert abs(tp.tp_violation - validate_cptp(twin).tp_violation) <= 1e-15
    choi_cov = is_covariant(reference, h_in, h_out)
    assert cov.residual >= choi_cov.residual
    dense_cov = is_covariant(dense, h_in, h_out)
    assert cov.is_covariant == choi_cov.is_covariant == dense_cov.is_covariant
    assert cov.is_covariant


def _wrong_decomposition(h: Hamiltonian, eigenvalues, eigenvectors) -> Hamiltonian:
    return Hamiltonian._from_decomposition(h.entries, np.asarray(eigenvalues), eigenvectors)


def _certificate(form, h_in_eig, h_out_eig):
    return channels._kraus_covariance_bound(
        form.ops[0], h_in_eig, h_out_eig, form.order, form.sizes
    )


def test_a_wrong_kept_decomposition_is_caught_by_the_certificate():
    h_in = ladder_hamiltonian(3, 1.0)
    h_out = total_hamiltonian(ladder_hamiltonian(2, 1.0), ladder_hamiltonian(2, 1.0))
    raw = random_channel(3, 4, 2, seed=66)
    # swapped eigenvector columns: the basis still diagonalises H_in, so delta stays at rounding,
    # but the kept energies label its first two columns the wrong way round, which R shows
    swapped = _wrong_decomposition(h_in, h_in.eigenvalues, h_in.eigenvectors[:, [1, 0, 2]])
    # a basis that mixes the first two levels, with H~'s diagonal as its energies: the labels
    # agree with Re diag H~, so only delta, the part of H~ off its diagonal, shows the fault
    mix = np.eye(3, dtype=complex)
    mix[:2, :2] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    mixed = _wrong_decomposition(h_in, [1.5, 1.5, 3.0], mix)
    for wrong in (swapped, mixed):
        channel = covariant_twirl(raw, wrong, h_out)
        form = channel._classes
        h_in_eig = form.u_in.conj().T @ h_in.entries @ form.u_in
        h_out_eig = form.u_out.conj().T @ h_out.entries @ form.u_out
        assert _certificate(form, h_in_eig, h_out_eig) > channels.COVARIANCE_TOL
        report = is_covariant(channel, h_in, h_out)
        assert report.is_covariant == is_covariant(choi_only(channel), h_in, h_out).is_covariant
        assert not report.is_covariant
    # with H~_in cut to its diagonal, the mixing basis passes: delta is what refuses it
    assert _certificate(form, np.diag(np.diag(h_in_eig)), h_out_eig) <= channels.COVARIANCE_TOL


def mask_and_rotate(raw, h_in, h_out):
    """Reference twirl of a Kraus stack: each operator masked once per ladder frequency class
    and rotated back, class by class, operator by operator."""
    u_in, u_out = h_in.eigenvectors, h_out.eigenvectors
    nu = h_out.eigenvalues[:, None] - h_in.eigenvalues[None, :]  # exact on integer ladders
    labels = np.unique(nu, return_inverse=True)[1].reshape(nu.shape)
    rotated = u_out.conj().T @ raw.kraus @ u_in
    classes = range(labels.max() + 1)
    masked = np.stack([np.where(labels == c, op, 0) for c in classes for op in rotated])
    return u_out @ masked @ u_in.conj().T


@pytest.mark.parametrize("dims", [(4, 2, 2), (16, 4, 4)], ids=str)
def test_the_twirled_operators_are_a_mask_and_rotate_bit_for_bit(dims):
    din, d1, d2 = dims
    h_in = ladder_hamiltonian(din, 1.0)
    h_out = total_hamiltonian(ladder_hamiltonian(d1, 1.0), ladder_hamiltonian(d2, 1.0))
    raw = random_channel(din, d1 * d2, 2, seed=67)
    twirled = covariant_twirl(raw, h_in, h_out)
    assert twirled.kraus.tobytes() == mask_and_rotate(raw, h_in, h_out).tobytes()
    assert not twirled.kraus.flags.writeable


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------


def test_partial_trace_recovers_factors():
    rho = random_density(2, 2, seed=17)
    sigma = random_density(3, 3, seed=18)
    joint = DensityMatrix(np.kron(rho.entries, sigma.entries))
    left = partial_trace(joint, (2, 3), keep=1)
    right = partial_trace(joint, (2, 3), keep=2)
    assert np.abs(left.entries - rho.entries).max() <= 1e-12
    assert np.abs(right.entries - sigma.entries).max() <= 1e-12


# ---------------------------------------------------------------------------
# random channels and Kraus form
# ---------------------------------------------------------------------------


def test_random_channel_square_rank_one_is_unitary():
    ch = random_channel(2, 2, 1, seed=26)
    ops = kraus_operators(ch)
    assert len(ops) == 1
    u = ops[0]
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-10


def test_random_channel_deterministic_per_seed():
    a = random_channel(2, 4, 2, seed=9)
    b = random_channel(2, 4, 2, seed=9)
    assert np.array_equal(a.choi, b.choi)


def test_random_channel_full_rank_is_cptp():
    report = validate_cptp(random_channel(3, 3, 9, seed=2))
    assert max(report.cp_violation, report.tp_violation) <= 1e-10


def test_random_channel_isometry_domain_error():
    with pytest.raises(DomainError):
        random_channel(4, 2, 1, seed=0)


def test_choi_kraus_round_trip():
    ch = random_channel(3, 2, 3, seed=27)
    rebuilt = channel_from_kraus(kraus_operators(ch), 3, 2)
    assert np.abs(rebuilt.choi - ch.choi).max() <= 1e-10


def test_choi_kraus_round_trip_on_a_ladder_twirl():
    channel = ladder_sweep_broadcast(seed=45)
    ops = kraus_operators(channel)
    assert len(ops) == np.count_nonzero(np.linalg.eigvalsh(channel.choi) > channels.CPTP_TOL)
    weights = [np.linalg.norm(k) ** 2 for k in ops]  # each operator carries sqrt(eigenvalue)
    assert weights == sorted(weights)
    rebuilt = channel_from_kraus(ops, 16, 16)
    assert np.abs(rebuilt.choi - channel.choi).max() <= 1e-12


def test_channel_from_kraus_matches_outer_product_sum():
    rng = np.random.default_rng(46)
    kraus = [rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)) for _ in range(3)]
    expected = np.zeros((12, 12), dtype=complex)
    for k in kraus:
        vec = k.T.reshape(-1)
        expected += np.outer(vec, vec.conj())
    assert np.abs(channel_from_kraus(kraus, 3, 4).choi - expected).max() <= 1e-14
    empty = channel_from_kraus([], 3, 4)
    assert empty.kraus.shape == (0, 4, 3)
    assert np.array_equal(empty.choi, np.zeros((12, 12)))
    with pytest.raises(DimensionMismatchError):
        channel_from_kraus([kraus[0], kraus[1].T], 3, 4)


def test_the_zero_map_is_checked_twirled_and_applied_from_its_empty_operator_list():
    h_in, h_out = ladder_hamiltonian(3, 1.0), ladder_hamiltonian(4, 1.0)
    empty = channel_from_kraus([], 3, 4)
    twirled = covariant_twirl(empty, h_in, h_out)
    for channel in (empty, twirled):
        assert is_covariant(channel, h_in, h_out).residual == 0.0
        assert validate_cptp(channel).tp_violation == 1.0
        assert not apply_to_matrix(channel, np.eye(3)).any()
    assert twirled.kraus.shape == (0, 4, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_channel_from_kraus_rejects_non_finite_operators_at_construction(bad):
    k = np.eye(4, 3, dtype=complex)
    k[2, 1] = bad
    with pytest.raises(ValidationError) as info:
        channel_from_kraus([np.eye(4, 3), k], 3, 4)
    assert info.value.code == "invalid-matrix"


def test_channel_from_kraus_checks_every_shape():
    with pytest.raises(DimensionMismatchError):
        channel_from_kraus([np.ones(12)], 3, 4)
    with pytest.raises(DomainError):
        channel_from_kraus([], 0, 4)


def test_channel_from_kraus_keeps_the_operators_and_caches_choi():
    rng = np.random.default_rng(48)
    kraus = [rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)) for _ in range(2)]
    channel = channel_from_kraus(kraus, 3, 4)
    assert channel.kraus.shape == (2, 4, 3)
    assert np.array_equal(channel.kraus, np.array(kraus))
    assert not channel.kraus.flags.writeable
    first = channel.choi
    assert channel.choi is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    # the Choi matrix is V^T conj(V) over the stacked Choi vectors, symmetrized
    vecs = np.array([k.T.reshape(-1) for k in kraus])
    gram = vecs.T @ vecs.conj()
    assert np.array_equal(first, (gram + gram.conj().T) / 2)


def test_choi_channels_carry_no_kraus_factor():
    assert identity_channel(2).kraus is None
    assert QuantumChannel(2, 2, identity_channel(2).choi).kraus is None
    h = ladder_hamiltonian(2, 1.0)
    assert covariant_twirl(identity_channel(2), h, h).kraus is None


def test_twirl_handles_exactly_degenerate_spectra():
    h_in = Hamiltonian(np.diag([1.0, 1.0, 2.0]))
    h_out = Hamiltonian(np.diag([0.0, 1.0, 1.0, 3.0]))
    for seed in range(5):
        twirled = covariant_twirl(random_channel(3, 4, 2, seed=seed), h_in, h_out)
        assert validate_cptp(twirled).ok
        assert is_covariant(twirled, h_in, h_out).is_covariant
        again = covariant_twirl(twirled, h_in, h_out)
        assert np.abs(again.choi - twirled.choi).max() <= 1e-12


def loop_frequency_classes(nu, freq_tol):
    """Reference: walk the sorted values, opening a class at every gap above freq_tol."""
    order = np.argsort(nu, kind="stable")
    classes = np.zeros(nu.size, dtype=int)
    current = 0
    for k in range(1, nu.size):
        if nu[order[k]] - nu[order[k - 1]] > freq_tol:
            current += 1
        classes[order[k]] = current
    return classes


@pytest.mark.parametrize("seed", range(6))
def test_frequency_classes_match_loop_definition(seed):
    rng = np.random.default_rng(seed)
    tol = 1e-9
    # integer lattice with repeats, jitter straddling tol, and exact-tol steps
    nu = rng.integers(-3, 4, size=40).astype(float)
    nu[:10] += rng.choice([0.0, 0.5 * tol, 2 * tol], size=10)
    nu[10:12] = [7.0, 7.0 + tol]
    nu = rng.permutation(nu)
    assert np.array_equal(channels._frequency_classes(nu, tol), loop_frequency_classes(nu, tol))
