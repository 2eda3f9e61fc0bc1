"""Quantum channels in Choi form: validation, covariance, twirling, composition.

Layout convention (frozen; every formula below depends on it)
--------------------------------------------------------------
A channel G from dimension ``din`` to ``dout`` is stored as the Choi matrix

    choi = sum_ij G(E_ij) (x) E_ij,

a (dout*din) x (dout*din) matrix whose composite row index pairs an output
index ``a`` with an input index ``i`` as  row = i*dout + a  (output index
fast-varying).  Equivalently ``choi.reshape(din, dout, din, dout)`` has axes
(i, a, j, b) and

    G(X)[a, b] = sum_ij choi[(a,i), (b,j)] X[i, j].

Under this layout a Kraus operator K maps to the column vector
``K.T.reshape(-1)`` and the Choi matrix of sum_m K_m . K_m† is
sum_m of the outer products of those vectors.

Complete positivity is positivity of ``choi``; trace preservation is
``partial trace over the output index == identity on the input``.

Covariance
----------
A channel is covariant for Hamiltonians (H_in, H_out) when
G([H_in, .]) = [H_out, G(.)].  Since G(E_ij) is the (i, j) block of ``choi``,
this reads in Choi form

    [K, choi] = 0,    K = 1 (x) H_out - H_in^T (x) 1,

with the input factor on the slow index as in the layout above; up to sign,
the entries of [K, choi] are the entries of G([H_in, E_ij]) - [H_out, G(E_ij)]
over all matrix units.  In the eigenbases of the two Hamiltonians K is diagonal, so
Choi entries must vanish unless the output Bohr frequency matches the input
one; the twirl enforces exactly that, which equals the Cesaro time average
of  t -> e^{iH_out t} G(e^{-iH_in t} . e^{iH_in t}) e^{-iH_out t}  and is
therefore CPTP whenever the input is.

Both the covariance check and the twirl only ever multiply ``choi`` by
Kronecker-structured operators A (x) B, which :func:`_kron_rows` applies
factor by factor without building the (din*dout)^2 Kronecker matrix.

Block spectrum
--------------
Positivity and the Kraus decomposition need the spectrum of ``choi``.  Let
the rows split into the connected components of the graph whose edges are
the exactly nonzero entries of ``choi``.  Every entry joining two components
is exactly zero, so after a permutation ``choi`` is block diagonal and its
spectrum is exactly the union of the spectra of the principal blocks
``choi[b][:, b]``, one per component b.  A covariant Choi matrix has no weight
between mismatched Bohr frequencies, and for Hamiltonians that are diagonal
in the computational basis (ladders and their sums) those zeros sit in
``choi`` itself: a twirled 16 -> 16 ladder channel splits into 22 blocks of
at most 16 x 16.  A dense Choi matrix is one component and takes the same
path.  A stray tiny entry can only merge components, which costs time but
never changes the spectrum that is computed.

Tolerances
----------
Three constants decide every verdict: ``CPTP_TOL`` bounds the CP and TP
violations and is also the Kraus eigenvalue cutoff, ``COVARIANCE_TOL`` bounds
the covariance residual, and ``FREQ_TOL`` is the largest gap inside one
Bohr-frequency class of the twirl.  No function takes a tolerance, so a
channel gets the same verdict from every caller; the reports carry the raw
violations and residual for anyone who needs another threshold.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, ValidationError
from .states import DensityMatrix, Hamiltonian, _hermitize, _split_at_gaps

CPTP_TOL = 1e-9
COVARIANCE_TOL = 1e-9
FREQ_TOL = 1e-9


class QuantumChannel:
    """Linear map between density-matrix spaces, stored as a Choi matrix.

    Construction enforces shape and hermiticity only; complete positivity and
    trace preservation are measured by :func:`validate_cptp` so that slightly
    defective matrices can still be diagnosed.
    """

    def __init__(self, dim_in: int, dim_out: int, choi):
        if dim_in < 1 or dim_out < 1:
            raise DomainError(f"dimensions must be positive, got {dim_in}x{dim_out}")
        mat = np.asarray(choi, dtype=complex)
        n = dim_in * dim_out
        if mat.shape != (n, n):
            raise DimensionMismatchError(
                f"choi must be {n}x{n} for dims {dim_in}->{dim_out}, got {mat.shape}"
            )
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)
        self.choi = _hermitize(mat, "choi matrix")

    def __repr__(self):
        return f"QuantumChannel({self.dim_in}->{self.dim_out})"


def apply_to_matrix(channel: QuantumChannel, x: np.ndarray) -> np.ndarray:
    """Linear action of the channel on an arbitrary matrix (no state validation)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (channel.dim_in, channel.dim_in):
        raise DimensionMismatchError(
            f"matrix shape {x.shape} does not match channel input dim {channel.dim_in}"
        )
    c4 = channel.choi.reshape(channel.dim_in, channel.dim_out, channel.dim_in, channel.dim_out)
    return np.einsum("iajb,ij->ab", c4, x)


def apply_channel(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel to a state; the output is validated as a state."""
    return DensityMatrix(apply_to_matrix(channel, rho.entries))


@dataclass(frozen=True)
class CptpReport:
    """CPTP defects of a channel.

    ``largest_block`` is the size of the largest principal block of the Choi
    matrix that was diagonalised (``dim_in * dim_out`` when it is dense).
    """

    cp_violation: float
    tp_violation: float
    ok: bool
    largest_block: int


def _pattern_components(pattern: np.ndarray) -> np.ndarray:
    """Label each vertex of a symmetric boolean adjacency matrix by its component's least vertex.

    Each round hooks every vertex to the smallest label among itself and its
    neighbours, read off as the first True entry of its row with the columns
    in ascending label order, then follows label pointers to their roots.
    Labels only decrease and stay inside their component, so they stop
    changing exactly when every edge joins equal labels.  Memory beyond the
    pattern is one boolean copy of it.
    """
    adj = pattern.copy()
    np.fill_diagonal(adj, True)
    labels = np.arange(adj.shape[0])
    while True:
        order = np.argsort(labels, kind="stable")
        hooked = labels[order[adj[:, order].argmax(axis=1)]]
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def _choi_blocks(choi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Decoupled principal blocks of a Choi matrix, stacked by size, smallest first.

    Returns pairs (idx, blocks): ``idx`` has shape (k, s) and holds the row
    indices of the k components of size s, and ``blocks[j] = choi[idx[j]][:, idx[j]]``.
    See "Block spectrum" in the module docstring.
    """
    n = choi.shape[0]
    labels = _pattern_components(choi != 0)
    sizes = np.bincount(labels, minlength=n)[labels]
    order = np.argsort(sizes * n + labels, kind="stable")
    stacks = []
    for group in _split_at_gaps(sizes[order], 0):
        idx = order[group].reshape(-1, sizes[order[group[0]]])
        stacks.append((idx, choi[idx[:, :, None], idx[:, None, :]]))
    return stacks


def validate_cptp(channel: QuantumChannel) -> CptpReport:
    """Measure how far the channel is from completely positive and trace preserving.

    The smallest Choi eigenvalue is taken over the decoupled blocks, whose
    spectra together are exactly the spectrum of the Choi matrix.  ``ok``
    holds when both violations stay within ``CPTP_TOL``.
    """
    stacks = _choi_blocks(channel.choi)
    min_eig = min(float(np.linalg.eigvalsh(blocks)[:, 0].min()) for _, blocks in stacks)
    cp_violation = max(0.0, -min_eig)
    marginal = _partial_trace_matrix(channel.choi, channel.dim_in, channel.dim_out, keep=1)
    tp_violation = float(np.abs(marginal - np.eye(channel.dim_in)).max())
    return CptpReport(
        cp_violation,
        tp_violation,
        ok=cp_violation <= CPTP_TOL and tp_violation <= CPTP_TOL,
        largest_block=int(stacks[-1][0].shape[1]),
    )


@dataclass(frozen=True)
class CovarianceReport:
    residual: float
    is_covariant: bool


def _kron_rows(a: np.ndarray | None, b: np.ndarray | None, m: np.ndarray) -> np.ndarray:
    """Return (a (x) b) @ m for a Choi-shaped m, without forming a (x) b.

    ``a`` acts on the slow (input) part of the row index and ``b`` on the fast
    (output) part; ``None`` stands for the identity factor.  Square factors
    only, so the result has the shape of ``m``.
    """
    din = m.shape[0] // b.shape[0] if a is None else a.shape[0]
    out = m.reshape(din, -1, m.shape[1])
    if b is not None:
        out = np.matmul(b, out)
    if a is not None:
        out = (a @ out.reshape(din, -1)).reshape(out.shape)
    return out.reshape(m.shape)


def _kron_sandwich(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Return V @ m @ V† for V = a (x) b, taking the right product as X V† = (V X†)†."""
    return _kron_rows(a, b, _kron_rows(a, b, m.conj().T).conj().T)


def _check_hamiltonian_dims(channel: QuantumChannel, h_in: Hamiltonian, h_out: Hamiltonian):
    if h_in.dim != channel.dim_in or h_out.dim != channel.dim_out:
        raise DimensionMismatchError(
            f"hamiltonian dims ({h_in.dim}, {h_out.dim}) do not match channel "
            f"{channel.dim_in}->{channel.dim_out}"
        )


def is_covariant(channel: QuantumChannel, h_in: Hamiltonian, h_out: Hamiltonian) -> CovarianceReport:
    """Measure the Choi-form covariance condition [K, C] = 0, K = 1 (x) H_out - H_in^T (x) 1.

    The residual is the max-abs entry of that commutator, which is the
    largest max-abs entry of G(i[H_in, E_ij]) - i[H_out, G(E_ij)] over all
    matrix units E_ij; the channel is reported covariant when it stays within
    ``COVARIANCE_TOL``.  With K and C Hermitian, C K = (K C)†, so one product suffices.
    """
    _check_hamiltonian_dims(channel, h_in, h_out)
    c = channel.choi
    kc = _kron_rows(None, h_out.entries, c) - _kron_rows(h_in.entries.T, None, c)
    residual = float(np.abs(kc - kc.conj().T).max())
    return CovarianceReport(residual=residual, is_covariant=residual <= COVARIANCE_TOL)


def _frequency_classes(nu: np.ndarray, freq_tol: float) -> np.ndarray:
    """Cluster values into classes whose consecutive gaps stay within freq_tol.

    Grouping (rather than pairwise comparison) keeps the class relation
    transitive, so zeroing cross-class Choi entries is a pinching and exactly
    preserves positivity.
    """
    order = np.argsort(nu, kind="stable")
    classes = np.empty(nu.size, dtype=int)
    for label, group in enumerate(_split_at_gaps(nu[order], freq_tol)):
        classes[order[group]] = label
    return classes


def covariant_twirl(channel: QuantumChannel, h_in: Hamiltonian, h_out: Hamiltonian) -> QuantumChannel:
    """Project the channel onto the covariant ones for (h_in, h_out).

    In the tensor basis of the Hamiltonian eigenvectors every Choi entry
    carries a frequency mismatch (E_out_a - E_out_b) - (E_in_i - E_in_j);
    entries whose mismatch exceeds ``FREQ_TOL`` are zeroed.  The input factor
    uses the conjugated eigenbasis because the channel acts on the input index
    through a transpose.
    """
    _check_hamiltonian_dims(channel, h_in, h_out)
    # W = conj(U_in) (x) U_out; c_eig = W† C W and the result is W (c_eig * mask) W†
    u_in, u_out = h_in.eigenvectors, h_out.eigenvectors
    c_eig = _kron_sandwich(u_in.T, u_out.conj().T, channel.choi)
    # nu[i*dout + a] = E_out[a] - E_in[i]; mismatch of entry (r, c) is nu[r] - nu[c]
    nu = (h_out.eigenvalues[None, :] - h_in.eigenvalues[:, None]).reshape(-1)
    classes = _frequency_classes(nu, FREQ_TOL)
    mask = classes[:, None] == classes[None, :]
    twirled = _kron_sandwich(u_in.conj(), u_out, c_eig * mask)
    return QuantumChannel(channel.dim_in, channel.dim_out, twirled)


def identity_channel(dim: int) -> QuantumChannel:
    vec = np.eye(dim, dtype=complex).T.reshape(-1)
    return QuantumChannel(dim, dim, np.outer(vec, vec.conj()))


def depolarizing_channel(dim_in: int, dim_out: int | None = None) -> QuantumChannel:
    """Channel mapping every state to the maximally mixed state I/dim_out."""
    dim_out = dim_in if dim_out is None else dim_out
    choi = np.kron(np.eye(dim_in, dtype=complex), np.eye(dim_out, dtype=complex) / dim_out)
    return QuantumChannel(dim_in, dim_out, choi)


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError(f"unitary must be square, got {u.shape}")
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > 1e-10:
        raise ValidationError("matrix is not unitary to 1e-10")
    return channel_from_kraus([u], u.shape[0], u.shape[0])


def evolution_channel(h: Hamiltonian, t: float) -> QuantumChannel:
    """Unitary conjugation by exp(-iHt) as a channel."""
    return unitary_channel(h.propagator(t))


def channel_from_kraus(kraus, dim_in: int, dim_out: int) -> QuantumChannel:
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    for k in ops:
        if k.shape != (dim_out, dim_in):
            raise DimensionMismatchError(
                f"kraus operator shape {k.shape} does not match dims {dim_in}->{dim_out}"
            )
    n = dim_in * dim_out
    # row m is the Choi vector of K_m; the Choi matrix is V^T conj(V) = sum_m v_m v_m†
    vecs = np.array([k.T.reshape(-1) for k in ops], dtype=complex).reshape(len(ops), n)
    return QuantumChannel(dim_in, dim_out, vecs.T @ vecs.conj())


def kraus_operators(channel: QuantumChannel) -> list[np.ndarray]:
    """Kraus decomposition from the Choi eigendecomposition (eigenvalues > CPTP_TOL kept).

    Each decoupled Choi block is diagonalised on its own and its eigenvectors
    are embedded at the block's indices; operators come in ascending
    eigenvalue order.
    """
    n = channel.dim_in * channel.dim_out
    eigs, vecs = [], []
    for idx, blocks in _choi_blocks(channel.choi):
        w, v = np.linalg.eigh(blocks)
        # embedded[j, m, idx[j, r]] = v[j, r, m]: eigenvector m of block j as a full vector
        embedded = np.zeros((*w.shape, n), dtype=complex)
        np.put_along_axis(
            embedded, np.broadcast_to(idx[:, None, :], v.shape), v.transpose(0, 2, 1), axis=2
        )
        eigs.append(w.reshape(-1))
        vecs.append(embedded.reshape(-1, n))
    eigs, vecs = np.concatenate(eigs), np.concatenate(vecs)
    order = np.argsort(eigs, kind="stable")
    return [
        np.sqrt(lam) * vec.reshape(channel.dim_in, channel.dim_out).T
        for lam, vec in zip(eigs[order], vecs[order])
        if lam > CPTP_TOL
    ]


def random_channel(dim_in: int, dim_out: int, kraus_rank: int, seed) -> QuantumChannel:
    """Seeded Haar-style random CPTP channel from an orthonormalized Gaussian isometry."""
    if kraus_rank < 1:
        raise DomainError(f"kraus_rank must be positive, got {kraus_rank}")
    if kraus_rank * dim_out < dim_in:
        raise DomainError(
            f"cannot form an isometry: kraus_rank*dim_out = {kraus_rank * dim_out} < dim_in = {dim_in}"
        )
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim_out * kraus_rank, dim_in)) + 1j * rng.standard_normal(
        (dim_out * kraus_rank, dim_in)
    )
    q, r = np.linalg.qr(g)
    # canonical phases: make diag(r) real positive so the draw is unambiguous
    phases = np.diag(r).copy()
    phases = np.where(np.abs(phases) > 0, phases / np.abs(phases), 1.0)
    q = q * phases.conj()
    kraus = [q[m * dim_out : (m + 1) * dim_out, :] for m in range(kraus_rank)]
    return channel_from_kraus(kraus, dim_in, dim_out)


def tensor(channel1: QuantumChannel, channel2: QuantumChannel) -> QuantumChannel:
    """Parallel composition G1 (x) G2 acting on the tensor-product input space."""
    d1i, d1o = channel1.dim_in, channel1.dim_out
    d2i, d2o = channel2.dim_in, channel2.dim_out
    c1 = channel1.choi.reshape(d1i, d1o, d1i, d1o)
    c2 = channel2.choi.reshape(d2i, d2o, d2i, d2o)
    combined = np.einsum("iajb,kcld->ikacjlbd", c1, c2)
    n = d1i * d2i * d1o * d2o
    return QuantumChannel(d1i * d2i, d1o * d2o, combined.reshape(n, n))


def _partial_trace_matrix(x: np.ndarray, d1: int, d2: int, keep: int) -> np.ndarray:
    x4 = x.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.einsum("ikjk->ij", x4)
    if keep == 2:
        return np.einsum("kikj->ij", x4)
    raise DomainError(f"keep must be 1 or 2, got {keep!r}")


def partial_trace(rho: DensityMatrix, dims, keep: int) -> DensityMatrix:
    """Reduce a bipartite state to the factor ``keep`` (1 or 2) of dims = [d1, d2]."""
    d1, d2 = int(dims[0]), int(dims[1])
    if d1 * d2 != rho.dim:
        raise DimensionMismatchError(f"dims {d1}x{d2} do not factor state dim {rho.dim}")
    return DensityMatrix(_partial_trace_matrix(rho.entries, d1, d2, keep))


def append_state(sigma: DensityMatrix, dim_in: int) -> QuantumChannel:
    """Channel rho -> rho (x) sigma from ``dim_in`` to ``dim_in * sigma.dim``."""
    dim_out = dim_in * sigma.dim
    omega = np.eye(dim_in, dtype=complex).reshape(-1)  # sum_i e_i (x) e_i
    choi = np.kron(np.outer(omega, omega), sigma.entries)
    return QuantumChannel(dim_in, dim_out, choi)
