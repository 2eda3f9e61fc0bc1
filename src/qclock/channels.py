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

Both the covariance check and the twirl of a Choi matrix only ever multiply
``choi`` by Kronecker-structured operators A (x) B, which :func:`_kron_rows`
applies factor by factor without building the (din*dout)^2 Kronecker matrix.

Kraus form
----------
A channel built by :func:`channel_from_kraus` (and so by
:func:`random_channel`, :func:`unitary_channel`, :func:`evolution_channel`,
and by the twirl of any of these) keeps its operators as ``kraus``, a
read-only stack of shape (r, dout, din) with ``kraus[m] = K_m``.  It forms
``choi`` on first read and caches it: with V the (r, dout*din) matrix whose
row m is the Choi vector ``K_m.T.reshape(-1)``, ``choi = V^T conj(V)``,
symmetrized like any other Choi matrix.  A factor with more than din*dout
operators is no smaller than the Choi matrix, so such a channel forms
``choi`` at once and keeps no factor.  Every other channel has
``kraus = None``.

The twirl zeroes the eigenbasis Choi entries of mismatched frequency, which
is the pinching C -> sum_c P_c C P_c over frequency classes c.  With
C = V^T conj(V) this is the Choi matrix of the operators P_c K_m.  So a
channel that carries a factor is twirled in that form: every K_m is rotated
into the eigenbases (U_out† K_m U_in), masked once per class, and rotated
back, and the result carries the classes * r masked operators.  No n x n
matrix is formed, and the raw channel's ``choi`` is never read.  A channel
given only as a Choi matrix (a JSON file, :func:`tensor`) takes the
Choi-matrix twirl.  For ladder spectra the eigenvectors are permutations and
both twirls sum the same products, so they agree bit for bit, except that a
one-operator factor can differ in the last bit: OpenBLAS rounds the
one-term Gram product of its raw Choi matrix differently.

The cost of forming the twirled ``choi`` grows with the number of classes.
Drawing a rank-2 ``random_channel``, twirling it and forming ``choi`` takes
~5.5 ms in Kraus form against ~17.5 ms through the Choi matrix on a
(16, 4, 4) ladder row, which has 22 classes.  Generic 16 -> 16 spectra have
256 classes, so the twirl makes 512 operators, and there it is slower:
~21 ms against ~16 ms (2-vCPU box, NumPy 2.4 with OpenBLAS).

A channel that carries a factor is also checked and applied in that form,
and none of the following reads ``choi``:

- CP: X -> sum_m K_m X K_m† is completely positive by construction, so
  :func:`validate_cptp` does not measure it.  It reports a CP violation of
  0.0 and ``largest_block == 0``: no Choi block was diagonalised.
- TP: sum_m K_m† K_m, one product of the operators stacked as a
  (r*dout, din) matrix, is the transpose of the Choi marginal, so the TP
  violation is the Choi one up to rounding.
- Covariance: the Choi vector of D_m = H_out K_m - K_m H_in is K v_m, so
  [K, C] = sum_m (d_m v_m† - v_m d_m†).  Subtracting a real multiple w_m v_m
  from d_m leaves the sum unchanged, so with r_m = D_m - w_m K_m every
  entry of [K, C] is at most 2 sum_m max|r_m| max|K_m| in modulus.
  :func:`is_covariant` takes w_m = Re<K_m, D_m> / ||K_m||^2, for which r_m is
  rounding noise when K_m has one Bohr frequency, as every twirled operator
  has.  When this bound is within ``COVARIANCE_TOL`` it is the reported
  residual, an upper bound on the Choi residual (~7e-15 against ~2e-16 on a
  (16, 4, 4) ladder row).  Otherwise ``choi`` is formed and the commutator
  measured as for any channel, so the verdict is the Choi check's either
  way.  A covariant channel given by operators that mix frequencies (a
  unitary mix of twirled operators) is accepted by that fallback.
- Apply: :func:`apply_to_matrix` is sum_m K_m X K_m†.

So a (16, 4, 4) copy-bound sweep row forms no Choi matrix, and takes ~1.9 ms
against ~6.5 ms when it gated and applied the twirled channel through its
Choi matrix; a (32, 6, 6) row takes ~12 ms against ~108 ms (same box).

Block spectrum
--------------
For a channel without a factor, positivity needs the spectrum of ``choi``,
and the Kraus decomposition of any channel needs it.  Let
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
violations and residual for anyone who needs another threshold.  For a
channel that carries Kraus operators the CP violation is 0.0 by
construction, not a measurement, and an accepted covariance residual is an
upper bound on the Choi residual (see "Kraus form").
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, ValidationError
from .states import (
    DensityMatrix,
    Hamiltonian,
    _hermitian_deviation,
    _hermitize,
    _split_at_gaps,
)

CPTP_TOL = 1e-9
COVARIANCE_TOL = 1e-9
FREQ_TOL = 1e-9


def _check_dims(dim_in: int, dim_out: int):
    if dim_in < 1 or dim_out < 1:
        raise DomainError(f"dimensions must be positive, got {dim_in}x{dim_out}")


class QuantumChannel:
    """Linear map between density-matrix spaces, stored as a Choi matrix.

    Construction enforces shape and hermiticity only; complete positivity and
    trace preservation are measured by :func:`validate_cptp` so that slightly
    defective matrices can still be diagnosed.  A channel built from Kraus
    operators also carries them as ``kraus`` and forms ``choi`` on first read
    (see "Kraus form" in the module docstring); otherwise ``kraus`` is None.
    """

    def __init__(self, dim_in: int, dim_out: int, choi):
        _check_dims(dim_in, dim_out)
        mat = np.asarray(choi, dtype=complex)
        n = dim_in * dim_out
        if mat.shape != (n, n):
            raise DimensionMismatchError(
                f"choi must be {n}x{n} for dims {dim_in}->{dim_out}, got {mat.shape}"
            )
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)
        self.kraus = None
        self._choi = _hermitize(mat, "choi matrix")

    @property
    def choi(self) -> np.ndarray:
        if self._choi is None:
            self._choi = _kraus_choi(self.kraus)
        return self._choi

    def __repr__(self):
        return f"QuantumChannel({self.dim_in}->{self.dim_out})"


def _kraus_choi(kraus: np.ndarray) -> np.ndarray:
    """Choi matrix of an (r, dout, din) operator stack."""
    # row m is the Choi vector of K_m; the Choi matrix is V^T conj(V) = sum_m v_m v_m†
    vecs = kraus.transpose(0, 2, 1).reshape(len(kraus), kraus.shape[1] * kraus.shape[2])
    return _hermitize(vecs.T @ vecs.conj(), "choi matrix")


def _kraus_channel(dim_in: int, dim_out: int, kraus: np.ndarray) -> QuantumChannel:
    """Channel of a finite (r, dim_out, dim_in) operator stack; shapes are the caller's to check."""
    channel = QuantumChannel.__new__(QuantumChannel)
    channel.dim_in, channel.dim_out = int(dim_in), int(dim_out)
    if len(kraus) > dim_in * dim_out:  # no smaller than the Choi matrix, so not kept
        channel.kraus, channel._choi = None, _kraus_choi(kraus)
    else:
        kraus.setflags(write=False)
        channel.kraus, channel._choi = kraus, None
    return channel


def apply_to_matrix(channel: QuantumChannel, x: np.ndarray) -> np.ndarray:
    """Linear action of the channel on an arbitrary matrix (no state validation)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (channel.dim_in, channel.dim_in):
        raise DimensionMismatchError(
            f"matrix shape {x.shape} does not match channel input dim {channel.dim_in}"
        )
    if channel.kraus is not None:
        # sum_m K_m X K_m† as two flat products over the rows (a, m) of the operators K_m[a, :]
        rows = channel.kraus.transpose(1, 0, 2).reshape(-1, channel.dim_in)
        kx = (rows @ x).reshape(channel.dim_out, -1)
        return kx @ rows.reshape(channel.dim_out, -1).conj().T
    c4 = channel.choi.reshape(channel.dim_in, channel.dim_out, channel.dim_in, channel.dim_out)
    return np.einsum("iajb,ij->ab", c4, x)


def apply_channel(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel to a state; the output is validated as a state."""
    return DensityMatrix(apply_to_matrix(channel, rho.entries))


@dataclass(frozen=True)
class CptpReport:
    """CPTP defects of a channel.

    ``largest_block`` is the size of the largest principal block of the Choi
    matrix that was diagonalised (``dim_in * dim_out`` when it is dense).  It
    is 0 when no block was diagonalised: a channel that carries Kraus
    operators is CP by construction, so its ``cp_violation`` is 0.0 and not
    measured (see "Kraus form" in the module docstring).
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
    spectra together are exactly the spectrum of the Choi matrix.  A channel
    that carries Kraus operators is CP by construction and is measured on
    them alone (see "Kraus form" in the module docstring).  ``ok`` holds when
    both violations stay within ``CPTP_TOL``.
    """
    if channel.kraus is not None:
        # sum_m K_m† K_m is the transpose of the Choi marginal below
        stacked = channel.kraus.reshape(-1, channel.dim_in)
        marginal, cp_violation, largest_block = stacked.conj().T @ stacked, 0.0, 0
    else:
        stacks = _choi_blocks(channel.choi)
        min_eig = min(float(np.linalg.eigvalsh(blocks)[:, 0].min()) for _, blocks in stacks)
        cp_violation, largest_block = max(0.0, -min_eig), int(stacks[-1][0].shape[1])
        marginal = _partial_trace_matrix(channel.choi, channel.dim_in, channel.dim_out, keep=1)
    tp_violation = float(np.abs(marginal - np.eye(channel.dim_in)).max())
    return CptpReport(
        cp_violation,
        tp_violation,
        ok=cp_violation <= CPTP_TOL and tp_violation <= CPTP_TOL,
        largest_block=largest_block,
    )


@dataclass(frozen=True)
class CovarianceReport:
    """Covariance residual of a channel and its verdict against ``COVARIANCE_TOL``.

    ``residual`` is the max-abs entry of the Choi commutator [K, C], except
    when a channel that carries Kraus operators is accepted by the Kraus
    certificate: then it is the certificate's bound, an upper bound on that
    entry (see "Kraus form" in the module docstring).
    """

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


def _kraus_covariance_bound(kraus: np.ndarray, h_in: np.ndarray, h_out: np.ndarray) -> float:
    """Upper bound 2 sum_m max|r_m| max|K_m| on the max-abs entry of [K, C], C = sum_m v_m v_m†.

    ``r_m = D_m - w_m K_m`` with ``D_m = H_out K_m - K_m H_in`` and the real
    ``w_m = Re<K_m, D_m> / ||K_m||^2`` (0 for a zero operator); see "Kraus
    form" in the module docstring.
    """
    shape = (len(kraus), kraus.shape[1] * kraus.shape[2])
    flat_k = kraus.reshape(shape)
    flat_d = (h_out @ kraus - kraus @ h_in).reshape(shape)
    # Re<a, b> is the real dot product of the interleaved real and imaginary parts
    real_k = flat_k.view(float)
    weight = np.einsum("mi,mi->m", real_k, real_k)
    overlap = np.einsum("mi,mi->m", real_k, flat_d.view(float))
    omega = np.divide(overlap, weight, out=np.zeros_like(weight), where=weight > 0)
    residual = np.abs(flat_d - omega[:, None] * flat_k).max(axis=1, initial=0.0)
    return float(2.0 * residual @ np.abs(flat_k).max(axis=1, initial=0.0))


def is_covariant(channel: QuantumChannel, h_in: Hamiltonian, h_out: Hamiltonian) -> CovarianceReport:
    """Measure the Choi-form covariance condition [K, C] = 0, K = 1 (x) H_out - H_in^T (x) 1.

    The residual is the max-abs entry of that commutator, which is the
    largest max-abs entry of G(i[H_in, E_ij]) - i[H_out, G(E_ij)] over all
    matrix units E_ij; the channel is reported covariant when it stays within
    ``COVARIANCE_TOL``.  With K and C Hermitian, C K = (K C)†, so one product suffices.
    A channel that carries Kraus operators is first offered the certificate
    of :func:`_kraus_covariance_bound`; when that accepts, its bound is the
    reported residual and no Choi matrix is formed.
    """
    _check_hamiltonian_dims(channel, h_in, h_out)
    if channel.kraus is not None:
        bound = _kraus_covariance_bound(channel.kraus, h_in.entries, h_out.entries)
        if bound <= COVARIANCE_TOL:
            return CovarianceReport(residual=bound, is_covariant=True)
    c = channel.choi
    kc = _kron_rows(None, h_out.entries, c)
    kc -= _kron_rows(h_in.entries.T, None, c)
    residual = _hermitian_deviation(kc)[0]
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
    through a transpose.  A channel that carries Kraus operators is twirled in
    that form and the result carries them too (see "Kraus form" in the module
    docstring).
    """
    _check_hamiltonian_dims(channel, h_in, h_out)
    u_in, u_out = h_in.eigenvectors, h_out.eigenvectors
    # nu[i*dout + a] = E_out[a] - E_in[i]; mismatch of entry (r, c) is nu[r] - nu[c]
    nu = (h_out.eigenvalues[None, :] - h_in.eigenvalues[:, None]).reshape(-1)
    classes = _frequency_classes(nu, FREQ_TOL)
    if channel.kraus is not None:
        # entry (a, i) of U_out† K U_in has frequency nu[i*dout + a]; masks[c] selects class c
        labels = classes.reshape(channel.dim_in, channel.dim_out).T
        masks = labels == np.arange(labels.max() + 1)[:, None, None]
        rotated = u_out.conj().T @ channel.kraus @ u_in
        masked = np.where(masks[:, None], rotated, 0)
        kraus = (u_out @ masked @ u_in.conj().T).reshape(-1, channel.dim_out, channel.dim_in)
        return _kraus_channel(channel.dim_in, channel.dim_out, kraus)
    # W = conj(U_in) (x) U_out; c_eig = W† C W and the result is W (c_eig * mask) W†
    c_eig = _kron_sandwich(u_in.T, u_out.conj().T, channel.choi)
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
    """Channel X -> sum_m K_m X K_m† that keeps its operators.

    Shapes and finiteness are checked here; ``choi`` is formed on first read
    (see "Kraus form" in the module docstring), and an empty list gives the
    zero map.
    """
    _check_dims(dim_in, dim_out)
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    for k in ops:
        if k.shape != (dim_out, dim_in):
            raise DimensionMismatchError(
                f"kraus operator shape {k.shape} does not match dims {dim_in}->{dim_out}"
            )
    stack = np.array(ops, dtype=complex).reshape(len(ops), dim_out, dim_in)
    if not np.isfinite(stack).all():
        raise ValidationError("kraus operators have non-finite entries")
    return _kraus_channel(dim_in, dim_out, stack)


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
    # rows m*dim_out .. (m+1)*dim_out - 1 of q are K_m
    return channel_from_kraus(q.reshape(kraus_rank, dim_out, dim_in), dim_in, dim_out)


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
