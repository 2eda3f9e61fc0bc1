"""Quantum channels in Choi form: validation, covariance, twirling, application.

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
:func:`random_channel`) keeps its operators as ``kraus``, a read-only stack
of shape (r, dout, din) with ``kraus[m] = K_m``.  It forms ``choi`` on first
read and caches it: with V the (r, dout*din) matrix whose row m is the Choi
vector ``K_m.T.reshape(-1)``, ``choi = V^T conj(V)``, symmetrized like any
other Choi matrix, however many operators there are.  A channel given only
as a Choi matrix has ``kraus = None``: one read from a JSON file or built by
the :class:`QuantumChannel` constructor, :func:`identity_channel`, and the
output of the Choi-matrix twirl.

A channel that carries operators is checked and applied on them, and none of
the following reads ``choi``:

- CP: X -> sum_m K_m X K_m† is completely positive by construction, so
  :func:`validate_cptp` does not measure it.  It reports a CP violation of
  0.0 and ``largest_block == 0``: no Choi block was diagonalised.
- TP: sum_m K_m† K_m, summed over the stack of r products, is the
  transpose of the Choi marginal, so the TP violation is the Choi one up to
  rounding.
- Covariance: the certificate of "Class form" below, with all entries in
  one class and the standard basis as the eigenbases (U = 1).
- Apply: :func:`apply_to_matrix` sums the stack of r products K_m X K_m†.

Class form
----------
The twirl zeroes the eigenbasis Choi entries of mismatched frequency, which
is the pinching C -> sum_c P_c C P_c over frequency classes c.  With
C = V^T conj(V) this is the Choi matrix of the masked operators P_c∘K~_m,
where K~_m = U_out† K_m U_in is K_m in the eigenbases and P_c keeps the
entries (a, i) whose frequency e_out[a] - e_in[i] is in class c.  So the
twirl of a channel that carries operators keeps its *class form*: the
rotated operators K~_m, the class label of every entry (a, i), and the two
eigenbases.  It forms no masked operator and no n x n matrix, and it never
reads the raw channel's ``choi``.  The twirled channel builds ``kraus`` on
first read, the classes * r operators P_c∘K~_m rotated back (U_out . U_in†),
and ``choi`` from those, so both keep the bits of a mask-and-rotate twirl.
For ladder spectra the eigenvectors are permutations, and that ``choi``
equals the Choi-matrix twirl bit for bit, except that a one-operator factor
can differ in the last bit: OpenBLAS rounds the one-term Gram product of its
raw Choi matrix differently.

In the eigenbases the twirled Choi matrix is block diagonal over the
classes, and its entries are G_p = sum_m K~_m[a, i] conj(K~_m[b, j]) on the
within-class pairs p = ((a, i), (b, j)): 3,640 pairs at (16, 4, 4), where
the masked operators would hold 11,264 entries, 95% of them zero.  The class
structure (the pairs, and the entries listed class by class) is built once
per twirl, and the checks run on it:

- CP: 0.0 by construction, as for any channel that carries operators.
- TP: the pairs with a = b, summed onto (i, j) and rotated back by U_in,
  give sum_m K_m† K_m.
- Apply: out = U_out X~ U_out†, with X~[a, b] the sum of G_p x~[i, j] over
  the pairs onto (a, b) and x~ = U_in† x U_in.
- Covariance: a certificate on the Frobenius norm, which a unitary change
  of basis keeps and which bounds every entry.  Rotate the Hamiltonian
  entries into the eigenbases, H~ = U† H U, and take e = Re diag H~ and
  delta = ||H~_in - diag e_in||_F + ||H~_out - diag e_out||_F +
  eps (||H_in||_F + ||H_out||_F), eps the float spacing at 1.  In that
  basis the commutator's K is diag(nu) plus a rest of norm at most delta,
  with nu = e_out[a] - e_in[i], and the Choi vector of P_c∘K~_m has norm
  N = ||P_c∘K~_m||_F.  Subtracting the real multiple w of it, w the
  |K~|^2-weighted mean of nu over the class, leaves the commutator
  unchanged, so with R = ||(nu - w)∘P_c∘K~_m||_F every entry of [K, C] is
  at most 2 sum (R + delta N) N, summed over classes and operators.  R is
  rounding noise, as each class has one frequency, and delta is rounding
  noise too when the kept eigenvectors are eigenvectors of the entries; a
  wrong decomposition inflates R or delta.  The eps term covers the
  rounding of the Choi residual as it is measured, so the bound is at
  least that residual (~4e-13 against ~2e-16 on a (16, 4, 4) ladder row).
  When the bound is within ``COVARIANCE_TOL`` it is the reported residual.
  Otherwise the operators are formed and the commutator measured on
  ``choi`` as for any channel, so the verdict is the Choi check's either
  way.  A covariant channel given by operators that mix frequencies (a
  unitary mix of twirled operators) is accepted by that fallback.

The class form, its kernels and the certificate live in
:mod:`qclock.classform`.  These checks, and the twirl, run on stacks of
channels, class forms (B rows of r operators), Kraus stacks
(B, r, dout, din) or Choi matrices (B, n, n), in :func:`_cptp_rows`,
:func:`_covariance_rows`, :func:`_apply_rows` and :func:`_twirled_ops`; the
public functions pass a stack of one row.  So a sweep row, whose raw channel
is drawn as operators, forms no Choi matrix and no masked operator.

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
the covariance residual, and ``FREQ_TOL``, times the largest |eigenvalue| of
the two Hamiltonians, is the largest gap inside one Bohr-frequency class of
the twirl.  No function takes a tolerance, so a channel gets the same
verdict from every caller; the reports carry the raw
violations and residual for anyone who needs another threshold.  For a
channel that carries Kraus operators the CP violation is 0.0 by
construction, not a measurement, and an accepted covariance residual is an
upper bound on the Choi residual (see "Class form").
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classform import _ClassForm, _kraus_covariance_bound
from .errors import DimensionMismatchError, DomainError, ValidationError
from .states import (
    DensityMatrix,
    Hamiltonian,
    _gap_labels,
    _hermitian_deviation,
    _hermitize,
)

CPTP_TOL = 1e-9
COVARIANCE_TOL = 1e-9
# relative to the largest |eigenvalue| of the twirl's Hamiltonians: its classes are scale-free
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
    (see "Kraus form" in the module docstring); a twirled one keeps its class
    form and forms ``kraus`` on first read too (see "Class form").  Otherwise
    ``kraus`` is None.
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
        self._classes = self._kraus = None
        self._choi = _hermitize(mat, "choi matrix")

    @property
    def kraus(self) -> np.ndarray | None:
        if self._kraus is None and self._classes is not None:
            self._kraus = self._classes.kraus()[0]
            self._kraus.setflags(write=False)
        return self._kraus

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


def _ops_channel(dim_in: int, dim_out: int, ops) -> QuantumChannel:
    """The channel whose :func:`_channel_ops` are ``ops``, a stack of one row: a class form, a
    finite operator stack or a symmetrized Choi matrix; shapes are the caller's to check."""
    channel = QuantumChannel.__new__(QuantumChannel)
    channel.dim_in, channel.dim_out = int(dim_in), int(dim_out)
    channel._classes = channel._kraus = channel._choi = None
    if isinstance(ops, _ClassForm):
        channel._classes, ops = ops, ops.ops
    elif ops.ndim == 4:
        channel._kraus = ops = ops[0]
    else:
        channel._choi = ops = ops[0]
    ops.setflags(write=False)
    return channel


def _channel_ops(channel: QuantumChannel):
    """The channel as a stack of one row, as the kernels take it: its class form, else its
    Kraus stack, else its Choi matrix."""
    if channel._classes is not None:
        return channel._classes
    return (channel.choi if channel.kraus is None else channel.kraus)[None]


def _apply_rows(ops, x: np.ndarray) -> np.ndarray:
    """Each channel of a stack ``ops`` (see "Class form") applied to its matrix x (B, din, din)."""
    if isinstance(ops, _ClassForm):
        return ops.apply(x)
    if ops.ndim == 4:
        # one product per operator: a flat (r*dout, din) one would cross OpenBLAS's threading
        # threshold
        return (ops @ x[:, None] @ ops.conj().swapaxes(-1, -2)).sum(1)
    dim_in = x.shape[-1]
    dim_out = ops.shape[-1] // dim_in
    c5 = ops.reshape(len(ops), dim_in, dim_out, dim_in, dim_out)
    return np.einsum("kiajb,kij->kab", c5, x)


def apply_to_matrix(channel: QuantumChannel, x: np.ndarray) -> np.ndarray:
    """Linear action of the channel on an arbitrary matrix (no state validation)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (channel.dim_in, channel.dim_in):
        raise DimensionMismatchError(
            f"matrix shape {x.shape} does not match channel input dim {channel.dim_in}"
        )
    return _apply_rows(_channel_ops(channel), x[None])[0]


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
    counts = np.bincount(_gap_labels(sizes[order], 0))
    stacks = []
    for group in np.split(order, np.cumsum(counts)[:-1]):
        idx = group.reshape(-1, sizes[group[0]])
        stacks.append((idx, choi[idx[:, :, None], idx[:, None, :]]))
    return stacks


def _cptp_rows(ops, dim_in: int, dim_out: int) -> tuple:
    """CP violations, TP violations and largest diagonalised blocks (B,) of a stack of channels."""
    cp, largest = np.zeros(len(ops)), np.zeros(len(ops), dtype=int)
    if isinstance(ops, _ClassForm):
        marginal = ops.trace_marginal()
    elif ops.ndim == 4:
        # sum_m K_m† K_m is the transpose of the Choi marginal below
        marginal = (ops.conj().swapaxes(-1, -2) @ ops).sum(1)
    else:
        for b, choi in enumerate(ops):
            stacks = _choi_blocks(choi)
            min_eig = min(float(np.linalg.eigvalsh(blocks)[:, 0].min()) for _, blocks in stacks)
            cp[b], largest[b] = max(0.0, -min_eig), stacks[-1][0].shape[1]
        marginal = _partial_trace_matrix(ops, dim_in, dim_out, keep=1)
    return cp, np.abs(marginal - np.eye(dim_in)).max(axis=(-2, -1)), largest


def validate_cptp(channel: QuantumChannel) -> CptpReport:
    """Measure how far the channel is from completely positive and trace preserving.

    The smallest Choi eigenvalue is taken over the decoupled blocks, whose
    spectra together are exactly the spectrum of the Choi matrix.  A channel
    that carries Kraus operators is CP by construction and is measured on
    them alone (see "Kraus form" in the module docstring).  ``ok`` holds when
    both violations stay within ``CPTP_TOL``.
    """
    cp, tp, largest = _cptp_rows(_channel_ops(channel), channel.dim_in, channel.dim_out)
    cp_violation, tp_violation = float(cp[0]), float(tp[0])
    return CptpReport(
        cp_violation,
        tp_violation,
        ok=cp_violation <= CPTP_TOL and tp_violation <= CPTP_TOL,
        largest_block=int(largest[0]),
    )


@dataclass(frozen=True)
class CovarianceReport:
    """Covariance residual of a channel and its verdict against ``COVARIANCE_TOL``.

    ``residual`` is the max-abs entry of the Choi commutator [K, C], except
    when a channel that carries Kraus operators is accepted by the
    certificate: then it is the certificate's bound, an upper bound on that
    entry (see "Class form" in the module docstring).
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


def _choi_covariance_residual(choi: np.ndarray, h_in: np.ndarray, h_out: np.ndarray) -> float:
    """Max-abs entry of [K, C] for a Choi matrix C; see :func:`is_covariant`."""
    kc = _kron_rows(None, h_out, choi)
    kc -= _kron_rows(h_in.T, None, choi)
    return _hermitian_deviation(kc)[0]


def _covariance_rows(ops, h_in: np.ndarray, h_out: np.ndarray) -> np.ndarray:
    """Covariance residual (B,) of each channel of a stack for Hamiltonian entries (B, d, d).

    A Kraus or class-form row whose certificate exceeds ``COVARIANCE_TOL``,
    and every Choi row, is measured on its Choi matrix.
    """
    if isinstance(ops, _ClassForm):
        residual = ops.covariance_bound(h_in, h_out)
    elif ops.ndim == 4:
        residual = _kraus_covariance_bound(ops, h_in, h_out)
    else:
        return np.array([_choi_covariance_residual(*row) for row in zip(ops, h_in, h_out)])
    failed = np.flatnonzero(~(residual <= COVARIANCE_TOL))
    if len(failed):
        dense = ops.kraus() if isinstance(ops, _ClassForm) else ops
        for b in failed:
            residual[b] = _choi_covariance_residual(_kraus_choi(dense[b]), h_in[b], h_out[b])
    return residual


def is_covariant(channel: QuantumChannel, h_in: Hamiltonian, h_out: Hamiltonian) -> CovarianceReport:
    """Measure the Choi-form covariance condition [K, C] = 0, K = 1 (x) H_out - H_in^T (x) 1.

    The residual is the max-abs entry of that commutator, which is the
    largest max-abs entry of G(i[H_in, E_ij]) - i[H_out, G(E_ij)] over all
    matrix units E_ij; the channel is reported covariant when it stays within
    ``COVARIANCE_TOL``.  With K and C Hermitian, C K = (K C)†, so one product suffices.
    A channel that carries Kraus operators, or a class form, is first offered
    the certificate of :func:`qclock.classform._kraus_covariance_bound`; when
    that accepts, its bound is the reported residual and no Choi matrix is
    formed.
    """
    _check_hamiltonian_dims(channel, h_in, h_out)
    hs = (h_in.entries[None], h_out.entries[None])
    residual = float(_covariance_rows(_channel_ops(channel), *hs)[0])
    return CovarianceReport(residual=residual, is_covariant=residual <= COVARIANCE_TOL)


def _frequency_classes(nu: np.ndarray, freq_tol: float) -> np.ndarray:
    """Cluster values into classes whose consecutive gaps stay within freq_tol.

    Grouping (rather than pairwise comparison) keeps the class relation
    transitive, so zeroing cross-class Choi entries is a pinching and exactly
    preserves positivity.
    """
    order = np.argsort(nu, kind="stable")
    classes = np.empty(nu.size, dtype=int)
    classes[order] = _gap_labels(nu[order], freq_tol)
    return classes


def _twirl_classes(e_in: np.ndarray, e_out: np.ndarray) -> np.ndarray:
    """Frequency class of each eigenbasis Choi index i*dout + a: that of e_out[a] - e_in[i].

    Gaps are judged against ``FREQ_TOL`` times the largest |eigenvalue|, the
    scale of the rounding in e_out[a] - e_in[i].
    """
    nu = (e_out[None, :] - e_in[:, None]).reshape(-1)
    return _frequency_classes(nu, FREQ_TOL * max(np.abs(e_in).max(), np.abs(e_out).max()))


def _twirled_ops(ops, h_in: Hamiltonian, h_out: Hamiltonian):
    """The covariant twirl of each channel of a stack ``ops``, as :func:`_apply_rows` takes it.

    Kraus stacks (B, r, dout, din), and class forms through their operators,
    give a class form, and Choi matrices give Choi matrices; see "Class form"
    in the module docstring and :func:`covariant_twirl`.
    """
    u_in, u_out = h_in.eigenvectors, h_out.eigenvectors
    classes = _twirl_classes(h_in.eigenvalues, h_out.eigenvalues)
    if isinstance(ops, _ClassForm):
        ops = ops.kraus()
    if ops.ndim == 4:
        # entry (a, i) of U_out† K U_in has frequency nu[i*dout + a]
        labels = classes.reshape(h_in.dim, h_out.dim).T
        return _ClassForm(u_out.conj().T @ ops @ u_in, labels, u_in, u_out)
    mask = classes[:, None] == classes[None, :]
    twirls = []
    for choi in ops:
        # W = conj(U_in) (x) U_out; c_eig = W† C W and the twirl is W (c_eig * mask) W†
        c_eig = _kron_sandwich(u_in.T, u_out.conj().T, choi)
        twirls.append(_hermitize(_kron_sandwich(u_in.conj(), u_out, c_eig * mask), "choi matrix"))
    return np.stack(twirls)


def covariant_twirl(channel: QuantumChannel, h_in: Hamiltonian, h_out: Hamiltonian) -> QuantumChannel:
    """Project the channel onto the covariant ones for (h_in, h_out).

    In the product basis of the Hamiltonian eigenvectors every Choi entry
    pairs the Bohr frequencies E_out_a - E_in_i and E_out_b - E_in_j; entries
    whose frequencies fall in different classes are zeroed.  Classes split at
    gaps above ``FREQ_TOL`` times the largest |eigenvalue| of the two
    Hamiltonians, the scale of the rounding in each frequency, so for ladder
    spectra the twirl is the same at every energy scale.  The input factor
    uses the conjugated eigenbasis because the channel acts on the input index
    through a transpose.  A channel that carries Kraus operators is twirled in
    that form, and the result keeps its class form (see "Class form" in the
    module docstring).
    """
    _check_hamiltonian_dims(channel, h_in, h_out)
    twirled = _twirled_ops(_channel_ops(channel), h_in, h_out)
    return _ops_channel(channel.dim_in, channel.dim_out, twirled)


def identity_channel(dim: int) -> QuantumChannel:
    """Identity channel on ``dim`` levels; it carries no Kraus factor, only its Choi matrix."""
    vec = np.eye(dim, dtype=complex).T.reshape(-1)
    return QuantumChannel(dim, dim, np.outer(vec, vec.conj()))


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
    return _ops_channel(dim_in, dim_out, stack[None])


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


def _partial_trace_matrix(x: np.ndarray, d1: int, d2: int, keep: int) -> np.ndarray:
    """Factor ``keep`` of each bipartite matrix of a stack (..., d1*d2, d1*d2)."""
    x4 = x.reshape(*x.shape[:-2], d1, d2, d1, d2)
    if keep == 1:
        return np.einsum("...ikjk->...ij", x4)
    if keep == 2:
        return np.einsum("...kikj->...ij", x4)
    raise DomainError(f"keep must be 1 or 2, got {keep!r}")


def partial_trace(rho: DensityMatrix, dims, keep: int) -> DensityMatrix:
    """Reduce a bipartite state to the factor ``keep`` (1 or 2) of dims = [d1, d2]."""
    d1, d2 = int(dims[0]), int(dims[1])
    if d1 * d2 != rho.dim:
        raise DimensionMismatchError(f"dims {d1}x{d2} do not factor state dim {rho.dim}")
    return DensityMatrix(_partial_trace_matrix(rho.entries, d1, d2, keep))
