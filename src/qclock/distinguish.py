"""Disturbance-free distinguishability of clock states.

Two states can be distinguished by a measurement that changes neither of them
exactly when, splitting the Hilbert space into the finest subspaces invariant
under both states, some subspace carries different trace weight under the two
states.  The witness observable is the projector onto such a subspace: it
commutes with both states and has distinct expectation values.

The subspaces come from the joint commutant, the Hermitian X with
[X, rho1] = [X, rho2] = 0.  Such an X is block-diagonal in the eigenbasis of
either state, over that state's eigenvalue groups, so the commutant is solved
in one state's eigenbasis with only the sum of m_k^2 in-block unknowns (m_k
the group sizes; d for a generic state).  The state whose grouping gives
fewer unknowns is used, so a maximally mixed partner adds none.  Groups are
split only at gaps wide enough for eigh to resolve the blocks well below the
null-space cutoff (:func:`_eigenbasis_blocks`); closer eigenvalues share a
group, which only adds unknowns.  With
``scale = hypot(spread(rho1), spread(rho2))``, spread being the largest minus
the smallest eigenvalue, the null space of the commutator map keeps singular
values up to ``NULLSPACE_RTOL * scale``.  ``scale`` bounds the largest
singular value of the stacked map X -> ([X, rho1], [X, rho2]) from above and
is within a factor sqrt(2) of it.  A state with a flat spectrum (spread at
most ``FLAT_RTOL``, an absolute bound since a density matrix's eigenvalues
lie in [0, 1] up to its PSD and trace tolerances) commutes with every
Hermitian matrix, so it is left out of the map and of ``scale``: its rounding
noise, rotated into the other state's eigenbasis, would otherwise lie above a
cutoff set by a small spread of the other state.  When both spectra are flat
the whole Hermitian space is returned, without a solve.

The solve uses half of the commutator map.  [X, rho] is anti-Hermitian for
Hermitian X and rho, so the real rows of its upper triangle, diagonal
included, with the off-diagonal rows weighted by sqrt(2), have the same Gram
matrix as the real rows of all its entries: the same singular values and
null space from n + d^2 + d rows instead of n + 2 d^2 (n unknowns).  The
null space fixes the commutant, but the orthonormal basis LAPACK returns for
it is one rotation among many, so a seeded draw from it (and with it the
order of the subspaces) can change with the last bits of the map.  The basis
stays in that eigenbasis, the solved frame V: a draw is made there, and only
its eigenvectors y are rotated back, as V y.

One seeded element is drawn, and its eigenvalues are grouped by one rule:
a new group starts at every step wider than ``DRAW_GAP_MARGIN`` times eigh's
rounding, d * eps * max|w|.  The margin leaves room for the commutant basis's
own error, ~1e3 times that rounding near the null-space cutoff.  The draw is
certified in one batched pass: the projectors onto all subspaces come from
one mask of the group labels, the invariance residual of every subspace from
the products rho P and P rho P, and the block weights are the traces of those
same rho P.  A residual above ``INVARIANCE_TOL`` raises.

For a continuously evolving clock the relevant subspaces are the spectral
blocks of the Hamiltonian, and the block weights are conserved in time; that
conservation is what forbids reading a clock without disturbing it, and
:func:`conserved_block_traces` checks it numerically.

Tolerances
----------
Two constants decide the verdicts: ``DISTINGUISH_TOL`` is the block-weight
gap above which two states count as distinguishable, and also the level gap
and weight drift of :func:`conserved_block_traces`; ``COMMUTE_TOL`` bounds the
commutator entries of a broadcastable family.  No function takes a tolerance,
so states get the same verdict from every caller; the reports carry the raw
block traces and deviation, and :func:`max_commutator` the raw commutator,
for anyone who needs another threshold.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, NumericalDegeneracyError
from .states import ClockSystem, DensityMatrix, _evolve_rows, _gap_labels

INVARIANCE_TOL = 1e-9
NULLSPACE_RTOL = 1e-10
FLAT_RTOL = 1e-12
EIGENBASIS_MARGIN = 20.0
DRAW_GAP_MARGIN = 1e4
DISTINGUISH_TOL = 1e-9
COMMUTE_TOL = 1e-10


def _is_flat(w: np.ndarray) -> bool:
    """True when a density matrix's ascending spectrum is constant up to float noise."""
    return float(w[-1] - w[0]) <= FLAT_RTOL


def _eigh_noise(w: np.ndarray) -> float:
    """d * eps * max|w|, the scale of eigh's rounding in the ascending eigenvalues w."""
    return w.size * np.finfo(float).eps * float(np.abs(w).max())


def _block_hermitian_basis(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal Hermitian matrix units (n, d, d) supported inside the diagonal blocks.

    ``labels`` gives the block of each of the d indices, as from
    :func:`_gap_labels`; n is the sum of the squared block sizes.  Equal labels
    throughout give a basis of all Hermitian d x d matrices.  Also returns the
    index pair (k, l) each unit is supported on, k == l for the diagonal units.
    """
    dim = labels.size
    diag = np.arange(dim)
    k, l = np.nonzero((labels[:, None] == labels) & (diag[:, None] < diag))
    n_off = k.size
    units = np.zeros((dim + 2 * n_off, dim, dim), dtype=complex)
    units[diag, diag, diag] = 1.0
    sym = dim + np.arange(n_off)
    units[sym, k, l] = units[sym, l, k] = 1.0 / np.sqrt(2.0)
    asym = sym + n_off
    units[asym, k, l] = -1j / np.sqrt(2.0)
    units[asym, l, k] = 1j / np.sqrt(2.0)
    return units, np.concatenate([diag, k, k]), np.concatenate([diag, l, l])


def _eigenbasis_blocks(w: np.ndarray) -> np.ndarray:
    """Group labels of a state's ascending eigenvalues inside which the commutant is solved.

    eigh resolves the eigenvectors of groups a gap g apart only to about
    d * eps * |rho| / g.  A commutant element leaks that far out of the kept
    blocks, which costs up to twice that times the partner's spread in the
    stacked map; groups closer than EIGENBASIS_MARGIN times the gap at which
    this reaches the null-space cutoff are merged.  Merging more only adds
    unknowns.
    """
    return _gap_labels(w, EIGENBASIS_MARGIN * _eigh_noise(w) / NULLSPACE_RTOL)


def _commutant_basis(rho1: DensityMatrix, rho2: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Frame v and basis (k, d, d) of the Hermitian v† X v with [X, rho1] = [X, rho2] = 0.

    Solved in the eigenbasis v of the state with the fewer in-block unknowns as
    the null space of the stacked real-linear maps X -> [X, rho] restricted to
    that state's eigenvalue blocks; the module docstring gives the cutoffs.
    """
    # a flat state commutes with every X: it constrains nothing, and its
    # rounding noise could sit above a cutoff set by the other state's spread
    live = [rho for rho in (rho1, rho2) if not _is_flat(rho.eigenvalues)]
    if not live:
        return np.eye(rho1.dim), _block_hermitian_basis(np.zeros(rho1.dim, dtype=np.intp))[0]
    scale = float(np.hypot.reduce([rho.eigenvalues[-1] - rho.eigenvalues[0] for rho in live]))
    groupings = [_eigenbasis_blocks(rho.eigenvalues) for rho in live]
    unknowns = [int((np.bincount(labels) ** 2).sum()) for labels in groupings]
    side = int(np.argmin(unknowns))  # ties go to rho1
    w, v = live[side].eigenvalues, live[side].eigenvectors
    units, k, l = _block_hermitian_basis(groupings[side])
    # X -> [X, diag(w)] maps the units to mutually orthogonal matrices of norm
    # |w_k - w_l|: an n x n diagonal has the same Gram matrix as their real rows
    rows = [np.diag(np.abs(w[k] - w[l]))]
    # with rho made exactly Hermitian, [X, rho] = X rho - (X rho)^dagger is
    # anti-Hermitian, so its upper triangle, diagonal included, holds all of it;
    # weighting the off-diagonal entries by sqrt(2) keeps the Gram matrix
    index = np.arange(rho1.dim)
    iu, ju = np.nonzero(index[:, None] <= index)
    weight = np.where(iu == ju, 1.0, np.sqrt(2.0))
    for rho in live[:side] + live[side + 1:]:
        other = v.conj().T @ rho.entries @ v
        other = (other + other.conj().T) / 2
        # one d x d product per unit: stacked as one (n d) x d product it is
        # large enough at d = 16 for OpenBLAS to hand it to its worker threads,
        # whose wake-up costs more than the product and stalls whenever the
        # other core is busy; the entries are the same either way
        product = units @ other
        cross = (product[:, iu, ju] - product[:, ju, iu].conj()) * weight
        rows += [cross.real.T, cross.imag.T]
    stacked = np.concatenate(rows)  # (n + d^2 + d) x n, or n x n with one state left
    # the right singular vectors of stacked are those of its QR factor R; going
    # through R skips forming the tall left factor (LAPACK's gesdd does the
    # same QR internally, so for the tall map the result is the same)
    _, s, vt = np.linalg.svd(np.linalg.qr(stacked, mode="r"))
    null_rows = vt[s <= NULLSPACE_RTOL * scale]
    return v, (null_rows @ units.reshape(len(units), -1)).reshape(-1, *v.shape)


@dataclass(frozen=True)
class DecompositionReport:
    """Finest common invariant subspaces with the block weights of both states.

    ``commutant_dim`` is the real dimension of the joint commutant the
    subspaces were drawn from, and ``invariance_residual`` the largest
    max-abs entry of (1 - P) rho P over the subspaces and both states, which
    certified the decomposition against ``INVARIANCE_TOL``.
    """

    subspaces: list[np.ndarray]
    traces_a: np.ndarray
    traces_b: np.ndarray
    distinguishable: bool
    witness_index: int | None
    commutant_dim: int
    invariance_residual: float

    def witness_projector(self) -> np.ndarray | None:
        """Hermitian projector onto the witness subspace, or None when not distinguishable."""
        if self.witness_index is None:
            return None
        basis_cols = self.subspaces[self.witness_index]
        proj = basis_cols @ basis_cols.conj().T
        return (proj + proj.conj().T) / 2


def common_invariant_decomposition(rho1: DensityMatrix, rho2: DensityMatrix, seed=0) -> DecompositionReport:
    """Decompose the space into the finest subspaces invariant under both states.

    One seeded random Hermitian element of the joint commutant is drawn, and
    its eigenspaces give the subspaces.  The commutant is solved, and the draw
    made, in the eigenbasis of one state, over the sum of m_k^2 unknowns inside
    its eigenvalue groups, with the cutoff
    ``NULLSPACE_RTOL * hypot(spread(rho1), spread(rho2))``.  A state
    proportional to the identity constrains nothing and is left out of that
    solve; when both are, every Hermitian matrix is in the commutant (see the
    module docstring).  The draw's eigenvalues share a subspace unless a step
    between them is wider than ``DRAW_GAP_MARGIN`` times eigh's noise, so two
    blocks whose random eigenvalues nearly coincide still come out apart.  The
    decomposition is certified by the invariance of every subspace under both
    states, within ``INVARIANCE_TOL``.  A draw that fails raises
    :class:`NumericalDegeneracyError`, whose detail holds the draw's invariance
    residual (``best_residual``) and ``commutant_dim``.
    """
    if rho1.dim != rho2.dim:
        raise DimensionMismatchError(f"state dims differ: {rho1.dim} vs {rho2.dim}")
    a, b = rho1.entries, rho2.entries
    frame, commutant = _commutant_basis(rho1, rho2)
    flat_basis = commutant.reshape(len(commutant), -1)
    x = (np.random.default_rng(seed).standard_normal(len(flat_basis)) @ flat_basis).reshape(a.shape)
    w, y = np.linalg.eigh(x)
    v = frame @ y  # the draw's eigenvectors, rotated out of the solved frame
    labels = _gap_labels(w, DRAW_GAP_MARGIN * _eigh_noise(w))
    masks = labels == np.arange(labels[-1] + 1)[:, None]
    projectors = (v * masks[:, None, :]) @ v.conj().T  # one (d, d) projector per group
    # (1 - P) rho P = rho P - P rho P, and tr(rho P) is the subspace's weight
    residual, traces = 0.0, []
    for rho in (a, b):
        rho_p = rho @ projectors
        residual = max(residual, float(np.abs(rho_p - projectors @ rho_p).max()))
        traces.append(rho_p.trace(axis1=1, axis2=2).real)
    if residual > INVARIANCE_TOL:
        raise NumericalDegeneracyError(
            "could not certify an invariant decomposition",
            detail={"best_residual": residual, "commutant_dim": len(commutant)},
        )
    bounds = np.cumsum(np.bincount(labels))[:-1]
    subspaces = [np.ascontiguousarray(s) for s in np.split(v, bounds, axis=1)]
    traces_a, traces_b = traces
    gaps = np.abs(traces_a - traces_b)
    distinguishable = bool(gaps.max() > DISTINGUISH_TOL)
    witness = int(np.argmax(gaps)) if distinguishable else None
    return DecompositionReport(
        subspaces=subspaces,
        traces_a=traces_a,
        traces_b=traces_b,
        distinguishable=distinguishable,
        witness_index=witness,
        commutant_dim=len(commutant),
        invariance_residual=residual,
    )


def nondisturbing_distinguishable(rho1: DensityMatrix, rho2: DensityMatrix, seed=0):
    """Decide the criterion and, when it holds, return the witness projector.

    The projector commutes with both states (so measuring it disturbs
    neither) yet has expectation values differing by more than
    ``DISTINGUISH_TOL``.
    """
    report = common_invariant_decomposition(rho1, rho2, seed=seed)
    return report.distinguishable, report.witness_projector()


@dataclass(frozen=True)
class BlockTraceReport:
    """Spectral-block weights of the evolving state at each sampled time."""

    block_traces: np.ndarray  # (n_times, n_blocks)
    max_deviation: float
    conserved: bool


def conserved_block_traces(clock: ClockSystem, times) -> BlockTraceReport:
    """Verify that spectral-block weights of the state are constant along the orbit.

    Blocks are eigenvalue groups of the Hamiltonian (grouped within
    ``DISTINGUISH_TOL``); the deviation is the largest spread of any block
    weight over the supplied times, and the weights count as conserved when it
    is at most ``DISTINGUISH_TOL``.
    Constancy of these weights is exactly why continuous readout of a clock
    is impossible without disturbance.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise DomainError("need at least one time")
    w = clock.hamiltonian.eigenvalues
    v = clock.hamiltonian.eigenvectors
    labels = _gap_labels(w, DISTINGUISH_TOL)
    groups = np.split(np.arange(w.size), np.cumsum(np.bincount(labels))[:-1])
    rho_t = _evolve_rows(clock, times)  # every evolved state at once
    block_traces = np.stack(
        [np.trace(v[:, g].conj().T @ rho_t @ v[:, g], axis1=-2, axis2=-1).real for g in groups],
        axis=1,
    )
    max_dev = float((block_traces.max(axis=0) - block_traces.min(axis=0)).max())
    return BlockTraceReport(
        block_traces=block_traces, max_deviation=max_dev, conserved=max_dev <= DISTINGUISH_TOL
    )


def max_commutator(states) -> float:
    """Largest max-abs entry of [a, b] = a b - b a over all pairs of the states."""
    mats = [s.entries for s in states]
    if len(mats) < 2:
        raise DomainError("need at least two states")
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise DimensionMismatchError(f"states live on different dimensions: {sorted(dims)}")
    return max(float(np.abs(a @ b - b @ a).max()) for a, b in itertools.combinations(mats, 2))


def pairwise_commuting(states) -> bool:
    """True iff all pairs of states commute within ``COMMUTE_TOL``; the broadcastability criterion."""
    return max_commutator(states) <= COMMUTE_TOL


def orthogonal_times(n: int, quantum: float) -> np.ndarray:
    """Times at which the n-level equal-superposition clock visits mutually orthogonal states.

    For the ladder spectrum with spacing E the family is t_k = 2 pi k / (n E),
    k = 0..n-1: the pairwise overlaps are geometric sums of n-th roots of
    unity and vanish identically.  (Note the spacing scales as 1/E: higher
    energy pushes the distinguishable states closer together.)
    """
    if n < 2:
        raise DomainError(f"need at least two levels, got {n}")
    if not (quantum > 0):
        raise DomainError(f"energy quantum must be positive, got {quantum!r}")
    return 2.0 * np.pi * np.arange(n) / (n * quantum)
